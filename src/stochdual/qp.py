"""Dense active-set solver for convex quadratic programs.

    minimize 1/2 x'Px + q.x + c   subject to  Gx <= h,  Ax = b

P is symmetric positive semidefinite.

A program without rows is solved through the eigenpairs of P
(``SpectralFactor``): x = -V diag(1/w) V' q over the eigenvalues that
least squares keeps, |w| > n eps max|w| as ``np.linalg.lstsq``'s default
cutoff, which is lstsq's minimum-norm point.  A P with no nonzero entry
gives x = 0 and is not decomposed.  The residual P x + q then decides:
above 1e-8 max(1, max|q|) the program is unbounded along -(P x + q).  A
caller that solves many programs with one P passes its factor.

Phase 1 starts from the equality rows: x0 = lstsq(A, b), and inconsistent
rows mean infeasible.  A column *lifts* when it has no entry in A and its G
entries are all <= 0, at least one < 0: the epigraph variables of a
lowered piecewise-linear term are such columns.  Raising a lift column
never breaks a row, so every row holding one is met by raising each lift
column just enough for the rows it appears in.  Only the rows G_f that
hold no lift column can need more: when x0 violates one of them, the
elastic LP

    minimise t  subject to  G_f Z w - t <= h_f - G_f x0,  -t <= 0

over the null-space basis Z of A is solved by ``solve_qp`` itself, before
the lift.  Its column t lifts every one of its rows, so the nested solve
needs no phase 1 of its own.  The rows are infeasible when t* > 1e-8
max(1, max|h|); otherwise x0 + Z w* meets them.  When A has full column
rank x0 is the only candidate and phase 1 is the test G x0 <= h, with no
LP.  A nested solve that does not end ``optimal`` ends the solve with
status ``maxiter`` and no point.

The equality rows and the working inequality rows C are kept as an updated
factorisation C' = Q [R; 0] (Gill, Golub, Murray and Saunders, Math. Comp.
28, 1974): one Householder reflection of Q's trailing columns adds a row,
Givens rotations restore R after a row is dropped, so a change of working
set costs O(n^2).  A row whose part outside the span of the factored rows
is below 1e-10 max(1, |a|) is dependent and is not added; while it is
tight the ratio test skips it, with multiplier 0, until the next drop.
The null space
of the working rows is Q's trailing columns Z, and the multipliers come
from R by back substitution.  Subproblems on the face are solved by least
squares on Z'PZ through its eigenvectors, an eigenvalue below 16 n eps
max|P| (rounding level) counting as zero, so singular reduced Hessians are
tolerated.  With P = 0 the step is the projected gradient alone and Z'PZ
is never formed.

Unboundedness is certified by the active-set loop's descent ray: when the
reduced Hessian on the current face is singular along the gradient, the
loop follows a direction d with Pd = 0 and q.d < 0 inside the face (so Ad
= 0 and the working rows stay tight), and reports the ray when no inactive
constraint blocks it (Gd <= 0).  The flatness cutoff is at rounding level
so that a small but real curvature is a bent direction, not a ray.  The
ratio test runs along the step scaled to unit max-norm, so its tie
tolerance is relative to the step.  A point that violates a row by more
than 1e-8 times the data scale is never reported optimal: the solve ends
with status ``maxiter`` and no point.
Deterministic lowest-index tie-breaking throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["QPResult", "SpectralFactor", "solve_qp", "project_onto_polyhedron"]

_EPS = np.finfo(float).eps


@dataclass
class QPResult:
    status: str  # optimal | unbounded | infeasible | maxiter
    x: np.ndarray | None
    value: float
    ineq_multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    eq_multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ray: np.ndarray | None = None
    iterations: int = 0


class _Factor:
    """C' = Q [R; 0] for the rows of C, in the order added.

    ``Qt`` holds Q' (its rows are the basis vectors, so the null space of
    the k factored rows is ``Qt[k:]``); R is the leading k x k block of
    ``R``.  Adding a row costs one matrix-vector product and one reflection
    of ``Qt[k:]``; dropping the row at position p costs k - p - 1 Givens
    rotations.
    """

    def __init__(self, n: int):
        self.Qt = np.eye(n)
        self.R = np.zeros((n, n))
        self.k = 0
        self.plain = True  # Q is still the identity

    def extend(self, rows: np.ndarray) -> np.ndarray:
        """Append ``rows`` in order, skipping the dependent ones; the mask
        of those added.  When none is dependent this is one block QR of
        their part outside the span of the factored rows, whose diagonal
        is the test ``add`` makes row by row; otherwise it is ``add`` row
        by row."""
        k, r = self.k, rows.shape[0]
        if 0 < r <= self.Qt.shape[0] - k:
            Q2, R2 = np.linalg.qr(self.Qt[k:] @ rows.T, mode="complete")
            norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
            if np.all(np.abs(np.diagonal(R2)) > 1e-10 * np.maximum(1.0, norms)):
                self.R[:k, k:k + r] = self.Qt[:k] @ rows.T
                self.R[k:k + r, k:k + r] = R2[:r]
                self.Qt = Q2.T.copy() if self.plain else np.vstack([self.Qt[:k], Q2.T @ self.Qt[k:]])
                self.k, self.plain = k + r, False
                return np.ones(r, dtype=bool)
        return np.array([self.add(a) for a in rows], dtype=bool)

    def add(self, a: np.ndarray) -> bool:
        """Append row ``a``; False, and no change, when it is dependent."""
        k = self.k
        nz = np.flatnonzero(a)  # rows of lowered programs are sparse
        w = self.Qt[:, nz] @ a[nz]
        tail = w[k:]
        sigma = float(np.sqrt(tail @ tail))
        if sigma <= 1e-10 * max(1.0, float(np.sqrt(a @ a))):
            return False
        # the reflection I - 2vv' maps tail to beta e_1
        beta = -sigma if tail[0] >= 0.0 else sigma
        v = tail.copy()
        v[0] -= beta
        v /= np.sqrt(v @ v)
        block = self.Qt[k:]
        block -= np.outer(2.0 * v, v @ block)
        self.R[:k, k] = w[:k]
        self.R[k, k] = beta
        self.k, self.plain = k + 1, False
        return True

    def drop(self, p: int) -> None:
        """Remove the row at position ``p``."""
        k, R, Qt = self.k, self.R, self.Qt
        R[:k, p:k - 1] = R[:k, p + 1:k]
        R[:k, k - 1] = 0.0
        # R is now upper Hessenberg from column p: rotate rows j, j + 1 of
        # R and of Q' to clear R[j + 1, j]
        for j in range(p, k - 1):
            a, b = float(R[j, j]), float(R[j + 1, j])
            r = math.hypot(a, b)
            rot = np.array([[a, b], [-b, a]]) / r
            R[j:j + 2, j + 1:k - 1] = rot @ R[j:j + 2, j + 1:k - 1]
            R[j, j], R[j + 1, j] = r, 0.0
            Qt[j:j + 2] = rot @ Qt[j:j + 2]
        self.k = k - 1

    def multipliers(self, rhs: np.ndarray) -> np.ndarray:
        """The least-squares solution lam of C' lam = rhs: R lam = Q_1' rhs,
        solved by back substitution in blocks of 64 rows."""
        k = self.k
        lam = self.Qt[:k] @ rhs
        for hi in range(k, 0, -64):
            lo = max(hi - 64, 0)
            lam[lo:hi] = np.linalg.solve(self.R[lo:hi, lo:hi], lam[lo:hi])
            lam[:lo] -= self.R[:lo, lo:hi] @ lam[lo:hi]
        return lam


class SpectralFactor:
    """The eigenpairs of a symmetric P that least squares keeps.

    An eigenvalue with |w| <= n eps max|w| counts as zero, as the default
    cutoff of ``np.linalg.lstsq`` does, so ``minimizer(q)`` is lstsq's
    minimum-norm solution of P x = -q.  A P without a nonzero entry keeps
    no pair and is not decomposed.  ``V`` and ``w`` are read-only, so one
    factor serves every solve with this P.
    """

    def __init__(self, P):
        P = np.asarray(P, dtype=float)
        n = P.shape[0]
        if P.any():
            w, V = np.linalg.eigh(P)
            size = np.abs(w)
            keep = size > n * _EPS * size.max()
            w, V = w[keep], V[:, keep]
        else:
            w, V = np.zeros(0), np.zeros((n, 0))
        w.flags.writeable = V.flags.writeable = False
        self.w, self.V = w, V

    def minimizer(self, q) -> np.ndarray:
        """-V diag(1/w) V' q; 0 when no pair is kept."""
        if not self.w.size:
            return np.zeros(self.V.shape[0])
        return -(self.V @ ((q @ self.V) / self.w))


def solve_qp(P, q, c=0.0, G=None, h=None, A=None, b=None,
             max_iter: int | None = None, spectral: SpectralFactor | None = None) -> QPResult:
    """Solve the program; ``spectral`` is ``SpectralFactor(P)`` when the
    caller keeps one, and is read only when there are no rows."""
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float).ravel()
    n = q.size
    h = np.zeros(0) if h is None else np.asarray(h, dtype=float).ravel()
    G = np.zeros((0, n)) if G is None else np.asarray(G, dtype=float).reshape(h.size, n)
    b = np.zeros(0) if b is None else np.asarray(b, dtype=float).ravel()
    A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float).reshape(b.size, n)
    m = G.shape[0]
    if max_iter is None:
        max_iter = 200 + 10 * (m + A.shape[0] + n)

    def objective(x):
        return 0.5 * float(x @ P @ x) + float(q @ x) + c

    # unconstrained: the least-squares point of P x = -q
    if m == 0 and A.shape[0] == 0:
        x = (SpectralFactor(P) if spectral is None else spectral).minimizer(q)
        r = P @ x + q
        if np.max(np.abs(r), initial=0.0) > 1e-8 * max(1.0, np.max(np.abs(q), initial=0.0)):
            return QPResult("unbounded", None, -np.inf, ray=-r)
        return QPResult("optimal", x, objective(x))

    # phase 1: A by least squares; the rows no column lifts by the elastic
    # LP over x + null(A), only when x violates one; then the lift
    factor = _Factor(n)
    eq_rows = np.flatnonzero(factor.extend(A))
    k_eq = factor.k
    x = np.zeros(n)
    if A.shape[0]:
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        if np.max(np.abs(A @ x - b)) > 1e-8 * max(1.0, np.max(np.abs(b), initial=0.0)):
            return QPResult("infeasible", None, np.inf)
    if m:
        # the lift columns: raising one cannot break a row
        lift = ~A.any(axis=0) & (G <= 0.0).all(axis=0) & (G < 0.0).any(axis=0)
        held = G[:, lift].any(axis=1)  # the rows a lift column meets
        free = ~held
        feas_tol = 1e-8 * max(1.0, np.max(np.abs(h)))
        if np.max(G[free] @ x - h[free], initial=0.0) > feas_tol:
            if k_eq == n:  # x is the only point of the equality rows
                return QPResult("infeasible", None, np.inf)
            # the elastic LP in (w, t); its column t lifts every row
            Z = factor.Qt[k_eq:].T
            nw = n - k_eq
            Gf = G[free] @ Z
            elastic = np.block([[Gf, -np.ones((len(Gf), 1))], [np.zeros((1, nw)), -1.0]])
            feas = solve_qp(np.zeros((nw + 1, nw + 1)), np.append(np.zeros(nw), 1.0), 0.0,
                            elastic, np.append(h[free] - G[free] @ x, 0.0))
            if feas.status != "optimal":
                return QPResult("maxiter", None, np.nan)
            if feas.x[nw] > feas_tol:
                return QPResult("infeasible", None, np.inf)
            x = x + Z @ feas.x[:nw]
        if held.any():
            short = np.maximum(G[held] @ x - h[held], 0.0)
            Gl = G[held][:, lift]
            raise_by = np.divide(short[:, None], -Gl, out=np.zeros_like(Gl), where=Gl < 0.0)
            x[lift] += raise_by.max(axis=0)

    # the working rows of G, in factor order after the k_eq rows of A; the
    # ratio test skips them and the tight rows that depend on them
    tight = np.flatnonzero(G @ x - h > -1e-8)
    working = tight[factor.extend(G[tight])].tolist()
    skip = np.zeros(m, dtype=bool)
    skip[tight] = True
    scale = max(1.0, np.max(np.abs(q), initial=0.0), np.max(np.abs(h), initial=0.0))
    curved = bool(P.any())
    flat_tol = 16 * n * np.finfo(float).eps * np.max(np.abs(P), initial=0.0)
    # the ratio test's products G v, through G's nonzeros (a lowered
    # program's row holds one leaf's or node's columns)
    nz_rows, nz_cols = np.nonzero(G)
    nz_vals = G[nz_rows, nz_cols]

    def times_G(v):
        return np.bincount(nz_rows, nz_vals * v[nz_cols], minlength=m)

    for it in range(1, max_iter + 1):
        Zt = factor.Qt[factor.k:]
        grad = P @ x + q if curved else q
        d = np.zeros(n)
        descending_ray = False
        if Zt.shape[0]:
            g = Zt @ grad
            if curved:
                # least squares on Z'PZ through its eigenvectors; a curvature
                # below flat_tol is rounding
                w, V = np.linalg.eigh(Zt @ P @ Zt.T)
                flat = w <= flat_tol
                bent = V[:, ~flat]
                xi = -(bent @ ((g @ bent) / w[~flat]))
                resid = V[:, flat] @ (g @ V[:, flat])
            else:  # Z'PZ = 0: the least-squares step is 0
                xi, resid = np.zeros_like(g), g
            if np.max(np.abs(resid), initial=0.0) > 1e-8 * max(1.0, np.max(np.abs(g), initial=0.0)):
                # unbounded within the current face: ride the ray to a blocker
                d = -(resid @ Zt)
                descending_ray = True
            else:
                d = xi @ Zt
        step_norm = np.max(np.abs(d), initial=0.0)
        if not descending_ray and step_norm <= 1e-10 * (1.0 + np.max(np.abs(x), initial=0.0)):
            # stationary on the face; examine multipliers
            lam = factor.multipliers(-grad)
            lam_eq = np.zeros(A.shape[0])
            lam_eq[eq_rows] = lam[:k_eq]
            lam_w = lam[k_eq:]
            neg = [working[j] for j in np.flatnonzero(lam_w < -1e-8 * scale)]
            if not neg:
                # never report a point that violates the rows
                viol = max(np.max(G @ x - h, initial=0.0), np.max(np.abs(A @ x - b), initial=0.0))
                if viol > 1e-8 * max(scale, np.max(np.abs(b), initial=0.0)):
                    return QPResult("maxiter", None, np.nan, iterations=it)
                mult = np.zeros(m)
                mult[working] = np.maximum(lam_w, 0.0)
                return QPResult("optimal", x, objective(x), mult, lam_eq,
                                iterations=it)
            # Bland-style drop: lowest constraint index among the negatives
            drop = min(neg)
            factor.drop(k_eq + working.index(drop))
            working.remove(drop)
            # a dependent row may not depend on the rows left
            skip[:] = False
            skip[working] = True
            continue
        # ratio test against inactive constraints along d scaled to unit
        # max-norm, so that the tie tolerance is relative to the step; the
        # step is capped at the full one (none on a ray)
        size = np.max(np.abs(d))
        d = d / size
        alpha = np.inf if descending_ray else size
        blocker = -1
        gd = times_G(d)
        cand = np.flatnonzero((gd > 1e-12) & ~skip)
        if cand.size:
            bounds = (h - times_G(x))[cand] / gd[cand]
            # the first candidate, in index order, that undercuts the
            # running step by more than the tolerance takes it over
            at = 0
            while True:
                hits = np.flatnonzero(bounds[at:] < alpha - 1e-12)
                if not hits.size:
                    break
                at += int(hits[0])
                alpha = max(float(bounds[at]), 0.0)
                blocker = int(cand[at])
                at += 1
        if descending_ray and blocker < 0:
            return QPResult("unbounded", x, -np.inf, ray=d, iterations=it)
        x = x + alpha * d
        if blocker >= 0:
            skip[blocker] = True
            if factor.add(G[blocker]):
                working.append(blocker)
    return QPResult("maxiter", x, objective(x), iterations=max_iter)


def project_onto_polyhedron(x0, G=None, h=None, A=None, b=None) -> np.ndarray:
    """Euclidean projection onto {Gx <= h, Ax = b}; raises if empty."""
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    res = solve_qp(np.eye(n), -x0, 0.5 * float(x0 @ x0), G, h, A, b)
    if res.status != "optimal":
        raise ValueError(f"projection failed: {res.status}")
    return res.x
