"""Dense active-set solver for convex quadratic programs.

    minimize 1/2 x'Px + q.x + c   subject to  Gx <= h,  Ax = b

P is symmetric positive semidefinite.  Subproblems on the working set are
solved through a null-space factorisation with least squares, so redundant
rows and singular reduced Hessians are tolerated.  Phase 1 starts from the
equality rows: x0 = lstsq(A, b) (inconsistent rows mean infeasible), and
the inequality rows are then met by an LP feasibility solve in the
coordinates of null(A), on G Z and h - G x0.  When A has full column rank
x0 is the only candidate and phase 1 is the test G x0 <= h, with no LP.  A
simplex that fails to terminate ends the solve with status ``maxiter`` and
no point.  Unboundedness is certified by the active-set loop's descent
ray: when the reduced Hessian on the current face is singular along the
gradient, the loop follows a direction d with Pd = 0 and q.d < 0 inside the
face (so Ad = 0 and the working rows stay tight), and reports the ray when
no inactive constraint blocks it (Gd <= 0).  The ratio test runs along
the step scaled to unit max-norm, so its tie tolerance is relative to the
step.  A point that violates a row by more than 1e-8 times the data scale
is never reported optimal: the solve ends with status ``maxiter`` and no
point.  Deterministic lowest-index tie-breaking throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .simplex import solve_lp

__all__ = ["QPResult", "solve_qp", "project_onto_polyhedron"]


@dataclass
class QPResult:
    status: str  # optimal | unbounded | infeasible | maxiter
    x: np.ndarray | None
    value: float
    ineq_multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    eq_multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ray: np.ndarray | None = None
    iterations: int = 0


def _null_space(M: np.ndarray, rcond: float = 1e-10) -> np.ndarray:
    if M.shape[0] == 0:
        return np.eye(M.shape[1])
    u, s, vt = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(s > rcond * max(M.shape) * (s[0] if s.size else 1.0)))
    return vt[rank:].T


def solve_qp(P, q, c=0.0, G=None, h=None, A=None, b=None,
             max_iter: int | None = None) -> QPResult:
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

    # unconstrained: a single least-squares solve
    if m == 0 and A.shape[0] == 0:
        x, *_ = np.linalg.lstsq(P, -q, rcond=None)
        r = P @ x + q
        if np.max(np.abs(r), initial=0.0) > 1e-8 * max(1.0, np.max(np.abs(q), initial=0.0)):
            return QPResult("unbounded", None, -np.inf, ray=-r)
        return QPResult("optimal", x, objective(x))

    # phase 1: the equality rows by least squares, then the inequality rows
    # over x + null(A)
    x = np.zeros(n)
    if A.shape[0]:
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        if np.max(np.abs(A @ x - b)) > 1e-8 * max(1.0, np.max(np.abs(b), initial=0.0)):
            return QPResult("infeasible", None, np.inf)
    if m:
        Z = _null_space(A) if A.shape[0] else None  # None: no equality rows
        GZ = G if Z is None else G @ Z
        if GZ.shape[1]:
            try:
                feas = solve_lp(np.zeros(GZ.shape[1]), GZ, h - G @ x)
            except RuntimeError:  # the simplex did not terminate
                return QPResult("maxiter", None, np.nan)
            if feas.status == "infeasible":
                return QPResult("infeasible", None, np.inf)
            x = x + (feas.x if Z is None else Z @ feas.x)
        elif np.max(G @ x - h) > 1e-8 * max(1.0, np.max(np.abs(h))):
            return QPResult("infeasible", None, np.inf)

    working = [i for i in range(m) if G[i] @ x - h[i] > -1e-8]
    scale = max(1.0, np.max(np.abs(q), initial=0.0), np.max(np.abs(h), initial=0.0))

    for it in range(1, max_iter + 1):
        Gw = G[working] if working else np.zeros((0, n))
        C = np.vstack([A, Gw])
        Z = _null_space(C)
        grad = P @ x + q
        d = np.zeros(n)
        descending_ray = False
        if Z.shape[1]:
            H = Z.T @ P @ Z
            g = Z.T @ grad
            xi, *_ = np.linalg.lstsq(H, -g, rcond=None)
            resid = H @ xi + g
            if np.max(np.abs(resid), initial=0.0) > 1e-8 * max(1.0, np.max(np.abs(g), initial=0.0)):
                # unbounded within the current face: ride the ray to a blocker
                d = -Z @ resid
                descending_ray = True
            else:
                d = Z @ xi
        step_norm = np.max(np.abs(d), initial=0.0)
        if not descending_ray and step_norm <= 1e-10 * (1.0 + np.max(np.abs(x), initial=0.0)):
            # stationary on the face; examine multipliers
            if C.shape[0]:
                lam, *_ = np.linalg.lstsq(C.T, -grad, rcond=None)
            else:
                lam = np.zeros(0)
            lam_eq = lam[:A.shape[0]]
            lam_w = lam[A.shape[0]:]
            neg = [k for k, v in enumerate(lam_w) if v < -1e-8 * scale]
            if not neg:
                # never report a point that violates the rows
                viol = max(np.max(G @ x - h, initial=0.0), np.max(np.abs(A @ x - b), initial=0.0))
                if viol > 1e-8 * max(scale, np.max(np.abs(b), initial=0.0)):
                    return QPResult("maxiter", None, np.nan, iterations=it)
                mult = np.zeros(m)
                for k, i in enumerate(working):
                    mult[i] = max(lam_w[k], 0.0)
                return QPResult("optimal", x, objective(x), mult, lam_eq,
                                iterations=it)
            # Bland-style drop: lowest constraint index among the negatives
            drop = min(working[k] for k in neg)
            working.remove(drop)
            continue
        # ratio test against inactive constraints along d scaled to unit
        # max-norm, so that the tie tolerance is relative to the step; the
        # step is capped at the full one (none on a ray)
        size = np.max(np.abs(d))
        d = d / size
        alpha = np.inf if descending_ray else size
        blocker = -1
        for i in range(m):
            if i in working:
                continue
            gd = G[i] @ d
            if gd > 1e-12:
                bound = (h[i] - G[i] @ x) / gd
                if bound < alpha - 1e-12:
                    alpha = max(bound, 0.0)
                    blocker = i
        if descending_ray and blocker < 0:
            return QPResult("unbounded", x, -np.inf, ray=d, iterations=it)
        x = x + alpha * d
        if blocker >= 0:
            working.append(blocker)
            working.sort()
    return QPResult("maxiter", x, objective(x), iterations=max_iter)


def project_onto_polyhedron(x0, G=None, h=None, A=None, b=None) -> np.ndarray:
    """Euclidean projection onto {Gx <= h, Ax = b}; raises if empty."""
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    res = solve_qp(np.eye(n), -x0, 0.5 * float(x0 @ x0), G, h, A, b)
    if res.status != "optimal":
        raise ValueError(f"projection failed: {res.status}")
    return res.x
