"""Dense two-phase simplex with Bland's rule.

Desk-scale LP engine.  It serves the small LPs of ``convex`` (support
functions, polyhedron feasibility) and ``duality``, and the QP's phase 1
on the inequality rows that no epigraph column lifts, in the null space of
the equality rows (the rows a lift column meets need no LP; see ``qp``).
Determinism matters more than speed here: entering and leaving variables
are chosen by lowest index, pivots below 1e-9 are treated as zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LPResult", "PivotLimitError", "solve_lp"]

PIVOT_TOL = 1e-9
MAX_PIVOTS = 20000


class PivotLimitError(RuntimeError):
    """The simplex did not terminate within MAX_PIVOTS pivots."""


@dataclass
class LPResult:
    status: str  # optimal | unbounded | infeasible
    x: np.ndarray | None
    value: float
    ray: np.ndarray | None = None  # improving feasible direction when unbounded


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int):
    T[row] /= T[row, col]
    piv = T[:, col].copy()
    piv[row] = 0.0
    T -= np.outer(piv, T[row])
    basis[row] = col


def _bland_iterate(T, basis, cost, allowed) -> tuple[str, int]:
    """Run Bland pivots until optimal or unbounded.  Returns (status, col)."""
    m = T.shape[0]
    for _ in range(MAX_PIVOTS):
        cb = cost[basis]
        reduced = cost - cb @ T[:, :-1]
        reduced[basis] = 0.0
        entering = -1
        for j in np.flatnonzero(allowed):
            if reduced[j] < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal", -1
        col = T[:, entering]
        ratios = np.full(m, np.inf)
        pos = col > PIVOT_TOL
        ratios[pos] = T[pos, -1] / col[pos]
        if not pos.any():
            return "unbounded", entering
        best = ratios.min()
        # Bland: among minimal ratios pick the row with the smallest basic index
        cand = np.flatnonzero(ratios <= best + PIVOT_TOL * max(1.0, abs(best)))
        row = cand[np.argmin(basis[cand])]
        _pivot(T, basis, row, entering)
    raise PivotLimitError("simplex failed to terminate")


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LPResult:
    """Minimize c.x subject to a_ub x <= b_ub and a_eq x = b_eq, x free.

    Free variables are split internally; the returned solution and ray are
    in the original variable space.  Raises PivotLimitError when a phase
    does not terminate within MAX_PIVOTS pivots.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq

    if m == 0:
        # unconstrained: optimal only if c == 0
        if np.max(np.abs(c), initial=0.0) <= PIVOT_TOL:
            return LPResult("optimal", np.zeros(n), 0.0)
        return LPResult("unbounded", np.zeros(n), -np.inf, ray=-c)

    # standard form columns: x+ (n), x- (n), slack (m_ub), artificial (m)
    n_std = 2 * n + m_ub
    A = np.zeros((m, n_std + m))
    rhs = np.concatenate([b_ub, b_eq])
    A[:m_ub, :n] = a_ub
    A[:m_ub, n:2 * n] = -a_ub
    A[m_ub:, :n] = a_eq
    A[m_ub:, n:2 * n] = -a_eq
    A[:m_ub, 2 * n:2 * n + m_ub] = np.eye(m_ub)
    neg = rhs < 0
    A[neg] *= -1.0
    rhs = np.abs(rhs)
    A[:, n_std:] = np.eye(m)

    T = np.hstack([A, rhs.reshape(-1, 1)])
    basis = np.arange(n_std, n_std + m)

    # phase 1: minimize sum of artificials
    cost1 = np.zeros(n_std + m)
    cost1[n_std:] = 1.0
    allowed = np.ones(n_std + m, dtype=bool)
    status, _ = _bland_iterate(T, basis, cost1, allowed)
    if status != "optimal":  # phase-1 objective is bounded below by 0
        raise RuntimeError("phase-1 simplex reported unbounded")
    if float(cost1[basis] @ T[:, -1]) > 1e-7:
        return LPResult("infeasible", None, np.inf)

    # drive remaining artificials out of the basis, dropping redundant rows
    keep = np.ones(T.shape[0], dtype=bool)
    for i in range(T.shape[0]):
        if basis[i] >= n_std:
            pivots = np.flatnonzero(np.abs(T[i, :n_std]) > PIVOT_TOL)
            if pivots.size:
                _pivot(T, basis, i, int(pivots[0]))
            else:
                keep[i] = False
    if not keep.all():
        T = T[keep]
        basis = basis[keep]

    # phase 2 on original cost, artificial columns barred
    cost2 = np.zeros(n_std + m)
    cost2[:n] = c
    cost2[n:2 * n] = -c
    allowed = np.ones(n_std + m, dtype=bool)
    allowed[n_std:] = False
    status, entering = _bland_iterate(T, basis, cost2, allowed)

    def extract(col: np.ndarray) -> np.ndarray:
        return col[:n] - col[n:2 * n]

    z = np.zeros(n_std + m)
    z[basis] = T[:, -1]
    x = extract(z)
    if status == "optimal":
        return LPResult("optimal", x, float(c @ x))
    # unbounded: build the improving ray
    d = np.zeros(n_std + m)
    d[entering] = 1.0
    d[basis] = -T[:, entering]
    ray = extract(d)
    return LPResult("unbounded", x, -np.inf, ray=ray)
