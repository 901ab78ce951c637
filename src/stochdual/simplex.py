"""Linear programs, solved by the active-set engine of ``qp``.

On an LP (P = 0) a primal active-set method is a simplex method (Gill,
Murray and Wright, *Practical Optimization*, 1981, section 5.3), so
``solve_lp`` is ``qp.solve_qp`` with P = 0 and its statuses carried over
one to one; ``max-iter`` raises ``PivotLimitError``.  It serves the small
LPs of ``convex`` (support functions, polyhedron feasibility) and
``duality``.  The module keeps its name because the per-layer benchmark
traces ``simplex`` as a layer of its own.

``qp.solve_qp`` is looked up at call time, so an iteration cap patched on
it reaches every LP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qp

__all__ = ["LPResult", "PivotLimitError", "solve_lp"]


class PivotLimitError(RuntimeError):
    """The active-set solve of an LP stopped at its iteration cap."""


@dataclass
class LPResult:
    status: str  # optimal | unbounded | infeasible
    x: np.ndarray | None
    value: float
    ray: np.ndarray | None = None  # improving feasible direction when unbounded


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LPResult:
    """Minimize c.x subject to a_ub x <= b_ub and a_eq x = b_eq, x free.

    Raises PivotLimitError when the solve stops at its iteration cap.
    """
    c = np.asarray(c, dtype=float).ravel()
    res = qp.solve_qp(np.zeros((c.size, c.size)), c, 0.0, a_ub, b_ub, a_eq, b_eq)
    if res.status == "max-iter":
        raise PivotLimitError("the active-set solve did not terminate")
    return LPResult(res.status, res.x, res.value, res.ray)
