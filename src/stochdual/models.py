"""Builders for the four supported problem families.

Each builder validates its inputs (monotone disutilities, adapted prices,
solvency sets containing the origin, blockwise-measurable stage costs) and
returns a ready-to-solve Problem.
"""

from __future__ import annotations

import numpy as np

from .convex import ConvexFunction, Polyhedron
from .integrand import (
    AlmIntegrand,
    BolzaIntegrand,
    BolzaStage,
    ConstrainedIntegrand,
    GenericIntegrand,
    KabanovStage,
)
from .solver import Problem
from .tree import ScenarioTree, StochasticProcess

__all__ = [
    "build_generic",
    "build_constrained",
    "build_alm",
    "build_bolza",
    "build_kabanov",
]


def _require_convex(fn, what: str):
    if not isinstance(fn, ConvexFunction):
        raise TypeError(f"{what} must be a catalog convex function, got {type(fn).__name__}")


# the disutility check's sample grid: 5 points per axis on [0, _GRID_HI]
_GRID_HI = 2.0


def _validate_disutility(V: ConvexFunction, what: str):
    """V(0) = 0 and componentwise nondecreasing, sampled on the nonnegative
    orthant (the canonical quadratic disutility is not monotone on the
    negative side, so the sample grid stays where the model needs growth).
    The grid is read in d + 1 calls, the origin being its first point; a
    failure names the first grid point that fails along some axis."""
    _require_convex(V, what)
    d = V.dim
    if d == 0:  # the grid has one axis per coordinate, and none here
        raise ValueError(f"{what} has no coordinates (dimension 0)")
    axis = np.linspace(0.0, _GRID_HI, 5)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    base = V.value_many(pts)
    if abs(base[0]) > 1e-9:
        raise ValueError(f"{what} must vanish at the origin, got {base[0]:.3g}")
    fails = np.zeros(len(pts), dtype=bool)
    for i in range(d):
        up = pts.copy()
        up[:, i] += axis[1] - axis[0]
        fails |= V.value_many(up) < base - 1e-9
    if fails.any():
        raise ValueError(f"{what} must be nondecreasing (fails near {pts[np.argmax(fails)]})")


def build_generic(tree: ScenarioTree, n_dims, m_dims, functions) -> Problem:
    """Problem from explicit per-leaf joint functions of (x, u)."""
    for fn in functions:
        _require_convex(fn, "joint function")
    return Problem(tree, GenericIntegrand(tree, n_dims, m_dims, functions))


def build_constrained(tree: ScenarioTree, n_dims, objectives, constraints) -> Problem:
    """Objective f0 with soft constraints f_j(x) + u_j <= 0 per leaf."""
    objs = list(objectives)
    cons = [list(c) for c in constraints]
    for f0 in objs:
        _require_convex(f0, "objective")
    for clist in cons:
        for fj in clist:
            _require_convex(fj, "constraint function")
    return Problem(tree, ConstrainedIntegrand(tree, n_dims, objs, cons))


def build_alm(tree: ScenarioTree, disutility, price: StochasticProcess) -> Problem:
    """Hedging problem: minimize E V(u - sum_t x_t . ds_{t+1}).

    ``disutility`` is one scalar catalog function or a per-leaf list; the
    price process must be adapted with a constant per-stage dimension.
    """
    Vs = disutility if isinstance(disutility, (list, tuple)) else [disutility]
    for V in Vs:
        _validate_disutility(V, "disutility")
        if V.dim != 1:
            raise ValueError(f"the hedging disutility is scalar, not of dimension {V.dim}")
    return Problem(tree, AlmIntegrand(tree, list(Vs), price))


def build_bolza(tree: ScenarioTree, stages) -> Problem:
    """Dynamic problem from per-stage, per-block stage costs."""
    for blocks in stages:
        for st in blocks:
            if not isinstance(st, BolzaStage):
                raise TypeError("stages must hold BolzaStage costs")
    return Problem(tree, BolzaIntegrand(tree, stages))


def build_kabanov(tree: ScenarioTree, trade_sets, disutilities) -> Problem:
    """Currency-market problem over x = (holdings z, consumption k).

    ``trade_sets`` and ``disutilities`` are per-stage lists of per-block
    entries (a Polyhedron containing 0, and a d-dimensional catalog
    function with V(0) = 0, nondecreasing on the positive orthant).  The
    result is a dynamic-structure problem whose stage costs carry the
    market's solvency sets; the horizon stage pins z_T = 0.
    """
    T1 = tree.stage_count
    if len(trade_sets) != T1 or len(disutilities) != T1:
        raise ValueError("need one trade-set list and one disutility list per stage")
    stage_lists = []
    d = None
    # one stage per distinct (trade set, disutility, terminal) triple, by
    # identity: blocks that share the objects share the stage and all that
    # is derived from it
    shared = {}
    for t in range(T1):
        sets_t = list(trade_sets[t])
        dis_t = list(disutilities[t])
        n_blocks = len(tree.blocks(t))
        if len(sets_t) == 1:
            sets_t = sets_t * n_blocks
        if len(dis_t) == 1:
            dis_t = dis_t * n_blocks
        if len(sets_t) != n_blocks or len(dis_t) != n_blocks:
            raise ValueError(f"stage {t} needs one entry per information block")
        blocks = []
        for C, V in zip(sets_t, dis_t):
            key = (id(C), id(V), t == T1 - 1)
            if key not in shared:
                if not isinstance(C, Polyhedron):
                    raise TypeError("trade sets must be polyhedra")
                if d is None:
                    d = C.dim
                if C.dim != d or V.dim != d:
                    raise ValueError("currency dimension varies across blocks")
                if not C.contains(np.zeros(d)):
                    raise ValueError("every trade set must contain the origin")
                _validate_disutility(V, "stage disutility")
                shared[key] = KabanovStage(V, C, terminal=(t == T1 - 1))
            blocks.append(shared[key])
        stage_lists.append(blocks)
    return Problem(tree, BolzaIntegrand(tree, stage_lists))
