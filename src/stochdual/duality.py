"""Model-specific dual representations.

The hedging dual runs over positive multiples of martingale densities; the
dynamic dual runs over adapted processes through stage conjugates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrand import AlmIntegrand, BolzaIntegrand
from .solver import Problem, _weighted_sum
from .tree import (
    NotAdaptedError,
    StochasticProcess,
    expected_dual_increments,
    is_adapted,
    pairing,
)

__all__ = [
    "MartingaleReport",
    "check_martingale_density",
    "alm_dual_value",
    "bolza_dual_value",
]

INF = float("inf")


# ---------------------------------------------------------------------------
# martingale densities
# ---------------------------------------------------------------------------


@dataclass
class MartingaleReport:
    ok: bool
    max_residual: float
    negativity: float
    is_zero: bool
    tol: float  # what max_residual was judged against

    def __bool__(self):
        return self.ok


def _density_values(y) -> np.ndarray:
    """Scalar per-leaf values from an array or a process (last stage)."""
    if isinstance(y, StochasticProcess):
        for arr in reversed(y.values):
            if arr.shape[1] == 1:
                return arr[:, 0].copy()
            if arr.shape[1] > 1:
                raise ValueError("martingale densities are scalar")
        raise ValueError("process carries no scalar stage")
    return np.asarray(y, dtype=float).ravel()


def check_martingale_density(y, s: StochasticProcess, tol: float = 1e-8) -> MartingaleReport:
    """Is y a positive multiple of a martingale density for the price s?

    Requires y >= -tol, y not identically zero, and blockwise
    E_t(y ds_{t+1}) = 0 for every t < T.  The means are sums of the
    products y ds, so they are judged at the products' size: within tol *
    max(1, max |y ds|), the report's ``tol``.  NaN values propagate into
    the residuals, so they fail.
    """
    vals = _density_values(y)
    tree = s.tree
    if vals.size != tree.n_leaves:
        raise ValueError("density values must be leaf-indexed")
    negativity = float((-vals).max(initial=0.0))
    is_zero = float(np.abs(vals).max(initial=0.0)) <= tol
    # column block t: y ds_{t+1}, the price's stages all d wide
    d, width = s.dims[0], s.rows.shape[1]
    terms = vals[:, None] * (s.rows[:, d:] - s.rows[:, :width - d])
    # each stage-t block's mean once; np.max keeps a NaN mean, so it fails
    worst = 0.0
    for t in range(tree.horizon):
        worst = float(np.abs(tree.block_means(terms[:, t * d:(t + 1) * d], t)).max(initial=worst))
    size = float(np.abs(terms).max(initial=0.0))
    mean_tol = tol * max(1.0, size) if np.isfinite(size) else tol
    ok = (negativity <= tol) and (worst <= mean_tol) and not is_zero
    return MartingaleReport(ok, worst, negativity, is_zero, mean_tol)


def alm_dual_value(p: Problem, u: StochasticProcess, y: StochasticProcess,
                   tol: float = 1e-8) -> float:
    """E[u y - V*(y)] over the density cone; -inf off it."""
    f = p.integrand
    if not isinstance(f, AlmIntegrand):
        raise TypeError("alm_dual_value needs a hedging-model problem")
    report = check_martingale_density(y, f.price, tol)
    if not report.ok:
        return -INF
    vals = _density_values(y)
    stars = np.empty(vals.size)
    for leaves, V, _, _ in f.leaf_groups[0]:
        stars[leaves] = V.conjugate().value_many(vals[leaves, None])
    return pairing(u, y) - _weighted_sum(p.tree.probabilities, stars)


def bolza_dual_value(p: Problem, u: StochasticProcess, y: StochasticProcess) -> float:
    """E sum_t [u_t.y_t - K_t*(E_t dy_{t+1}, y_t)] for adapted u and y."""
    f = p.integrand
    if not isinstance(f, BolzaIntegrand):
        raise TypeError("bolza_dual_value needs a dynamic-structure problem")
    if not is_adapted(u) or not is_adapted(y):
        raise NotAdaptedError("the dynamic dual takes adapted processes")
    tree = p.tree
    expect_dy = expected_dual_increments(y)
    # one evaluation of each shared K_t* per stage, then the sum leaf by
    # leaf and stage by stage
    terms = f._stage_pass(lambda t, stage, leaves: stage.conjugate_value_many(
        expect_dy[t][leaves], y.stage(t)[leaves]))
    if np.any(terms == INF):
        return -INF
    total = pairing(u, y)
    for weight, row in zip(tree.probabilities.tolist(), terms.tolist()):
        for term in row:
            total -= weight * term
    return total

