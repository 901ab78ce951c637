"""Property: the dual read off the primal QP's selected subgradients closes
the duality gap, on random irregular trees, for adapted Bolza problems
whose separable stage costs mix quadratic, |.| and bounded piecewise-linear
parts in the state and in the velocity, and for hedging with a bounded
piecewise-linear disutility."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stochdual.convex import PiecewiseLinear, Quadratic, SeparableSum, absolute_value  # noqa: E402
from stochdual.integrand import BolzaIntegrand, BolzaStage  # noqa: E402
from stochdual.models import build_alm  # noqa: E402
from stochdual.solver import Problem, solve_dual, solve_primal  # noqa: E402
from stochdual.tree import StochasticProcess  # noqa: E402

from helpers import irregular_tree  # noqa: E402

KINDS = ("quadratic", "abs", "pwl")


def bounded_pwl(rng, lo, hi, least_slope=-1.0):
    """Kinked on [lo, hi], two or three pieces, 0 at 0."""
    breaks = np.sort(rng.uniform(0.8 * lo, 0.8 * hi, int(rng.integers(1, 3))))
    slopes = np.sort(rng.uniform(least_slope, 2.5, breaks.size + 1))
    return PiecewiseLinear(breaks, slopes, lo=lo, hi=hi)


def part(rng, kind):
    """One scalar part.  A pwl part lives on [lo, hi] with lo <= -2 and
    hi >= 2, so every adapted u in [-1, 1] leaves the stages feasible."""
    if kind == "quadratic":
        return Quadratic([rng.uniform(0.2, 1.5)], [rng.normal()], rng.normal())
    if kind == "abs":
        return absolute_value().scaled(rng.uniform(0.5, 2.0))
    return bounded_pwl(rng, rng.uniform(-3.0, -2.0), rng.uniform(2.0, 3.0))


def adapted_uniform(rng, tree, dims):
    """Adapted process with values in [-1, 1]: one draw per (stage, block)."""
    arrays = []
    for t, d in enumerate(dims):
        a = np.zeros((tree.n_leaves, d))
        for block in tree.blocks(t):
            a[list(block)] = rng.uniform(-1.0, 1.0, d)
        arrays.append(a)
    return StochasticProcess(tree, tuple(arrays))


@st.composite
def bolza_problems(draw):
    seed = draw(st.integers(0, 2 ** 16))
    tree = irregular_tree(seed, draw(st.integers(2, 9)), draw(st.integers(1, 4)))
    d = draw(st.integers(1, 2))
    kinds = st.lists(st.sampled_from(KINDS), min_size=2 * d, max_size=2 * d)
    rng = np.random.default_rng(seed)
    stages = [[BolzaStage(SeparableSum([part(rng, k) for k in draw(kinds)]), d)
               for _ in tree.blocks(t)] for t in range(tree.stage_count)]
    p = Problem(tree, BolzaIntegrand(tree, stages))
    return p, adapted_uniform(rng, tree, p.m_dims)


@st.composite
def hedging_problems(draw):
    """Bounded nondecreasing pwl V on [lo, hi] around [-1, 1], liabilities
    in [-1, 1] (the zero hedge is feasible) and a martingale price."""
    seed = draw(st.integers(0, 2 ** 16))
    tree = irregular_tree(seed, draw(st.integers(2, 9)), draw(st.integers(2, 4)))
    rng = np.random.default_rng(seed)
    V = bounded_pwl(rng, rng.uniform(-1.5, -1.05), rng.uniform(1.05, 1.5), 0.0)
    s, stages = np.ones(tree.n_leaves), []
    for t in range(tree.stage_count):
        if t:
            xi = tree.conditional_mean(rng.normal(size=tree.n_leaves), t)
            s = s + 0.3 * (xi - tree.conditional_mean(xi, t - 1))
        stages.append(s[:, None])
    p = build_alm(tree, V, StochasticProcess(tree, tuple(stages)))
    u = StochasticProcess(tree, tuple(np.zeros((tree.n_leaves, d)) for d in p.m_dims[:-1])
                          + (rng.uniform(-1.0, 1.0, (tree.n_leaves, 1)),))
    return p, u


def assert_recovered_with_zero_gap(p, u):
    primal = solve_primal(p, u)
    assert primal.status == "optimal"
    dual = solve_dual(p, u, primal=primal)
    assert (dual.status, dual.method) == ("optimal", "recovered")
    assert abs(primal.value - dual.value) <= 1e-9 * max(1.0, abs(primal.value))


@settings(max_examples=40, deadline=None, database=None)
@given(bolza_problems())
def test_adapted_bolza_recovers_with_zero_gap(case):
    assert_recovered_with_zero_gap(*case)


@settings(max_examples=40, deadline=None, database=None)
@given(hedging_problems())
def test_bounded_pwl_hedging_recovers_with_zero_gap(case):
    assert_recovered_with_zero_gap(*case)
