"""Property: the grouped QP lowering of a primal objective equals the dense
lowering, and the active-set engine solves both alike, on random irregular
trees whose leaves share their inner functions or have their own."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stochdual.convex import (  # noqa: E402
    Affine,
    AffinePrecomposition,
    FiniteSum,
    PiecewiseLinear,
    Polyhedron,
    PolyhedralIndicator,
    Quadratic,
    SeparableSum,
    absolute_value,
    indicator_interval,
)
from stochdual.integrand import GenericIntegrand  # noqa: E402
from stochdual.qp import solve_qp  # noqa: E402
from stochdual.solver import Problem, primal_objective  # noqa: E402

from helpers import (  # noqa: E402
    dense_lowering, irregular_tree, random_process, selection_matrix, terms)

KINDS = ("abs", "pwl", "interval", "pair")


def extra_part(rng, kind):
    """One summand of an inner function; each is finite at 0."""
    if kind == "abs":  # kinked: an epigraph atom
        return absolute_value().scaled(rng.uniform(0.5, 2.0))
    if kind == "pwl":  # kinked and bounded: an epigraph atom with hi/lo rows
        return PiecewiseLinear([0.0, 1.0], [-1.0, 0.5, 2.0], lo=-3.0, hi=4.0)
    if kind == "interval":  # bound rows
        return indicator_interval(-2.0, rng.uniform(0.5, 3.0))
    # inequality rows and an equality row
    return PolyhedralIndicator(Polyhedron(
        a_ub=rng.normal(size=(2, 2)), b_ub=rng.uniform(1.0, 2.0, 2),
        a_eq=[[1.0, -1.0]], b_eq=[0.0]))


def inner_function(rng, nx, kinds):
    """A strictly convex quadratic on the first nx coordinates plus parts."""
    return SeparableSum([Quadratic(rng.uniform(0.2, 1.0, nx))]
                        + [extra_part(rng, k) for k in kinds])


def leaf_function(rng, inner, nx, m):
    """inner(M (x, u) + off), strictly convex in x and feasible at x = 0."""
    M = np.zeros((inner.dim, nx + m))
    M[:, :nx] = rng.normal(size=(inner.dim, nx))
    M[:nx, :nx] += 2.0 * np.eye(nx)
    off, at = 0.1 * rng.normal(size=inner.dim), nx
    for part in inner.parts[1:]:
        if isinstance(part, PolyhedralIndicator):
            off[at:at + part.dim] = 0.0  # its rows hold at 0
        at += part.dim
    return AffinePrecomposition(inner, M, off)


@st.composite
def problems(draw):
    seed = draw(st.integers(0, 2 ** 16))
    n = draw(st.integers(2, 9))
    stages = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(0, 2), min_size=stages, max_size=stages)
                .filter(lambda d: sum(d) > 0))
    n_shared = draw(st.integers(1, 2))
    kinds = st.lists(st.sampled_from(KINDS), max_size=3)
    shared_kinds = [draw(kinds) for _ in range(n_shared)]
    # per leaf: one of the shared inner functions, an inner function of its
    # own, or a function of its own that is not an affine precomposition
    owners = draw(st.lists(st.sampled_from(list(range(n_shared)) + ["own", "sum"]),
                           min_size=n, max_size=n))
    own_kinds = [draw(kinds) for _ in range(n)]
    tree = irregular_tree(seed, n, stages)
    rng = np.random.default_rng(seed)
    nx, m = sum(dims), stages
    shared = [inner_function(rng, nx, k) for k in shared_kinds]
    functions = []
    for leaf, owner in enumerate(owners):
        inner = shared[owner] if isinstance(owner, int) else \
            inner_function(rng, nx, own_kinds[leaf])
        fn = leaf_function(rng, inner, nx, m)
        functions.append(FiniteSum([fn, Affine(rng.normal(size=nx + m))])
                         if owner == "sum" else fn)
    p = Problem(tree, GenericIntegrand(tree, dims, [1] * m, functions))
    return p, random_process(rng, tree, p.m_dims)


@settings(max_examples=40, deadline=None, database=None)
@given(problems())
def test_grouped_lowering_equals_dense(case):
    p, u = case
    _, obj = primal_objective(p, u)
    got = obj.qp_data()
    want = dense_lowering(obj, [selection_matrix(t.cols, obj.n) for t in terms(obj)])
    *arrays, n_main = got
    *ref, ref_main = want
    assert n_main == ref_main
    for name, x, y in zip("P q c G h A b".split(), arrays, ref):
        assert np.shape(x) == np.shape(y), name
        np.testing.assert_allclose(x, y, rtol=0, atol=1e-12, err_msg=name)
    res, ref_res = solve_qp(*got[:7]), solve_qp(*want[:7])
    assert res.status == ref_res.status == "optimal"
    assert res.value == pytest.approx(ref_res.value, rel=1e-10, abs=1e-10)
