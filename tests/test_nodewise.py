"""Node-wise compilation of dynamic (Bolza and Kabanov) problems, and the
kept Lagrangian of static ones.

The solver compiles each stage cost once per tree node.  Every object it
builds that way (primal, Lagrangian, lower variant, annihilator bound and
the recovered dual) is checked here against a per-leaf reference from
tests/helpers.py, which builds each leaf's joint function, Lagrangian,
lower variant and conjugate from the leaf's own stage costs.  The
trees are irregular, the state dimension is 1 or 2, and u and y are
adapted, split inside blocks, or different on every leaf.  A static
problem whose every leaf's Lagrangian is affine in x keeps one compiled
Lagrangian and reads it at each y; it is checked against the Lagrangian
built afresh at that y.
"""

import numpy as np
import pytest

from stochdual import solver
from stochdual.cli import fixture_path, parse_problem_file
from stochdual.convex import (
    AffinePrecomposition,
    PiecewiseLinear,
    Polyhedron,
    Quadratic,
    SeparableSum,
    absolute_value,
)
from stochdual.integrand import BolzaIntegrand, BolzaStage, GenericIntegrand, KabanovStage
from stochdual.solver import (
    Problem,
    dual_objective,
    dual_via_orthocomplement,
    primal_objective,
    solve_dual,
    solve_primal,
)
from stochdual.tree import ScenarioTree, StochasticProcess, in_orthocomplement, pairing

from helpers import (
    basis_bound,
    binary_hedging,
    bound_solves,
    grouped_process,
    irregular_tree,
    per_leaf_conjugates,
    per_leaf_lagrangian,
    per_leaf_lower_value,
    per_leaf_primal,
    per_leaf_recovered_dual,
    random_process,
    same_bits,
    subgradient,
)

SHAPES = ("adapted", "split", "leafwise")


def process(rng, tree, dims, shape, scale=1.0):
    if shape == "leafwise":
        proc = random_process(rng, tree, dims)
    else:
        proc = grouped_process(rng, tree, dims, 1 if shape == "adapted" else 2)
    return StochasticProcess(tree, tuple(scale * a for a in proc.values))


def scalar(rng, kinds):
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "quadratic":
        return Quadratic([rng.uniform(0.2, 1.5)], [rng.normal()], rng.normal())
    if kind == "abs":
        return absolute_value().scaled(rng.uniform(0.5, 2.0))
    return PiecewiseLinear([0.0], [-0.5, 2.0])


def bolza_problem(seed, d):
    """K(x, w) = kinked or quadratic state parts + quadratic or |.| velocity
    parts, one stage cost per block."""
    tree = irregular_tree(seed)
    rng = np.random.default_rng(1500 + seed)
    stages = [[BolzaStage(SeparableSum(
        [scalar(rng, ["quadratic", "abs", "pwl"]) for _ in range(d)]
        + [scalar(rng, ["quadratic", "abs"]) for _ in range(d)]), d)
        for _ in tree.blocks(t)] for t in range(tree.stage_count)]
    return Problem(tree, BolzaIntegrand(tree, stages))


def kabanov_problem(seed):
    """One currency: quadratic disutility, trade set z <= 0, z = 0 at the end."""
    tree = irregular_tree(seed)
    rng = np.random.default_rng(1600 + seed)
    C = Polyhedron.from_cone_generators([[-1.0]])
    stages = [[KabanovStage(Quadratic([rng.uniform(0.3, 1.2)]), C,
                            terminal=t == tree.stage_count - 1)
               for _ in tree.blocks(t)] for t in range(tree.stage_count)]
    return Problem(tree, BolzaIntegrand(tree, stages))


def cases():
    """(name, problem, u, y); each shape meets every problem on both sides.
    The duals are small, so the conjugates of the |.| velocity parts stay
    finite; a Kabanov dual has no k-part, and its z-part is nonnegative
    (the support function of z <= 0 is finite there) except when it
    differs on every leaf."""
    out = []
    problems = [(f"bolza-d{d}-{seed}", bolza_problem(seed, d))
                for seed in range(3) for d in (1, 2)]
    problems += [(f"kabanov-{seed}", kabanov_problem(seed)) for seed in range(2)]
    for k, (name, p) in enumerate(problems):
        rng = np.random.default_rng(1700 + k)
        for u_shape, y_shape in zip(SHAPES, SHAPES[1:] + SHAPES[:1]):
            u = process(rng, p.tree, p.m_dims, u_shape)
            y = process(rng, p.tree, p.m_dims, y_shape, 0.1)
            if name.startswith("kabanov"):
                sign = (lambda a: a) if y_shape == "leafwise" else np.abs
                y = StochasticProcess(p.tree, tuple(
                    np.column_stack([sign(a[:, 0]), np.zeros(len(a))]) for a in y.values))
            out.append((f"{name}-u_{u_shape}-y_{y_shape}", p, u, y))
    return out


CASES = {name: rest for name, *rest in cases()}


def assert_same_function(got, want, width, rng, smooth=True):
    """Values (and, away from +inf, subgradients) agree at random points."""
    W = rng.normal(size=(6, width))
    vals = [got.value(w) for w in W]
    np.testing.assert_allclose(vals, [want.value(w) for w in W], rtol=1e-12, atol=1e-12)
    if smooth:
        for w in W:
            np.testing.assert_allclose(subgradient(got, w), subgradient(want, w),
                                       rtol=1e-12, atol=1e-12)


def assert_same_solve(res, ref):
    assert res.status == ref.status
    if np.isfinite(ref.value):
        assert res.value == pytest.approx(ref.value, rel=1e-10, abs=1e-10)
    else:
        assert res.value == ref.value


@pytest.mark.parametrize("name", sorted(CASES))
class TestNodewiseMatchesPerLeaf:
    def test_primal(self, name):
        p, u, _ = CASES[name]
        _, obj = primal_objective(p, u)
        ref = per_leaf_primal(p, u)
        assert_same_function(obj, ref, obj.n, np.random.default_rng(1),
                             smooth=not name.startswith("kabanov"))
        assert_same_solve(solver._minimize(obj), solver._minimize(ref))

    def test_lagrangian_and_lower_variant(self, name):
        p, _, y = CASES[name]
        _, obj = solver._lagrangian_objective(p, y)
        ref = per_leaf_lagrangian(p, y)
        assert (obj is None) == (ref is None)
        if ref is None:
            return
        assert_same_function(obj, ref, obj.n, np.random.default_rng(2),
                             smooth=not name.startswith("kabanov"))
        dob = dual_objective(p, y)
        res = solver._minimize(ref)
        assert dob.inner_status == res.status
        if dob.minimizer is None:
            return
        assert dob.value == pytest.approx(-res.value, rel=1e-10, abs=1e-10)
        want = per_leaf_lower_value(p, y, dob.minimizer)
        if want is None or not np.isfinite(want):
            assert dob.lower_value == want
        else:
            assert dob.lower_value == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_annihilator_bound(self, name, monkeypatch):
        # the bound read off the dual value's inner solve, against the
        # per-leaf conjugates minimised over the basis of the annihilator;
        # nothing is solved inside the bound
        p, _, y = CASES[name]
        dob = dual_objective(p, y)
        solves = bound_solves(monkeypatch)
        bound = dual_via_orthocomplement(p, y, objective=dob)
        status, value, _ = basis_bound(p, y)
        assert (bound.status, solves) == (status, [])
        assert bound.value == pytest.approx(value, rel=1e-9, abs=1e-9)
        # certified whenever the inner solve reached its optimum
        assert (bound.v is not None) == (dob.inner_status == "optimal")
        if bound.v is not None:
            assert in_orthocomplement(bound.v)
            rows = bound.v.rows
            assert bound.value == pytest.approx(sum(
                prob * fn.value(rows[leaf]) for leaf, (prob, fn) in
                enumerate(zip(p.tree.probabilities, per_leaf_conjugates(p, y)))),
                rel=1e-12, abs=1e-12)

    def test_recovered_dual(self, name):
        # the dual read off the primal QP's selected subgradients: where the
        # velocity parts are smooth it is the per-leaf velocity gradient bit
        # for bit; on kinked ones, where the per-leaf gradient is one of
        # many, it closes the gap, adapted u or not
        p, u, _ = CASES[name]
        primal = solve_primal(p, u)
        assert primal.status == "optimal"
        got = solver._recover_dual_candidate(p, primal)
        want = per_leaf_recovered_dual(p, u, primal.optimizer)
        assert got is not None
        if smooth_velocity(p):
            assert want is not None
            for a, b in zip(got.values, want.values):
                np.testing.assert_array_equal(a, b)
            return
        assert abs(gap_at(p, u, primal, got)) <= 1e-9 * max(1.0, abs(primal.value))

    def test_dual_status(self, name):
        # the recovered dual closes the gap whether u is adapted or not: y
        # is not projected, so on a non-adapted u it keeps the part of y
        # that pairs with u's non-adapted part
        p, u, _ = CASES[name]
        primal = solve_primal(p, u)
        dual = solve_dual(p, u, primal=primal)
        gap = primal.value - dual.value
        assert dual.method == "recovered"
        assert dual.residual == pytest.approx(abs(gap), abs=1e-15)
        assert dual.status == "optimal"
        assert abs(gap) <= 1e-13 * max(1.0, abs(primal.value))
        assert dual.value == pairing(u, dual.optimizer) - dual.objective.value


def smooth_velocity(p):
    """Every stage cost is separable with quadratic velocity parts."""
    return all(isinstance(st.fn, SeparableSum)
               and all(isinstance(part, Quadratic) for part in st.fn.parts[st.d:])
               for blocks in p.integrand.stages for st in blocks)


def gap_at(p, u, primal, y):
    """Primal value minus the dual value <u, y> - phi*(y); inf without a y
    or outside dom phi*."""
    if y is None:
        return np.inf
    phi = dual_objective(p, y).value
    return np.inf if phi == np.inf else primal.value - (pairing(u, y) - phi)


@pytest.mark.parametrize("name", ["quadratic-tracking.json", "binomial-alm.json",
                                  "kkt-single.json", "pwl-hedging.json"])
def test_lower_variant_off_the_dynamic_path_is_the_per_leaf_value(name):
    # off the dynamic path the lower variant is the compiled Lagrangian's
    # value: the same functions summed in the same order, so bit for bit
    problem, _, params, _, _ = parse_problem_file(fixture_path(name))
    dual = solve_dual(problem, params["u"])
    dob = dual.objective
    assert np.isfinite(dob.lower_value)
    assert dob.lower_value == per_leaf_lower_value(problem, dual.optimizer, dob.minimizer)


# ---------------------------------------------------------------------------
# static problems: one kept Lagrangian template, read at each y
# ---------------------------------------------------------------------------


def hedging_densities(horizon, scales):
    """Leaf rows c Q/P of the risk-neutral density on ``binary_hedging``'s
    tree (up x1.2 with Q-probability 1/3, down x0.9), one per scale c."""
    leaves = np.arange(2 ** horizon)
    downs = sum((leaves >> (horizon - t)) & 1 for t in range(1, horizon + 1))
    ratio = 2 ** horizon * (1 / 3) ** (horizon - downs) * (2 / 3) ** downs
    return [c * ratio[:, None] for c in scales]


def stacked_generic(rng):
    """A generic integrand on the binary tree of horizon 3, n = 2 at stage
    0, m = 2 at the end: every leaf g(M (x, u) + m) of one shared g, its
    parameter block near the identity, so one stacked group.  Returns the
    problem and leaf rows of y: two whose Lagrangians' slopes M_x' eta have
    probability-weighted mean zero (the inner infimum is finite), and one
    random (it is -inf)."""
    tree = ScenarioTree.binary(3)
    g = Quadratic([0.5, 2.0], [0.1, -0.3])
    mats = [np.hstack([rng.normal(size=(2, 2)), np.eye(2) + 0.3 * rng.normal(size=(2, 2))])
            for _ in range(8)]
    joints = [AffinePrecomposition(g, M, rng.normal(size=2)) for M in mats]
    p = Problem(tree, GenericIntegrand(tree, [2, 0, 0, 0], [0, 0, 0, 2], joints))
    ys = []
    for _ in range(2):
        slopes = rng.normal(size=(8, 2))
        slopes -= tree.probabilities @ slopes
        ys.append(np.array([M[:, 2:].T @ np.linalg.solve(M[:, :2].T, s)
                            for M, s in zip(mats, slopes)]))
    return p, [ys[0], rng.normal(size=(8, 2)), ys[1]]


def static_cases():
    """name -> (a function building the problem and the leaf rows of y in
    the order read, the statuses of their inner solves): on each, one y off
    the density cone (its inner solve is unbounded), read between ys on
    it."""
    densities = hedging_densities(3, (1.0, 2.5, 0.7, 0.4, 0.25))
    off = np.random.default_rng(0).uniform(0.2, 0.9, size=(8, 1))
    # |z|: y outside [-1, 1] on a leaf leaves that leaf's Lagrangian -inf
    beyond = densities[3].copy()
    beyond[0] = 1.5
    return {
        "half-square-hedging": (
            lambda: (binary_hedging(3, Quadratic([0.5])),
                     [densities[0], off, densities[1], densities[2]]),
            ["optimal", "unbounded", "optimal", "optimal"]),
        "abs-hedging": (
            lambda: (binary_hedging(3, absolute_value()),
                     [densities[3], off, densities[4], beyond, 0.9 * densities[3]]),
            ["optimal", "unbounded", "optimal", "unbounded", "optimal"]),
        "stacked-generic": (
            lambda: stacked_generic(np.random.default_rng(7)),
            ["optimal", "unbounded", "optimal"]),
    }


STATIC_CASES = static_cases()


def per_y_build(p):
    """The same problem, with no kept Lagrangian: each y builds its own."""
    fresh = Problem(p.tree, p.integrand)
    fresh.__dict__["_lagrangian_template"] = None
    return fresh


@pytest.mark.parametrize("name", sorted(STATIC_CASES))
class TestKeptLagrangianTemplate:
    def test_lagrangian_and_lower_variant(self, name):
        # the kept template, read at y after y, against a Lagrangian built
        # afresh at each: value, lower value, inner status, minimizer and
        # the v read off the inner solve, bit for bit (v reads this y's
        # slopes, never those the template was first read at)
        make, statuses = STATIC_CASES[name]
        p, ys = make()
        assert "_lagrangian_template" not in p.__dict__  # built at the first dual solve
        template = p._lagrangian_template
        assert template is not None
        got_statuses = []
        for rows in ys:
            y = StochasticProcess.from_leaf_rows(p.tree, p.m_dims, rows)
            got, want = dual_objective(p, y), dual_objective(per_y_build(p), y)
            got_statuses.append(got.inner_status)
            assert got.inner_status == want.inner_status
            assert same_bits(got.value, want.value)
            assert (got.lower_value is None) == (want.lower_value is None)
            if want.lower_value is not None:
                assert same_bits(got.lower_value, want.lower_value)
            assert (got.minimizer is None) == (want.minimizer is None)
            if want.minimizer is None:
                continue
            assert got.lagrangian.template is template
            assert same_bits(got.minimizer.rows, want.minimizer.rows)
            v = solver._stationary_v(p, rows, got).rows
            assert same_bits(v, solver._stationary_v(p, rows, want).rows)
            assert np.any(v)
        assert got_statuses == statuses

    def test_kept_only_when_every_leaf_is_affine(self, name):
        # a leaf outside the stacked groups leaves each y its own build
        p, _ = STATIC_CASES[name][0]()
        f = p.integrand
        mixed = GenericIntegrand(p.tree, f.n_dims, f.m_dims,
                                 f.functions[:-1] + [Quadratic([1.0] * f.functions[0].dim)])
        assert Problem(p.tree, mixed)._lagrangian_template is None


def test_cases_cover_every_path():
    # H_t(., y_t) = -inf on some node, and finite everywhere, both occur
    found = {name.split("-")[0]: set() for name in CASES}
    for name, (p, _, y) in CASES.items():
        found[name.split("-")[0]].add(solver._lagrangian_objective(p, y)[1] is None)
    assert found == {"bolza": {False}, "kabanov": {False, True}}
    # kinked state parts give the primal epigraph atoms
    assert any(P.shape[0] > n for P, *_, n in
               (primal_objective(p, u)[1].qp_data() for p, u, _ in CASES.values()))


# ---------------------------------------------------------------------------
# grouping and structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_adapted_groups_are_the_tree_nodes(seed):
    p = bolza_problem(seed, 2)
    rows = grouped_process(np.random.default_rng(seed), p.tree, p.m_dims).rows
    for t, nodes in enumerate(solver._stage_nodes(p, rows)):
        assert [(b, tuple(leaves)) for b, leaves, _ in nodes] == \
            list(enumerate(p.tree.blocks(t)))
        for _, leaves, weight in nodes:
            assert weight == pytest.approx(p.tree.probabilities[leaves].sum(), abs=1e-15)


@pytest.mark.parametrize("seed", range(4))
def test_split_groups_are_bit_equal_classes(seed):
    p = bolza_problem(seed, 1)
    rows = grouped_process(np.random.default_rng(seed), p.tree, p.m_dims, 2).rows
    for t, nodes in enumerate(solver._stage_nodes(p, rows)):
        sl = p.integrand.u_slices[t]
        assert sorted(int(l) for _, leaves, _ in nodes for l in leaves) == \
            list(range(p.tree.n_leaves))
        for b, leaves, _ in nodes:
            assert set(leaves.tolist()) <= set(p.tree.blocks(t)[b])
            assert all(rows[l, sl].tobytes() == rows[leaves[0], sl].tobytes() for l in leaves)
        keys = [(b, rows[leaves[0], sl].tobytes()) for b, leaves, _ in nodes]
        assert len(set(keys)) == len(keys)


def abs_bolza(horizon, u_shape, seed=0):
    tree = ScenarioTree.binary(horizon)
    stage = BolzaStage(SeparableSum([absolute_value(), Quadratic([0.5])]), 1)
    p = Problem(tree, BolzaIntegrand(
        tree, [[stage] * len(tree.blocks(t)) for t in range(tree.stage_count)]))
    rng = np.random.default_rng(seed)
    return p, process(rng, tree, p.m_dims, u_shape)


def test_one_epigraph_atom_per_node():
    # 16 leaves, 31 nodes: one |x_t| atom and its two rows per node, and the
    # solve the per-leaf program's
    p, u = abs_bolza(4, "adapted")
    _, obj = primal_objective(p, u)
    P, q, c, G, h, A, b, n_main = obj.qp_data()
    assert (P.shape[0] - n_main, G.shape[0]) == (31, 62)
    res, ref = solver._minimize(obj), solver._minimize(per_leaf_primal(p, u))
    assert res.status == ref.status == "optimal"
    assert res.value == pytest.approx(ref.value, rel=1e-10, abs=1e-10)
    # a u that differs on every leaf splits every node down to its leaves
    p, u = abs_bolza(4, "leafwise")
    P, q, c, G, h, A, b, n_main = primal_objective(p, u)[1].qp_data()
    assert (P.shape[0] - n_main, G.shape[0]) == (80, 160)
