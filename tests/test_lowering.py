"""Index-array lowering of compiled objectives, checked against the dense
lowering through per-term (leaf or node) selection matrices on irregular
trees with stage dimensions 0, 1 and 2, for terms lowered alone and in
groups that share one local form."""

import numpy as np
import pytest

from stochdual import solver
from stochdual.convex import (
    Affine,
    AffinePrecomposition,
    FiniteSum,
    PiecewiseLinear,
    Polyhedron,
    PolyhedralIndicator,
    QPForm,
    Quadratic,
    SeparableSum,
    _split_fix,
    absolute_value,
    domain_polyhedron,
    indicator_interval,
    indicator_point,
    infeasible,
)
from stochdual.integrand import AlmIntegrand, BolzaIntegrand, BolzaStage, GenericIntegrand
from stochdual.qp import solve_qp
from stochdual.solver import DualObjective, Problem, SolverConfig, primal_objective
from stochdual.tree import StochasticProcess, adapted_projection

from helpers import (
    STAGE_DIMS,
    dense_lowering,
    irregular_tree,
    random_process,
    selection_matrix,
)

SEEDS = range(6)
INF = float("inf")
# a dual value whose inner solve stopped before it found a point
NO_INNER_SOLVE = DualObjective(np.nan, None, None, "max-iter")


# ---------------------------------------------------------------------------
# dense reference
# ---------------------------------------------------------------------------


def assert_lowering_equal(got, want):
    *arrays, n_main = got
    *ref, ref_main = want
    assert n_main == ref_main
    for name, x, y in zip("P q c G h A b".split(), arrays, ref):
        assert np.shape(x) == np.shape(y), name
        np.testing.assert_array_equal(x, y, err_msg=name)


def selection_mats(obj):
    return [selection_matrix(t.cols, obj.n) for t in obj.terms]


# ---------------------------------------------------------------------------
# problems on irregular trees
# ---------------------------------------------------------------------------


def scalar_part(rng, kinds):
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "quadratic":
        return Quadratic([rng.uniform(0.2, 2.0)], [rng.normal()], rng.normal())
    if kind == "abs":
        return absolute_value().scaled(rng.uniform(0.5, 2.0))
    if kind == "pwl":  # kinked, on a bounded interval: epigraph and bound rows
        return PiecewiseLinear([0.0, 1.0], [-1.0, 0.5, 2.0], lo=-3.0, hi=4.0)
    if kind == "interval":
        return indicator_interval(-2.0, rng.uniform(0.5, 3.0))
    if kind == "point":
        return indicator_point(rng.normal())
    raise ValueError(kind)


def polyhedral_pair(rng):
    """2-d polyhedral indicator with two inequalities and one equality."""
    return PolyhedralIndicator(Polyhedron(
        a_ub=rng.normal(size=(2, 2)), b_ub=rng.uniform(1.0, 2.0, 2),
        a_eq=[[1.0, -1.0]], b_eq=[rng.normal()]))


def generic_problem(seed, x_kinds):
    """f(x, u) = sum of x-parts + a quadratic coupling of x and u, per leaf."""
    tree = irregular_tree(seed)
    rng = np.random.default_rng(700 + seed)
    n, m = sum(STAGE_DIMS), tree.stage_count
    functions = []
    for _ in range(tree.n_leaves):
        parts = [polyhedral_pair(rng)] if rng.uniform() < 0.5 else \
            [scalar_part(rng, x_kinds) for _ in range(2)]
        parts += [scalar_part(rng, x_kinds) for _ in range(n - 2)]
        parts.append(Affine(np.zeros(m)))
        coupling = Quadratic(rng.uniform(0.1, 1.0, n + m), rng.normal(size=n + m))
        functions.append(FiniteSum([SeparableSum(parts), coupling]))
    return Problem(tree, GenericIntegrand(tree, STAGE_DIMS, [1] * m, functions))


def separable_problem(seed):
    """f(x, u) = sum of scalar x-parts + a quadratic in u; the conjugates of
    the kinked and interval parts are kinked, so f*(., y) has epigraph atoms."""
    tree = irregular_tree(seed)
    rng = np.random.default_rng(750 + seed)
    m = tree.stage_count
    functions = [SeparableSum([scalar_part(rng, ["quadratic", "abs", "pwl", "interval"])
                               for _ in range(sum(STAGE_DIMS))]
                              + [Quadratic(rng.uniform(0.2, 1.0, m))])
                 for _ in range(tree.n_leaves)]
    return Problem(tree, GenericIntegrand(tree, STAGE_DIMS, [1] * m, functions))


def bolza_problem(seed, d):
    """Stage costs K(x, w) = q(x) + g(w), separable, one per block."""
    tree = irregular_tree(seed)
    rng = np.random.default_rng(800 + seed)
    stages = [[BolzaStage(SeparableSum(
        [Quadratic(rng.uniform(0.2, 1.0, d))]
        + [scalar_part(rng, ["quadratic", "abs"]) for _ in range(d)]), d)
        for _ in tree.blocks(t)] for t in range(tree.stage_count)]
    return Problem(tree, BolzaIntegrand(tree, stages))


ALL_KINDS = ["quadratic", "abs", "pwl", "interval", "point"]


def cases(seed):
    rng = np.random.default_rng(900 + seed)
    out = []
    for p in (generic_problem(seed, ALL_KINDS), separable_problem(seed),
              bolza_problem(seed, 1), bolza_problem(seed, 2)):
        u = random_process(rng, p.tree, p.m_dims)
        # small duals keep the conjugates of |.| finite
        y = random_process(rng, p.tree, p.m_dims)
        y = type(y)(p.tree, tuple(0.1 * a for a in y.values))
        out.append((p, u, y))
    return out


def fallback_objective(monkeypatch, p, y):
    """The CompiledObjective the annihilator bound minimises when it has no
    inner solve to read v off."""
    seen = []
    real = solver._minimize

    def spy(obj, cfg):
        seen.append(obj)
        return real(obj, cfg)

    monkeypatch.setattr(solver, "_minimize", spy)
    solver.dual_via_orthocomplement(p, y, objective=NO_INNER_SOLVE)
    monkeypatch.setattr(solver, "_minimize", real)
    assert len(seen) == 1
    return seen[0]


def mean_free(p, w):
    """w, as the leaf values of v, less its blockwise conditional means."""
    v = StochasticProcess.from_vector(p.tree, p.n_dims, w)
    return np.concatenate([(a - p.tree.conditional_mean(a, t)).ravel()
                           for t, a in enumerate(v.values)])


# ---------------------------------------------------------------------------
# compiled lowerings
# ---------------------------------------------------------------------------


class TestLoweringMatchesDense:
    def test_cases_cover_every_row_kind(self):
        data = [primal_objective(p, u)[1].qp_data() for s in SEEDS for p, u, _ in cases(s)]
        assert any(n_main < P.shape[0] for P, *_, n_main in data)  # epigraph atoms
        # inequality rows of the terms' own forms, besides the epigraph rows
        assert any(G.shape[0] > 2 * (P.shape[0] - n_main) for P, _, _, G, *_, n_main in data)
        assert any(A.shape[0] for _, _, _, _, _, A, *_ in data)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_primal(self, seed):
        for p, u, _ in cases(seed):
            _, obj = primal_objective(p, u)
            assert_lowering_equal(obj.qp_data(), dense_lowering(obj, selection_mats(obj)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lagrangian(self, seed):
        for p, _, y in cases(seed):
            _, obj = solver._lagrangian_objective(p, y)
            assert obj is not None
            assert_lowering_equal(obj.qp_data(), dense_lowering(obj, selection_mats(obj)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_annihilator(self, seed, monkeypatch):
        # the bound's fallback program: the conjugate terms, then one
        # mean-zero equality term per (stage, block), over the leaf values
        # of v; its equality rows give the blockwise conditional means
        rng = np.random.default_rng(1050 + seed)
        atoms = 0
        for p, _, y in cases(seed)[1:]:
            obj = fallback_objective(monkeypatch, p, y)
            lowered = obj.qp_data()
            assert_lowering_equal(lowered, dense_lowering(obj, selection_mats(obj)))
            v = random_process(rng, p.tree, p.n_dims)
            means = [p.tree.conditional_mean(v.stage(t), t)[block[0]]
                     for t, d in enumerate(p.n_dims) if d for block in p.tree.blocks(t)]
            A, b = lowered[5], lowered[6]
            k = sum(len(a) for a in means)
            np.testing.assert_allclose(A[-k:, :obj.n] @ v.to_vector(), np.concatenate(means),
                                       rtol=1e-13, atol=1e-15)
            assert not A[-k:, obj.n:].any() and not b[-k:].any()
            atoms += lowered[0].shape[0] - obj.n
        assert atoms  # the conjugates' epigraph atoms are lowered too

    @pytest.mark.parametrize("seed", SEEDS)
    def test_values_and_subgradients_gather(self, seed, monkeypatch):
        rng = np.random.default_rng(1000 + seed)
        p, _, y = cases(seed)[1]
        for obj in (primal_objective(p, random_process(rng, p.tree, p.m_dims))[1],
                    fallback_objective(monkeypatch, p, y)):
            mats = [selection_matrix(t.cols, obj.n) for t in obj.terms]
            W = 0.1 * rng.normal(size=(4, obj.n))
            if obj.n != p.layout.width:
                # points of the fallback's domain: leaf values of v with
                # their blockwise conditional means removed
                W = np.array([mean_free(p, w) for w in W])
            want = [sum(t.weight * t.fn.value(M @ w) for t, M in zip(obj.terms, mats))
                    for w in W]
            assert np.isfinite(want).all()
            np.testing.assert_allclose([obj.value(w) for w in W], want, rtol=1e-13)
            grad = sum(t.weight * M.T @ t.fn.subgradient(M @ W[0])
                       for t, M in zip(obj.terms, mats))
            np.testing.assert_allclose(obj.subgradient(W[0]), grad, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_constraint_rows(self, seed):
        p, u, _ = cases(seed)[0]
        _, obj = primal_objective(p, u)
        G, h, A, b = obj.constraint_rows()
        doms = [(t, domain_polyhedron(t.fn)) for t in obj.terms]
        mats = selection_mats(obj)
        np.testing.assert_array_equal(
            G, np.vstack([d.a_ub @ M for (_, d), M in zip(doms, mats)]))
        np.testing.assert_array_equal(h, np.concatenate([d.b_ub for _, d in doms]))
        np.testing.assert_array_equal(
            A, np.vstack([d.a_eq @ M for (_, d), M in zip(doms, mats)]))
        np.testing.assert_array_equal(b, np.concatenate([d.b_eq for _, d in doms]))


# ---------------------------------------------------------------------------
# grouped lowering: terms that share one local form up to the affine map
# ---------------------------------------------------------------------------

BOUNDED_PWL = PiecewiseLinear([0.0, 1.0], [-1.0, 0.5, 2.0], lo=-3.0, hi=4.0)
SHARED_V = {"half-square": Quadratic([0.5]), "abs": absolute_value(),
            "bounded-pwl": BOUNDED_PWL}


def hedging_problem(seed, V):
    """Hedging on an irregular tree with one disutility V for every leaf: the
    primal's terms are one group, and so are the Lagrangian's affine terms."""
    tree = irregular_tree(seed)
    rng = np.random.default_rng(1400 + seed)
    price = adapted_projection(StochasticProcess(tree, tuple(
        rng.uniform(0.5, 1.5, (tree.n_leaves, 1)) for _ in range(tree.stage_count))))
    return Problem(tree, AlmIntegrand(tree, [V], price))


def mixed_problem(seed):
    """Generic leaves in interleaved order: most share one joint function
    g(M_l x + m_l), whose g has polyhedral rows, an equality row
    and two epigraph atoms (one with hi/lo rows); the others have
    functions of their own, lowered alone.  x = 0 is feasible."""
    tree = irregular_tree(seed)
    rng = np.random.default_rng(1500 + seed)
    n, m = sum(STAGE_DIMS), tree.stage_count
    pair = PolyhedralIndicator(Polyhedron(
        a_ub=rng.normal(size=(2, 2)), b_ub=rng.uniform(1.0, 2.0, 2),
        a_eq=[[1.0, -1.0]], b_eq=[0.0]))
    g = SeparableSum([Quadratic(rng.uniform(0.2, 1.0, n)), pair, absolute_value(), BOUNDED_PWL])
    own = separable_problem(seed).integrand
    functions = []
    for leaf in range(tree.n_leaves):
        if leaf % 3 == 1:
            functions.append(own.joint_function(leaf))
            continue
        M, off = np.zeros((g.dim, n + m)), 0.1 * rng.normal(size=g.dim)
        M[:, :n], off[n:n + 2] = rng.normal(size=(g.dim, n)), 0.0
        functions.append(AffinePrecomposition(g, M, off))
    return Problem(tree, GenericIntegrand(tree, STAGE_DIMS, [1] * m, functions))


def grouped_objectives(seed):
    """(name, compiled objective) per case."""
    rng = np.random.default_rng(1600 + seed)
    out = []
    for name, V in SHARED_V.items():
        p = hedging_problem(seed, V)
        u = random_process(rng, p.tree, p.m_dims)
        y = solver.solve_dual(p, u).optimizer  # a y with a finite inner infimum
        out.append((f"{name} primal", primal_objective(p, u)[1]))
        out.append((f"{name} lagrangian", solver._lagrangian_objective(p, y)[1]))
    # one stage cost object on every node, u not adapted: stage 0's nodes
    # and the later stages' nodes are two groups, their maps of two shapes
    tree = irregular_tree(seed)
    stage = BolzaStage(SeparableSum([Quadratic([0.5, 0.8]), absolute_value(),
                                     Quadratic([1.0])]), 2)
    p = Problem(tree, BolzaIntegrand(tree, [[stage] * len(tree.blocks(t))
                                            for t in range(tree.stage_count)]))
    out.append(("shared-stage bolza primal",
                primal_objective(p, random_process(rng, tree, p.m_dims))[1]))
    p = mixed_problem(seed)
    u = random_process(rng, p.tree, p.m_dims)
    out.append(("mixed primal", primal_objective(p, u)[1]))
    return out


def per_term_shares(obj, res):
    """Stationarity shares term by term: each term's own local form, its
    rows at their offsets in qp_data's row order, each epigraph row's
    multiplier times its coefficient on the atom's argument (the weighted
    slope of its supporting line, +1 on the hi row, -1 on the lo row)."""
    x, ineq, eq = res.x, res.multipliers, res.eq_multipliers
    shares, atoms, g, a = [], [], 0, 0
    for t in obj.terms:
        form = t.fn.qp_form()
        ng, na = form.G.shape[0], form.A.shape[0]
        shares.append(t.weight * (form.P @ x[t.cols] + form.q)
                      + form.G.T @ ineq[g:g + ng] + form.A.T @ eq[a:a + na])
        g, a = g + ng, a + na
        atoms += [(shares[-1], row, pwl.scaled(t.weight)) for row, _, pwl in form.epi]
    for share, row, pwl in atoms:
        coefs = [s for s, _ in pwl.supporting_lines()]
        coefs += [1.0] * (pwl.hi != INF) + [-1.0] * (pwl.lo != -INF)
        share += row * sum(mu * coef for mu, coef in zip(ineq[g:g + len(coefs)], coefs))
        g += len(coefs)
    return shares


class TestGroupedLowering:
    def test_cases_build_groups(self):
        for seed in SEEDS:
            for name, obj in grouped_objectives(seed):
                sizes = [len(g.idx) for g in obj._lowering[0]]
                assert max(sizes) >= 2, name
                if name.startswith("shared-stage"):
                    assert len(sizes) == 2
                if name.startswith("mixed"):
                    shared = max(obj._lowering[0], key=lambda g: len(g.idx))
                    assert 1 in sizes and np.any(np.diff(shared.idx) > 1)
        kinds = [obj.qp_data() for _, obj in grouped_objectives(0)]
        assert any(A.shape[0] for _, _, _, _, _, A, *_ in kinds)
        # the hi and lo rows of a bounded atom, after its supporting lines
        assert any(at.coefs.shape[1] - at.n_lines == 2 and np.all(at.coefs[:, -1] == -1.0)
                   for _, obj in grouped_objectives(0)
                   for g in obj._lowering[0] for at in g.atoms)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_dense(self, seed):
        # bit for bit, the mixed case too: P, q and c add up in term order
        for name, obj in grouped_objectives(seed):
            assert_lowering_equal(obj.qp_data(), dense_lowering(obj, selection_mats(obj)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_stationarity_shares_match_per_term(self, seed):
        # the share of term g(M x + m) is weight * M' s, s its subgradient
        for name, obj in grouped_objectives(seed):
            res = solver._minimize(obj, SolverConfig())
            assert res.status == "optimal", name
            # the per-term subgradients, read off each group through its idx
            subgradients = [None] * len(obj.terms)
            for g, s in zip(obj._lowering.groups, obj._group_subgradients(res)):
                for i, s_k in zip(g.idx.tolist(), s):
                    subgradients[i] = s_k
            want = per_term_shares(obj, res)
            assert len(want) == len(obj.terms) and all(s is not None for s in subgradients)
            got = [t.weight * (t.fn.matrix.T @ s if isinstance(t.fn, AffinePrecomposition) else s)
                   for t, s in zip(obj.terms, subgradients)]
            for share, ref in zip(got, want):
                np.testing.assert_allclose(share, ref, rtol=1e-12, atol=1e-12, err_msg=name)
            # the shares scatter-add to zero stationarity
            total = np.zeros(obj.n)
            for t, share in zip(obj.terms, got):
                total[t.cols] += share
            np.testing.assert_allclose(total, 0.0, atol=1e-8)


@pytest.mark.parametrize("seed", SEEDS)
def test_lowering_does_not_depend_on_the_grouping(seed):
    # generic functions [A, B, A] on three leaves: with one A object its two
    # leaves lower as one group, before B's; with two equal A objects every
    # leaf is a group of its own.  P, q and c add up in term order either
    # way, so the two programs agree bit for bit
    rng = np.random.default_rng(1700 + seed)
    tree = irregular_tree(seed, n=3)
    dims = [1] * tree.stage_count
    n = sum(dims)

    def joint(weights, M, m):
        return AffinePrecomposition(SeparableSum([Quadratic(weights), absolute_value()]), M, m)

    spec_a, spec_b = ((rng.uniform(0.1, 1.0, n), rng.normal(size=(n + 1, 2 * n)),
                       rng.normal(size=n + 1)) for _ in range(2))
    a, b = joint(*spec_a), joint(*spec_b)
    u = random_process(rng, tree, dims)
    lowered = []
    for fns in ([a, b, a], [a, b, joint(*spec_a)]):
        obj = primal_objective(Problem(tree, GenericIntegrand(tree, dims, dims, fns)), u)[1]
        lowered.append((obj.qp_data(), len(obj._lowering[0])))
    (shared, n_shared), (distinct, n_distinct) = lowered
    assert (n_shared, n_distinct) == (2, 3)
    assert_lowering_equal(shared, distinct)


# ---------------------------------------------------------------------------
# the active-set engine on the lowered Lagrangians
# ---------------------------------------------------------------------------


def separable_lagrangian_qp(seed):
    """The lowered Lagrangian of the separable 9-leaf case: kinked and
    interval parts leave reduced Hessians that are singular or nearly so."""
    p, _, y = cases(seed)[1]
    return solver._lagrangian_objective(p, y)[1].qp_data()[:7]


@pytest.mark.parametrize("seed", SEEDS)
def test_lagrangian_qp_solves_to_a_kkt_point(seed):
    # feasibility, multiplier signs, complementary slackness and
    # stationarity certify the optimum of a convex QP
    P, q, c, G, h, A, b = separable_lagrangian_qp(seed)
    res = solve_qp(P, q, c, G, h, A, b)
    assert res.status == "optimal"
    x, lam, mu = res.x, res.ineq_multipliers, res.eq_multipliers
    tol = 1e-9 * max(1.0, np.max(np.abs(q)), np.max(np.abs(h)))
    assert np.max(G @ x - h) <= tol
    np.testing.assert_allclose(A @ x, b, rtol=0, atol=tol)
    assert np.min(lam, initial=0.0) >= 0.0
    assert abs(lam @ (G @ x - h)) <= tol
    np.testing.assert_allclose(P @ x + q + G.T @ lam + A.T @ mu, 0.0, rtol=0, atol=tol)


@pytest.mark.parametrize("seed", SEEDS)
def test_lagrangian_qp_value_matches_scipy(seed):
    optimize = pytest.importorskip("scipy.optimize")
    P, q, c, G, h, A, b = separable_lagrangian_qp(seed)
    rows = [optimize.LinearConstraint(G, -np.inf, h)]
    if A.shape[0]:
        rows.append(optimize.LinearConstraint(A, b, b))
    ref = optimize.minimize(lambda x: 0.5 * x @ P @ x + q @ x + c, np.zeros(q.size),
                            jac=lambda x: P @ x + q, constraints=rows,
                            method="trust-constr",
                            options={"maxiter": 5000, "gtol": 1e-10, "xtol": 1e-12})
    assert np.max(G @ ref.x - h) <= 1e-7
    assert solve_qp(P, q, c, G, h, A, b).value == pytest.approx(ref.fun, rel=1e-5, abs=1e-5)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def random_form(rng, dim):
    L = rng.normal(size=(dim, dim))
    return QPForm(dim, P=L @ L.T, q=rng.normal(size=dim), c=rng.normal(),
                  G=rng.normal(size=(2, dim)), h=rng.normal(size=2),
                  A=rng.normal(size=(1, dim)), b=rng.normal(size=1),
                  epi=[(rng.normal(size=dim), rng.normal(), absolute_value())])


@pytest.mark.parametrize("seed", SEEDS)
def test_embed_equals_compose_with_selection(seed):
    rng = np.random.default_rng(1100 + seed)
    dim = 7
    for k in (1, 2, 4):
        cols = rng.choice(dim, k, replace=False)
        form = random_form(rng, k)
        got = form.embed(cols, dim)
        want = form.compose(selection_matrix(cols, dim), np.zeros(k))
        for name in ("P", "q", "G", "h", "A", "b"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        assert (got.dim, got.c) == (want.dim, want.c)
        assert len(got.epi) == len(want.epi)
        for (r1, o1, f1), (r2, o2, f2) in zip(got.epi, want.epi):
            np.testing.assert_array_equal(r1, r2)
            assert o1 == o2 and f1 is f2


def test_add_stacks_rows_in_order():
    rng = np.random.default_rng(3)
    forms = [random_form(rng, 3) for _ in range(3)]
    out = QPForm.add(forms, 3)
    np.testing.assert_array_equal(out.G, np.vstack([f.G for f in forms]))
    np.testing.assert_array_equal(out.b, np.concatenate([f.b for f in forms]))
    np.testing.assert_array_equal(out.P, forms[0].P + forms[1].P + forms[2].P)
    assert len(out.epi) == 3


def test_zero_width_infeasible_form():
    # the constant +inf of a fully frozen infeasible part: one row 0 <= -1
    form = infeasible(0).qp_form()
    assert (form.G.shape, form.h.tolist(), form.A.shape) == ((1, 0), [-1.0], (0, 0))
    res = solve_qp(form.P, form.q, form.c, form.G, form.h, form.A, form.b)
    assert res.status == "infeasible"
    wide = form.embed(np.zeros(0, dtype=int), 3)
    assert wide.G.shape == (1, 3)
    assert solve_qp(wide.P, wide.q, wide.c, wide.G, wide.h).status == "infeasible"


@pytest.mark.parametrize("seed", SEEDS)
def test_split_fix_mask_equals_setdiff(seed):
    rng = np.random.default_rng(1200 + seed)
    for dim in (0, 1, 5):
        idx = rng.choice(dim, int(rng.integers(0, dim + 1)), replace=False)
        _, _, keep = _split_fix(idx, np.zeros(idx.size), dim)
        np.testing.assert_array_equal(keep, np.setdiff1d(np.arange(dim), idx))
        assert keep.dtype.kind == "i"


@pytest.mark.parametrize("seed", SEEDS)
def test_leaf_rows_equal_leaf_vectors(seed):
    tree = irregular_tree(seed)
    for dims in (STAGE_DIMS, (0,) * len(STAGE_DIMS)):
        proc = random_process(np.random.default_rng(1300 + seed), tree, dims)
        rows = proc.leaf_rows()
        assert rows.shape == (tree.n_leaves, sum(dims))
        assert not rows.flags.writeable
        for leaf in range(tree.n_leaves):
            np.testing.assert_array_equal(rows[leaf], proc.leaf_vector(leaf))


@pytest.mark.parametrize("seed", SEEDS)
def test_stacked_compose_equals_each_compose(seed):
    rng = np.random.default_rng(1700 + seed)
    form = random_form(rng, 3)
    M, m = rng.normal(size=(5, 3, 4)), rng.normal(size=(5, 3))
    stack = form.compose(M, m)
    assert stack.c.shape == (5,) and stack.G.shape == (5, 2, 4) and stack.dim == 4
    for k in range(5):
        one = form.compose(M[k], m[k])
        for name in ("P", "q", "c", "G", "h", "A", "b"):
            np.testing.assert_array_equal(getattr(stack, name)[k], getattr(one, name),
                                          err_msg=name)
        for (rows, offs, f1), (row, off, f2) in zip(stack.epi, one.epi):
            np.testing.assert_array_equal(rows[k], row)
            assert offs[k] == off and f1 is f2
    lifted = form.compose(M[0], m[0]).as_stack()
    for name in ("P", "q", "c", "G", "h", "A", "b"):
        np.testing.assert_array_equal(getattr(lifted, name)[0],
                                      getattr(stack, name)[0], err_msg=name)


def test_scaled_supporting_lines_equal_lines_of_scaled():
    weights = np.array([1.0, 0.3, 1.0 / 7.0, 2.5e-3])
    for pwl in (BOUNDED_PWL, absolute_value().scaled(0.7),
                PiecewiseLinear([-0.3, 1.1], [-0.4, 0.1, 1.3], lo=-2.2, anchor=(0.5, 0.9))):
        lines = pwl.supporting_lines(weights)
        for k, w in enumerate(weights):
            want = pwl.scaled(w).supporting_lines()
            assert [(s[k], c[k]) for s, c in lines] == want
