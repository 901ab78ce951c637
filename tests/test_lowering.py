"""Index-array lowering of compiled objectives, checked against the dense
lowering through per-term (leaf or node) selection or basis-row matrices
on irregular trees with stage dimensions 0, 1 and 2."""

import numpy as np
import pytest

from stochdual import solver
from stochdual.convex import (
    Affine,
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
from stochdual.integrand import BolzaIntegrand, BolzaStage, GenericIntegrand
from stochdual.qp import solve_qp
from stochdual.solver import Problem, primal_objective

from helpers import STAGE_DIMS, irregular_tree, random_process, selection_matrix

SEEDS = range(6)
INF = float("inf")


# ---------------------------------------------------------------------------
# dense reference
# ---------------------------------------------------------------------------


def dense_lowering(obj, mats):
    """qp_data the dense way: each term's form composed with its matrix and
    added at its weight, then one epigraph variable per kinked atom, its
    rows labelled (node, ("epigraph", z-coefficient)), the node being the
    term's leaf or tree node."""
    width = mats[0].shape[1]
    P, q, c = np.zeros((width, width)), np.zeros(width), 0.0
    G, h, A, b, labels, atoms = [], [], [], [], [], []
    for t, M in zip(obj.terms, mats):
        form = t.fn.qp_form().compose(M, np.zeros(M.shape[0]))
        P += t.weight * form.P
        q += t.weight * form.q
        c += t.weight * form.c
        G += list(form.G); h += list(form.h); A += list(form.A); b += list(form.b)
        labels += [(t.node, lab) for lab in form.labels]
        atoms += [(t.node, row, off, pwl.scaled(t.weight)) for row, off, pwl in form.epi]
    n_aux = len(atoms)
    G = [np.append(row, np.zeros(n_aux)) for row in G]
    for i, (node, row, off, pwl) in enumerate(atoms):
        aux, none = np.zeros(n_aux), np.zeros(n_aux)
        aux[i] = -1.0
        for slope, intercept in pwl.supporting_lines():
            G.append(np.append(slope * row, aux)); h.append(-(intercept + slope * off))
            labels.append((node, ("epigraph", slope)))
        if pwl.hi != INF:
            G.append(np.append(row, none)); h.append(pwl.hi - off)
            labels.append((node, ("epigraph", 1.0)))
        if pwl.lo != -INF:
            G.append(np.append(-row, none)); h.append(off - pwl.lo)
            labels.append((node, ("epigraph", -1.0)))
    total = width + n_aux
    Pt = np.zeros((total, total)); Pt[:width, :width] = P
    return (Pt, np.append(q, np.ones(n_aux)), c,
            np.array(G).reshape(-1, total), np.array(h),
            np.array([np.append(row, np.zeros(n_aux)) for row in A]).reshape(-1, total),
            np.array(b), labels, width)


def assert_lowering_equal(got, want, atol=0.0):
    *arrays, labels, n_main = got
    *ref, ref_labels, ref_main = want
    assert (labels, n_main) == (ref_labels, ref_main)
    for name, x, y in zip("P q c G h A b".split(), arrays, ref):
        assert np.shape(x) == np.shape(y), name
        if atol:
            np.testing.assert_allclose(x, y, rtol=0, atol=atol, err_msg=name)
        else:
            np.testing.assert_array_equal(x, y, err_msg=name)


def selection_mats(obj):
    return [selection_matrix(t.cols, obj.width) for t in obj.terms]


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
    """2-d polyhedral indicator with two labelled inequalities and one equality."""
    return PolyhedralIndicator(Polyhedron(
        a_ub=rng.normal(size=(2, 2)), b_ub=rng.uniform(1.0, 2.0, 2),
        a_eq=[[1.0, -1.0]], b_eq=[rng.normal()]), labels=["cap", "floor"])


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


def captured_objective(monkeypatch, call):
    """The CompiledObjective a solve hands to the minimiser."""
    seen = []
    real = solver._minimize

    def spy(obj, cfg):
        seen.append(obj)
        return real(obj, cfg)

    monkeypatch.setattr(solver, "_minimize", spy)
    call()
    monkeypatch.setattr(solver, "_minimize", real)
    assert len(seen) == 1
    return seen[0]


# ---------------------------------------------------------------------------
# compiled lowerings
# ---------------------------------------------------------------------------


class TestLoweringMatchesDense:
    def test_cases_cover_every_row_kind(self):
        data = [primal_objective(p, u)[1].qp_data() for s in SEEDS for p, u, _ in cases(s)]
        assert any(n_main < P.shape[0] for P, *_, n_main in data)  # epigraph atoms
        assert any(any(lab is not None for lab in labels) for *_, labels, _ in data)
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
        atoms = 0
        for p, _, y in cases(seed)[1:]:
            obj = captured_objective(monkeypatch,
                                     lambda: solver.dual_via_orthocomplement(p, y))
            assert obj.basis is not None and obj.width < obj.n
            mats = [obj.basis[t.cols] for t in obj.terms]
            assert_lowering_equal(obj.qp_data(), dense_lowering(obj, mats), atol=1e-12)
            atoms += obj.qp_data()[0].shape[0] - obj.width
        assert atoms  # auxiliary columns pass through the basis map

    @pytest.mark.parametrize("seed", SEEDS)
    def test_values_and_subgradients_gather(self, seed, monkeypatch):
        rng = np.random.default_rng(1000 + seed)
        p, _, y = cases(seed)[1]
        for obj in (primal_objective(p, random_process(rng, p.tree, p.m_dims))[1],
                    captured_objective(monkeypatch,
                                       lambda: solver.dual_via_orthocomplement(p, y))):
            B = np.eye(obj.n) if obj.basis is None else obj.basis
            mats = [selection_matrix(t.cols, obj.n) @ B for t in obj.terms]
            W = 0.1 * rng.normal(size=(4, obj.width))
            want = [sum(t.weight * t.fn.value(M @ w) for t, M in zip(obj.terms, mats))
                    for w in W]
            np.testing.assert_allclose([obj.value(w) for w in W], want, rtol=1e-13)
            np.testing.assert_allclose(obj.value_many(W), want, rtol=1e-13)
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
# building blocks
# ---------------------------------------------------------------------------


def random_form(rng, dim):
    L = rng.normal(size=(dim, dim))
    return QPForm(dim, P=L @ L.T, q=rng.normal(size=dim), c=rng.normal(),
                  G=rng.normal(size=(2, dim)), h=rng.normal(size=2),
                  A=rng.normal(size=(1, dim)), b=rng.normal(size=1),
                  labels=["a", "b"],
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
        assert (got.dim, got.c, got.labels) == (want.dim, want.c, want.labels)
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
    assert out.labels == ["a", "b"] * 3 and len(out.epi) == 3


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
