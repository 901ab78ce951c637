"""Stage objects shared across a dynamic tree's nodes, and the passes that
evaluate each shared stage cost or stage conjugate once per group.

A problem file's equal stage specs parse to one BolzaStage (one
KabanovStage per distinct trade set, disutility and terminal flag), so the
primal lowering stacks a stage's nodes and K* is computed once per stage.
``bolza_dual_value``, ``check_euler_lagrange`` and
``check_hamiltonian_system`` are checked bit for bit against the per-node
loops of tests/helpers.py, and the annihilator bound's E f*(v, y) against
the integrand's joint rule leaf by leaf, on irregular trees whose blocks
share a few stage objects; the integrand's stacked f, l and f* against
each leaf's stage-by-stage rule on the dynamic documents; the stacked
Hamiltonians and Kabanov stage conjugates against their one-row rules;
and the Lagrangian that lowers the nodes' Hamiltonians in one group per
shared stage against one group per node.
"""

import math

import numpy as np
import pytest

from stochdual import integrand, qp, solver
from stochdual.cli import parse_function, parse_problem_file, run
from stochdual.convex import (
    Affine,
    AffinePrecomposition,
    FiniteSum,
    PiecewiseLinear,
    Polyhedron,
    Quadratic,
    SeparableSum,
    absolute_value,
    indicator_interval,
)
from stochdual.duality import bolza_dual_value
from stochdual.integrand import BolzaIntegrand, BolzaStage, KabanovStage
from stochdual.optimality import check_euler_lagrange, check_hamiltonian_system
from stochdual.solver import (
    Problem,
    _leaf_vectors,
    _weighted_sum,
    primal_objective,
    solve_dual,
    solve_primal,
)
from stochdual.tree import StochasticProcess

from helpers import (
    HALF_SQUARE,
    bolza_conjugate_value,
    bolza_doc,
    bolza_dual_value_per_node,
    bolza_lagrangian,
    bolza_value,
    check_euler_lagrange_per_node,
    check_hamiltonian_system_per_node,
    conjugate_sum_per_leaf,
    dynamic_docs,
    grouped_process,
    hbar_function_of_x,
    irregular_tree,
    joint_conjugate_sum,
    kabanov_doc,
    parse_doc,
    random_process,
    same_bits,
    solve_bits,
    write_doc,
)


def stage_kinds(rng, d):
    """A few stage costs on R^d x R^d: separable kinked or quadratic parts,
    and a non-separable quadratic whose tilt and offset the stage
    conjugate's slices fold in."""
    def part():
        return [Quadratic([rng.uniform(0.2, 1.5)], [rng.normal()], rng.normal()),
                absolute_value().scaled(rng.uniform(0.5, 2.0)),
                PiecewiseLinear([0.0], [-0.5, 2.0])][int(rng.integers(3))]
    return [BolzaStage(SeparableSum([part() for _ in range(2 * d)]), d),
            BolzaStage(Quadratic(rng.uniform(0.2, 1.5, 2 * d), rng.normal(size=2 * d),
                                 rng.normal()), d)]


def shared_bolza(seed, d):
    """Each block's stage cost drawn from two shared objects per stage."""
    tree = irregular_tree(seed)
    rng = np.random.default_rng(700 + seed)
    stages = []
    for t in range(tree.stage_count):
        kinds = stage_kinds(rng, d)
        stages.append([kinds[int(rng.integers(2))] for _ in tree.blocks(t)])
    return Problem(tree, BolzaIntegrand(tree, stages)), rng


def adapted(rng, tree, dims, scale=1.0):
    return StochasticProcess(tree, tuple(
        scale * a for a in grouped_process(rng, tree, dims).values))


CASES = [(seed, d) for seed in range(4) for d in (1, 2)]


# ---------------------------------------------------------------------------
# sharing
# ---------------------------------------------------------------------------


@pytest.fixture
def bolza63(tmp_path):
    """A parsed Bolza x^2/2 + w^2/2 problem on the 63-node binary tree of
    horizon 5, and its file."""
    path = write_doc(tmp_path, "bolza-H5", bolza_doc(5, HALF_SQUARE, np.random.default_rng(0)))
    problem, _, params, _, _ = parse_problem_file(path)
    return problem, params["u"], path


def test_equal_specs_parse_to_one_object(tmp_path):
    # generic leaves with equal specs, in different key order, share one
    # function; a different spec does not
    quad = {"kind": "precompose", "inner": HALF_SQUARE, "matrix": [[1.0, -1.0]]}
    doc = {"tree": {"probabilities": [0.25] * 4, "partitions": [[[0, 1, 2, 3]], [[0], [1], [2], [3]]]},
           "model": {"family": "generic", "x_dims": [1, 0], "u_dims": [0, 1],
                     "functions": [quad, dict(reversed(list(quad.items()))),
                                   {**quad, "matrix": [[2.0, -1.0]]}, quad]},
           "parameters": {"u": [0, [1.0, 2.0, 3.0, 4.0]]}}
    problem, _, _, _, _ = parse_problem_file(write_doc(tmp_path, "generic", doc))
    fns = problem.integrand.functions
    assert fns[0] is fns[1] is fns[3] and fns[2] is not fns[0]


def test_a_parsed_tree_has_one_stage(bolza63):
    problem, u, _ = bolza63
    f = problem.integrand
    assert len({id(st) for blocks in f.stages for st in blocks}) == 1
    assert [len(groups) for groups in f.stage_groups] == [1] * 6
    # one lowering group for the t = 0 map shape, one for t >= 1
    _, obj = primal_objective(problem, u)
    groups = obj._lowering[0]
    assert sorted(len(g.idx) for g in groups) == [1, 62]


@pytest.mark.parametrize("state_cost", [HALF_SQUARE, {"kind": "abs"}])
def test_hamiltonians_lower_in_one_group_per_stage(state_cost, tmp_path, monkeypatch):
    # every node's Hamiltonian g_x + c_node of the one stage shares g_x:
    # one lowering group for the 63 nodes, one for the coupling, and the
    # program of one group per term, each lowered whole, bit for bit
    path = write_doc(tmp_path, "bolza-H5", bolza_doc(5, state_cost, np.random.default_rng(0)))
    problem, _, params, _, _ = parse_problem_file(path)
    y = solve_dual(problem, params["u"]).optimizer
    _, obj = solver._lagrangian_objective(problem, y)
    n_stage_groups = sum(len(groups) for groups in problem.integrand.stage_groups)
    assert len(obj.template.terms) == 64 and len(obj._lowering[0]) <= n_stage_groups + 1
    grouped = obj.qp_data()
    real = solver._inner_forms

    def whole(fns, M, m):
        if isinstance(fns[0], (Affine, AffinePrecomposition)):
            return real(fns, M, m)
        form = fns[0].qp_form()
        return None if form is None else (form.as_stack(), None)

    monkeypatch.setattr(solver, "_group_key", lambda fn: ("term", id(fn)))
    monkeypatch.setattr(solver, "_inner_forms", whole)
    _, per_term = solver._lagrangian_objective(problem, y)
    assert len(per_term._lowering[0]) == 64
    want = per_term.qp_data()
    assert all(same_bits(a, b) for a, b in zip(grouped, want))


@pytest.mark.parametrize("state_cost", [HALF_SQUARE, {"kind": "abs"}])
def test_the_primal_template_follows_the_partition_of_u(state_cost):
    # u_a, u_b, u_a (adapted) share one template; a u that is not adapted
    # splits the nodes and rebuilds it; every solve matches a fresh parse
    # bit for bit
    docs = [bolza_doc(3, state_cost, np.random.default_rng(seed)) for seed in (1, 2)]
    docs += [docs[0], bolza_doc(3, state_cost, np.random.default_rng(1), noise=0.3)]
    p, _ = parse_doc(docs[0])
    templates = []
    for doc in docs:
        fresh, u = parse_doc(doc)
        assert solve_bits(p, StochasticProcess(p.tree, u.values)) == solve_bits(fresh, u)
        (template,) = p._primal_templates.values()
        templates.append(template)
    assert templates[0] is templates[1] is templates[2] is not templates[3]
    assert len(templates[0].terms) == 15 and len(templates[3].terms) > 15


def test_the_bound_builds_no_slice_on_a_bolza_stage(bolza63, monkeypatch):
    # the dual solve reads no stage conjugate; the bound, given its
    # objective, solves nothing and reads the one shared K* once per stage
    # over the stacked leaf rows, fixing no slice a -> K*(a, y_t); its
    # value is the integrand's joint rule, leaf by leaf, bit for bit
    problem, u, _ = bolza63
    monkeypatch.setattr(problem.integrand.stages[0][0].fn.conjugate(), "fix",
                        lambda idx, vals: pytest.fail("a slice of K*"))
    calls = []
    real = BolzaStage.conjugate_value_many
    monkeypatch.setattr(BolzaStage, "conjugate_value_many",
                        lambda self, A, B: calls.append(len(A)) or real(self, A, B))
    dual = solve_dual(problem, u)
    assert calls == []
    bound = solver.dual_via_orthocomplement(problem, dual.optimizer, objective=dual.objective)
    assert calls == [32] * 6
    assert bound.status == "optimal"
    assert same_bits(bound.value, joint_conjugate_sum(problem, dual.optimizer, bound.v))


def test_a_kabanov_report_builds_one_slice_per_distinct_row(tmp_path, monkeypatch):
    # the dual solve reads none of them; the annihilator bound builds one
    # per distinct (stage object, y_t row): 14 of the 15 nodes, as two share
    # a row
    path = write_doc(tmp_path, "kabanov", kabanov_doc(3, np.random.default_rng(3)))
    calls = []
    real = KabanovStage.conjugate_function_of_a
    monkeypatch.setattr(KabanovStage, "conjugate_function_of_a",
                        lambda self, b: calls.append((id(self), b.tobytes())) or real(self, b))
    code, report = run(["report", path])
    assert code == 0 and report["dual_representation"]["annihilator_bound"] is not None
    assert len(calls) == len(set(calls)) == 14


@pytest.mark.parametrize("command", ["report", "gap", "dualize"])
def test_a_kabanov_dual_solve_builds_each_hamiltonian_once(tmp_path, monkeypatch, command):
    # one Hamiltonian per distinct (stage object, y_t row) of the 15-node
    # market, for the Lagrangian: nodes whose rows agree bit for bit share
    # one; the lower variant reads that Lagrangian and builds none of its
    # own
    path = write_doc(tmp_path, "kabanov", kabanov_doc(3, np.random.default_rng(3)))
    calls = []
    real = KabanovStage._hamiltonian
    monkeypatch.setattr(KabanovStage, "_hamiltonian",
                        lambda self, y: calls.append((id(self), y.tobytes())) or real(self, y))
    assert run([command, path])[0] == 0
    assert len(calls) == len(set(calls)) == 14


@pytest.mark.parametrize("state_cost, lps", [(HALF_SQUARE, 0), ({"kind": "abs"}, 0)])
def test_hull_emptiness_is_decided_once_per_stage(tmp_path, monkeypatch, state_cost, lps):
    # the lower variant is the Lagrangian's value, so no command builds a
    # hull or tests a slice of K* for emptiness: no LP for x^2/2 + w^2/2,
    # nor for |x| + w^2/2 though dom K* = [-1, 1] x R there; dom K reads
    # no x in either, so no slice in x is tested on its own by the report
    # or by the saddle check
    path = write_doc(tmp_path, "bolza", bolza_doc(4, state_cost, np.random.default_rng(1)))
    per_slice, lp_calls = [], []
    monkeypatch.setattr(integrand, "_is_identically_infinite",
                        lambda fn: per_slice.append(fn) or pytest.fail("per-slice test"))
    real = qp.solve_qp
    monkeypatch.setattr(qp, "solve_qp", lambda *a, **k: lp_calls.append(a) or real(*a, **k))
    for command in (["report"], ["check", "--checker", "saddle"]):
        lp_calls.clear()
        assert run(command + [path])[0] == 0
        assert (per_slice, len(lp_calls)) == ([], lps), command


def test_x_slices_stay_per_point_where_dom_reads_x():
    # K = |w| + indicator of x <= 1: dom K reads x, so K(x, .) is tested
    # at each x
    stage = BolzaStage(SeparableSum([indicator_interval(-np.inf, 1.0), absolute_value()]), 1)
    assert stage._x_slices_empty is None
    assert stage.x_infeasible([2.0]) and not stage.x_infeasible([0.5])
    assert BolzaStage(SeparableSum([Quadratic([0.5]), absolute_value()]), 1)._x_slices_empty is False


def test_hull_emptiness_stays_per_slice_where_dom_reads_b():
    # K = x^2/2 + |w|: dom K* = R x [-1, 1], so a slice of K* is empty off
    # [-1, 1], where the reference hull and the Hamiltonian are MINUS_INF
    stage = BolzaStage(SeparableSum([Quadratic([0.5]), absolute_value()]), 1)
    assert hbar_function_of_x(stage, [2.0]) is integrand.MINUS_INF
    assert stage.hamiltonian_functions_of_x([[2.0]])[0] is integrand.MINUS_INF
    assert hbar_function_of_x(stage, [0.5]).value([1.0]) == pytest.approx(0.5)
    # the whole-space and the state-only domains are nonempty for every b
    for fn in (SeparableSum([Quadratic([0.5]), Quadratic([0.5])]),
               SeparableSum([absolute_value(), Quadratic([0.5])])):
        for b in (-3.0, 0.5, 2.0):
            assert hbar_function_of_x(BolzaStage(fn, 1), [b]) is not integrand.MINUS_INF


def test_kabanov_shares_one_stage_per_triple(tmp_path):
    problem, _, _, _, _ = parse_problem_file(
        write_doc(tmp_path, "kabanov", kabanov_doc(3, np.random.default_rng(3))))
    stages = {id(st): st for blocks in problem.integrand.stages for st in blocks}.values()
    # two cones, each before and at the horizon, with one shared disutility
    assert len(stages) == 4
    assert len({(id(st.C), st.terminal) for st in stages}) == 4
    assert len({id(st.C) for st in stages}) == 2 and len({id(st.V) for st in stages}) == 1


# ---------------------------------------------------------------------------
# stacked passes against the per-node loops, bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed, d", CASES)
def test_bolza_dual_value_matches_per_node_loop(seed, d):
    p, rng = shared_bolza(seed, d)
    u = adapted(rng, p.tree, p.m_dims)
    for scale in (0.05, 3.0):  # finite, then off some conjugate's domain
        y = adapted(rng, p.tree, p.m_dims, scale)
        assert same_bits(bolza_dual_value(p, u, y), bolza_dual_value_per_node(p, u, y))


@pytest.mark.parametrize("seed, d", CASES)
def test_euler_lagrange_matches_per_node_loop(seed, d):
    p, rng = shared_bolza(seed, d)
    u = adapted(rng, p.tree, p.m_dims)
    x = adapted(rng, p.tree, p.n_dims)
    for scale in (0.05, 3.0):
        y = adapted(rng, p.tree, p.m_dims, scale)
        same_rows(check_euler_lagrange(p, x, u, y), check_euler_lagrange_per_node(p, x, u, y))


def test_euler_lagrange_on_solved_kabanov(tmp_path):
    problem, _, params, _, _ = parse_problem_file(
        write_doc(tmp_path, "kabanov", kabanov_doc(3, np.random.default_rng(3))))
    u = params["u"]
    primal = solve_primal(problem, u)
    y = solve_dual(problem, u, primal=primal).optimizer
    got = check_euler_lagrange(problem, primal.optimizer, u, y)
    want = check_euler_lagrange_per_node(problem, primal.optimizer, u, y)
    assert got.verdict == want.verdict == "pass"
    assert same_bits([r["residual"] for r in got.rows], [r["residual"] for r in want.rows])


def same_rows(got, want, rel=0.0):
    """Two certificates agree in verdict and in every row: bit for bit, or
    with ``rel`` each finite residual within rel * max(1, |residual|)."""
    assert got.verdict == want.verdict
    assert [{k: r[k] for k in r if k != "residual"} for r in got.rows] == \
        [{k: r[k] for k in r if k != "residual"} for r in want.rows]
    res = [[r["residual"] for r in cert.rows] for cert in (got, want)]
    if not rel:
        assert same_bits(*res)
        return
    for a, b in zip(*res):
        assert a == b if math.isinf(b) else abs(a - b) <= rel * max(1.0, abs(b))


@pytest.mark.parametrize("seed, d", CASES)
def test_hamiltonian_system_matches_per_node_loop(seed, d):
    # the checker reads the state residual through K*(a, y), the per-node
    # loop through H(., y)'s own conjugate: one value, up to rounding
    p, rng = shared_bolza(seed, d)
    u = adapted(rng, p.tree, p.m_dims)
    x = adapted(rng, p.tree, p.n_dims)
    for scale in (0.05, 3.0):
        y = adapted(rng, p.tree, p.m_dims, scale)
        same_rows(check_hamiltonian_system(p, x, u, y),
                  check_hamiltonian_system_per_node(p, x, u, y), rel=1e-12)


def test_hamiltonian_system_on_solved_kabanov(tmp_path):
    problem, _, params, _, _ = parse_problem_file(
        write_doc(tmp_path, "kabanov", kabanov_doc(3, np.random.default_rng(3))))
    u = params["u"]
    primal = solve_primal(problem, u)
    y = solve_dual(problem, u, primal=primal).optimizer
    got = check_hamiltonian_system(problem, primal.optimizer, u, y)
    same_rows(got, check_hamiltonian_system_per_node(problem, primal.optimizer, u, y))
    assert got.verdict == "pass"


def leaf_rows(p, rng):
    """Leaf rows (X, U, Y, V) for a dynamic problem's f, l and f*.  On a
    currency market the leaves take, by index mod 4: rows where all three
    are finite (y on a ray of both solvency cones' polars with y_k = 0, a
    trade inside the cone, z_T = 0, and v cancelling the z-part of y's
    increments); the same with y_k != 0 at the horizon (H_T is MINUS_INF,
    f* is +inf); the same with z_T != 0 (x-infeasible at the horizon); and
    random rows.  Elsewhere every row is random."""
    f = p.integrand
    n, T1, d = f.tree.n_leaves, f.tree.stage_count, f.d
    X, U, Y, V = (rng.normal(size=(n, T1 * d)) for _ in range(4))
    if isinstance(f.stages[0][0], KabanovStage):
        h, kind = d // 2, np.arange(n) % 4
        for leaf in np.flatnonzero(kind < 3):
            x, u, y, v = (A[leaf].reshape(T1, d) for A in (X, U, Y, V))
            y[:, :h], y[:, h:] = rng.uniform(0.1, 1.0, (T1, 1)), 0.0
            x[-1, :h] = 0.0
            dz = x[:, :h] - np.vstack([np.zeros(h), x[:-1, :h]])
            u[:, :h] = -dz - x[:, h:] - rng.uniform(0.1, 1.0, (T1, 1))
            v[:, :h] = -(np.vstack([y[1:, :h], np.zeros(h)]) - y[:, :h])
        Y[kind == 1, -1] = 1.0
        X[kind == 2, -d] = 1.0
    return X, U, Y, V


def test_stacked_rules_match_the_per_leaf_rules():
    # f, l and f* one stage group at a time, bit for bit each leaf's own
    # stage-by-stage rule, on the dynamic documents: rows with f* = +inf,
    # with some H_t MINUS_INF (l = -inf) and with an x-infeasible stage
    # (f = l = +inf) included
    seen = {"f": set(), "l": set(), "f*": set()}
    for name, doc in dynamic_docs().items():
        p, _ = parse_doc(doc)
        f = p.integrand
        X, U, Y, V = leaf_rows(p, np.random.default_rng(len(name)))
        for key, got, ref, A, B in (("f", f.values(X, U), bolza_value, X, U),
                                    ("l", f.lagrangians(X, Y), bolza_lagrangian, X, Y),
                                    ("f*", f.conjugate_values(V, Y), bolza_conjugate_value, V, Y)):
            want = [ref(f, leaf, a, b) for leaf, (a, b) in enumerate(zip(A, B))]
            assert same_bits(got, want), (name, key)
            seen[key] |= {np.sign(w) if np.isinf(w) else 0.0 for w in want}
    assert seen == {"f": {0.0, 1.0}, "l": {-1.0, 0.0, 1.0}, "f*": {0.0, 1.0}}


def test_kabanov_checker_support_lps(tmp_path, monkeypatch):
    # support LPs (Polyhedron.support) per command on a 64-leaf market: the
    # saddle checker builds each distinct (stage, y_t row) Hamiltonian and
    # K* slice once, the Hamiltonian checker builds the Hamiltonians and
    # the K* slices one stage group at a time, each once per distinct
    # (stage, y_t row) of the group, and the price-system checker of ``report``
    # prices each block's sigma_C once
    path = write_doc(tmp_path, "kabanov-H6", kabanov_doc(6, np.random.default_rng(0)))
    calls = []
    real = Polyhedron.support
    monkeypatch.setattr(Polyhedron, "support", lambda self, y: calls.append(1) or real(self, y))
    counts = {}
    for command in (["report"], ["check", "--checker", "saddle"],
                    ["check", "--checker", "hamiltonian"]):
        calls.clear()
        code, report = run(command + [path])
        assert (code, report["certificate"]["verdict"]) == (0, "pass")
        counts[command[-1]] = len(calls)
    assert counts == {"report": 369, "saddle": 484, "hamiltonian": 363}


@pytest.mark.parametrize("seed, d", CASES)
@pytest.mark.parametrize("shape", ["adapted", "split", "leafwise"])
def test_annihilator_sum_matches_per_leaf_terms(seed, d, shape):
    p, rng = shared_bolza(seed, d)
    if shape == "leafwise":
        y = StochasticProcess(p.tree, tuple(0.05 * a for a in
                                            random_process(rng, p.tree, p.m_dims).values))
    else:
        y = StochasticProcess(p.tree, tuple(0.05 * a for a in grouped_process(
            rng, p.tree, p.m_dims, 1 if shape == "adapted" else 2).values))
    yvecs = _leaf_vectors(p, y, "dual")
    for scale in (0.02, 3.0):
        v = StochasticProcess(p.tree, tuple(scale * a for a in
                                            random_process(rng, p.tree, p.n_dims).values))
        got = _weighted_sum(p.tree.probabilities, p.integrand.conjugate_values(v.rows, yvecs))
        assert same_bits(got, joint_conjugate_sum(p, y, v))
        # the per-node slices of K* agree to rounding: fixing b in K*
        # folds it into the slice's constants, in another order
        assert got == pytest.approx(conjugate_sum_per_leaf(p, y, v), rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("terminal", [False, True])
def test_kabanov_stacked_conjugate_matches_row_by_row(tmp_path, monkeypatch, terminal):
    # a shared market stage prices each distinct row b once (one slice, one
    # support LP) and reads its rows of a in one pass: bit for bit
    # each row's own slice, row by row, on rows repeated across the blocks
    # that share the stage, rows off the polar cone and rows with b_k != 0
    problem, _, _, _, _ = parse_problem_file(
        write_doc(tmp_path, "kabanov", kabanov_doc(3, np.random.default_rng(3))))
    f = problem.integrand
    stage, blocks, _ = f.stage_groups[f.tree.horizon if terminal else 2][0]
    assert stage.terminal == terminal and len(blocks) > 1
    rng = np.random.default_rng(31)
    polar = np.abs(rng.normal(size=(3, 2))) @ stage.C.a_ub  # sigma_C = 0 on its rays
    bz = np.vstack([polar, rng.normal(size=(2, 2)), polar[:2]])
    bk = np.vstack([np.zeros((5, 2)), rng.normal(size=(2, 2))])
    distinct = np.hstack([bz, bk])
    B = np.vstack([distinct[rng.permutation(7)] for _ in blocks])
    A = rng.normal(size=(len(B), 4))
    A[::2, :2] = 0.0  # a_z = 0: finite before the horizon too
    calls = []
    real = KabanovStage.conjugate_function_of_a
    monkeypatch.setattr(KabanovStage, "conjugate_function_of_a",
                        lambda self, b: calls.append(b.tobytes()) or real(self, b))
    got = stage.conjugate_value_many(A, B)
    assert len(calls) == len(set(calls)) == 7
    want = [real(stage, b).value(a) for a, b in zip(A, B)]
    assert same_bits(got, want)
    assert np.isfinite(got).any() and np.isinf(got).any()


@pytest.mark.parametrize("velocity, bound", [(HALF_SQUARE, np.inf), ({"kind": "abs"}, 1.0)])
def test_stage_conjugate_through_the_hamiltonians(monkeypatch, velocity, bound):
    # K(x, w) = |x| + g(w) written as a general sum has no closed-form
    # conjugate; K*(a, b) = H(., b)*(a) = ind(|a| <= 1) + g*(b) is read
    # through one Hamiltonian per distinct row b, bit for bit each row's
    # own x-conjugate, and +inf where H(., b) is MINUS_INF (|b| > 1 for
    # g = |w|)
    fn = FiniteSum([AffinePrecomposition(absolute_value(), [[1.0, 0.0]]),
                    AffinePrecomposition(parse_function(velocity, "g"), [[0.0, 1.0]])])
    stage = BolzaStage(fn, 1)
    rng = np.random.default_rng(5)
    distinct = rng.uniform(-2.0, 2.0, (6, 1))
    B = distinct[rng.integers(6, size=40)]
    A = rng.uniform(-1.5, 1.5, (40, 1))
    built = []
    real = BolzaStage.hamiltonian_functions_of_x
    monkeypatch.setattr(BolzaStage, "hamiltonian_functions_of_x",
                        lambda self, ys: built.extend(map(bytes, ys)) or real(self, ys))
    got = stage.conjugate_value_many(A, B)
    assert len(built) == len(set(built)) == len(np.unique(B))
    hams = real(stage, B)
    want = [np.inf if h is integrand.MINUS_INF else h.conjugate().value(a) for h, a in zip(hams, A)]
    assert same_bits(got, want)
    closed = np.where((np.abs(A[:, 0]) <= 1.0) & (np.abs(B[:, 0]) <= bound),
                      B[:, 0] ** 2 / 2 if bound == np.inf else 0.0, np.inf)
    assert got == pytest.approx(closed, abs=1e-12)
    assert np.isfinite(got).any() and np.isinf(got).any()


def hamiltonian_stages(rng, d):
    """Stage costs on R^d x R^d across the branches of
    ``integrand.partial_infima``: those of ``stage_kinds``, a quadratic
    with no velocity weight (-inf off its tilt), a precomposition through a
    square velocity block, one that reads no velocity (-inf off y = 0), and
    a finite sum of an x-only summand and a separable one."""
    x_only = np.hstack([np.eye(d), np.zeros((d, d))])
    kinked = SeparableSum([absolute_value().scaled(rng.uniform(0.5, 2.0)) for _ in range(d)])
    return stage_kinds(rng, d) + [
        BolzaStage(Quadratic(np.r_[rng.uniform(0.2, 1.5, d), np.zeros(d)],
                             rng.normal(size=2 * d)), d),
        BolzaStage(AffinePrecomposition(kinked, rng.normal(size=(d, 2 * d)), rng.normal(size=d)), d),
        BolzaStage(AffinePrecomposition(Quadratic(rng.uniform(0.2, 1.5, d)), x_only), d),
        BolzaStage(FiniteSum([AffinePrecomposition(kinked, x_only), stage_kinds(rng, d)[0].fn]), d),
    ]


@pytest.mark.parametrize("d", [1, 2])
def test_stacked_hamiltonians_match_the_one_row_rule(d):
    # H(., y_k) over the stacked rows, bit for bit the one-row rule at each
    # row, MINUS_INF rows included; a separable stage's rows share one
    # x-part g, each row's function being g + c_k
    rng = np.random.default_rng(41 + d)
    X = rng.normal(size=(6, d))
    minus = finite = 0
    for stage in hamiltonian_stages(rng, d):
        tilt = stage.fn.tilt[d:] if isinstance(stage.fn, Quadratic) else rng.normal(size=d)
        Y = np.vstack([0.3 * rng.normal(size=(4, d)), 3.0 * rng.normal(size=(3, d)),
                       np.zeros((1, d)), tilt])
        Y = np.vstack([Y, Y[[0, 5, 7]]])
        stacked = stage.hamiltonian_functions_of_x(Y)
        assert len(stacked) == len(Y)
        for h, y in zip(stacked, Y):
            one = stage.hamiltonian_functions_of_x(y[None])[0]
            assert (h is integrand.MINUS_INF) == (one is integrand.MINUS_INF)
            if h is integrand.MINUS_INF:
                minus += 1
            else:
                finite += 1
                assert same_bits(h.value_many(X), one.value_many(X))
        if isinstance(stage.fn, SeparableSum):
            assert len({id(solver._shifted_core(h)[0]) for h in stacked
                        if h is not integrand.MINUS_INF}) == 1
    assert minus > 0 and finite > 0


@pytest.mark.parametrize("terminal", [False, True])
def test_kabanov_stacked_hamiltonians_match_the_one_row_rule(monkeypatch, terminal):
    # one support LP per distinct row, the rows that agree sharing it; the
    # rows with y_k != 0 or off the polar cone are MINUS_INF
    rng = np.random.default_rng(47)
    C = Polyhedron.from_cone_generators(np.array([[1.0, -2.0], [-1.0, 0.5]]))
    stage = KabanovStage(Quadratic([0.5, 0.5]), C, terminal)
    polar = np.abs(rng.normal(size=(3, 2))) @ C.a_ub
    distinct = np.hstack([np.vstack([polar, rng.normal(size=(3, 2))]),
                          np.vstack([np.zeros((5, 2)), rng.normal(size=(1, 2))])])
    Y = distinct[np.r_[np.arange(6), rng.integers(0, 6, 6)]]
    calls = []
    real = KabanovStage._hamiltonian
    monkeypatch.setattr(KabanovStage, "_hamiltonian",
                        lambda self, y: calls.append(y.tobytes()) or real(self, y))
    stacked = stage.hamiltonian_functions_of_x(Y)
    assert len(calls) == len(set(calls)) == 6
    X = rng.normal(size=(5, 4))
    X[::2, :2] = 0.0
    kinds = set()
    for h, y in zip(stacked, Y):
        one = real(stage, y)
        kinds.add(h is integrand.MINUS_INF)
        assert (h is integrand.MINUS_INF) == (one is integrand.MINUS_INF)
        if h is not integrand.MINUS_INF:
            assert same_bits(h.value_many(X), one.value_many(X))
    assert kinds == {True, False}
