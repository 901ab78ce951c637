"""Primal/dual solves, the dual bound chain and gap measurements."""

import dataclasses
import pathlib

import numpy as np
import pytest

from stochdual import cli, solver
from stochdual.cli import fixture_path, parse_problem_file
from stochdual.convex import (
    Affine,
    AffinePrecomposition,
    Entropy,
    Exponential,
    PiecewiseLinear,
    PolyhedralIndicator,
    Polyhedron,
    Quadratic,
    SeparableSum,
    absolute_value,
    domain_polyhedron,
    indicator_nonpos,
    indicator_point,
)
from stochdual.integrand import (
    AlmIntegrand,
    BolzaIntegrand,
    BolzaStage,
    ConstrainedIntegrand,
    GenericIntegrand,
    KabanovStage,
    ParametricIntegrand,
)
from stochdual.optimality import check_alm
from stochdual.solver import (
    Problem,
    dual_objective,
    dual_via_orthocomplement,
    duality_gap,
    primal_objective,
    solve_dual,
    solve_primal,
)
from stochdual.tree import (
    ScenarioTree,
    StochasticProcess,
    adapted_projection,
    build_tree,
    in_orthocomplement,
    pairing,
)

from helpers import (
    HALF_SQUARE,
    NEWTON_OVERFLOW_DOC,
    basis_bound,
    binary_hedging,
    bound_solves,
    bolza_doc,
    dynamic_docs,
    grid_minimize,
    hedging_doc,
    hedging_file,
    irregular_tree,
    objective_values,
    parse_doc,
    per_leaf_conjugate_sum,
    same_bits,
    solve_bits,
    terms,
    two_leaf_tree,
    write_doc,
)

INF = float("inf")


def tracking_problem(p=(0.5, 0.5)):
    """min E (x0 - u)^2 / 2 over scalar adapted x0, parameter at stage 1."""
    tree = two_leaf_tree(p)
    joint = AffinePrecomposition(Quadratic([0.5]), np.array([[1.0, -1.0]]))
    f = GenericIntegrand(tree, [1, 0], [0, 1], [joint])
    return Problem(tree, f)


def tracking_u(tree, vals=(1.0, 3.0)):
    return StochasticProcess.from_stage_values(
        tree, [np.zeros((2, 0)), [[vals[0]], [vals[1]]]]
    )


def binomial_alm():
    """s0 = 1, s1 = (2, 1/2), uniform; quadratic disutility."""
    tree = two_leaf_tree()
    price = StochasticProcess.from_stage_values(tree, [[[1.0], [1.0]], [[2.0], [0.5]]])
    f = AlmIntegrand(tree, [Quadratic([0.5])], price)
    return Problem(tree, f)


def alm_u(tree, c=1.0):
    return StochasticProcess.from_stage_values(
        tree, [np.zeros((tree.n_leaves, 0)), np.full((tree.n_leaves, 1), c)]
    )


def exponential_alm():
    """binomial_alm with the disutility V(c) = e^c - 1, which has no QP
    form."""
    tree = two_leaf_tree()
    price = StochasticProcess.from_stage_values(tree, [[[1.0], [1.0]], [[2.0], [0.5]]])
    return Problem(tree, AlmIntegrand(tree, [Exponential(1.0, 1.0, -1.0)], price))


def entropy_hedging():
    """f_l(x, u) = x1 log x1 - x1 + (u - a_l x2)^2 / 2 on two leaves, x =
    (x1, x2) at the root and a = (1, -1/2) the price increments of
    binomial_alm.  The Lagrangian has no QP form, and the conjugate
    f*(v, y) = exp(v1) + y^2 / 2 on v2 = -a y has equality rows only."""
    tree = two_leaf_tree()
    return Problem(tree, GenericIntegrand(tree, [2, 0], [0, 1], [
        SeparableSum([Entropy(), AffinePrecomposition(Quadratic([0.5]), [[-a, 1.0]])])
        for a in (1.0, -0.5)]))


def quad_stage(wx=0.5, wu=0.5):
    return BolzaStage(SeparableSum([Quadratic([wx]), Quadratic([wu])]), 1)


def bolza_problem_deterministic():
    tree = ScenarioTree.deterministic(2)
    f = BolzaIntegrand(tree, [[quad_stage()], [quad_stage()]])
    return Problem(tree, f)


def bolza_problem_binary():
    tree = ScenarioTree.binary(2)
    stages = [[quad_stage()], [quad_stage(), quad_stage()],
              [quad_stage()] * 4]
    f = BolzaIntegrand(tree, stages)
    return Problem(tree, f)


class TestSolvePrimal:
    def test_tracking_optimizer_is_mean(self):
        p = tracking_problem()
        u = tracking_u(p.tree)
        res = solve_primal(p, u)
        assert res.status == "optimal"
        # x* = E u = 2; value = Var(u)/2 (grid oracle cross-check below)
        assert res.optimizer.stage(0)[0, 0] == pytest.approx(2.0, abs=1e-8)
        assert res.value == pytest.approx(0.5, abs=1e-8)

    def test_tracking_against_grid(self):
        p = tracking_problem()
        u = tracking_u(p.tree)
        layout, obj = primal_objective(p, u)
        expected, _ = grid_minimize(objective_values(obj), layout.width)
        res = solve_primal(p, u)
        assert res.value == pytest.approx(expected, abs=2e-2)

    def test_bolza_zero_parameter(self):
        p = bolza_problem_deterministic()
        u = StochasticProcess.zeros(p.tree, p.m_dims)
        res = solve_primal(p, u)
        assert res.status == "optimal"
        assert res.value == pytest.approx(0.0, abs=1e-10)
        assert np.max(np.abs(res.optimizer.rows)) < 1e-8

    def test_infeasible_constrained(self):
        tree = ScenarioTree.deterministic(1)
        f0 = Quadratic([0.0])  # zero objective
        # constraints: x + u <= 0 with u = 1, and -x <= 0
        f = ConstrainedIntegrand(
            tree, [1], [f0], [[Affine([1.0], 0.0), Affine([-1.0], 0.0)]]
        )
        p = Problem(tree, f)
        u = StochasticProcess.from_stage_values(tree, [[[1.0, 0.0]]])
        res = solve_primal(p, u)
        assert res.status == "infeasible"

    def test_kkt_single_leaf(self):
        tree = ScenarioTree.deterministic(1)
        f = ConstrainedIntegrand(tree, [1], [Quadratic([1.0])],
                                 [[Affine([-1.0], 1.0)]])
        p = Problem(tree, f)
        u = StochasticProcess.zeros(tree, p.m_dims)
        res = solve_primal(p, u)
        assert res.status == "optimal"
        assert res.optimizer.stage(0)[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert res.value == pytest.approx(1.0, abs=1e-8)


class TestDualObjective:
    def test_tracking_zero_mean_dual(self):
        p = tracking_problem()
        y = StochasticProcess.from_stage_values(
            p.tree, [np.zeros((2, 0)), [[1.0], [-1.0]]]
        )
        dob = dual_objective(p, y)
        assert dob.value == pytest.approx(0.5, abs=1e-10)
        assert dob.lower_value == pytest.approx(0.5, abs=1e-8)

    def test_tracking_nonzero_mean_diverges(self):
        p = tracking_problem()
        y = StochasticProcess.from_stage_values(
            p.tree, [np.zeros((2, 0)), [[1.0], [1.0]]]
        )
        dob = dual_objective(p, y)
        assert dob.value == INF

    def test_alm_on_martingale_density(self):
        p = binomial_alm()
        y = StochasticProcess.from_stage_values(
            p.tree, [np.zeros((2, 0)), [[2.0 / 3.0], [4.0 / 3.0]]]
        )
        dob = dual_objective(p, y)
        # E V*(y) = E y^2/2
        expected = 0.5 * 0.5 * ((2 / 3) ** 2 + (4 / 3) ** 2)
        assert dob.value == pytest.approx(expected, abs=1e-9)


class TestSolveDual:
    def test_tracking_recovers_centred_parameter(self):
        p = tracking_problem()
        u = tracking_u(p.tree)
        res = solve_dual(p, u)
        assert res.status == "optimal"
        np.testing.assert_allclose(res.optimizer.stage(1).ravel(), [-1.0, 1.0],
                                   atol=1e-7)
        assert res.value == pytest.approx(0.5, abs=1e-7)

    def test_bolza_zero(self):
        p = bolza_problem_deterministic()
        u = StochasticProcess.zeros(p.tree, p.m_dims)
        res = solve_dual(p, u)
        assert res.status == "optimal"
        assert res.value == pytest.approx(0.0, abs=1e-8)
        assert np.max(np.abs(res.optimizer.rows)) < 1e-7

    def test_alm_zero_liability(self):
        p = binomial_alm()
        u = alm_u(p.tree, 0.0)
        res = solve_dual(p, u)
        assert res.value == pytest.approx(0.0, abs=1e-8)
        assert np.max(np.abs(res.optimizer.rows)) < 1e-7

    def test_alm_recovers_risk_neutral_direction(self):
        p = binomial_alm()
        u = alm_u(p.tree, 1.0)
        res = solve_dual(p, u)
        assert res.status == "optimal"
        y = res.optimizer.stage(1).ravel()
        mean = 0.5 * (y[0] + y[1])
        np.testing.assert_allclose(y / mean, [2.0 / 3.0, 4.0 / 3.0], atol=1e-6)
        assert res.value == pytest.approx(0.45, abs=1e-7)

    @pytest.mark.parametrize("case", ["unbounded", "infeasible", "max-iter"])
    def test_no_inner_solve_without_a_primal_optimum(self, monkeypatch, case):
        # unbounded: f(x, u) = x; infeasible: a kinked disutility on
        # [-0.1, 0.1] that no hedge of u = (1, 1) reaches; max-iter: the
        # Newton method capped at two steps, short of the optimum
        if case == "unbounded":
            tree = ScenarioTree.deterministic(1)
            p = Problem(tree, GenericIntegrand(tree, [1], [1], [Affine([1.0, 0.0])]))
            u = StochasticProcess.from_stage_values(tree, [[[0.0]]])
        elif case == "infeasible":
            tree = two_leaf_tree()
            price = StochasticProcess.from_stage_values(tree, [[[1.0], [1.0]], [[1.2], [0.9]]])
            V = PiecewiseLinear([0.0], [0.5, 2.0], lo=-0.1, hi=0.1)
            p = Problem(tree, AlmIntegrand(tree, [V], price))
            u = alm_u(tree, 1.0)
        else:
            p = exponential_alm()
            u = alm_u(p.tree, 0.0)
            monkeypatch.setattr(solver, "_NEWTON_STEPS", 2)
        primal = solve_primal(p, u)
        assert primal.status == case
        calls = []
        real = solver.dual_objective
        monkeypatch.setattr(solver, "dual_objective", lambda *a: calls.append(a) or real(*a))
        res = solve_dual(p, u, primal=primal)
        assert calls == []
        assert res.optimizer is None
        if case == "unbounded":
            # weak duality: the dual value is -inf
            assert (res.status, res.value) == ("infeasible", -INF)
        else:
            assert res.status == "not-run"

    @staticmethod
    def smooth_generic():
        """exp + entropy + affine on one leaf: no QP form on either side."""
        tree = ScenarioTree.deterministic(2)
        p = Problem(tree, GenericIntegrand(tree, [1, 1], [0, 1], [SeparableSum([
            Exponential(0.7068, 0.8908, 0.3056), Entropy(1.3672, 0.2401, -0.3257),
            Affine([0.3592], 0.6926)])]))
        return p, StochasticProcess.from_stage_values(tree, [[[]], [[1.4852]]])

    def test_smooth_inner_solve_closes_the_gap(self):
        # the recovered y = 0.3592 is priced by the infimum of an
        # exponential plus an entropy, which Newton's method reaches
        p, u = self.smooth_generic()
        primal = solve_primal(p, u)
        res = solve_dual(p, u, primal=primal)
        assert (primal.status, primal.method) == ("optimal", "newton")
        assert (res.status, res.method) == ("optimal", "recovered")
        assert res.optimizer.stage(1)[0, 0] == pytest.approx(0.3592, abs=1e-12)
        assert abs(primal.value - res.value) <= 1e-12 * max(1.0, abs(primal.value))

    def test_unconverged_inner_solve_is_max_iter(self, monkeypatch):
        # the inner solve that prices y, capped at one Newton step, stops
        # short of the infimum: no dual value is reported
        p, u = self.smooth_generic()
        primal = solve_primal(p, u)
        assert primal.status == "optimal"
        monkeypatch.setattr(solver, "_NEWTON_STEPS", 1)
        res = solve_dual(p, u, primal=primal)
        assert (res.status, res.method, res.optimizer) == ("max-iter", "recovered", None)
        assert res.residual == INF


class TestOrthocomplementBound:
    def test_alm_density_bound_matches_dual_objective(self):
        p = binomial_alm()
        y = StochasticProcess.from_stage_values(
            p.tree, [np.zeros((2, 0)), [[2.0 / 3.0], [4.0 / 3.0]]]
        )
        bound = dual_via_orthocomplement(p, y)
        dob = dual_objective(p, y)
        assert bound.value == pytest.approx(dob.value, abs=1e-8)
        assert in_orthocomplement(bound.v, 1e-8)
        # the conjugate forces v_t = -y ds_{t+1}
        expected = np.array([[-2.0 / 3.0], [4.0 / 3.0 * 0.5]])
        np.testing.assert_allclose(bound.v.stage(0), expected, atol=1e-8)

    def test_alm_non_martingale_is_infeasible(self):
        p = binomial_alm()
        y = StochasticProcess.from_stage_values(
            p.tree, [np.zeros((2, 0)), [[1.0], [1.0]]]
        )
        bound = dual_via_orthocomplement(p, y)
        assert bound.value == INF

    def test_bolza_adapted_dual_formula(self):
        p = bolza_problem_binary()
        rng = np.random.default_rng(61)
        for _ in range(10):
            raw = StochasticProcess(
                p.tree, tuple(rng.normal(size=(p.tree.n_leaves, d)) for d in p.m_dims)
            )
            y = adapted_projection(raw)
            bound = dual_via_orthocomplement(p, y)
            # E sum_t K_t*(E_t dy_{t+1}, y_t) with y_{T+1} = 0 and K* = sep quad
            from stochdual.tree import conditional_expectation

            total = 0.0
            T = p.tree.horizon
            ys = [y.stage(t) for t in range(T + 1)]
            for t in range(T + 1):
                nxt = ys[t + 1] if t < T else np.zeros_like(ys[t])
                dy = StochasticProcess(
                    p.tree, tuple(
                        (nxt - ys[t]) if r == t else np.zeros_like(ys[r])
                        for r in range(T + 1)
                    )
                )
                e_dy = conditional_expectation(dy, t).stage(t)
                term = 0.5 * e_dy.ravel() ** 2 + 0.5 * ys[t].ravel() ** 2
                total += float(p.tree.probabilities @ term)
            assert bound.value == pytest.approx(total, abs=1e-7)

    def test_bound_matches_one_dimensional_grid(self):
        # two-leaf dynamic instance: the zero-conditional-mean subspace is
        # one-dimensional, so the bound can be brute-forced over it
        tree = two_leaf_tree((0.4, 0.6))
        stages = [[quad_stage(0.7, 0.4)], [quad_stage(0.3, 0.9), quad_stage(0.3, 0.9)]]
        f = BolzaIntegrand(tree, stages)
        p = Problem(tree, f)
        rng = np.random.default_rng(65)
        y = StochasticProcess(
            p.tree, tuple(rng.normal(size=(2, 1)) for _ in range(2))
        )
        bound = dual_via_orthocomplement(p, y)
        # basis of the subspace: stage-0 component (1, -p0/p1), stage 1 zero
        base = np.array([1.0, -0.4 / 0.6])
        best = np.inf
        for z in np.arange(-10, 10.0001, 0.001):
            v = np.column_stack([z * base, np.zeros(2)])
            best = min(best, float(np.array([0.4, 0.6]) @ f.conjugate_values(v, y.rows)))
        assert bound.value == pytest.approx(best, abs=1e-5)

    def test_deterministic_tree_reduces_to_zero_subspace(self):
        p = bolza_problem_deterministic()
        y = StochasticProcess.from_stage_values(p.tree, [[[0.3]], [[-0.2]]])
        bound = dual_via_orthocomplement(p, y)
        expected = p.integrand.conjugate_values(np.zeros((1, 2)), y.rows)[0]
        assert bound.value == pytest.approx(expected, abs=1e-10)


def stopped(dob):
    """``dob`` with its inner solve ended ``max-iter``."""
    return dataclasses.replace(dob, inner_status="max-iter",
                               inner=dataclasses.replace(dob.inner, status="max-iter"))


def kinked_bolza(tree, d, rng):
    """K(x, w) = quadratic state parts + quadratic or |.| velocity parts."""
    def part():
        if rng.uniform() < 0.5:
            return absolute_value().scaled(rng.uniform(0.5, 2.0))
        return Quadratic([rng.uniform(0.2, 1.5)], [rng.normal()])
    stages = [[BolzaStage(SeparableSum(
        [Quadratic(rng.uniform(0.2, 1.0, d))] + [part() for _ in range(d)]), d)
        for _ in tree.blocks(t)] for t in range(tree.stage_count)]
    return Problem(tree, BolzaIntegrand(tree, stages))


def small_dual(rng, p):
    """Leafwise dual, small enough to keep the conjugates of |.| finite."""
    return StochasticProcess(p.tree, tuple(
        0.1 * rng.normal(size=(p.tree.n_leaves, d)) for d in p.m_dims))


ALL_FIXTURES = sorted(
    path.name for path in pathlib.Path(fixture_path("binomial-alm.json")).parent.glob("*.json"))
BOUND_FIXTURES = ["binomial-alm.json", "bolza-pwl.json", "bolza-quadratic-binary.json",
                  "bolza-quadratic.json", "kabanov-conical.json", "kkt-single.json",
                  "pwl-hedging.json", "quadratic-tracking.json"]


class TestCertifiedBound:
    """The bound read off the dual value's inner solve, certified by weak
    duality, against the basis oracle of tests/helpers.py.  Nothing is
    solved inside the bound (``bound_solves``)."""

    @pytest.mark.parametrize("name", BOUND_FIXTURES)
    def test_fixtures_match_basis_oracle(self, name, monkeypatch):
        problem, _, params, _, _ = parse_problem_file(fixture_path(name))
        solves = bound_solves(monkeypatch)
        dual = solve_dual(problem, params["u"])
        bound = dual_via_orthocomplement(problem, dual.optimizer, objective=dual.objective)
        assert (bound.status, solves) == ("optimal", [])
        assert in_orthocomplement(bound.v)
        assert bound.value == pytest.approx(dual.objective.value, rel=1e-9, abs=1e-9)
        status, value, _ = basis_bound(problem, dual.optimizer)
        assert status == "optimal"
        assert bound.value == pytest.approx(value, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_every_fixture_report_bound_is_read_off(self, name, monkeypatch):
        solves = bound_solves(monkeypatch)
        code, report = cli.run(["report", fixture_path(name)])
        assert report["dual_representation"]["annihilator_bound"] is not None
        assert (code, solves) == (0, [])

    @pytest.mark.parametrize("leaves", [9, 16, 32, 64])
    @pytest.mark.parametrize("d", [1, 2])
    def test_irregular_trees_match_basis_oracle(self, leaves, d, monkeypatch):
        rng = np.random.default_rng(100 * leaves + d)
        p = kinked_bolza(irregular_tree(leaves, n=leaves, stages=3), d, rng)
        solves = bound_solves(monkeypatch)
        for _ in range(2):
            y = small_dual(rng, p)
            bound = dual_via_orthocomplement(p, y, objective=dual_objective(p, y))
            status, value, _ = basis_bound(p, y)
            assert (bound.status, status) == ("optimal", "optimal")
            assert bound.value == pytest.approx(value, rel=1e-9, abs=1e-9)
        assert solves == []

    @pytest.mark.parametrize("disutility", [None, {"kind": "abs"}])
    def test_hedging_report_builds_no_leaf_conjugate(self, disutility, tmp_path, monkeypatch):
        # a certified 32-leaf hedging report prices E f*(v, y) one group of
        # leaves at a time: no leaf's own conjugate function is built, and
        # the bound is the per-leaf sum
        path = hedging_file(tmp_path, 5, np.random.default_rng(8).uniform(2.5, 3.5, 32),
                            disutility)
        calls, bounds = [], []
        per_leaf = ParametricIntegrand.conjugate_function_of_v
        monkeypatch.setattr(ParametricIntegrand, "conjugate_function_of_v",
                            lambda self, leaf, y: calls.append(leaf) or per_leaf(self, leaf, y))

        def recorded(*args):
            bounds.append((args, dual_via_orthocomplement(*args)))
            return bounds[-1][1]

        monkeypatch.setattr(cli, "dual_via_orthocomplement", recorded)
        solves = bound_solves(monkeypatch)
        code, report = cli.run(["report", path])
        assert (code, report["certificate"]["verdict"]) == (0, "pass")
        assert report["dual_representation"]["annihilator_bound"] is not None
        assert (calls, solves, len(bounds)) == ([], [], 1)
        (p, y, *_), bound = bounds[0]
        assert bound.value == pytest.approx(per_leaf_conjugate_sum(p, y, bound.v),
                                            rel=1e-12, abs=1e-12)

    def test_large_liabilities_are_read_off(self, tmp_path, monkeypatch):
        # liabilities near 3e7: the read-off v's conditional means are
        # rounding on a v of that size, so the annihilator test is relative
        # to max |v|; the bound is the one a solve over v reaches
        path = hedging_file(tmp_path, 2, 1e7 * np.random.default_rng(0).uniform(2.5, 3.5, 4))
        problem, _, params, _, _ = parse_problem_file(path)
        dual = solve_dual(problem, params["u"])
        solves = bound_solves(monkeypatch)
        bound = dual_via_orthocomplement(problem, dual.optimizer, objective=dual.objective)
        assert (bound.status, solves) == ("optimal", [])
        assert bound.value == pytest.approx(283805608775655.25, rel=1e-12)

    def test_unbounded_inner_solve_is_infeasible(self, monkeypatch):
        # f(x, u) = indicator of x0 = u: l(x, y) = -y x0, unbounded below
        # over x0 unless E y = 0, so phi*(y) = +inf and so is the bound.  A
        # leaf with l = -inf (y outside dom V* on |z| hedging) leaves no
        # inner solve, with the same answer
        tree = two_leaf_tree((0.4, 0.6))
        joint = AffinePrecomposition(indicator_point(0.0), np.array([[1.0, -1.0]]))
        linear = Problem(tree, GenericIntegrand(tree, [1, 0], [0, 1], [joint]))
        hedging = binary_hedging(2, absolute_value())
        cases = [(linear, StochasticProcess.from_stage_values(
                      tree, [np.zeros((2, 0)), [[1.0], [2.0]]]), True),
                 (hedging, StochasticProcess.from_leaf_rows(
                      hedging.tree, hedging.m_dims, np.array([[0.5], [1.5], [-0.2], [1.0]])),
                  False)]
        solves = bound_solves(monkeypatch)
        for p, y, solved in cases:
            dob = dual_objective(p, y)
            assert (dob.inner_status, dob.inner is not None) == ("unbounded", solved)
            bound = dual_via_orthocomplement(p, y, objective=dob)
            assert (bound.value, bound.v, bound.status, solves) == (INF, None, "infeasible", [])

    def bolza_case(self):
        rng = np.random.default_rng(5)
        p = kinked_bolza(irregular_tree(5), 2, rng)
        return p, small_dual(rng, p)

    def moved_inner_point(self, dob, shift):
        """``dob`` with its inner point moved by ``shift``, and the lower
        variant read there as ``dual_objective`` reads it: -l(x, y), None
        where l(x, y) = +inf."""
        x = dob.inner.x + shift
        value = dob.lagrangian.value(x)
        return dataclasses.replace(dob, inner=dataclasses.replace(dob.inner, x=x),
                                   lower_value=None if value == INF else -value)

    def assert_rejected(self, bound, solves, status="gap-open"):
        # the rejected v is not reported, and nothing is solved over v
        assert (bound.status, bound.v, solves) == (status, None, [])
        assert np.isnan(bound.value)

    def test_v_off_the_annihilator_is_rejected(self, monkeypatch):
        p, y = self.bolza_case()
        real = solver._stationary_v

        def shifted(*args):
            v = real(*args)
            return StochasticProcess(v.tree, tuple(a + 0.01 for a in v.values))

        monkeypatch.setattr(solver, "_stationary_v", shifted)
        dob = dual_objective(p, y)
        solves = bound_solves(monkeypatch)
        self.assert_rejected(dual_via_orthocomplement(p, y, objective=dob), solves)

    def test_wrong_conjugate_is_rejected(self, monkeypatch):
        # every conjugate raised by 0.5: E f*(v, y) misses phi*(y) by 0.5
        p, y = self.bolza_case()
        real = BolzaIntegrand.conjugate_values
        monkeypatch.setattr(BolzaIntegrand, "conjugate_values", lambda *a: real(*a) + 0.5)
        dob = dual_objective(p, y)
        solves = bound_solves(monkeypatch)
        self.assert_rejected(dual_via_orthocomplement(p, y, objective=dob), solves)

    def test_wrong_inner_value_is_rejected(self, monkeypatch):
        p, y = self.bolza_case()
        dob = dual_objective(p, y)
        solves = bound_solves(monkeypatch)
        for wrong in (dob.value - 1e-3, dob.value + 1e-3):
            bound = dual_via_orthocomplement(
                p, y, objective=dataclasses.replace(dob, value=wrong))
            self.assert_rejected(bound, solves)
        # an inner solve stopped before its optimum has no multipliers to
        # read: its status is the bound's
        self.assert_rejected(dual_via_orthocomplement(p, y, objective=stopped(dob)), solves,
                             "max-iter")

    def test_lower_variant_is_read_not_evaluated(self, monkeypatch):
        # the bound reads the lower variant that dual_objective read at the
        # inner point, and evaluates no objective itself; a lower variant
        # off phi*(y) leaves the sandwich open
        p, y = self.bolza_case()
        dob = dual_objective(p, y)
        solves, evaluated = bound_solves(monkeypatch), []
        value = solver.CompiledObjective.value
        monkeypatch.setattr(solver.CompiledObjective, "value",
                            lambda obj, z: evaluated.append(obj) or value(obj, z))
        assert dual_via_orthocomplement(p, y, objective=dob).status == "optimal"
        for lower in (dob.lower_value - 1e-3, None):
            bound = dual_via_orthocomplement(
                p, y, objective=dataclasses.replace(dob, lower_value=lower))
            self.assert_rejected(bound, solves)
        assert evaluated == []

    def test_inner_point_off_the_domain_is_rejected(self, monkeypatch):
        # f(x, u) = g(x0) + u^2 / 2 with g kinked on [-1, 1]: the v read
        # off the true solve, paired with an inner point outside the domain
        # of l(., y), has no lower side of the sandwich, whatever phi*(y)
        # it reports: the lower variant read there is None (l = +inf)
        tree = two_leaf_tree((0.4, 0.6))
        g = PiecewiseLinear([0.0], [-1.0, 2.0], lo=-1.0, hi=1.0)
        joint = SeparableSum([g, Quadratic([0.5])])
        p = Problem(tree, GenericIntegrand(tree, [1, 0], [0, 1], [joint]))
        y = StochasticProcess.from_stage_values(tree, [np.zeros((2, 0)), [[0.5], [-2.0]]])
        dob = dual_objective(p, y)
        v = solver._stationary_v(p, y.rows, dob)
        monkeypatch.setattr(solver, "_stationary_v", lambda *a: v)
        solves = bound_solves(monkeypatch)
        assert dual_via_orthocomplement(p, y, objective=dob).value == \
            pytest.approx(dob.value, abs=1e-12)
        assert solves == []
        outside = self.moved_inner_point(dob, 5.0)
        assert outside.lower_value is None
        self.assert_rejected(dual_via_orthocomplement(p, y, objective=outside), solves)

    def test_moved_newton_point_is_rejected(self, monkeypatch):
        # Newton's inner solve carries its last step's multipliers, so v is
        # read off it: v1 = 0 and v2 = -a y reach phi*(y) = 1 + E y^2 / 2.
        # Its point moved off the minimizer leaves no lower side of the
        # sandwich
        p = entropy_hedging()
        y = StochasticProcess.from_stage_values(
            p.tree, [np.zeros((2, 0)), [[2.0 / 3.0], [4.0 / 3.0]]])
        dob = dual_objective(p, y)
        assert dob.inner.method == "newton" and dob.inner.multipliers is not None
        solves = bound_solves(monkeypatch)
        bound = dual_via_orthocomplement(p, y, objective=dob)
        assert (bound.status, solves) == ("optimal", [])
        assert in_orthocomplement(bound.v)
        assert bound.value == pytest.approx(1.0 + 0.5 * (2.0 / 9.0 + 8.0 / 9.0), abs=1e-9)
        outside = self.moved_inner_point(dob, 5.0)
        assert outside.lower_value < dob.value - 1.0
        self.assert_rejected(dual_via_orthocomplement(p, y, objective=outside), solves)

    @pytest.mark.parametrize("state_cost", [{"kind": "exponential", "offset": -1},
                                            {"kind": "entropy"}], ids=["exponential", "entropy"])
    def test_newton_bolza_bound_is_read_off(self, state_cost, monkeypatch):
        # a 16-leaf Bolza problem whose state cost has no QP form: the bound
        # is read off the Newton inner solve; a stopped inner solve leaves
        # no bound, and nothing is solved in its place
        p, u = parse_doc(bolza_doc(4, state_cost, np.random.default_rng(4)))
        dual = solve_dual(p, u)
        dob = dual.objective
        assert (dual.status, dob.inner.method) == ("optimal", "newton")
        assert dob.inner.multipliers is not None
        solves = bound_solves(monkeypatch)
        bound = dual_via_orthocomplement(p, dual.optimizer, objective=dob)
        assert (bound.status, solves) == ("optimal", [])
        assert in_orthocomplement(bound.v)
        assert bound.value == pytest.approx(dob.value, rel=1e-9, abs=1e-9)
        self.assert_rejected(dual_via_orthocomplement(p, dual.optimizer, objective=stopped(dob)),
                             solves, "max-iter")


class TestDualityGap:
    def test_quadratic_tracking(self):
        p = tracking_problem()
        rep = duality_gap(p, tracking_u(p.tree))
        assert abs(rep.gap) <= 1e-5

    def test_binomial_alm(self):
        p = binomial_alm()
        rep = duality_gap(p, alm_u(p.tree, 1.0))
        assert abs(rep.gap) <= 1e-5

    def test_gap_tolerance_is_monotone_in_tol(self):
        # a looser tol never tightens the gap test: gap_tol is at least 1e-6
        # and does not fall as tol grows
        tols = [solver.SolverConfig(tol).gap_tol for tol in (1e-9, 1e-7, 2e-7, 5e-7, 1e-6, 1e-5)]
        assert all(t >= 1e-6 for t in tols)
        assert tols == sorted(tols)

    def test_infeasible_gap_is_infinite(self):
        tree = ScenarioTree.deterministic(1)
        f = ConstrainedIntegrand(
            tree, [1], [Quadratic([0.0])],
            [[Affine([1.0], 0.0), Affine([-1.0], 0.0)]]
        )
        p = Problem(tree, f)
        u = StochasticProcess.from_stage_values(tree, [[[1.0, 0.0]]])
        rep = duality_gap(p, u)
        assert rep.gap == INF
        assert rep.primal.status == "infeasible"


class TestChainAndWeakDuality:
    def test_weak_duality_and_chain(self):
        from helpers import random_catalog_problem

        rng = np.random.default_rng(62)
        for trial in range(100):
            p = random_catalog_problem(rng)
            u = StochasticProcess(
                p.tree, tuple(rng.normal(size=(p.tree.n_leaves, d)) for d in p.m_dims)
            )
            primal = solve_primal(p, u)
            assert primal.status == "optimal", f"trial {trial}"
            for _ in range(10):
                y = StochasticProcess(
                    p.tree,
                    tuple(rng.normal(size=(p.tree.n_leaves, d)) for d in p.m_dims),
                )
                dob = dual_objective(p, y)
                if dob.value < INF:
                    assert pairing(u, y) - dob.value <= primal.value + 1e-6, \
                        f"trial {trial}"
                bound = dual_via_orthocomplement(p, y)
                assert dob.value <= bound.value + 1e-6, f"trial {trial}"

    def test_bolza_jensen_step(self):
        rng = np.random.default_rng(63)
        p = bolza_problem_binary()
        for _ in range(50):
            y = StochasticProcess(
                p.tree, tuple(rng.normal(size=(p.tree.n_leaves, d)) for d in p.m_dims)
            )
            dob = dual_objective(p, y)
            dob_a = dual_objective(p, adapted_projection(y))
            assert dob_a.value <= dob.value + 1e-6


class TestGridEquivalence:
    def test_small_instances_match_grid(self):
        # trees with <= 3 leaves, total adapted dimension <= 3
        rng = np.random.default_rng(64)
        tree = build_tree([0.3, 0.3, 0.4], [[[0, 1, 2]], [[0, 1], [2]]])
        w = 0.7
        joint = AffinePrecomposition(Quadratic([w]), np.array([[1.0, -1.0]]))
        f = GenericIntegrand(tree, [1, 0], [0, 1], [joint])
        p = Problem(tree, f)
        u = StochasticProcess.from_stage_values(
            tree, [np.zeros((3, 0)), [[0.5], [-1.0], [2.0]]]
        )
        layout, obj = primal_objective(p, u)
        assert layout.width <= 3
        expected, _ = grid_minimize(objective_values(obj), layout.width)
        res = solve_primal(p, u)
        assert res.value == pytest.approx(expected, abs=2e-2)


def exponential_hedging_value(horizon, liability):
    """exp(E_Q[u] - H(Q|P)) - 1, the exponential hedging primal on the
    binary tree of ``binary_hedging``: each step is x1.2 with Q-probability
    1/3 or x0.9 with 2/3 (P: 1/2 each), so Q_l = 3^-H 2^k for the k down
    steps to leaf l, the bits of l."""
    n = 2 ** horizon
    downs = np.array([bin(leaf).count("1") for leaf in range(n)])
    Q = 2.0 ** downs / 3.0 ** horizon
    return np.exp(Q @ liability - Q @ np.log(Q * n)) - 1.0


class TestNewtonPath:
    def test_exponential_alm_close_to_truth(self):
        # V(c) = e^c - 1 is outside the QP path; Newton's method lands on
        # the grid minimum
        p = exponential_alm()
        u = alm_u(p.tree, 0.0)
        res = solve_primal(p, u)
        layout, obj = primal_objective(p, u)
        expected, _ = grid_minimize(objective_values(obj), layout.width, lo=-5, hi=5)
        assert res.value <= expected + 1e-3
        assert res.value >= expected - 1e-2

    @pytest.mark.parametrize("horizon", [2, 4, 6, 8])
    def test_exponential_hedging_matches_the_closed_form(self, horizon):
        rng = np.random.default_rng(horizon)
        p = binary_hedging(horizon, Exponential(1.0, 1.0, -1.0))
        liability = rng.uniform(-0.5, 0.5, 2 ** horizon)
        rep = duality_gap(p, liability_process(p.tree, p.m_dims, liability))
        want = exponential_hedging_value(horizon, liability)
        assert (rep.primal.method, rep.dual.status) == ("newton", "optimal")
        assert rep.primal.iterations <= 15
        assert rep.primal.value == pytest.approx(want, rel=1e-12, abs=0)
        assert abs(rep.gap) <= 1e-12 * max(1.0, abs(want))

    def test_entropy_hedging_dual_objective(self):
        # phi*(y) = inf over mean-zero v of E exp(v1) + y^2 / 2 = 1 + 5/9
        p = entropy_hedging()
        y = StochasticProcess.from_stage_values(
            p.tree, [np.zeros((2, 0)), [[2.0 / 3.0], [4.0 / 3.0]]])
        dob = dual_objective(p, y)
        assert (dob.inner_status, dob.inner.method) == ("optimal", "newton")
        assert dob.value == pytest.approx(14.0 / 9.0, rel=1e-12)

    def test_newton_steps_read_one_lowering(self, monkeypatch):
        # every step reads its objective's one kept lowering, and a solve
        # at another u reads the problem's kept primal template; the fixed
        # P of a Newton template is never decomposed
        calls = []
        real = solver._lower
        monkeypatch.setattr(solver, "_lower", lambda *a: calls.append(a) or real(*a))
        exp = {"kind": "exponential", "offset": -1}
        p, u = parse_doc(bolza_doc(4, exp, np.random.default_rng(4)))
        res = solve_primal(p, u)
        assert (res.status, res.method) == ("optimal", "newton") and res.iterations > 1
        assert len(calls) == 1
        calls.clear()
        rng = np.random.default_rng(5)
        p, _ = parse_doc(hedging_doc(4, np.zeros(16), exp))
        for _ in range(2):
            res = solve_primal(p, liability_process(p.tree, p.m_dims, rng.uniform(-0.5, 0.5, 16)))
            assert (res.status, res.method) == ("optimal", "newton") and res.iterations > 1
        (template,) = p._primal_templates.values()
        assert len(calls) == 1 and "spectral" not in vars(template)

    def test_inconsistent_equality_rows_are_infeasible(self):
        # e^w0 under w0 = 0 and w0 = 1 at once: the first Newton step's QP
        # is infeasible
        ind = PolyhedralIndicator(Polyhedron(a_eq=[[1.0], [1.0]], b_eq=[0.0, 1.0],
                                             validate=False))
        obj = solver.CompiledObjective(1, [solver._Term(1.0, Exponential(), np.array([0]), 0),
                                           solver._Term(1.0, ind, np.array([0]), 0)])
        res = solver._minimize(obj)
        assert (res.status, res.x, res.method) == ("infeasible", None, "newton")


    def test_an_overflowing_line_search_reads_inf(self, tmp_path):
        # the first step lands near x = 999: e^x overflows in the line
        # search, which reads +inf there without a RuntimeWarning (an error
        # in this suite) and halves the step
        code, rep = cli.run(["report", write_doc(tmp_path, "overflow", NEWTON_OVERFLOW_DOC),
                             "--json"])
        assert (code, rep["primal"]["status"], rep["primal"]["method"]) == (0, "optimal", "newton")
        assert rep["primal"]["value_repr"] == "-5907.755278982137"


# ---------------------------------------------------------------------------
# the compiled primal, once per problem
# ---------------------------------------------------------------------------


def liability_process(tree, m_dims, values):
    """The hedging parameter: 0 before the last stage, ``values`` at it."""
    return StochasticProcess(tree, tuple(np.zeros((tree.n_leaves, d)) for d in m_dims[:-1])
                             + (np.reshape(values, (-1, 1)),))


class TestPrimalTemplate:
    @pytest.mark.parametrize("disutility", [HALF_SQUARE, {"kind": "abs"}])
    def test_repeated_solves_match_fresh_problems(self, disutility):
        # u_a, u_b, u_a on one problem, each against its own fresh parse:
        # a warm template and a cold one agree bit for bit
        rng = np.random.default_rng(5)
        docs = [hedging_doc(4, rng.uniform(2.5, 3.5, 16), disutility) for _ in range(2)]
        p, _ = parse_doc(docs[0])
        templates = []
        for doc in (docs[0], docs[1], docs[0]):
            fresh, u = parse_doc(doc)
            assert solve_bits(p, StochasticProcess(p.tree, u.values)) == solve_bits(fresh, u)
            templates.append(p._primal_templates[None])
        assert templates[0] is templates[1] is templates[2]

    def test_a_sweep_compiles_and_factors_once(self, monkeypatch):
        p, _ = parse_doc(hedging_doc(5, [3.0] * 32))
        joints, factors, eighs = [], [], []
        real_joint, real_factor, real_eigh = (
            type(p.integrand).joint_function, solver.SpectralFactor, np.linalg.eigh)
        monkeypatch.setattr(type(p.integrand), "joint_function",
                            lambda self, leaf: joints.append(leaf) or real_joint(self, leaf))
        monkeypatch.setattr(solver, "SpectralFactor", lambda P: factors.append(P) or real_factor(P))
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or real_eigh(a))
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = liability_process(p.tree, p.m_dims, rng.uniform(2.5, 3.5, 32))
            gap = duality_gap(p, u)
            cert = check_alm(p, gap.primal.optimizer, u, gap.dual.optimizer)
            assert gap.dual.status == "optimal" and cert.verdict == "pass"
        assert sorted(joints) == list(range(32))
        # the primal's P once; the Lagrangian's P is 0, so never decomposed
        assert [P.shape for P in factors if P.any()] == [(31, 31)] and eighs == [(31, 31)]

    @pytest.mark.parametrize("make_doc", [
        lambda rng: hedging_doc(3, rng.uniform(2.5, 3.5, 8)),
        lambda rng: hedging_doc(3, rng.uniform(2.5, 3.5, 8), {"kind": "abs"}),
        lambda rng: bolza_doc(3, {"kind": "abs"}, rng),
    ], ids=["half-square", "abs", "bolza-abs"])
    def test_a_kept_template_lowers_as_its_terms_do(self, make_doc):
        # lowered at u_a, the template read at u_b gives the program that
        # its terms at u_b give when compiled from scratch, bit for bit
        rng = np.random.default_rng(7)
        p, u_a = parse_doc(make_doc(rng))
        _, u_b = parse_doc(make_doc(rng))
        solve_primal(p, u_a)
        (template,) = p._primal_templates.values()
        assert template.lowering is not None
        _, obj = primal_objective(p, StochasticProcess(p.tree, u_b.values))
        assert obj.template is template
        got, want = obj.qp_data(), solver.CompiledObjective(obj.n, terms(obj)).qp_data()
        assert all(same_bits(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("disutility", [HALF_SQUARE, {"kind": "abs"}])
    def test_template_arrays_are_read_only(self, disutility):
        p, u = parse_doc(hedging_doc(3, np.linspace(2.5, 3.5, 8), disutility))
        _, obj = solver.primal_objective(p, u)
        P, _, _, G, _, A, *_ = obj.qp_data()
        (template,) = p._primal_templates.values()
        low = template.lowering
        assert P is low.P and G is low.G and A is low.A
        arrays = [low.P, low.G, low.A]
        if not (G.size or A.size):
            solve_primal(p, u)
            arrays += [template.spectral.V, template.spectral.w]
        for a in arrays:
            with pytest.raises(ValueError):
                a[...] = 1.0


# ---------------------------------------------------------------------------
# a compiled objective's value, one group per pass
# ---------------------------------------------------------------------------


def summed_terms(obj, z):
    """The value of ``obj`` at z term by term: each term's ``value`` on its
    columns at its weight, summed in term order; +inf at the first term
    that is +inf."""
    total = 0.0
    for t in terms(obj):
        v = t.fn.value(z[t.cols])
        if v == INF:
            return INF
        total += t.weight * v
    return total


def off_domain_point(obj, z):
    """z with one term's columns moved 1 past a row of that term's domain,
    along the row; None when no term's domain has a row."""
    for t in terms(obj):
        dom = domain_polyhedron(t.fn)
        for a, b in [] if dom is None else [*zip(dom.a_ub, dom.b_ub), *zip(dom.a_eq, dom.b_eq)]:
            if a.any():
                w, out = z[t.cols], z.copy()
                out[t.cols] = w + ((b + 1.0 - a @ w) / (a @ a)) * a
                return out
    return None


def compiled_value_docs():
    """(name, problem, u) of the bundled fixtures, ``dynamic_docs`` and
    ``newton_docs``."""
    from test_newton_reports import newton_docs

    fixtures = sorted(pathlib.Path(fixture_path("binomial-alm.json")).parent.glob("*.json"))
    for path in fixtures:
        problem, _, params, _, _ = parse_problem_file(str(path))
        yield path.name, problem, params["u"]
    for name, doc in {**dynamic_docs(), **newton_docs()}.items():
        yield (name, *parse_doc(doc))


class TestCompiledValue:
    def test_value_is_the_sum_of_its_terms_bit_for_bit(self):
        # the primal and the Lagrangian of every document at its optimum,
        # and off its domain (where the value is +inf) when some term's
        # domain has a row: one value_many pass per group against one value
        # call per term
        off = 0
        for name, p, u in compiled_value_docs():
            primal = solve_primal(p, u)
            assert primal.status == "optimal", name
            dob = solve_dual(p, u, primal=primal).objective
            assert dob is not None, name
            for obj, z in ((primal.compiled, primal.solution.x), (dob.lagrangian, dob.inner.x)):
                assert same_bits(obj.value(z), summed_terms(obj, z)), name
                moved = off_domain_point(obj, z)
                if moved is not None:
                    off += 1
                    assert obj.value(moved) == INF == summed_terms(obj, moved), name
        assert off >= 10

    def test_an_infinite_term_wins_over_nan(self):
        # a term off its domain makes the value +inf, whatever another term
        # reads, as the sum term by term returns at its first +inf
        obj = solver.CompiledObjective(2, [
            solver._Term(0.5, Quadratic([1.0]), np.array([1]), 0),
            solver._Term(0.5, indicator_nonpos(), np.array([0]), 1)])
        z = np.array([1.0, np.nan])
        assert summed_terms(obj, z) == obj.value(z) == INF
