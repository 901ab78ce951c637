"""Primal/dual solves, the dual bound chain and gap measurements."""

import dataclasses

import numpy as np
import pytest

from stochdual import cli, qp, solver
from stochdual.cli import fixture_path, parse_problem_file
from stochdual.convex import (
    Affine,
    AffinePrecomposition,
    Entropy,
    Exponential,
    FiniteSum,
    PiecewiseLinear,
    PolyhedralIndicator,
    Polyhedron,
    Quadratic,
    SeparableSum,
    absolute_value,
    indicator_nonpos,
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
    SolverConfig,
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
    basis_bound,
    grid_minimize,
    hedging_doc,
    hedging_file,
    irregular_tree,
    objective_values,
    parse_doc,
    per_leaf_conjugate_sum,
    solve_bits,
    two_leaf_tree,
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
        assert np.max(np.abs(res.optimizer.to_vector())) < 1e-8

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
        assert np.max(np.abs(res.optimizer.to_vector())) < 1e-7

    def test_alm_zero_liability(self):
        p = binomial_alm()
        u = alm_u(p.tree, 0.0)
        res = solve_dual(p, u)
        assert res.value == pytest.approx(0.0, abs=1e-8)
        assert np.max(np.abs(res.optimizer.to_vector())) < 1e-7

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
        # subgradient method stopped before its first progress test
        cfg = SolverConfig()
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
            cfg = SolverConfig(max_iter=50)
        primal = solve_primal(p, u, cfg)
        assert primal.status == case
        calls = []
        real = solver.dual_objective
        monkeypatch.setattr(solver, "dual_objective", lambda *a: calls.append(a) or real(*a))
        res = solve_dual(p, u, cfg, primal)
        assert calls == []
        assert res.optimizer is None
        if case == "unbounded":
            # weak duality: the dual value is -inf
            assert (res.status, res.value) == ("infeasible", -INF)
        else:
            assert res.status == "not-run"

    def test_unconverged_inner_solve_is_max_iter(self):
        # the recovered y = 0.3592 is priced by the infimum of an
        # exponential plus an entropy, which the subgradient method does not
        # reach within max_iter: no dual value is reported
        tree = ScenarioTree.deterministic(2)
        p = Problem(tree, GenericIntegrand(tree, [1, 1], [0, 1], [SeparableSum([
            Exponential(0.7068, 0.8908, 0.3056), Entropy(1.3672, 0.2401, -0.3257),
            Affine([0.3592], 0.6926)])]))
        u = StochasticProcess.from_stage_values(tree, [[[]], [[1.4852]]])
        cfg = SolverConfig(max_iter=2000)
        primal = solve_primal(p, u, cfg)
        assert primal.status == "optimal"
        res = solve_dual(p, u, cfg, primal)
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
        yv = [y.leaf_vector(leaf) for leaf in range(2)]
        for z in np.arange(-10, 10.0001, 0.001):
            total = 0.0
            for leaf, prob in enumerate((0.4, 0.6)):
                v = np.array([z * base[leaf], 0.0])
                total += prob * f.conjugate_value(leaf, v, yv[leaf])
            best = min(best, total)
        assert bound.value == pytest.approx(best, abs=1e-5)

    def test_deterministic_tree_reduces_to_zero_subspace(self):
        p = bolza_problem_deterministic()
        y = StochasticProcess.from_stage_values(p.tree, [[[0.3]], [[-0.2]]])
        bound = dual_via_orthocomplement(p, y)
        expected = p.integrand.conjugate_value(0, np.zeros(2), y.leaf_vector(0))
        assert bound.value == pytest.approx(expected, abs=1e-10)


def count_fallbacks(monkeypatch):
    """Record each time the annihilator bound falls back to solving over v."""
    calls = []
    real = solver._mean_zero_terms
    monkeypatch.setattr(solver, "_mean_zero_terms", lambda *a: calls.append(a) or real(*a))
    return calls


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


BOUND_FIXTURES = ["binomial-alm.json", "bolza-pwl.json", "bolza-quadratic-binary.json",
                  "bolza-quadratic.json", "kabanov-conical.json", "kkt-single.json",
                  "pwl-hedging.json", "quadratic-tracking.json"]


class TestCertifiedBound:
    """The bound read off the dual value's inner solve, certified by weak
    duality, against the basis oracle of tests/helpers.py."""

    @pytest.mark.parametrize("name", BOUND_FIXTURES)
    def test_fixtures_match_basis_oracle(self, name, monkeypatch):
        problem, _, params, _, _ = parse_problem_file(fixture_path(name))
        fallbacks = count_fallbacks(monkeypatch)
        dual = solve_dual(problem, params["u"])
        bound = dual_via_orthocomplement(problem, dual.optimizer, objective=dual.objective)
        assert (bound.status, fallbacks) == ("optimal", [])
        assert in_orthocomplement(bound.v)
        assert bound.value == pytest.approx(dual.objective.value, rel=1e-9, abs=1e-9)
        status, value, _ = basis_bound(problem, dual.optimizer)
        assert status == "optimal"
        assert bound.value == pytest.approx(value, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("leaves", [9, 16, 32, 64])
    @pytest.mark.parametrize("d", [1, 2])
    def test_irregular_trees_match_basis_oracle(self, leaves, d, monkeypatch):
        rng = np.random.default_rng(100 * leaves + d)
        p = kinked_bolza(irregular_tree(leaves, n=leaves, stages=3), d, rng)
        fallbacks = count_fallbacks(monkeypatch)
        for _ in range(2):
            y = small_dual(rng, p)
            bound = dual_via_orthocomplement(p, y)
            status, value, _ = basis_bound(p, y)
            assert (bound.status, status) == ("optimal", "optimal")
            assert bound.value == pytest.approx(value, rel=1e-9, abs=1e-9)
        assert fallbacks == []

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
        fallbacks = count_fallbacks(monkeypatch)
        code, report = cli.run(["report", path])
        assert (code, report["certificate"]["verdict"]) == (0, "pass")
        assert report["dual_representation"]["annihilator_bound"] is not None
        assert (calls, fallbacks, len(bounds)) == ([], [], 1)
        (p, y, *_), bound = bounds[0]
        assert bound.value == pytest.approx(per_leaf_conjugate_sum(p, y, bound.v),
                                            rel=1e-12, abs=1e-12)

    def bolza_case(self):
        rng = np.random.default_rng(5)
        p = kinked_bolza(irregular_tree(5), 2, rng)
        return p, small_dual(rng, p)

    def assert_fallback_to_oracle(self, p, y, bound, fallbacks, shift=0.0):
        # the rejected v is not reported: the fallback solves over v
        assert len(fallbacks) == 1
        assert bound.status == "optimal" and in_orthocomplement(bound.v)
        assert bound.value == pytest.approx(basis_bound(p, y)[1] + shift, rel=1e-9, abs=1e-9)

    def test_v_off_the_annihilator_is_rejected(self, monkeypatch):
        p, y = self.bolza_case()
        real = solver._stationary_v

        def shifted(*args):
            v = real(*args)
            return StochasticProcess(v.tree, tuple(a + 0.01 for a in v.values))

        monkeypatch.setattr(solver, "_stationary_v", shifted)
        fallbacks = count_fallbacks(monkeypatch)
        self.assert_fallback_to_oracle(p, y, dual_via_orthocomplement(p, y), fallbacks)

    def test_wrong_conjugate_is_rejected(self, monkeypatch):
        # every conjugate raised by 0.5: E f*(v, y) misses phi*(y) by 0.5,
        # and the fallback's minimum is the oracle's plus 0.5.  The value at
        # the read-off v and the per-leaf terms of the fallback solve are
        # evaluated apart, so both are raised
        p, y = self.bolza_case()
        real = solver._bolza_conjugates_of_v
        monkeypatch.setattr(solver, "_bolza_conjugates_of_v", lambda *a: [
            FiniteSum([fn, Affine(np.zeros(fn.dim), 0.5)]) for fn in real(*a)])
        real_sum = solver._bolza_conjugate_sum
        monkeypatch.setattr(solver, "_bolza_conjugate_sum", lambda *a: real_sum(*a) + 0.5)
        fallbacks = count_fallbacks(monkeypatch)
        self.assert_fallback_to_oracle(p, y, dual_via_orthocomplement(p, y), fallbacks, 0.5)

    def test_wrong_inner_value_is_rejected(self, monkeypatch):
        p, y = self.bolza_case()
        dob = dual_objective(p, y)
        fallbacks = count_fallbacks(monkeypatch)
        for wrong in (dob.value - 1e-3, dob.value + 1e-3):
            bound = dual_via_orthocomplement(
                p, y, objective=dataclasses.replace(dob, value=wrong))
            self.assert_fallback_to_oracle(p, y, bound, fallbacks)
            fallbacks.clear()
        # an inner solve stopped before its optimum has no multipliers to read
        stopped = dataclasses.replace(dob, inner=dataclasses.replace(dob.inner, status="max-iter"))
        bound = dual_via_orthocomplement(p, y, objective=stopped)
        self.assert_fallback_to_oracle(p, y, bound, fallbacks)

    def test_inner_point_off_the_domain_is_rejected(self, monkeypatch):
        # f(x, u) = g(x0) + u^2 / 2 with g kinked on [-1, 1]: the v read
        # off the true solve, paired with an inner point outside the domain
        # of l(., y), has no lower side of the sandwich, whatever phi*(y)
        # it reports
        tree = two_leaf_tree((0.4, 0.6))
        g = PiecewiseLinear([0.0], [-1.0, 2.0], lo=-1.0, hi=1.0)
        joint = SeparableSum([g, Quadratic([0.5])])
        p = Problem(tree, GenericIntegrand(tree, [1, 0], [0, 1], [joint]))
        y = StochasticProcess.from_stage_values(tree, [np.zeros((2, 0)), [[0.5], [-2.0]]])
        dob = dual_objective(p, y)
        v = solver._stationary_v(p, y.leaf_rows(), dob)
        monkeypatch.setattr(solver, "_stationary_v", lambda *a: v)
        fallbacks = count_fallbacks(monkeypatch)
        assert dual_via_orthocomplement(p, y, objective=dob).value == \
            pytest.approx(dob.value, abs=1e-12)
        assert fallbacks == []
        outside = dataclasses.replace(dob, inner=dataclasses.replace(dob.inner, x=dob.inner.x + 5.0))
        self.assert_fallback_to_oracle(
            p, y, dual_via_orthocomplement(p, y, objective=outside), fallbacks)

    def test_subgradient_inner_solve_falls_back(self, monkeypatch):
        # the subgradient method returns no multipliers, so no v is read
        # off; the fallback over v reaches phi*(y) = 1 + E y^2 / 2, where
        # v1 = 0 and v2 = -a y
        p = entropy_hedging()
        y = StochasticProcess.from_stage_values(
            p.tree, [np.zeros((2, 0)), [[2.0 / 3.0], [4.0 / 3.0]]])
        cfg = SolverConfig(max_iter=4000)
        assert dual_objective(p, y, cfg).inner.multipliers is None
        fallbacks = count_fallbacks(monkeypatch)
        bound = dual_via_orthocomplement(p, y, cfg)
        assert len(fallbacks) == 1
        assert bound.value == pytest.approx(1.0 + 0.5 * (2.0 / 9.0 + 8.0 / 9.0), abs=1e-9)


class TestDualityGap:
    def test_quadratic_tracking(self):
        p = tracking_problem()
        rep = duality_gap(p, tracking_u(p.tree))
        assert abs(rep.gap) <= 1e-5

    def test_binomial_alm(self):
        p = binomial_alm()
        rep = duality_gap(p, alm_u(p.tree, 1.0))
        assert abs(rep.gap) <= 1e-5

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


class TestSubgradientPath:
    def test_exponential_alm_close_to_truth(self):
        # V(c) = e^c - 1 is outside the QP path; subgradient must still land
        p = exponential_alm()
        u = alm_u(p.tree, 0.0)
        cfg = SolverConfig(max_iter=20000)
        res = solve_primal(p, u, cfg)
        layout, obj = primal_objective(p, u)
        expected, _ = grid_minimize(objective_values(obj), layout.width, lo=-5, hi=5)
        assert res.value <= expected + 1e-3
        assert res.value >= expected - 1e-2

    def test_equality_rows_project_without_a_qp(self, monkeypatch):
        # the bound's fallback over v runs under the mean-zero equality rows
        # and the conjugates' equality rows only: each projection is
        # w - A^+(A w - b), the pseudo-inverse computed once per solve
        p = entropy_hedging()
        y = StochasticProcess.from_stage_values(
            p.tree, [np.zeros((2, 0)), [[2.0 / 3.0], [4.0 / 3.0]]])
        cfg = SolverConfig(max_iter=4000)
        dob = dual_objective(p, y, cfg)
        calls = []
        real_qp = qp.solve_qp
        monkeypatch.setattr(qp, "solve_qp", lambda *a, **k: calls.append(1) or real_qp(*a, **k))
        got = dual_via_orthocomplement(p, y, cfg, dob)
        assert calls == []

        def qp_projector(G, h, A, b, tol):
            return lambda w: (w if solver._violation(w, G, h, A, b) <= tol
                              else qp.project_onto_polyhedron(w, G, h, A, b))

        monkeypatch.setattr(solver, "_projector", qp_projector)
        want = dual_via_orthocomplement(p, y, cfg, dob)
        assert len(calls) > 100
        assert (got.status, want.status) == ("optimal", "optimal")
        assert got.value == pytest.approx(want.value, rel=0, abs=1e-9)
        np.testing.assert_allclose(got.v.to_vector(), want.v.to_vector(), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_projector_matches_the_qp_projection(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(3, 6))
        A = np.vstack([A, A[0] + A[1]])  # a redundant, consistent row
        b = A @ rng.normal(size=6)
        project = solver._projector(np.zeros((0, 6)), np.zeros(0), A, b, 1e-8)
        for w in rng.normal(size=(4, 6)):
            np.testing.assert_allclose(project(w), qp.project_onto_polyhedron(w, A=A, b=b),
                                       rtol=0, atol=1e-9)

    def test_inconsistent_equality_rows_are_infeasible(self):
        # w0 = 0 and w0 = 1 at once: the subgradient method ends infeasible
        ind = PolyhedralIndicator(Polyhedron(a_eq=[[1.0], [1.0]], b_eq=[0.0, 1.0],
                                             validate=False))
        obj = solver.CompiledObjective(1, [solver._Term(1.0, ind, np.array([0]), 0)])
        res = solver._subgradient_minimize(obj, SolverConfig())
        assert (res.status, res.x) == ("infeasible", None)


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
        assert len(factors) == 1 and eighs == [(31, 31)]

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
