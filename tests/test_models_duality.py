"""Builders, martingale densities and model dual values."""

import numpy as np
import pytest

from stochdual.convex import (
    Affine,
    Polyhedron,
    Quadratic,
    SeparableSum,
)
from stochdual.duality import (
    alm_dual_value,
    bolza_dual_value,
    check_martingale_density,
)
from stochdual.integrand import BolzaStage
from stochdual.models import (
    build_alm,
    build_bolza,
    build_constrained,
    build_kabanov,
)
from stochdual.solver import AdaptedLayout, dual_objective, solve_primal
from stochdual.tree import ScenarioTree, StochasticProcess, adapted_projection, pairing

from helpers import two_leaf_tree

INF = float("inf")

CONE_GENERATORS = np.array([[1.0, -2.0], [-1.0, 0.5], [-1.0, 0.0], [0.0, -1.0]])


def binomial_price(tree):
    return StochasticProcess.from_stage_values(tree, [[[1.0], [1.0]], [[2.0], [0.5]]])


def density_oracle(tree, price):
    """Risk-neutral density by solving the 2x2 linear system E(y ds) = 0,
    E y = 1 on a two-leaf tree."""
    p = tree.probabilities
    ds = (price.stage(1) - price.stage(0)).ravel()
    A = np.array([[p[0] * ds[0], p[1] * ds[1]], [p[0], p[1]]])
    return np.linalg.solve(A, [0.0, 1.0])


class TestMartingaleDensity:
    def test_risk_neutral_density(self):
        tree = two_leaf_tree()
        price = binomial_price(tree)
        oracle = density_oracle(tree, price)
        np.testing.assert_allclose(oracle, [2.0 / 3.0, 4.0 / 3.0], atol=1e-12)
        assert check_martingale_density(oracle, price).ok

    def test_uniform_density_fails_with_quarter_residual(self):
        tree = two_leaf_tree()
        rep = check_martingale_density([1.0, 1.0], binomial_price(tree))
        assert not rep.ok
        assert rep.max_residual == pytest.approx(0.25)

    def test_cone_property(self):
        tree = two_leaf_tree()
        price = binomial_price(tree)
        base = density_oracle(tree, price)
        rng = np.random.default_rng(71)
        for _ in range(20):
            lam = rng.uniform(0.01, 10)
            assert check_martingale_density(lam * base, price).ok
            assert not check_martingale_density(lam * np.array([1.0, 1.0]), price).ok

    def test_means_are_judged_at_the_size_of_y_ds(self):
        # the block means are sums of the products y ds, so their tolerance
        # is tol * max(1, max |y ds|): a density passes at any scale, a
        # non-density fails at any scale, and an infinite y fails
        tree = two_leaf_tree()
        price = binomial_price(tree)
        base = density_oracle(tree, price)
        ds = (price.stage(1) - price.stage(0)).ravel()
        for lam in (1e-3, 1.0, 1e9, 1e12):
            rep = check_martingale_density(lam * base, price)
            assert rep.ok
            assert rep.tol == 1e-8 * max(1.0, float(np.max(np.abs(lam * base * ds))))
            assert not check_martingale_density(lam * np.array([1.0, 1.0]), price).ok
        rep = check_martingale_density([INF, 1.0], price)
        assert not rep.ok and rep.tol == 1e-8

    def test_zero_density_rejected(self):
        tree = two_leaf_tree()
        rep = check_martingale_density([0.0, 0.0], binomial_price(tree))
        assert not rep.ok and rep.is_zero

    def test_negative_density_rejected(self):
        tree = two_leaf_tree()
        rep = check_martingale_density([-0.5, 1.75], binomial_price(tree))
        assert not rep.ok and rep.negativity > 0


class TestAlmDualValue:
    def make(self):
        tree = two_leaf_tree()
        return build_alm(tree, Quadratic([0.5]), binomial_price(tree))

    def y_proc(self, tree, vals):
        return StochasticProcess.from_stage_values(
            tree, [np.zeros((2, 0)), np.asarray(vals).reshape(-1, 1)]
        )

    def test_quadratic_value_on_density(self):
        p = self.make()
        u = StochasticProcess.zeros(p.tree, p.m_dims)
        y = self.y_proc(p.tree, [2 / 3, 4 / 3])
        assert alm_dual_value(p, u, y) == pytest.approx(-5.0 / 9.0)

    def test_off_cone_is_minus_inf(self):
        p = self.make()
        u = StochasticProcess.zeros(p.tree, p.m_dims)
        assert alm_dual_value(p, u, self.y_proc(p.tree, [1.0, 1.0])) == -INF

    def test_scaled_family_supremum_approaches_zero(self):
        p = self.make()
        u = StochasticProcess.zeros(p.tree, p.m_dims)
        best = -INF
        for lam in np.geomspace(1e-4, 10, 60):
            val = alm_dual_value(p, u, self.y_proc(p.tree, lam * np.array([2 / 3, 4 / 3])))
            best = max(best, val)
        assert best == pytest.approx(0.0, abs=1e-4)
        assert best <= 0.0

    def test_consistency_with_dual_objective(self):
        p = self.make()
        rng = np.random.default_rng(72)
        u = StochasticProcess.from_stage_values(
            p.tree, [np.zeros((2, 0)), [[0.7], [-0.3]]]
        )
        base = density_oracle(p.tree, binomial_price(p.tree))
        for _ in range(10):
            lam = rng.uniform(0.1, 3)
            y = self.y_proc(p.tree, lam * base)
            direct = alm_dual_value(p, u, y)
            via_solver = pairing(u, y) - dual_objective(p, y).value
            assert direct == pytest.approx(via_solver, abs=1e-6)

    def test_weak_duality_over_sampled_cone(self):
        p = self.make()
        u = StochasticProcess.from_stage_values(
            p.tree, [np.zeros((2, 0)), [[1.0], [1.0]]]
        )
        primal = solve_primal(p, u)
        base = density_oracle(p.tree, binomial_price(p.tree))
        best = max(
            alm_dual_value(p, u, self.y_proc(p.tree, lam * base))
            for lam in np.linspace(0.05, 4, 80)
        )
        assert best <= primal.value + 1e-5


class TestBolzaDualValue:
    def quad_stage(self):
        return BolzaStage(SeparableSum([Quadratic([0.5]), Quadratic([0.5])]), 1)

    def test_zero_everywhere(self):
        tree = ScenarioTree.deterministic(2)
        p = build_bolza(tree, [[self.quad_stage()], [self.quad_stage()]])
        z = StochasticProcess.zeros(tree, p.m_dims)
        assert bolza_dual_value(p, z, z) == pytest.approx(0.0)

    def test_single_stage_closed_form(self):
        tree = ScenarioTree.deterministic(1)
        p = build_bolza(tree, [[self.quad_stage()]])
        for c in [-1.0, 0.5, 2.0]:
            for u0 in [0.0, 1.0]:
                u = StochasticProcess.from_stage_values(tree, [[[u0]]])
                y = StochasticProcess.from_stage_values(tree, [[[c]]])
                expected = u0 * c - (0.5 * c * c + 0.5 * c * c)
                assert bolza_dual_value(p, u, y) == pytest.approx(expected)

    def test_matches_solver_cross_check(self):
        tree = ScenarioTree.binary(2)
        stages = [[self.quad_stage()], [self.quad_stage()] * 2, [self.quad_stage()] * 4]
        p = build_bolza(tree, stages)
        rng = np.random.default_rng(73)
        u = adapted_projection(StochasticProcess(
            tree, tuple(rng.normal(size=(4, 1)) for _ in range(3))
        ))
        for _ in range(50):
            y = adapted_projection(StochasticProcess(
                tree, tuple(rng.normal(size=(4, 1)) for _ in range(3))
            ))
            direct = bolza_dual_value(p, u, y)
            via_solver = pairing(u, y) - dual_objective(p, y).value
            assert direct == pytest.approx(via_solver, abs=1e-6)

    def test_rejects_nonadapted(self):
        tree = two_leaf_tree()
        p = build_bolza(tree, [[self.quad_stage()], [self.quad_stage()] * 2])
        bad = StochasticProcess.from_stage_values(tree, [[[1.0], [2.0]], [[0.0], [0.0]]])
        good = StochasticProcess.zeros(tree, p.m_dims)
        with pytest.raises(ValueError, match="adapted"):
            bolza_dual_value(p, bad, good)


class TestBuilders:
    def test_constrained_counting(self):
        tree = ScenarioTree.deterministic(1)
        p = build_constrained(tree, [1], [Quadratic([1.0])], [[Affine([-1.0], 1.0)]])
        assert AdaptedLayout(tree, p.n_dims).width == 1
        assert p.m_dims == (1,)

    def test_constrained_leaf_varying(self):
        tree = two_leaf_tree()
        cons = [[Affine([-1.0], 1.0)], [Affine([-1.0], 2.0)]]
        p = build_constrained(tree, [1, 0], [Quadratic([1.0]), Quadratic([1.0])], cons)
        assert AdaptedLayout(tree, p.n_dims).width == 1

    def test_constrained_nonconvex_rejected(self):
        tree = ScenarioTree.deterministic(1)
        with pytest.raises(TypeError, match="convex"):
            build_constrained(tree, [1], [lambda x: x ** 3], [[Affine([1.0], 0.0)]])

    def test_alm_variable_counts(self):
        tree = two_leaf_tree()
        p = build_alm(tree, Quadratic([0.5]), binomial_price(tree))
        assert AdaptedLayout(tree, p.n_dims).width == 1
        tree3 = ScenarioTree.binary(2)
        price = StochasticProcess.from_stage_values(
            tree3, [np.ones((4, 1)),
                    np.repeat([[2.0], [0.5]], 2, axis=0),
                    [[3.0], [1.0], [1.0], [0.25]]]
        )
        p3 = build_alm(tree3, Quadratic([0.5]), price)
        # x_0 on one block plus x_1 on two blocks
        assert AdaptedLayout(tree3, p3.n_dims).width == 3

    def test_alm_decreasing_disutility_rejected(self):
        tree = two_leaf_tree()
        with pytest.raises(ValueError, match="nondecreasing"):
            build_alm(tree, Affine([-1.0], 0.0), binomial_price(tree))

    def test_alm_nonadapted_price_rejected(self):
        tree = two_leaf_tree()
        price = StochasticProcess.from_stage_values(
            tree, [[[1.0], [2.0]], [[2.0], [0.5]]]
        )
        with pytest.raises(ValueError, match="adapted"):
            build_alm(tree, Quadratic([0.5]), price)

    def test_kabanov_dimensions(self):
        tree = two_leaf_tree()
        C = Polyhedron.from_cone_generators(CONE_GENERATORS)
        V = Quadratic([0.5, 0.5])
        p = build_kabanov(tree, [[C], [C, C]], [[V], [V, V]])
        assert p.n_dims == (4, 4)

    def test_kabanov_polytope_with_origin_accepted(self):
        tree = ScenarioTree.deterministic(1)
        box = Polyhedron(a_ub=np.vstack([np.eye(2), -np.eye(2)]),
                         b_ub=[1.0, 1.0, 0.5, 0.5])
        p = build_kabanov(tree, [[box]], [[Quadratic([0.5, 0.5])]])
        assert p.n_dims == (4,)

    def test_kabanov_origin_required(self):
        tree = ScenarioTree.deterministic(1)
        shifted = Polyhedron(a_ub=[[1.0, 0.0]], b_ub=[-1.0])
        with pytest.raises(ValueError, match="origin"):
            build_kabanov(tree, [[shifted]], [[Quadratic([0.5, 0.5])]])

    def test_zero_strategy_round_trip(self):
        tree = two_leaf_tree()
        p = build_alm(tree, Quadratic([0.5]), binomial_price(tree))
        u = StochasticProcess.zeros(tree, p.m_dims)
        res = solve_primal(p, u)
        assert res.value <= 1e-9
        C = Polyhedron.from_cone_generators(CONE_GENERATORS)
        V = Quadratic([0.5, 0.5])
        pk = build_kabanov(tree, [[C], [C, C]], [[V], [V, V]])
        uk = StochasticProcess.zeros(tree, pk.m_dims)
        resk = solve_primal(pk, uk)
        assert resk.value <= 1e-9
