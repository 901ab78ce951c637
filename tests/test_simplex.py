"""LP engine against a vertex-enumeration oracle."""

import numpy as np
import pytest

from stochdual.simplex import solve_lp

from helpers import lp_by_enumeration


class TestKnownInstances:
    def test_box_minimum(self):
        # min x + y on [0,1]^2 -> 0 at the origin
        res = solve_lp(
            [1.0, 1.0],
            a_ub=[[1, 0], [0, 1], [-1, 0], [0, -1]],
            b_ub=[1, 1, 0, 0],
        )
        assert res.status == "optimal"
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_classic_two_var(self):
        # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0 -> 36
        res = solve_lp(
            [-3.0, -5.0],
            a_ub=[[1, 0], [0, 2], [3, 2], [-1, 0], [0, -1]],
            b_ub=[4, 12, 18, 0, 0],
        )
        assert res.status == "optimal"
        assert -res.value == pytest.approx(36.0, abs=1e-8)
        np.testing.assert_allclose(res.x, [2.0, 6.0], atol=1e-8)

    def test_equality_constraint(self):
        # min x - y s.t. x + y = 1, x,y >= 0 -> -1 at (0,1)
        res = solve_lp(
            [1.0, -1.0],
            a_ub=[[-1, 0], [0, -1]],
            b_ub=[0, 0],
            a_eq=[[1, 1]],
            b_eq=[1],
        )
        assert res.status == "optimal"
        assert res.value == pytest.approx(-1.0, abs=1e-9)

    def test_unbounded_reports_ray(self):
        res = solve_lp([-1.0], a_ub=[[-1.0]], b_ub=[0.0])  # max x on x >= 0
        assert res.status == "unbounded"
        assert res.ray is not None
        # the ray improves the objective and stays feasible
        assert res.ray[0] > 0

    def test_infeasible(self):
        res = solve_lp([1.0], a_ub=[[1.0], [-1.0]], b_ub=[-1.0, -1.0])
        assert res.status == "infeasible"

    def test_free_variable(self):
        # min x s.t. x >= -5 -> -5 (negative optimum needs the split)
        res = solve_lp([1.0], a_ub=[[-1.0]], b_ub=[5.0])
        assert res.status == "optimal"
        assert res.value == pytest.approx(-5.0, abs=1e-9)


class TestCyclingAndRowless:
    """The cases Bland's rule guarded in the tableau simplex."""

    def test_beale_cycling_lp(self):
        # Beale (1955), the textbook LP on which Dantzig's rule cycles
        a_ub = np.vstack([[[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0],
                           [0.0, 0.0, 1.0, 0.0]], -np.eye(4)])
        b_ub = [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        res = solve_lp([-0.75, 20.0, -0.5, 6.0], a_ub=a_ub, b_ub=b_ub)
        assert res.status == "optimal"
        assert res.value == pytest.approx(-1.25, abs=1e-9)
        assert np.all(a_ub @ res.x <= np.asarray(b_ub) + 1e-9)

    def test_kuhn_cycling_lp(self):
        # Kuhn's cycling example, degenerate at the origin
        a_ub = np.vstack([[[-2.0, -9.0, 1.0, 9.0], [1 / 3, 1.0, -1 / 3, -2.0],
                           [2.0, 3.0, -1.0, -12.0]], -np.eye(4)])
        b_ub = [0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0]
        res = solve_lp([-2.0, -3.0, 1.0, 12.0], a_ub=a_ub, b_ub=b_ub)
        assert res.status == "optimal"
        assert res.value == pytest.approx(-2.0, abs=1e-9)
        assert np.all(a_ub @ res.x <= np.asarray(b_ub) + 1e-9)

    def test_rowless_lp(self):
        res = solve_lp(np.zeros(3))
        assert res.status == "optimal"
        np.testing.assert_array_equal(res.x, np.zeros(3))
        assert res.value == 0.0
        c = np.array([1.0, -2.0, 0.0])
        res = solve_lp(c)
        assert res.status == "unbounded"
        np.testing.assert_allclose(res.ray / np.linalg.norm(res.ray), -c / np.linalg.norm(c))


class TestAgainstEnumeration:
    def test_random_bounded_polytopes(self):
        rng = np.random.default_rng(21)
        for trial in range(60):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            a = rng.normal(size=(m, n))
            b = rng.uniform(0.5, 2.0, m)  # origin strictly feasible
            box = np.vstack([np.eye(n), -np.eye(n)])
            bb = np.full(2 * n, 5.0)
            a_ub = np.vstack([a, box])
            b_ub = np.concatenate([b, bb])
            c = rng.normal(size=n)
            res = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
            assert res.status == "optimal", f"trial {trial}"
            expected, _ = lp_by_enumeration(c, a_ub, b_ub)
            assert res.value == pytest.approx(expected, abs=1e-7), f"trial {trial}"
            assert np.all(a_ub @ res.x <= b_ub + 1e-8)

    def test_random_with_equalities(self):
        rng = np.random.default_rng(22)
        for trial in range(40):
            n = int(rng.integers(2, 4))
            a_eq = rng.normal(size=(1, n))
            x0 = rng.normal(size=n)
            b_eq = a_eq @ x0
            box = np.vstack([np.eye(n), -np.eye(n)])
            bb = np.concatenate([np.abs(x0) + 3.0, np.abs(x0) + 3.0])
            c = rng.normal(size=n)
            res = solve_lp(c, a_ub=box, b_ub=bb, a_eq=a_eq, b_eq=b_eq)
            assert res.status == "optimal", f"trial {trial}"
            expected, _ = lp_by_enumeration(c, box, bb, a_eq, b_eq)
            assert res.value == pytest.approx(expected, abs=1e-7), f"trial {trial}"
