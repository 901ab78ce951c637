"""Active-set QP against grid search and hand-computed optima."""

import functools
import sys

import numpy as np
import pytest

from stochdual import qp
from stochdual.cli import run
from stochdual.qp import project_onto_polyhedron, solve_qp
from stochdual.solver import dual_objective, solve_dual, solve_primal

from helpers import grid_minimize, hedging_file, kinked_doc, parse_doc


class TestUnconstrained:
    def test_simple_quadratic(self):
        res = solve_qp(np.diag([2.0, 4.0]), [-2.0, -4.0])
        assert res.status == "optimal"
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-10)

    def test_singular_consistent(self):
        # x^2 only; second coordinate free with zero gradient
        res = solve_qp(np.diag([2.0, 0.0]), [-2.0, 0.0])
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(1.0)

    def test_singular_unbounded(self):
        res = solve_qp(np.diag([2.0, 0.0]), [0.0, 1.0])
        assert res.status == "unbounded"
        assert res.ray is not None
        assert res.ray @ np.array([0.0, 1.0]) < 0

    def test_constrained_unbounded(self):
        # minimize x + 0*y^2 on x <= 0: unbounded along -x
        res = solve_qp(np.zeros((1, 1)), [1.0], G=[[1.0]], h=[0.0])
        assert res.status == "unbounded"

    def test_infeasible(self):
        res = solve_qp(np.eye(1), [0.0], G=[[1.0], [-1.0]], h=[-1.0, -1.0])
        assert res.status == "infeasible"


class TestSpectralSolve:
    """Without rows, x = -P^+ q through P's eigenpairs at lstsq's cutoff."""

    def test_zero_matrix(self):
        res = solve_qp(np.zeros((3, 3)), np.zeros(3), 2.0)
        assert res.status == "optimal" and res.value == 2.0
        assert res.x.tolist() == [0.0, 0.0, 0.0]
        assert not np.signbit(res.x).any()
        res = solve_qp(np.zeros((3, 3)), [0.0, 1.0, 0.0])
        assert res.status == "unbounded" and res.x is None
        assert res.ray @ np.array([0.0, 1.0, 0.0]) < 0

    def test_zero_matrix_is_not_decomposed(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: pytest.fail("eigh on P = 0"))
        factor = qp.SpectralFactor(np.zeros((4, 4)))
        assert factor.w.size == 0 and factor.minimizer(np.zeros(4)).tolist() == [0.0] * 4

    @pytest.mark.parametrize("seed", range(8))
    def test_singular_consistent_is_the_minimum_norm_point(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        B = rng.normal(size=(n, min(k, n - 1)))
        P = B @ B.T
        q = P @ rng.normal(size=n)  # in the range of P
        res = solve_qp(P, q)
        want = np.linalg.lstsq(P, -q, rcond=None)[0]
        assert res.status == "optimal"
        np.testing.assert_allclose(res.x, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_outside_the_range_is_a_ray(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 9))
        B = rng.normal(size=(n, n - 1))
        P = B @ B.T
        null = np.linalg.svd(B.T)[2][-1]  # P null = 0
        q = P @ rng.normal(size=n) + null
        res = solve_qp(P, q)
        assert res.status == "unbounded" and res.x is None
        assert q @ res.ray < 0
        np.testing.assert_allclose(P @ res.ray, 0.0, atol=1e-8 * np.abs(res.ray).max())

    def test_small_curvature_is_kept(self):
        res = solve_qp(np.diag([1.0, 1e-11]), [1.0, -1.0])
        assert res.status == "optimal"
        np.testing.assert_allclose(res.x, [-1.0, 1e11], rtol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_cached_factor_matches_a_fresh_one(self, seed):
        rng = np.random.default_rng(200 + seed)
        B = rng.normal(size=(6, 4))
        P = B @ B.T
        factor = qp.SpectralFactor(P)
        for q in rng.normal(size=(5, 6)):
            q = P @ q if seed % 2 else q  # optimal, or unbounded on rank 4
            fresh, cached = solve_qp(P, q, 0.5), solve_qp(P, q, 0.5, spectral=factor)
            assert fresh.status == cached.status
            assert fresh.value == cached.value or np.isnan(fresh.value) and np.isnan(cached.value)
            for a, b in ((fresh.x, cached.x), (fresh.ray, cached.ray)):
                assert (a is None and b is None) or a.tobytes() == b.tobytes()

    def test_factor_is_read_only(self):
        factor = qp.SpectralFactor(np.diag([2.0, 1.0]))
        for a in (factor.V, factor.w):
            with pytest.raises(ValueError):
                a[0] = 1.0


class TestKnownConstrained:
    def test_kkt_single_constraint(self):
        # min x^2 s.t. 1 - x <= 0: x* = 1, multiplier 2
        res = solve_qp(np.array([[2.0]]), [0.0], G=[[-1.0]], h=[-1.0])
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(1.0, abs=1e-9)
        assert res.ineq_multipliers[0] == pytest.approx(2.0, abs=1e-8)

    def test_projection_onto_halfplane(self):
        x = project_onto_polyhedron([1.0, 0.0], G=[[2.0, 1.0], [1.0, 2.0]],
                                    h=[0.0, 0.0])
        np.testing.assert_allclose(x, [0.2, -0.4], atol=1e-8)

    def test_equality_constrained(self):
        # min 1/2|x|^2 s.t. x1 + x2 = 1 -> (0.5, 0.5)
        res = solve_qp(np.eye(2), np.zeros(2), A=[[1.0, 1.0]], b=[1.0])
        assert res.status == "optimal"
        np.testing.assert_allclose(res.x, [0.5, 0.5], atol=1e-10)

    def test_active_set_walks_vertices(self):
        # min (x-2)^2 + (y-2)^2 on the unit box
        res = solve_qp(2 * np.eye(2), [-4.0, -4.0], G=np.vstack([np.eye(2), -np.eye(2)]),
                       h=[1.0, 1.0, 0.0, 0.0])
        assert res.status == "optimal"
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-9)
        assert np.all(res.ineq_multipliers >= -1e-9)


class TestAgainstGrid:
    def test_random_boxed_qps(self):
        rng = np.random.default_rng(41)
        for trial in range(40):
            n = int(rng.integers(1, 3))
            L = rng.normal(size=(n, n))
            P = L @ L.T + 0.3 * np.eye(n)
            q = rng.normal(size=n)
            G = np.vstack([np.eye(n), -np.eye(n)])
            h = np.full(2 * n, 2.0)
            res = solve_qp(P, q, G=G, h=h)
            assert res.status == "optimal", f"trial {trial}"

            def vm(X):
                return 0.5 * np.einsum("ij,jk,ik->i", X, P, X) + X @ q

            expected, _ = grid_minimize(vm, n, lo=-2, hi=2, step=0.01)
            assert res.value <= expected + 1e-8, f"trial {trial}"
            assert res.value >= expected - 0.01 * n, f"trial {trial}"

    def test_random_inequality_qps(self):
        rng = np.random.default_rng(42)
        for trial in range(40):
            n = 2
            L = rng.normal(size=(n, n))
            P = L @ L.T + 0.2 * np.eye(n)
            q = rng.normal(size=n)
            Grows = rng.normal(size=(3, n))
            h = rng.uniform(0.2, 1.5, 3)  # origin feasible
            G = np.vstack([Grows, np.eye(n), -np.eye(n)])
            hh = np.concatenate([h, np.full(2 * n, 3.0)])
            res = solve_qp(P, q, G=G, h=hh)
            assert res.status == "optimal", f"trial {trial}"
            assert np.all(G @ res.x <= hh + 1e-7)

            def vm(X):
                vals = 0.5 * np.einsum("ij,jk,ik->i", X, P, X) + X @ q
                bad = np.any(X @ G.T > hh + 1e-9, axis=1)
                return np.where(bad, np.inf, vals)

            expected, _ = grid_minimize(vm, n, lo=-3, hi=3, step=0.01)
            assert res.value <= expected + 1e-8, f"trial {trial}"
            assert res.value >= expected - 0.05, f"trial {trial}"

    def test_redundant_and_degenerate_constraints(self):
        # duplicated rows, implied rows and corner degeneracy must not cycle
        rng = np.random.default_rng(44)
        for trial in range(30):
            n = 2
            L = rng.normal(size=(n, n))
            P = L @ L.T + 0.4 * np.eye(n)
            q = rng.normal(size=n)
            base = np.vstack([np.eye(n), -np.eye(n)])
            hb = np.full(2 * n, 1.0)
            G = np.vstack([base, base, 0.5 * base, [[1.0, 1.0]]])
            h = np.concatenate([hb, hb, 0.5 * hb, [2.0]])  # all redundant copies
            res = solve_qp(P, q, G=G, h=h)
            assert res.status == "optimal", f"trial {trial}"
            clean = solve_qp(P, q, G=base, h=hb)
            assert res.value == pytest.approx(clean.value, abs=1e-8), f"trial {trial}"

    def test_kkt_multipliers_certify(self):
        rng = np.random.default_rng(43)
        for trial in range(30):
            n = int(rng.integers(1, 4))
            L = rng.normal(size=(n, n))
            P = L @ L.T + 0.5 * np.eye(n)
            q = rng.normal(size=n)
            G = np.vstack([np.eye(n), -np.eye(n)])
            h = np.full(2 * n, 1.0)
            res = solve_qp(P, q, G=G, h=h)
            assert res.status == "optimal"
            lam = res.ineq_multipliers
            station = P @ res.x + q + G.T @ lam
            assert np.max(np.abs(station)) < 1e-7, f"trial {trial}"
            slack = h - G @ res.x
            assert np.max(np.abs(lam * slack)) < 1e-6, f"trial {trial}"


class TestEqualityOnly:
    """With no inequality rows the starting point comes from least squares."""

    def test_inconsistent_system_is_infeasible(self):
        res = solve_qp(np.eye(2), np.zeros(2), A=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 2.0])
        assert res.status == "infeasible"
        assert res.x is None

    def test_rank_deficient_consistent_system(self):
        # the second row doubles the first; min 1/2|x|^2 on x1 + x2 = 1
        res = solve_qp(np.eye(2), np.zeros(2), A=[[1.0, 1.0], [2.0, 2.0]], b=[1.0, 2.0])
        assert res.status == "optimal"
        np.testing.assert_allclose(res.x, [0.5, 0.5], atol=1e-10)
        assert res.value == pytest.approx(0.25, abs=1e-12)

    def test_tall_full_rank_system(self):
        # more rows than unknowns, all consistent: the point is pinned
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
        res = solve_qp(np.eye(2), [1.0, 1.0], A=A, b=A @ [2.0, -1.0])
        assert res.status == "optimal"
        np.testing.assert_allclose(res.x, [2.0, -1.0], atol=1e-10)


# (P, q, G, h, A, b) of QPs with a singular Hessian whose verdict the
# active-set loop decides by its descent ray
RAY_CASES = {
    # x1 - x2 <= 1 blocks the first step along +x1; the face it leaves
    # still descends along (1, 1)
    "blocked-then-unbounded": (np.zeros((2, 2)), [-1.0, 0.0], [[1.0, -1.0]], [1.0],
                               None, None),
    # the same with x2 <= 5 as well: bounded, optimal at (6, 5)
    "blocked-then-bounded": (np.zeros((2, 2)), [-1.0, 0.0],
                             [[1.0, -1.0], [0.0, 1.0]], [1.0, 5.0], None, None),
    # x2 + x3 = 1 leaves the descent direction (0, -1, 1) open
    "equality-unbounded": (np.diag([1.0, 0.0, 0.0]), [0.0, 1.0, -1.0], None, None,
                           [[0.0, 1.0, 1.0]], [1.0]),
    # an equality and an inequality row together close it
    "equality-bounded": (np.diag([1.0, 0.0, 0.0]), [0.0, 1.0, -1.0],
                         [[0.0, 0.0, 1.0]], [2.0], [[0.0, 1.0, 1.0]], [1.0]),
    # the equality row mixes in the curved coordinate; still a ray
    "equality-mixed-unbounded": (np.diag([2.0, 0.0, 0.0]), [0.0, 0.0, -1.0],
                                 [[0.0, -1.0, 0.0]], [0.0],
                                 [[1.0, 1.0, -1.0]], [0.0]),
}


def _random_singular_qps():
    """Seeded QPs with a rank-deficient Hessian and a feasible origin; about
    half are unbounded."""
    rng = np.random.default_rng(45)
    cases = []
    for _ in range(60):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(0, n))
        L = rng.normal(size=(n, r))
        P = L @ L.T
        q = rng.normal(size=n)
        m = int(rng.integers(0, 2 * n + 1))
        G = rng.normal(size=(m, n)) if m else None
        h = rng.uniform(0.1, 1.0, m) if m else None
        k = int(rng.integers(0, n - 1)) if rng.random() < 0.4 else 0
        A = rng.normal(size=(k, n)) if k else None
        b = np.zeros(k) if k else None
        cases.append((P, q, G, h, A, b))
    return cases


def _as_arrays(P, q, G, h, A, b):
    n = len(q)
    G = np.zeros((0, n)) if G is None else np.asarray(G, dtype=float)
    A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float)
    return np.asarray(P, dtype=float), np.asarray(q, dtype=float), G, A


def _assert_certified(case, res):
    """An unbounded ray is a recession direction along which the objective
    falls linearly; an optimum satisfies the KKT conditions."""
    P, q, G, A = _as_arrays(*case)
    if res.status == "unbounded":
        d = res.ray / np.max(np.abs(res.ray))
        assert np.max(np.abs(P @ d), initial=0.0) <= 1e-8
        assert q @ d < -1e-8
        assert np.max(G @ d, initial=0.0) <= 1e-8
        assert np.max(np.abs(A @ d), initial=0.0) <= 1e-8
    else:
        assert res.status == "optimal"
        h = np.zeros(0) if case[3] is None else np.asarray(case[3], dtype=float)
        lam = res.ineq_multipliers
        station = P @ res.x + q + G.T @ lam
        if A.shape[0]:
            station = station + A.T @ res.eq_multipliers
        assert np.max(np.abs(station)) <= 1e-7
        assert np.max(G @ res.x - h, initial=0.0) <= 1e-8
        assert np.all(lam >= 0.0)


def _recession_lp_unbounded(case) -> bool:
    """Independent verdict: is some d with Pd = 0, Gd <= 0, Ad = 0 a descent
    direction of q?  Solved by HiGHS over a box in the null space of P."""
    from scipy.linalg import null_space
    from scipy.optimize import linprog

    P, q, G, A = _as_arrays(*case)
    Z = null_space(P) if np.any(P) else np.eye(len(q))
    if Z.shape[1] == 0:
        return False
    res = linprog(Z.T @ q, A_ub=G @ Z if G.shape[0] else None,
                  b_ub=np.zeros(G.shape[0]) if G.shape[0] else None,
                  A_eq=A @ Z if A.shape[0] else None,
                  b_eq=np.zeros(A.shape[0]) if A.shape[0] else None,
                  bounds=[(-1.0, 1.0)] * Z.shape[1], method="highs")
    assert res.status == 0
    return res.fun < -1e-9


class TestUnboundedRays:
    @pytest.mark.parametrize("name", sorted(RAY_CASES))
    def test_named_cases(self, name):
        case = RAY_CASES[name]
        res = solve_qp(case[0], case[1], 0.0, *case[2:])
        assert res.status == ("unbounded" if name.endswith("-unbounded") else "optimal")
        _assert_certified(case, res)

    def test_blocked_case_optimum(self):
        case = RAY_CASES["blocked-then-bounded"]
        res = solve_qp(case[0], case[1], 0.0, *case[2:])
        np.testing.assert_allclose(res.x, [6.0, 5.0], atol=1e-9)

    def test_small_curvature_is_not_a_ray(self):
        # curvature 1e-11 along x2 bounds the program: the optimum is x2 = 1e11
        res = solve_qp(np.diag([1.0, 1e-11]), [0.0, -1.0], G=[[1.0, 0.0]], h=[1.0])
        assert res.status == "optimal"
        np.testing.assert_allclose(res.x, [0.0, 1e11], rtol=1e-9)
        assert res.value == pytest.approx(-5e10, rel=1e-9)

    def test_random_singular_hessians(self):
        statuses = []
        for case in _random_singular_qps():
            res = solve_qp(case[0], case[1], 0.0, *case[2:])
            statuses.append(res.status)
            _assert_certified(case, res)
        assert 10 <= statuses.count("unbounded") <= 50

    def test_verdicts_match_recession_lp(self):
        pytest.importorskip("scipy")
        cases = list(RAY_CASES.values()) + _random_singular_qps()
        for trial, case in enumerate(cases):
            res = solve_qp(case[0], case[1], 0.0, *case[2:])
            assert (res.status == "unbounded") == _recession_lp_unbounded(case), \
                f"case {trial}: {res.status}"


class TestEqualityRowsFirst:
    """Phase 1 starts from lstsq(A, b) and meets the inequality rows over
    null(A), by the elastic LP only when x0 violates one; when A has full
    column rank it only tests G x0 <= h."""

    # three rows on two unknowns pin x = (1, 2)
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = A @ [1.0, 2.0]
    G = np.vstack([np.eye(2), -np.eye(2)])

    def test_pinned_feasible_point_is_optimal(self):
        res = solve_qp(np.eye(2), [5.0, -1.0], G=self.G, h=[3.0, 3.0, 3.0, 3.0],
                       A=self.A, b=self.b)
        assert res.status == "optimal"
        np.testing.assert_allclose(res.x, [1.0, 2.0], atol=1e-12)
        assert res.value == pytest.approx(0.5 * 5.0 + 5.0 - 2.0, abs=1e-12)

    def test_pinned_point_violating_the_inequalities_is_infeasible(self):
        # x2 <= 1.5 excludes the only point of the equality rows
        res = solve_qp(np.eye(2), np.zeros(2), G=self.G, h=[3.0, 1.5, 3.0, 3.0],
                       A=self.A, b=self.b)
        assert res.status == "infeasible"
        assert res.x is None

    def test_inconsistent_rows_with_inequalities_are_infeasible(self):
        res = solve_qp(np.eye(2), np.zeros(2), G=self.G, h=np.ones(4),
                       A=[[1.0, 1.0], [1.0, 1.0]], b=[0.0, 1.0])
        assert res.status == "infeasible"

    def test_no_lp_when_the_equalities_pin_the_point(self, monkeypatch):
        # the elastic phase 1 is a nested solve_qp, looked up on the module
        calls = []
        engine = qp.solve_qp
        monkeypatch.setattr(qp, "solve_qp", lambda *a: calls.append(a) or engine(*a))
        assert solve_qp(np.eye(2), np.zeros(2), G=self.G, h=np.full(4, 3.0),
                        A=self.A, b=self.b).status == "optimal"
        assert solve_qp(np.eye(2), np.zeros(2), G=self.G, h=[3.0, 1.5, 3.0, 3.0],
                        A=self.A, b=self.b).status == "infeasible"
        # a free direction left by A: x0 = (1, 0) meets the rows, so no LP
        assert solve_qp(np.eye(2), np.zeros(2), G=self.G, h=np.full(4, 3.0),
                        A=self.A[:1], b=self.b[:1]).status == "optimal"
        assert calls == []
        # x2 >= 1 is violated at x0: the LP runs, over one coordinate and t
        assert solve_qp(np.eye(2), np.zeros(2), G=self.G, h=[3.0, 3.0, 3.0, -1.0],
                        A=self.A[:1], b=self.b[:1]).status == "optimal"
        assert [a[3].shape for a in calls] == [(5, 2)]

    def test_rank_deficient_rows_match_highs(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        status = {0: "optimal", 2: "infeasible", 3: "unbounded"}
        rng = np.random.default_rng(46)
        seen = []
        for trial in range(60):
            n = int(rng.integers(3, 6))
            k = int(rng.integers(1, n - 1))
            A = rng.normal(size=(k, n))
            A = np.vstack([A, rng.normal(size=(2, k)) @ A])  # two dependent rows
            x_feas = rng.normal(size=n)
            b = A @ x_feas
            m = int(rng.integers(1, 2 * n))
            G = rng.normal(size=(m, n))
            h = G @ x_feas + rng.uniform(-0.3, 1.0, m)  # sometimes infeasible
            c = rng.normal(size=n)
            res = solve_qp(np.zeros((n, n)), c, 0.0, G, h, A, b)
            ref = linprog(c, A_ub=G, b_ub=h, A_eq=A, b_eq=b,
                          bounds=[(None, None)] * n, method="highs")
            assert res.status == status[ref.status], f"trial {trial}"
            if res.status == "optimal":
                assert res.value == pytest.approx(ref.fun, abs=1e-7), f"trial {trial}"
            seen.append(res.status)
        assert set(seen) == {"optimal", "infeasible", "unbounded"}


class TestElasticPhaseOne:
    """Rows that no column lifts, violated at x0 = lstsq(A, b), are met by
    the elastic LP min t over G_f (x0 + Z w) - t <= h_f, t >= 0."""

    def test_rows_infeasible_over_the_null_space_are_infeasible(self):
        # x3 = 1 leaves x1 + x3 <= 0 and x1 >= 0 with no common point,
        # though the rows alone are met at 0; no column lifts
        G = [[1.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        res = solve_qp(np.zeros((3, 3)), np.zeros(3), G=G, h=[0.0, 0.0, 1.0],
                       A=[[0.0, 0.0, 1.0]], b=[1.0])
        assert (res.status, res.x) == ("infeasible", None)
        res = solve_qp(np.eye(3), np.zeros(3), G=G, h=[0.0, 0.0, 1.0])
        assert res.status == "optimal"

    def test_rows_met_away_from_x0_are_met(self, monkeypatch):
        # P = 0 and q = 0: the point phase 1 returns is the optimum
        calls = []
        engine = qp.solve_qp
        monkeypatch.setattr(qp, "solve_qp", lambda *a: calls.append(a) or engine(*a))
        rng = np.random.default_rng(17)
        for trial in range(20):
            n = int(rng.integers(3, 7))
            A = rng.normal(size=(int(rng.integers(0, n - 1)), n))
            x_feas = rng.normal(size=n)
            G = rng.normal(size=(2 * n, n))
            h = G @ x_feas + rng.uniform(0.0, 0.5, 2 * n)
            x0 = np.linalg.lstsq(A, A @ x_feas, rcond=None)[0] if A.size else np.zeros(n)
            if np.all(G @ x0 <= h):
                continue
            ran = len(calls)
            res = solve_qp(np.zeros((n, n)), np.zeros(n), G=G, h=h, A=A, b=A @ x_feas)
            assert len(calls) == ran + 1, f"trial {trial}"
            assert res.status == "optimal", f"trial {trial}"
            assert np.max(G @ res.x - h) <= 1e-8, f"trial {trial}"
            np.testing.assert_allclose(A @ res.x, A @ x_feas, rtol=0, atol=1e-8)
        assert len(calls) >= 10


class TestEngineFailure:
    def test_phase_one_non_termination_is_a_status(self, monkeypatch):
        # no column lifts (each has a positive entry), and x0 = 0 violates
        # x1 + x2 >= 1, so phase 1 runs the elastic LP; stopped at its
        # iteration cap, it ends the solve with no point
        monkeypatch.setattr(qp, "solve_qp", functools.partial(qp.solve_qp, max_iter=0))
        res = solve_qp(np.eye(2), [1.0, 1.0], G=[[1.0, 1.0], [-1.0, -1.0]], h=[3.0, -1.0])
        assert res.status == "maxiter"
        assert res.x is None


def test_32_leaf_kinked_hedging_bound(tmp_path):
    # |z| hedging: the dual's annihilator bound has 129 unknowns pinned by
    # 192 full-rank equality rows and 64 box rows; no LP phase 1 runs
    liability = np.random.default_rng(7).uniform(2.5, 3.5, 32)
    code, report = run(["report", hedging_file(tmp_path, 5, liability, {"kind": "abs"})])
    assert code == 0
    assert report["dual"]["method"] == "recovered"
    rep = report["dual_representation"]
    assert rep["annihilator_bound"] is not None
    assert rep["annihilator_bound"] == pytest.approx(rep["conjugate_at_y"], abs=1e-9)
    assert report["certificate"]["verdict"] == "pass"


class TestFactor:
    @staticmethod
    def assert_invariants(f, C):
        k = f.k
        assert k == len(C)
        np.testing.assert_allclose(f.Qt @ f.Qt.T, np.eye(f.Qt.shape[0]), rtol=0, atol=1e-12)
        if k:
            np.testing.assert_allclose(f.Qt[:k].T @ np.triu(f.R[:k, :k]), np.array(C).T,
                                       rtol=0, atol=1e-12)
            assert not np.any(np.tril(f.R[:k, :k], -1))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_adds_and_drops(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        f, C = qp._Factor(n), []
        for _ in range(60):
            move = rng.random()
            if C and move < 0.35:
                p = int(rng.integers(len(C)))
                f.drop(p)
                del C[p]
            elif C and move < 0.55:
                # dependent: a combination of the factored rows, or zero
                a = rng.normal(size=len(C)) @ np.array(C) if rng.random() < 0.8 else np.zeros(n)
                assert not f.add(a)
            elif len(C) < n:
                a = rng.normal(size=n)
                if rng.random() < 0.3:
                    a[rng.random(n) < 0.5] = 0.0  # sparse, as lowered rows are
                independent = np.linalg.matrix_rank(np.array(C + [a])) > len(C)
                assert f.add(a) == independent
                if independent:
                    C.append(a)
            self.assert_invariants(f, C)
            if C:
                rhs = np.array(C).T @ rng.normal(size=len(C))
                lam = f.multipliers(rhs)
                np.testing.assert_allclose(np.array(C).T @ lam, rhs, rtol=0, atol=1e-10)

    def test_extend_skips_dependent_rows(self):
        rng = np.random.default_rng(5)
        f = qp._Factor(6)
        base = rng.normal(size=(2, 6))
        assert f.extend(base).tolist() == [True, True]
        block = np.vstack([rng.normal(size=6), base[0] - 2.0 * base[1], rng.normal(size=6)])
        assert f.extend(block).tolist() == [True, False, True]
        self.assert_invariants(f, [base[0], base[1], block[0], block[2]])
        # more rows than the null space holds: row by row
        assert f.extend(rng.normal(size=(3, 6))).tolist() == [True, True, False]
        assert f.k == 6

    def test_multipliers_span_more_than_one_block(self):
        rng = np.random.default_rng(6)
        f = qp._Factor(150)
        C = rng.normal(size=(140, 150))
        assert f.extend(C).all()
        lam = rng.normal(size=140)
        np.testing.assert_allclose(f.multipliers(C.T @ lam), lam, rtol=0, atol=1e-9)


def test_tight_row_dependent_on_the_working_rows_is_skipped():
    # x <= 0 and x + 1e-11 y <= 0 are both tight at 0, and the second is
    # dependent to the factor's test; maximising y along x = 0 must not
    # stall on it, and stops at y <= 5
    G = np.array([[1.0, 0.0], [1.0, 1e-11], [0.0, 1.0]])
    res = solve_qp(np.zeros((2, 2)), [0.0, -1.0], G=G, h=[0.0, 0.0, 5.0])
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [0.0, 5.0], atol=1e-9)
    assert res.ineq_multipliers[1] == 0.0


class TestNoLpOnKinkedPrograms:
    """The |z| hedging primal, and the Bolza |x| primal and Lagrangian, are
    met by the lift alone."""

    @pytest.fixture(autouse=True)
    def no_lp(self, monkeypatch):
        # the LPs of convex and duality run through qp.solve_qp too; only a
        # call made by solve_qp itself is a phase 1
        engine = qp.solve_qp

        def refuse(*args, **kwargs):
            if sys._getframe(1).f_code is engine.__code__:
                raise AssertionError("phase 1 ran an LP")
            return engine(*args, **kwargs)

        monkeypatch.setattr(qp, "solve_qp", refuse)

    def test_abs_hedging_primal(self):
        p, u = parse_doc(kinked_doc("hedging", 4, 0, {"kind": "abs"}))
        assert solve_primal(p, u).status == "optimal"

    def test_abs_bolza_primal_and_lagrangian(self):
        p, u = parse_doc(kinked_doc("bolza", 3, 0, {"kind": "abs"}))
        primal = solve_primal(p, u)
        assert primal.status == "optimal"
        dual = solve_dual(p, u, primal=primal)
        assert dual.status == "optimal"
        assert dual_objective(p, dual.optimizer).inner_status == "optimal"
