"""Certificate checkers against hand-derived and grid-verified optima."""

import numpy as np
import pytest

from stochdual import convex, integrand, optimality
from stochdual.cli import fixture_path, parse_problem_file
from stochdual.convex import (
    Affine,
    AffinePrecomposition,
    Polyhedron,
    Quadratic,
    SeparableSum,
    absolute_value,
)
from stochdual.integrand import BolzaStage, GenericIntegrand
from stochdual.models import build_alm, build_bolza, build_constrained, build_kabanov
from stochdual.optimality import (
    check_alm,
    check_consistent_price_system,
    check_euler_lagrange,
    check_hamiltonian_system,
    check_kkt,
    check_saddle,
)
from stochdual.solver import Problem, duality_gap, solve_primal
from stochdual.tree import (
    NotAdaptedError,
    ScenarioTree,
    StochasticProcess,
    adapted_projection,
    in_orthocomplement,
)

from helpers import (
    HEDGING_DISUTILITIES,
    binary_hedging,
    check_alm_per_leaf,
    grid_minimize,
    random_process,
    same_bits,
    two_leaf_tree,
)

INF = float("inf")
CONE_GENERATORS = np.array([[1.0, -2.0], [-1.0, 0.5], [-1.0, 0.0], [0.0, -1.0]])


def tracking_problem():
    tree = two_leaf_tree()
    joint = AffinePrecomposition(Quadratic([0.5]), np.array([[1.0, -1.0]]))
    return Problem(tree, GenericIntegrand(tree, [1, 0], [0, 1], [joint]))


def proc(tree, stage_vals):
    return StochasticProcess.from_stage_values(tree, stage_vals)


@pytest.mark.parametrize("residuals, want", [
    ([], 0.0), ([0.5, 2.0, 1.0], 2.0), ([-1.0, -3.0], -1.0),
    ([0.5, INF, 1.0], INF), ([0.5, np.nan, 1.0], INF), ([np.nan, -INF], INF)])
def test_max_residual_is_the_largest_row_or_inf(residuals, want):
    # inf as soon as some row is inf or NaN, and 0 with no rows
    cert = optimality.Certificate("pending", 1e-6)
    for r in residuals:
        cert.add("row", r)
    assert cert.max_residual == want


TABLE = [np.nan, INF, -0.0, -2.5, 0.0, 1e-7, 3.0, np.float64(5e-7), -INF]


def same_rows(got, want):
    """Rows equal key for key, in key order, residuals bit for bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert list(a) == list(b)
        assert all(type(a[k]) is type(b[k]) for k in a)
        assert {**a, "residual": 0} == {**b, "residual": 0}
        assert same_bits(a["residual"], b["residual"]), (a, b)


class TestAddRows:
    """One rule for the row format: a table of residuals against a loop of
    one-row ``add`` calls."""

    @pytest.mark.parametrize("tol", [None, 2.0])
    @pytest.mark.parametrize("key, where", [("leaf", {}), ("block", {"stage": 3}),
                                            ("stage", {})])
    def test_one_condition(self, key, where, tol):
        got, want = (optimality.Certificate("pending", 1e-6) for _ in range(2))
        got.add_rows("row", TABLE, tol, key=key, **where)
        for i, r in enumerate(TABLE):
            want.add("row", r, tol, **where, **{key: i})
        same_rows(got.rows, want.rows)
        limit = 1e-6 if tol is None else tol
        same_rows(got.rows, [{"condition": "row", "residual": float(r), "ok": bool(r <= limit),
                              **where, key: i} for i, r in enumerate(TABLE)])
        assert [r["ok"] for r in got.rows][:4] == [False, False, True, True]

    def test_conditions_in_turn(self):
        got, want = (optimality.Certificate("pending", 1e-6) for _ in range(2))
        got.add_rows(("x", "y"), np.array(TABLE[:8]), key="block", stage=1)
        for b in range(4):
            want.add("x", TABLE[2 * b], stage=1, block=b)
            want.add("y", TABLE[2 * b + 1], stage=1, block=b)
        same_rows(got.rows, want.rows)

    def test_no_key(self):
        got, want = (optimality.Certificate("pending", 1e-6) for _ in range(2))
        got.add_rows("row", TABLE, 1.0, constraint=2)
        for r in TABLE:
            want.add("row", r, 1.0, constraint=2)
        same_rows(got.rows, want.rows)
        assert got.rows[0] == {"condition": "row", "residual": got.rows[0]["residual"],
                               "ok": False, "constraint": 2}

    def test_nonnegative_is_max_with_zero(self):
        got = optimality._nonnegative(np.array(TABLE, dtype=float))
        want = [max(r, 0.0) for r in np.array(TABLE, dtype=float).tolist()]
        assert all(type(r) is float for r in got)
        assert same_bits(got, want)
        assert np.signbit(got[2])


class TestCheckSaddle:
    def make_certificate_inputs(self):
        p = tracking_problem()
        tree = p.tree
        x = proc(tree, [[[2.0], [2.0]], np.zeros((2, 0))])
        u = proc(tree, [np.zeros((2, 0)), [[1.0], [3.0]]])
        y = proc(tree, [np.zeros((2, 0)), [[-1.0], [1.0]]])
        # the conjugate pins v = -y leafwise; that choice is also the
        # gradient of f in x and has zero conditional mean
        v = proc(tree, [[[1.0], [-1.0]], np.zeros((2, 0))])
        return p, x, u, y, v

    def test_optimal_pair_passes(self):
        p, x, u, y, v = self.make_certificate_inputs()
        cert = check_saddle(p, x, u, y, v)
        assert cert.ok
        assert cert.max_residual <= 1e-10

    def test_zero_dual_fails_with_half_residual(self):
        p, x, u, _, _ = self.make_certificate_inputs()
        y0 = StochasticProcess.zeros(p.tree, p.m_dims)
        v0 = StochasticProcess.zeros(p.tree, p.n_dims)
        cert = check_saddle(p, x, u, y0, v0)
        assert not cert.ok
        joint = [r for r in cert.rows if r["condition"] == "joint-subgradient"]
        assert joint[0]["residual"] == pytest.approx(0.5)

    def test_perturbed_certificate_fails(self):
        p, x, u, y, v = self.make_certificate_inputs()
        bumped = proc(p.tree, [np.zeros((2, 0)),
                               y.stage(1) + np.array([[0.1], [0.0]])])
        assert not check_saddle(p, x, u, bumped, v).ok

    def test_infeasible_candidate_fails_with_reason(self):
        tree = ScenarioTree.deterministic(1)
        p = build_constrained(tree, [1], [Quadratic([1.0])], [[Affine([-1.0], 1.0)]])
        x = proc(tree, [[[0.0]]])  # violates 1 - x <= 0
        u = StochasticProcess.zeros(tree, p.m_dims)
        y = proc(tree, [[[2.0]]])
        v = StochasticProcess.zeros(tree, p.n_dims)
        cert = check_saddle(p, x, u, y, v)
        assert cert.verdict == "fail"
        assert "infeasible" in cert.reason

    def test_lagrangian_split_agrees(self):
        p, x, u, y, v = self.make_certificate_inputs()
        cert = check_saddle(p, x, u, y, v)
        for cond in ("lagrangian-x", "lagrangian-y"):
            rows = [r for r in cert.rows if r["condition"] == cond]
            assert rows and all(r["ok"] for r in rows)


class TestCheckKKT:
    def make(self):
        tree = ScenarioTree.deterministic(1)
        p = build_constrained(tree, [1], [Quadratic([1.0])], [[Affine([-1.0], 1.0)]])
        u = StochasticProcess.zeros(tree, p.m_dims)
        return p, u

    def test_hand_solution_passes(self):
        p, u = self.make()
        x = proc(p.tree, [[[1.0]]])
        y = proc(p.tree, [[[2.0]]])
        v = StochasticProcess.zeros(p.tree, p.n_dims)
        cert = check_kkt(p, x, u, y, v)
        assert cert.ok
        # grid cross-check: x^2 + 2(1-x) is minimised at the same point
        xs = np.arange(-10, 10.001, 0.01)
        assert xs[np.argmin(xs ** 2 + 2 * (1 - xs))] == pytest.approx(1.0, abs=1e-8)

    def test_zero_price_fails_stationarity(self):
        p, u = self.make()
        x = proc(p.tree, [[[1.0]]])
        y = StochasticProcess.zeros(p.tree, p.m_dims)
        v = StochasticProcess.zeros(p.tree, p.n_dims)
        cert = check_kkt(p, x, u, y, v)
        assert not cert.ok
        bad = [r for r in cert.rows if not r["ok"]]
        assert all(r["condition"] == "stationarity" for r in bad)

    def test_negative_price_fails_sign(self):
        p, u = self.make()
        x = proc(p.tree, [[[1.0]]])
        y = proc(p.tree, [[[-1.0]]])
        v = StochasticProcess.zeros(p.tree, p.n_dims)
        cert = check_kkt(p, x, u, y, v)
        assert not cert.ok
        assert any(r["condition"] == "sign" and not r["ok"] for r in cert.rows)


class TestCheckAlm:
    def make(self, liability):
        tree = two_leaf_tree()
        price = proc(tree, [[[1.0], [1.0]], [[2.0], [0.5]]])
        p = build_alm(tree, Quadratic([0.5]), price)
        u = proc(tree, [np.zeros((2, 0)), np.full((2, 1), liability)])
        return p, u

    def test_solver_output_passes(self):
        p, u = self.make(1.0)
        res = solve_primal(p, u)
        x0 = res.optimizer.stage(0)[0, 0]
        assert x0 == pytest.approx(0.4, abs=1e-9)
        y_vals = 1.0 - x0 * np.array([1.0, -0.5])
        y = proc(p.tree, [np.zeros((2, 0)), y_vals.reshape(-1, 1)])
        x = res.optimizer
        cert = check_alm(p, x, u, y)
        assert cert.ok

    def test_zero_liability_is_degenerate(self):
        p, u = self.make(0.0)
        res = solve_primal(p, u)
        y = StochasticProcess.zeros(p.tree, p.m_dims)
        cert = check_alm(p, res.optimizer, u, y)
        assert cert.verdict == "degenerate"

    def test_density_with_wrong_position_fails(self):
        p, u = self.make(1.0)
        x = proc(p.tree, [[[2.0], [2.0]], np.zeros((2, 0))])  # not the hedge
        y = proc(p.tree, [np.zeros((2, 0)), [[2 / 3], [4 / 3]]])
        cert = check_alm(p, x, u, y)
        assert not cert.ok
        assert any(r["condition"] == "disutility-subgradient" and not r["ok"]
                   for r in cert.rows)



def hedging_candidates(p, rng, draws=4):
    """(x, u, y) triples on a hedging problem: the solved ½z² optimum and
    its primal, then random adapted positions and random densities, some y
    outside dom V* (negative, or above the top slope)."""
    tree, n = p.tree, p.tree.n_leaves
    u = StochasticProcess(tree, tuple(np.zeros((n, 0)) for _ in range(tree.horizon))
                          + (rng.uniform(2.5, 3.5, size=(n, 1)),))
    quad = binary_hedging(tree.horizon, Quadratic([0.5]))
    gap = duality_gap(quad, u)
    out = [(gap.primal.optimizer, u, gap.dual.optimizer)]
    for _ in range(draws):
        x = adapted_projection(random_process(rng, tree, p.n_dims))
        y = StochasticProcess.from_leaf_rows(tree, p.m_dims, rng.uniform(-0.5, 2.5, (n, 1)))
        out.append((x, u, y))
    return out


class TestCheckAlmOnePass:
    """check_alm's one pass per shared V against the per-leaf checker it
    replaced, kept in the tests as the reference."""

    @pytest.mark.parametrize("kind", sorted(HEDGING_DISUTILITIES))
    def test_matches_per_leaf_reference(self, kind):
        p = binary_hedging(3, HEDGING_DISUTILITIES[kind])
        for x, u, y in hedging_candidates(p, np.random.default_rng(5)):
            got, want = check_alm(p, x, u, y), check_alm_per_leaf(p, x, u, y)
            assert (got.verdict, got.reason) == (want.verdict, want.reason)
            assert len(got.rows) == len(want.rows)
            for a, b in zip(got.rows, want.rows):
                assert {**a, "residual": 0} == {**b, "residual": 0}
                assert same_bits(a["residual"], b["residual"]), (a, b)
            assert all(same_bits(a, b) for a, b in zip(got.v.values, want.v.values))

    def test_annihilator_row_is_the_orthocomplement_residual(self):
        p = binary_hedging(3, Quadratic([0.5]))
        for x, u, y in hedging_candidates(p, np.random.default_rng(6)):
            cert = check_alm(p, x, u, y)
            row = [r for r in cert.rows if r["condition"] == "annihilator"]
            assert len(row) == 1
            assert same_bits(row[0]["residual"], in_orthocomplement(cert.v).max_residual)

    def test_nan_dual_fails(self):
        p = binary_hedging(2, Quadratic([0.5]))
        x, u, y = hedging_candidates(p, np.random.default_rng(7), draws=0)[0]
        rows = y.rows.copy()
        rows[2, 0] = np.nan
        y = StochasticProcess.from_leaf_rows(p.tree, p.m_dims, rows)
        cert = check_alm(p, x, u, y)
        assert cert.verdict == "fail"
        assert check_alm_per_leaf(p, x, u, y).verdict == "fail"

    def test_no_per_leaf_partial_infimum_or_fenchel_residual(self, monkeypatch):
        # a 64-leaf ½z² hedging gap and certificate build the Lagrangian and
        # the residuals one group of leaves at a time
        calls = {"partial_infimum": 0, "fenchel_residual": 0}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        counting(integrand, "partial_infimum")
        counting(convex, "fenchel_residual")
        counting(optimality, "fenchel_residual")
        p = binary_hedging(6, Quadratic([0.5]))
        _, u, _ = hedging_candidates(p, np.random.default_rng(8), draws=0)[0]
        calls.update(partial_infimum=0, fenchel_residual=0)  # the candidates' own solve
        gap = duality_gap(p, u)
        cert = check_alm(p, gap.primal.optimizer, u, gap.dual.optimizer)
        assert gap.dual.status == "optimal" and cert.ok
        assert calls == {"partial_infimum": 0, "fenchel_residual": 0}


def quad_stage():
    return BolzaStage(SeparableSum([Quadratic([0.5]), Quadratic([0.5])]), 1)


class TestEulerLagrangeAndHamiltonian:
    def test_all_zero_passes(self):
        tree = ScenarioTree.deterministic(2)
        p = build_bolza(tree, [[quad_stage()], [quad_stage()]])
        z = StochasticProcess.zeros(tree, p.m_dims)
        assert check_euler_lagrange(p, z, z, z).ok
        assert check_hamiltonian_system(p, z, z, z).ok

    def single_stage_instance(self):
        tree = ScenarioTree.deterministic(1)
        p = build_bolza(tree, [[quad_stage()]])
        u = proc(tree, [[[1.0]]])
        # min x^2/2 + (x+1)^2/2 at x = -1/2; dual from the velocity gradient
        x = proc(tree, [[[-0.5]]])
        y = proc(tree, [[[0.5]]])
        return p, x, u, y

    def test_single_stage_hand_solution(self):
        p, x, u, y = self.single_stage_instance()
        cert = check_euler_lagrange(p, x, u, y)
        assert cert.ok
        xs = np.arange(-10, 10.001, 0.01)
        oracle = xs[np.argmin(0.5 * xs ** 2 + 0.5 * (xs + 1) ** 2)]
        assert oracle == pytest.approx(-0.5, abs=1e-8)

    def test_hamiltonian_agrees_on_hand_solution(self):
        p, x, u, y = self.single_stage_instance()
        assert check_hamiltonian_system(p, x, u, y).ok

    def test_perturbation_fails_both(self):
        p, x, u, y = self.single_stage_instance()
        ybad = proc(p.tree, [[[0.6]]])
        assert not check_euler_lagrange(p, x, u, ybad).ok
        assert not check_hamiltonian_system(p, x, u, ybad).ok

    def test_kinked_running_cost_at_the_kink(self):
        tree = ScenarioTree.deterministic(1)
        stage = BolzaStage(SeparableSum([absolute_value(), Quadratic([0.5])]), 1)
        p = build_bolza(tree, [[stage]])
        u = proc(tree, [[[0.5]]])
        x = proc(tree, [[[0.0]]])   # optimal at the kink
        y = proc(tree, [[[0.5]]])   # velocity gradient w = x + u
        assert check_euler_lagrange(p, x, u, y).ok
        assert check_hamiltonian_system(p, x, u, y).ok

    def test_verdict_agreement_on_random_certificates(self):
        rng = np.random.default_rng(81)
        tree = ScenarioTree.binary(1)
        stages = [[quad_stage()], [quad_stage(), quad_stage()]]
        p = build_bolza(tree, stages)
        agree = 0
        for trial in range(200):
            u = adapted_projection(StochasticProcess(
                tree, tuple(rng.normal(size=(2, 1)) for _ in range(2))
            ))
            if trial % 2 == 0:
                res = solve_primal(p, u)
                x = res.optimizer
                # velocity gradients give the exact dual candidate
                states = [x.stage(0), x.stage(1)]
                w0 = states[0] + u.stage(0)
                w1 = states[1] - states[0] + u.stage(1)
                y = StochasticProcess(tree, (w0, w1))
            else:
                x = adapted_projection(StochasticProcess(
                    tree, tuple(rng.normal(size=(2, 1)) for _ in range(2))
                ))
                y = adapted_projection(StochasticProcess(
                    tree, tuple(rng.normal(size=(2, 1)) for _ in range(2))
                ))
            el = check_euler_lagrange(p, x, u, y)
            ham = check_hamiltonian_system(p, x, u, y)
            assert el.ok == ham.ok, f"trial {trial}"
            agree += 1
        assert agree == 200

    def test_non_adapted_parameter_is_refused(self):
        # both stage checkers read u at each block's first leaf only: with
        # 100 added to u on the second leaf of each stage-1 block of
        # bolza-quadratic-binary.json, they refuse it at the optimal x, y
        problem, _, params, _, _ = parse_problem_file(fixture_path("bolza-quadratic-binary.json"))
        u = params["u"]
        gap = duality_gap(problem, u)
        x, y = gap.primal.optimizer, gap.dual.optimizer
        assert check_hamiltonian_system(problem, x, u, y).ok
        values = [a.copy() for a in u.values]
        values[1][[1, 3]] += 100.0
        bad = StochasticProcess(problem.tree, tuple(values))
        for check in (check_euler_lagrange, check_hamiltonian_system):
            with pytest.raises(NotAdaptedError, match="parameter must be adapted"):
                check(problem, x, bad, y)

    def test_pass_is_monotone_in_tolerance(self):
        p, x, u, y = self.single_stage_instance()
        for tol in (1e-8, 1e-6, 1e-3, 1e-1):
            assert check_euler_lagrange(p, x, u, y, tol=tol).ok


class TestConsistentPriceSystem:
    def make(self, endowment):
        tree = ScenarioTree.deterministic(1)
        C = Polyhedron.from_cone_generators(CONE_GENERATORS)
        V = Quadratic([0.5, 0.5])
        p = build_kabanov(tree, [[C]], [[V]])
        u = proc(tree, [[list(endowment) + [0.0, 0.0]]])
        return p, u, C

    def split(self, tree, z_vals, k_vals):
        z = proc(tree, [[z_vals]])
        k = proc(tree, [[k_vals]])
        return z, k

    def test_spec_degenerate_and_failing_duals(self):
        p, u, C = self.make([0.0, 0.0])
        z, k = self.split(p.tree, [0.0, 0.0], [0.0, 0.0])
        uz = proc(p.tree, [[[0.0, 0.0]]])
        y = proc(p.tree, [[[1.0, 1.0]]])
        cert = check_consistent_price_system(p, z, k, uz, y)
        assert not cert.ok
        bad = [r for r in cert.rows if not r["ok"]]
        assert any(r["condition"] == "consumption-subgradient" for r in bad)
        res = [r["residual"] for r in bad if r["condition"] == "consumption-subgradient"]
        assert res[0] == pytest.approx(1.0)
        zero = StochasticProcess.zeros(p.tree, (2,))
        cert0 = check_consistent_price_system(p, z, k, uz, zero)
        assert cert0.verdict == "degenerate"

    def test_nonzero_endowment_optimum_passes(self):
        p, u, C = self.make([1.0, 0.0])
        # grid oracle over the consumption (holdings pinned to zero by the
        # terminal constraint): project the endowment onto the cone
        def vm(K):
            vals = 0.5 * np.sum(K * K, axis=1)
            trade = K + np.array([1.0, 0.0])
            bad = np.any(trade @ C.a_ub.T > 1e-9, axis=1)
            return np.where(bad, np.inf, vals)

        val, k_star = grid_minimize(vm, 2, lo=-2, hi=2, step=0.01)
        np.testing.assert_allclose(k_star, [-0.8, -0.4], atol=1e-9)
        res = solve_primal(p, u)
        assert res.value == pytest.approx(val, abs=2e-2)
        z, k = self.split(p.tree, [0.0, 0.0], list(res.optimizer.stage(0)[0, 2:]))
        uz = proc(p.tree, [[[1.0, 0.0]]])
        y = proc(p.tree, [[list(-res.optimizer.stage(0)[0, 2:])]])
        cert = check_consistent_price_system(p, z, k, uz, y)
        assert cert.ok

    def test_complementarity_violation_fails(self):
        p, u, C = self.make([1.0, 0.0])
        z, k = self.split(p.tree, [0.0, 0.0], [-0.8, -0.4])
        uz = proc(p.tree, [[[1.0, 0.0]]])
        # strictly interior polar point with a nonzero executed trade
        y = proc(p.tree, [[[0.9, 0.8]]])
        cert = check_consistent_price_system(p, z, k, uz, y)
        assert not cert.ok
        assert any(r["condition"] == "complementarity" and not r["ok"]
                   for r in cert.rows)

    def test_conical_equivalence_of_verdicts(self):
        rng = np.random.default_rng(82)
        p, u, C = self.make([1.0, 0.0])
        for _ in range(100):
            k_vals = rng.uniform(-1.5, 0.5, 2)
            y_vals = rng.uniform(-0.5, 1.5, 2)
            z, k = self.split(p.tree, [0.0, 0.0], list(k_vals))
            uz = proc(p.tree, [[[1.0, 0.0]]])
            trade = k_vals + np.array([1.0, 0.0])
            y = proc(p.tree, [[list(y_vals)]])
            cert = check_consistent_price_system(p, z, k, uz, y)
            if cert.verdict == "degenerate":
                continue
            support_rows = [r for r in cert.rows if r["condition"] == "trade-support"]
            triple = [r for r in cert.rows if r["condition"] in
                      ("trade-feasibility", "polar-membership", "complementarity")]
            assert all(r["condition"] for r in support_rows)
            support_ok = all(r["ok"] for r in support_rows) and all(
                r["ok"] for r in cert.rows if r["condition"] == "trade-feasibility")
            triple_ok = all(r["ok"] for r in triple)
            assert support_ok == triple_ok
