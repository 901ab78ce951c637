"""Acceptance suite: ten criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are fixed here and nowhere else; every expected value is
either computed by an independent oracle inside the test or verified
against one.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from stochdual.cli import fixture_path, parse_problem_file
from stochdual.convex import (
    Affine,
    AffinePrecomposition,
    PolyhedralIndicator,
    Polyhedron,
    Quadratic,
    SeparableSum,
    absolute_value,
    grid_conjugate_oracle,
)
from stochdual.integrand import (
    BolzaIntegrand,
    BolzaStage,
    ConstrainedIntegrand,
    GenericIntegrand,
)
from stochdual.optimality import (
    check_alm,
    check_consistent_price_system,
    check_euler_lagrange,
    check_hamiltonian_system,
    check_kkt,
    check_saddle,
)
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
    conditional_expectation,
    in_orthocomplement,
    pairing,
)

from helpers import (
    CATALOG_SAMPLES,
    objective_values,
    random_catalog_problem,
    random_small_tree,
    two_leaf_tree,
)

INF = float("inf")

FIXTURES = [
    "quadratic-tracking.json",
    "binomial-alm.json",
    "bolza-quadratic.json",
    "bolza-quadratic-binary.json",
    "bolza-pwl.json",
    "kabanov-conical.json",
    "kkt-single.json",
    "pwl-hedging.json",
]


def _verdict(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _load(name: str):
    problem, family, params, _, _ = parse_problem_file(fixture_path(name))
    return problem, family, params


def _pinned_grid_minimum(problem, u, lo=-10.0, hi=10.0, step=0.01):
    """Exhaustive grid search over the free adapted coordinates, after
    eliminating variables pinned by single-variable equality rows."""
    layout, obj = primal_objective(problem, u)
    pins = {}
    data = obj.qp_data()
    if data is not None:
        _, _, _, _, _, A, b, n_main = data
        for row, rhs in zip(A, b):
            if row.size > n_main and np.max(np.abs(row[n_main:]), initial=0.0) > 0:
                continue
            nz = np.flatnonzero(np.abs(row[:n_main]) > 1e-12)
            if nz.size == 1:
                pins[int(nz[0])] = float(rhs / row[nz[0]])
    free = [i for i in range(layout.width) if i not in pins]
    values = objective_values(obj)
    axis = np.arange(lo, hi + step / 2, step)
    base = np.zeros(layout.width)
    for i, val in pins.items():
        base[i] = val
    if not free:
        return float(obj.value(base)), base
    best, best_w = INF, None
    if len(free) == 1:
        W = np.tile(base, (axis.size, 1))
        W[:, free[0]] = axis
        vals = values(W)
        i = int(np.argmin(vals))
        return float(vals[i]), W[i]
    rest = np.array(list(itertools.product(*([axis] * (len(free) - 1)))))
    chunk = max(1, 2_000_000 // rest.shape[0])
    for start in range(0, axis.size, chunk):
        block = axis[start:start + chunk]
        n_rows = block.size * rest.shape[0]
        W = np.tile(base, (n_rows, 1))
        W[:, free[0]] = np.repeat(block, rest.shape[0])
        W[:, free[1:]] = np.tile(rest, (block.size, 1))
        vals = values(W)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, best_w = float(vals[i]), W[i]
    return best, best_w


class TestCriterion1WeakDualityChain:
    def test_weak_duality_and_conjugate_chain(self):
        from stochdual.integrand import KabanovStage

        started = time.time()
        rng = np.random.default_rng(1001)
        instances, probes = 0, 0
        ok = True
        for _ in range(100):
            p = random_catalog_problem(rng)
            currency = isinstance(p.integrand, BolzaIntegrand) and isinstance(
                p.integrand.stage_cost(0, 0), KabanovStage)
            u = StochasticProcess(
                p.tree, tuple(rng.normal(size=(p.tree.n_leaves, d)) for d in p.m_dims)
            )
            primal = solve_primal(p, u)
            if primal.status != "optimal":
                ok = False
                break
            instances += 1
            for _ in range(10):
                stage_vals = [rng.normal(size=(p.tree.n_leaves, d)) for d in p.m_dims]
                if currency:
                    # duals act through the holdings block only
                    for arr in stage_vals:
                        arr[:, arr.shape[1] // 2:] = 0.0
                y = StochasticProcess(p.tree, tuple(stage_vals))
                dob = dual_objective(p, y)
                if dob.value < INF:
                    if pairing(u, y) - dob.value > primal.value + 1e-6:
                        ok = False
                bound = dual_via_orthocomplement(p, y)
                if dob.value > bound.value + 1e-6:
                    ok = False
                probes += 1
        elapsed = time.time() - started
        _verdict(
            "criterion 1: weak duality and conjugate chain",
            ok and instances >= 100 and probes >= 1000 and elapsed < 60.0,
            f"{instances} instances, {probes} dual probes, {elapsed:.1f}s",
        )


class TestCriterion2StrongDualityOnFixtures:
    def test_gap_below_tolerance_on_every_fixture(self):
        started = time.time()
        worst = 0.0
        ok = True
        for name in FIXTURES:
            problem, _, params = _load(name)
            rep = duality_gap(problem, params["u"])
            if not (np.isfinite(rep.gap) and abs(rep.gap) <= 1e-5):
                ok = False
            else:
                worst = max(worst, abs(rep.gap))
        elapsed = time.time() - started
        _verdict(
            "criterion 2: strong duality on the fixture suite",
            ok and elapsed < 30.0,
            f"worst gap {worst:.2e}, {elapsed:.1f}s",
        )


class TestCriterion3GridOracleEquivalence:
    def test_solver_matches_exhaustive_grid(self):
        started = time.time()
        ok = True
        checked = []
        for name in FIXTURES:
            problem, _, params = _load(name)
            layout, obj = primal_objective(problem, params["u"])
            data = obj.qp_data()
            pinned = 0
            if data is not None:
                A = data[5]
                n_main = data[7]
                pinned = len({
                    int(np.flatnonzero(np.abs(row[:n_main]) > 1e-12)[0])
                    for row in A
                    if np.flatnonzero(np.abs(row[:n_main]) > 1e-12).size == 1
                })
            if layout.width - pinned > 3:
                continue  # the criterion scopes itself to dimension <= 3
            expected, _ = _pinned_grid_minimum(problem, params["u"])
            res = solve_primal(problem, params["u"])
            if abs(res.value - expected) > 2e-2:
                ok = False
            checked.append(name)
        elapsed = time.time() - started
        _verdict(
            "criterion 3: grid-oracle equivalence on small fixtures",
            ok and len(checked) >= 5 and elapsed < 120.0,
            f"{len(checked)} fixtures, {elapsed:.1f}s",
        )


class TestCriterion4ConjugateCorrectness:
    def test_catalog_conjugates_and_biconjugation(self):
        started = time.time()
        ok = True
        for g in CATALOG_SAMPLES:
            oracle = grid_conjugate_oracle(g)  # default range and step
            gs = g.conjugate()
            for v in np.linspace(-3, 3, 25):
                if oracle.boundary_active([v]):
                    continue
                if abs(gs.value([v]) - oracle.value([v])) > 1e-2:
                    ok = False
            gss = gs.conjugate()
            for x in np.linspace(-4, 4, 33):
                a, b = g.value([x]), gss.value([x])
                if a == INF or b == INF:
                    if a != b:
                        ok = False
                elif abs(a - b) > 1e-9:
                    ok = False
        elapsed = time.time() - started
        _verdict(
            "criterion 4: conjugate correctness and biconjugation",
            ok and elapsed < 10.0,
            f"{len(CATALOG_SAMPLES)} catalog kinds, {elapsed:.1f}s",
        )


class TestCriterion5AnnihilatorPairing:
    def test_pairing_vanishes_exactly(self):
        rng = np.random.default_rng(1005)
        worst = 0.0
        for _ in range(10):
            tree = random_small_tree(rng)
            dims = tuple(int(rng.integers(1, 3)) for _ in range(tree.stage_count))
            for _ in range(100):
                raw = StochasticProcess(
                    tree, tuple(rng.normal(size=(tree.n_leaves, d)) for d in dims)
                )
                v = StochasticProcess(tree, tuple(
                    raw.stage(s) - conditional_expectation(raw, s).stage(s)
                    for s in range(tree.stage_count)
                ))
                assert in_orthocomplement(v, 1e-9)
                x = adapted_projection(StochasticProcess(
                    tree, tuple(rng.normal(size=(tree.n_leaves, d)) for d in dims)
                ))
                worst = max(worst, abs(pairing(x, v)))
        _verdict(
            "criterion 5: annihilator pairing identity",
            worst <= 1e-10,
            f"worst |E(x.v)| = {worst:.2e}",
        )


def _dual_increment_compensator(p, y):
    """v_t = E_t dy_{t+1} - dy_{t+1} (with terminal dual zero), as a process
    over the decision layout."""
    tree = p.tree
    T = tree.horizon
    arrays = []
    for t in range(T + 1):
        nxt = y.stage(t + 1) if t < T else np.zeros_like(y.stage(t))
        dy = nxt - y.stage(t)
        proc = StochasticProcess(tree, tuple(
            dy if r == t else np.zeros_like(y.stage(r)) for r in range(T + 1)
        ))
        arrays.append(conditional_expectation(proc, t).stage(t) - dy)
    return StochasticProcess(tree, tuple(arrays))


class TestCriterion6CertificateSoundness:
    def _chain_residual(self, p, x, u, y, v):
        stars = p.integrand.conjugate_values(v.rows, y.rows)
        if np.any(stars == INF):
            return INF
        total_f = float(p.tree.probabilities @ p.integrand.values(x.rows, u.rows))
        return abs(total_f - (pairing(u, y) - float(p.tree.probabilities @ stars)))

    def test_pass_certificates_close_the_chain_and_match_grids(self):
        ok = True
        details = []
        # tracking: joint saddle certificate
        p, _, params = _load("quadratic-tracking.json")
        u = params["u"]
        x = solve_primal(p, u).optimizer
        y = solve_dual(p, u).optimizer
        v = dual_via_orthocomplement(p, y).v
        cert = check_saddle(p, x, u, y, v)
        chain = self._chain_residual(p, x, u, y, v)
        grid_val, _ = _pinned_grid_minimum(p, u)
        ok &= cert.ok and chain <= 3e-6 and abs(solve_primal(p, u).value - grid_val) <= 2e-2
        details.append(f"saddle chain {chain:.1e}")
        # constrained: fixture candidate
        p, _, params = _load("kkt-single.json")
        cand = params["candidate"]
        cert = check_kkt(p, cand["x"], params["u"], cand["y"], cand["v"])
        chain = self._chain_residual(p, cand["x"], params["u"], cand["y"], cand["v"])
        grid_val, _ = _pinned_grid_minimum(p, params["u"])
        val = solve_primal(p, params["u"]).value
        ok &= cert.ok and chain <= 3e-6 and abs(val - grid_val) <= 2e-2
        details.append(f"kkt chain {chain:.1e}")
        # hedging: density certificate with the reconstructed annihilator
        p, _, params = _load("binomial-alm.json")
        u = params["u"]
        x = solve_primal(p, u).optimizer
        y = solve_dual(p, u).optimizer
        cert = check_alm(p, x, u, y)
        chain = self._chain_residual(p, x, u, y, cert.v)
        grid_val, _ = _pinned_grid_minimum(p, u)
        ok &= cert.ok and chain <= 3e-6 and abs(solve_primal(p, u).value - grid_val) <= 2e-2
        details.append(f"alm chain {chain:.1e}")
        # dynamic fixtures: stage certificates with the increment compensator
        for name in ("bolza-quadratic.json", "bolza-quadratic-binary.json"):
            p, _, params = _load(name)
            u = params["u"]
            x = solve_primal(p, u).optimizer
            y = solve_dual(p, u).optimizer
            cert = check_euler_lagrange(p, x, u, y)
            v = _dual_increment_compensator(p, y)
            chain = self._chain_residual(p, x, u, y, v)
            ok &= cert.ok and chain <= 3e-6
            if name == "bolza-quadratic.json":
                grid_val, _ = _pinned_grid_minimum(p, u)
                ok &= abs(solve_primal(p, u).value - grid_val) <= 2e-2
            details.append(f"{name.split('.')[0]} chain {chain:.1e}")
        # currency market: price-system certificate
        p, _, params = _load("kabanov-conical.json")
        u = params["u"]
        res = solve_primal(p, u)
        x = res.optimizer
        d = p.n_dims[0] // 2
        tree = p.tree
        z = StochasticProcess(tree, tuple(x.stage(t)[:, :d] for t in range(tree.stage_count)))
        k = StochasticProcess(tree, tuple(x.stage(t)[:, d:] for t in range(tree.stage_count)))
        uz = StochasticProcess(tree, tuple(u.stage(t)[:, :d] for t in range(tree.stage_count)))
        y2d = solve_dual(p, u).optimizer
        yz = StochasticProcess(tree, tuple(y2d.stage(t)[:, :d] for t in range(tree.stage_count)))
        cert = check_consistent_price_system(p, z, k, uz, yz)
        v = _dual_increment_compensator(p, y2d)
        chain = self._chain_residual(p, x, u, y2d, v)
        grid_val, _ = _pinned_grid_minimum(p, u)
        ok &= cert.ok and chain <= 3e-6 and abs(res.value - grid_val) <= 2e-2
        details.append(f"cps chain {chain:.1e}")
        _verdict("criterion 6: certificate soundness", ok, "; ".join(details))


class TestCriterion7CheckerEquivalences:
    def test_euler_lagrange_vs_hamiltonian_and_conical_triple(self):
        rng = np.random.default_rng(1007)
        tree = ScenarioTree.binary(1)

        def stage(kinked):
            if kinked:
                return BolzaStage(SeparableSum([absolute_value(), Quadratic([0.5])]), 1)
            return BolzaStage(SeparableSum([
                Quadratic([rng.uniform(0.3, 1.2)]), Quadratic([rng.uniform(0.3, 1.2)])
            ]), 1)

        agreements = 0
        for trial in range(200):
            stages = [[stage(trial % 5 == 0)], [stage(False), stage(False)]]
            p = Problem(tree, BolzaIntegrand(tree, stages))
            u = adapted_projection(StochasticProcess(
                tree, tuple(rng.normal(size=(2, 1)) for _ in range(2))))
            if trial % 2 == 0:
                res = solve_primal(p, u)
                x = res.optimizer
                y = solve_dual(p, u).optimizer
            else:
                x = adapted_projection(StochasticProcess(
                    tree, tuple(rng.normal(size=(2, 1)) for _ in range(2))))
                y = adapted_projection(StochasticProcess(
                    tree, tuple(rng.normal(size=(2, 1)) for _ in range(2))))
            el = check_euler_lagrange(p, x, u, y)
            ham = check_hamiltonian_system(p, x, u, y)
            if el.ok == ham.ok:
                agreements += 1
        conical_agree = 0
        p, _, params = _load("kabanov-conical.json")
        C = p.integrand.stage_cost(0, 0).C
        checked = 0
        for _ in range(100):
            k_vals = rng.uniform(-1.5, 0.5, 2)
            y_vals = rng.uniform(-0.5, 1.5, 2)
            z = StochasticProcess.from_stage_values(p.tree, [[[0.0, 0.0]]])
            k = StochasticProcess.from_stage_values(p.tree, [[list(k_vals)]])
            uz = StochasticProcess.from_stage_values(p.tree, [[[1.0, 0.0]]])
            y = StochasticProcess.from_stage_values(p.tree, [[list(y_vals)]])
            cert = check_consistent_price_system(p, z, k, uz, y)
            if cert.verdict == "degenerate":
                continue
            checked += 1
            support_ok = all(
                r["ok"] for r in cert.rows
                if r["condition"] in ("trade-support", "trade-feasibility")
            )
            triple_ok = all(
                r["ok"] for r in cert.rows
                if r["condition"] in ("trade-feasibility", "polar-membership",
                                      "complementarity")
            )
            if support_ok == triple_ok:
                conical_agree += 1
        _verdict(
            "criterion 7: checker equivalences",
            agreements == 200 and conical_agree == checked and checked > 50,
            f"{agreements}/200 stage-system agreements, "
            f"{conical_agree}/{checked} conical agreements",
        )


class TestCriterion8MartingaleRecovery:
    def test_dual_solver_recovers_the_risk_neutral_density(self):
        from stochdual.duality import check_martingale_density

        p, _, params = _load("binomial-alm.json")
        res = solve_dual(p, params["u"])
        y = res.optimizer
        vals = y.stage(1).ravel()
        nondegenerate = float(np.max(np.abs(vals))) > 1e-6
        rep = check_martingale_density(vals, p.integrand.price, tol=1e-6)
        # linear-system oracle: E(y ds) = 0, E y = 1 on the two leaves
        probs = p.tree.probabilities
        ds = (p.integrand.price.stage(1) - p.integrand.price.stage(0)).ravel()
        A = np.array([[probs[0] * ds[0], probs[1] * ds[1]], [probs[0], probs[1]]])
        oracle = np.linalg.solve(A, [0.0, 1.0])
        q = oracle[0] * probs[0]  # risk-neutral weight of the up leaf
        direction_err = float(np.max(np.abs(vals / (probs @ vals) - oracle)))
        _verdict(
            "criterion 8: martingale density recovery",
            nondegenerate and rep.ok and rep.max_residual <= 1e-6
            and direction_err <= 1e-4 and abs(q - 1.0 / 3.0) <= 1e-12,
            f"direction error {direction_err:.1e}, residual {rep.max_residual:.1e}",
        )


class TestCriterion9JensenStep:
    def test_adapted_projection_never_increases_the_conjugate(self):
        rng = np.random.default_rng(1009)
        ok = True
        probes = 0
        for name in ("bolza-quadratic.json", "bolza-quadratic-binary.json"):
            p, _, _ = _load(name)
            for _ in range(50):
                y = StochasticProcess(
                    p.tree,
                    tuple(rng.normal(size=(p.tree.n_leaves, d)) for d in p.m_dims),
                )
                before = dual_objective(p, y).value
                after = dual_objective(p, adapted_projection(y)).value
                if not after <= before + 1e-6:
                    ok = False
                probes += 1
        _verdict("criterion 9: adapted-projection step", ok and probes >= 100,
                 f"{probes} nonadapted duals")


class TestCriterion10FiniteTreesCloseTheGaps:
    def test_slackened_linear_constraint_truncation(self):
        # sign-mixed coefficient on a two-leaf tree; the conjugate of the
        # bounded-strategy value function is the indicator of the ray
        # {y = t (1, 2), t >= 0} (here beta = (2, -1), uniform weights)
        tree = two_leaf_tree()
        beta = [2.0, -1.0]
        f = ConstrainedIntegrand(
            tree, [1, 0],
            [Affine([0.0], 0.0)],
            [[Affine([beta[0]], 0.0)], [Affine([beta[1]], 0.0)]],
        )
        p = Problem(tree, f)

        def direct_conjugate(y_vals):
            y_vals = np.asarray(y_vals, dtype=float)
            if np.any(y_vals < -1e-9):
                return INF
            mean = 0.5 * beta[0] * y_vals[0] + 0.5 * beta[1] * y_vals[1]
            return 0.0 if abs(mean) <= 1e-9 else INF

        ok = True
        probes = [
            np.array([1.0, 2.0]),
            np.array([0.5, 1.0]),
            np.array([2.0, 0.0]),   # truncated positive part of beta
            np.array([0.0, 1.0]),
            np.array([1.0, 1.0]),
            np.array([-1.0, 2.0]),
        ]
        rng = np.random.default_rng(1010)
        probes += [rng.uniform(0, 2, 2) for _ in range(20)]
        probes += [t * np.array([1.0, 2.0]) for t in rng.uniform(0.1, 5, 20)]
        for y_vals in probes:
            y = StochasticProcess.from_stage_values(
                tree, [np.zeros((2, 0)), y_vals.reshape(-1, 1)]
            )
            via_solver = dual_objective(p, y).value
            direct = direct_conjugate(y_vals)
            if direct == INF or via_solver == INF:
                if direct != via_solver:
                    ok = False
            elif abs(direct - via_solver) > 1e-5:
                ok = False
        _verdict(
            "criterion 10a: slackened-constraint truncation has no gap",
            ok, f"{len(probes)} dual probes",
        )

    def test_steep_recourse_truncation(self):
        # |x0 - 1| with recourse alpha |x0| <= x1 decided one stage later;
        # finite alphas let x1 absorb the constraint, so the value function
        # is exactly E|u|^2/2 and the measured gap vanishes
        from stochdual.convex import FiniteSum

        tree = two_leaf_tree()
        alphas = [1.0, 3.0]
        fns = []
        for a in alphas:
            fns.append(FiniteSum([
                AffinePrecomposition(absolute_value(),
                                     np.array([[1.0, 0.0, 0.0]]), [-1.0]),
                PolyhedralIndicator(Polyhedron(
                    a_ub=[[a, -1.0, 0.0], [-a, -1.0, 0.0]], b_ub=[0.0, 0.0],
                    validate=False)),
                AffinePrecomposition(Quadratic([0.5]),
                                     np.array([[0.0, 0.0, 1.0]])),
            ]))
        f = GenericIntegrand(tree, [1, 1], [0, 1], fns)
        p = Problem(tree, f)
        rng = np.random.default_rng(1011)
        ok = True
        gaps = []
        for _ in range(10):
            u_vals = rng.normal(size=2)
            u = StochasticProcess.from_stage_values(
                tree, [np.zeros((2, 0)), u_vals.reshape(-1, 1)]
            )
            analytic = 0.5 * float(np.mean(u_vals ** 2))
            rep = duality_gap(p, u)
            if abs(rep.primal.value - analytic) > 1e-6:
                ok = False
            if not (np.isfinite(rep.gap) and abs(rep.gap) <= 1e-5):
                ok = False
            gaps.append(rep.gap)
        docs = Path(__file__).resolve().parents[1] / "docs" / "counterexamples.md"
        _verdict(
            "criterion 10b: steep-recourse truncation has no gap",
            ok and docs.exists(),
            f"worst |gap| {max(abs(g) for g in gaps):.1e}, docs present",
        )
