"""Dual recovery for kinked (piecewise-linear) hedging disutilities.

The dual maximizer is read off the epigraph multipliers of the primal QP.
Each recovered y is checked leaf by leaf against an independent
subdifferential, against the martingale-density and hedging certificates,
and against the annihilator bound; the primal value is cross-checked by a
HiGHS linear program built from the tree's partitions.
"""

import json

import numpy as np
import pytest

from stochdual.cli import fixture_path, parse_problem_file, run
from stochdual.convex import PiecewiseLinear, absolute_value
from stochdual.duality import check_martingale_density
from stochdual.models import build_alm
from stochdual.optimality import check_alm
from stochdual.solver import dual_via_orthocomplement, solve_dual, solve_primal
from stochdual.tree import ScenarioTree, StochasticProcess

from helpers import irregular_tree

INF = float("inf")
SLOPES = (0.5, 2.0)


def binomial_price(horizon, up, down):
    """Binary tree with price 1 times ``up`` or ``down`` per step."""
    tree = ScenarioTree.binary(horizon)
    leaves = np.arange(tree.n_leaves)
    s = np.ones(tree.n_leaves)
    stages = [s]
    for t in range(1, horizon + 1):
        s = s * np.where((leaves >> (horizon - t)) & 1, down, up)
        stages.append(s)
    return tree, StochasticProcess(tree, tuple(a[:, None] for a in stages))


def martingale_price(tree, seed):
    """Adapted price with zero conditional drift under the tree's own
    probabilities, so a constant density prices it."""
    rng = np.random.default_rng(seed)
    s = np.ones(tree.n_leaves)
    stages = [s]
    for t in range(1, tree.stage_count):
        xi = tree.conditional_mean(rng.normal(size=tree.n_leaves), t)
        s = s + 0.3 * (xi - tree.conditional_mean(xi, t - 1))
        stages.append(s)
    return StochasticProcess(tree, tuple(a[:, None] for a in stages))


def liability(tree, values):
    zeros = tuple(np.zeros((tree.n_leaves, 0)) for _ in range(tree.horizon))
    return StochasticProcess(tree, zeros + (np.asarray(values, float)[:, None],))


def kinked_pwl(lo=-INF, hi=INF):
    return PiecewiseLinear([0.0], list(SLOPES), lo=lo, hi=hi)


def cases():
    """(name, tree, price, disutility, u): abs and pwl on binary and
    irregular trees, and pwl with domain bounds."""
    out = []
    for horizon in (1, 2, 3):
        tree, price = binomial_price(horizon, 1.2, 0.9)
        u = np.random.default_rng(horizon).uniform(2.5, 3.5, tree.n_leaves)
        out.append((f"abs-binary-H{horizon}", tree, price, absolute_value(), u))
        # x1.1 / x0.9 keeps the risk-neutral density inside [0.5, 2]
        tree, price = binomial_price(horizon, 1.1, 0.9)
        u = np.random.default_rng(10 + horizon).uniform(-0.5, 1.0, tree.n_leaves)
        out.append((f"pwl-binary-H{horizon}", tree, price, kinked_pwl(), u))
    # the zero hedge is infeasible on some draws; these are feasible, and
    # between them both domain rows bind (see test_domain_rows_bind)
    for horizon, seed in ((1, 0), (1, 4), (2, 1), (2, 2), (3, 0), (3, 3)):
        tree, price = binomial_price(horizon, 1.2, 0.9)
        u = np.random.default_rng(seed).uniform(-1.0, 1.0, tree.n_leaves)
        out.append((f"pwl-domain-H{horizon}-{seed}", tree, price,
                    kinked_pwl(-0.6, 0.6), u))
    for seed in range(4):
        tree = irregular_tree(seed)
        price = martingale_price(tree, seed)
        rng = np.random.default_rng(20 + seed)
        out.append((f"abs-irregular-{seed}", tree, price, absolute_value(),
                    rng.uniform(2.5, 3.5, tree.n_leaves)))
        u = rng.uniform(-0.5, 1.0, tree.n_leaves)
        out.append((f"pwl-irregular-{seed}", tree, price, kinked_pwl(), u))
        out.append((f"pwl-domain-irregular-{seed}", tree, price,
                    kinked_pwl(u.min() - 0.1, u.max() + 0.1), u))
    return out


CASES = {name: rest for name, *rest in cases()}


def solved(name):
    tree, price, V, u_vals = CASES[name]
    p = build_alm(tree, V, price)
    u = liability(tree, u_vals)
    primal = solve_primal(p, u)
    assert primal.status == "optimal", name
    return p, u, primal, solve_dual(p, u, primal=primal)


def wealth(p, x, u):
    """z_l = u_l - sum_t x_t ds_{t+1} on every leaf."""
    price = p.integrand.price
    z = u.stage(p.tree.horizon)[:, 0].copy()
    for t in range(p.tree.horizon):
        z -= np.sum(x.stage(t) * (price.stage(t + 1) - price.stage(t)), axis=1)
    return z


def subdifferential(V, z, tol=1e-9):
    """End points of the subdifferential of V (domain indicator included)
    at z, from the breakpoints and slopes."""
    i = int(np.searchsorted(V.breaks, z - tol))
    at_break = i < V.breaks.size and abs(V.breaks[i] - z) <= tol
    left = V.slopes[i]
    right = V.slopes[i + 1] if at_break else V.slopes[i]
    if abs(z - V.lo) <= tol:
        left = -INF
    if abs(z - V.hi) <= tol:
        right = INF
    return left, right


def highs_primal(p, u):
    """min E V(z) as an LP over one position per (stage, block) and one
    epigraph variable per leaf (V has its one break at 0); skips without
    scipy."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    tree, f = p.tree, p.integrand
    V = f.disutilities[0]
    n, T = tree.n_leaves, tree.horizon
    blocks = [(t, b) for t in range(T) for b in range(len(tree.blocks(t)))]
    D = np.zeros((n, len(blocks)))  # gains = D @ positions
    for k, (t, b) in enumerate(blocks):
        leaves = list(tree.blocks(t)[b])
        D[leaves, k] = (f.price.stage(t + 1) - f.price.stage(t))[leaves, 0]
    u_vals = u.stage(T)[:, 0]
    # V = max_j s_j z + c_j on its domain, c_j from one point per piece
    lo = V.lo if V.lo > -INF else -1.0
    hi = V.hi if V.hi < INF else 1.0
    lines = [(s, V.value([pt]) - s * pt) for s, pt in zip(V.slopes, (lo / 2, hi / 2))]
    A_ub, b_ub = [], []
    for leaf in range(n):
        tau = np.zeros(n)
        tau[leaf] = -1.0
        for s, c in lines:  # s (u - D x) + c <= tau
            A_ub.append(np.concatenate([-s * D[leaf], tau]))
            b_ub.append(-c - s * u_vals[leaf])
        if V.hi < INF:
            A_ub.append(np.concatenate([-D[leaf], np.zeros(n)]))
            b_ub.append(V.hi - u_vals[leaf])
        if V.lo > -INF:
            A_ub.append(np.concatenate([D[leaf], np.zeros(n)]))
            b_ub.append(u_vals[leaf] - V.lo)
    res = linprog(np.concatenate([np.zeros(len(blocks)), tree.probabilities]),
                  A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                  bounds=[(None, None)] * (len(blocks) + n), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


@pytest.mark.parametrize("name", sorted(CASES))
class TestRecoveredKinkedDual:
    def test_recovered_with_zero_gap(self, name):
        _, _, primal, dual = solved(name)
        assert dual.method == "recovered"
        assert dual.status == "optimal"
        assert abs(primal.value - dual.value) <= 1e-9 * max(1.0, abs(primal.value))

    def test_dual_is_a_subgradient_on_every_leaf(self, name):
        p, u, primal, dual = solved(name)
        V = p.integrand.disutilities[0]
        z = wealth(p, primal.optimizer, u)
        y = dual.optimizer.stage(p.tree.horizon)[:, 0]
        for leaf in range(p.tree.n_leaves):
            left, right = subdifferential(V, z[leaf])
            assert left - 1e-9 <= y[leaf] <= right + 1e-9, (leaf, z[leaf], y[leaf])

    def test_certificates(self, name):
        p, u, primal, dual = solved(name)
        assert check_martingale_density(dual.optimizer, p.integrand.price).ok
        assert check_alm(p, primal.optimizer, u, dual.optimizer).verdict == "pass"

    def test_annihilator_bound_equals_conjugate(self, name):
        p, _, _, dual = solved(name)
        bound = dual_via_orthocomplement(p, dual.optimizer)
        assert bound.status == "optimal"
        assert bound.value == pytest.approx(dual.objective.value, abs=1e-9)

    def test_primal_matches_highs(self, name):
        p, u, primal, _ = solved(name)
        assert primal.value == pytest.approx(highs_primal(p, u), abs=1e-8)


def test_domain_rows_bind():
    # the domain cases exercise both bound rows of V's epigraph atom with a
    # positive multiplier; where one binds, the dual read off the primal QP
    # leaves the slopes' range on the row's side (the normal cone of dom V)
    bound = set()
    for name in CASES:
        if name.startswith("pwl-domain-H"):
            p, _, primal, dual = solved(name)
            (group,) = primal.compiled._lowering[0]  # every leaf shares V
            (atom,) = group.atoms
            y = dual.optimizer.stage(p.tree.horizon)[:, 0]
            for k in range(atom.n_lines, atom.coefs.shape[1]):
                coef = atom.coefs[0, k]  # +1 on the hi row, -1 on the lo row
                binds = primal.solution.multipliers[atom.rows[:, k]] > 1e-9
                beyond = y[binds] - max(SLOPES) if coef > 0 else min(SLOPES) - y[binds]
                assert np.all(beyond > 0), name
                if binds.any():
                    bound.add(coef)
    assert bound == {1.0, -1.0}


class TestTwoLeafRegression:
    """Price 1 -> {1.2, 0.9}, V with slopes (0.5, 2) at 0, u = (0.3, -0.2):
    the primal optimum is -0.025, and so is the dual."""

    def test_library(self):
        problem, _, params, _, _ = parse_problem_file(fixture_path("pwl-hedging.json"))
        primal = solve_primal(problem, params["u"])
        dual = solve_dual(problem, params["u"], primal=primal)
        assert primal.value == pytest.approx(-0.025, abs=1e-12)
        assert (dual.status, dual.method) == ("optimal", "recovered")
        assert dual.value == pytest.approx(-0.025, abs=1e-12)
        # x = 2 gives z = (-0.1, 0): leaf 0 on the 0.5 piece, leaf 1 on the
        # kink, where the martingale condition selects 1 from [0.5, 2]
        np.testing.assert_allclose(dual.optimizer.stage(1)[:, 0], [0.5, 1.0], atol=1e-12)

    def test_gap_command(self):
        code, report = run(["gap", fixture_path("pwl-hedging.json")])
        assert code == 0
        assert report["dual"]["method"] == "recovered"
        assert abs(report["gap"]) <= 1e-12


def test_ascent_on_an_infeasible_primal_is_not_optimal():
    # V lives on [-0.1, 0.1] and u = (1, 1): no hedge keeps both wealths in
    # its domain.  No dual is solved, which must not read as optimal
    tree, price = binomial_price(1, 1.2, 0.9)
    p = build_alm(tree, kinked_pwl(-0.1, 0.1), price)
    u = liability(tree, [1.0, 1.0])
    primal = solve_primal(p, u)
    assert (primal.status, primal.value) == ("infeasible", INF)
    dual = solve_dual(p, u, primal=primal)
    assert (dual.status, dual.optimizer) == ("not-run", None)


class TestNonMonotoneDisutility:
    """V = |.| is decreasing left of 0, so an optimal dual may be negative
    there; the sign of y is the disutility rows' to judge."""

    def test_negative_optimal_dual_passes(self):
        tree, price = binomial_price(1, 1.2, 0.9)
        p = build_alm(tree, absolute_value(), price)
        u = liability(tree, [0.3, -0.2])
        primal = solve_primal(p, u)
        dual = solve_dual(p, u, primal=primal)
        assert dual.method == "recovered"
        assert abs(primal.value - dual.value) <= 1e-12
        assert dual.optimizer.stage(1)[:, 0].min() < 0
        cert = check_alm(p, primal.optimizer, u, dual.optimizer)
        assert cert.verdict == "pass"

    def test_report_exits_zero(self, tmp_path):
        with open(fixture_path("pwl-hedging.json")) as fh:
            doc = json.load(fh)
        doc["model"]["disutility"] = {"kind": "abs"}
        path = tmp_path / "abs-hedging.json"
        path.write_text(json.dumps(doc))
        code, report = run(["report", str(path)])
        assert (code, report["certificate"]["verdict"]) == (0, "pass")
        # the report's own density block still states the sign
        assert report["dual_representation"]["martingale_density"]["ok"] is False

    def test_negative_dual_of_a_nondecreasing_v_fails_on_the_fenchel_rows(self):
        problem, _, params, _, _ = parse_problem_file(fixture_path("pwl-hedging.json"))
        x = solve_primal(problem, params["u"]).optimizer
        # a martingale density up to sign: E(y ds) = (-0.2 + 0.2) / 2 = 0
        y = StochasticProcess(problem.tree, (np.zeros((2, 0)), np.array([[-1.0], [-2.0]])))
        cert = check_alm(problem, x, params["u"], y)
        assert cert.verdict == "fail"
        failed = {r["condition"] for r in cert.rows if not r["ok"]}
        assert failed == {"disutility-subgradient"}
