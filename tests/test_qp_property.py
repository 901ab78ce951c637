"""Property: the active-set engine against HiGHS, on random kinked hedging
and Bolza trees and on random epigraph programs whose domain rows no column
lifts, so that both branches of phase 1 (the lift alone, and the elastic
LP on the rows no column lifts) run.  Statuses and values agree with
``linprog(method="highs")`` on every LP; the multipliers of every optimum
satisfy the KKT conditions; every unbounded verdict comes with a certified
ray."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("scipy")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stochdual.qp import solve_qp  # noqa: E402
from stochdual.solver import dual_objective, primal_objective, solve_dual  # noqa: E402

from helpers import kinked_doc, parse_doc  # noqa: E402

ABS = {"kind": "abs"}
PWL = {"kind": "pwl", "breaks": [-0.5, 0.5], "slopes": [-1.0, 0.25, 2.0]}


def as_arrays(P, q, c, G, h, A, b):
    n = len(q)
    G = np.zeros((0, n)) if G is None else np.asarray(G, dtype=float).reshape(-1, n)
    A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float).reshape(-1, n)
    h = np.zeros(G.shape[0]) if h is None else np.asarray(h, dtype=float)
    b = np.zeros(A.shape[0]) if b is None else np.asarray(b, dtype=float)
    return np.asarray(P, dtype=float), np.asarray(q, dtype=float), c, G, h, A, b


def assert_certified(program, res):
    """An optimum meets its rows and the KKT conditions with the returned
    multipliers; a ray is a recession direction of falling objective."""
    P, q, c, G, h, A, b = as_arrays(*program)
    scale = max(1.0, np.max(np.abs(q), initial=0.0), np.max(np.abs(h), initial=0.0))
    if res.status == "unbounded":
        d = res.ray / np.max(np.abs(res.ray))
        assert np.max(G @ d, initial=0.0) <= 1e-8
        assert np.max(np.abs(A @ d), initial=0.0) <= 1e-8
        assert np.max(np.abs(P @ d), initial=0.0) <= 1e-8
        assert q @ d < -1e-8
        return
    assert res.status == "optimal"
    x, lam, mu = res.x, res.ineq_multipliers, res.eq_multipliers
    slack = G @ x - h
    assert np.max(slack, initial=0.0) <= 1e-8 * scale
    assert np.max(np.abs(A @ x - b), initial=0.0) <= 1e-8 * max(scale, np.max(np.abs(b), initial=0.0))
    assert np.all(lam >= 0.0)
    station = P @ x + q + G.T @ lam + A.T @ mu
    assert np.max(np.abs(station)) <= 1e-8 * scale
    assert np.max(np.abs(lam * slack), initial=0.0) <= 1e-8 * scale
    assert res.value == pytest.approx(0.5 * x @ P @ x + q @ x + c, abs=1e-12 * scale)


def highs(program):
    """(status, value) of an LP by HiGHS."""
    from scipy.optimize import linprog

    P, q, c, G, h, A, b = as_arrays(*program)
    ref = linprog(q, A_ub=G if G.shape[0] else None, b_ub=h if G.shape[0] else None,
                  A_eq=A if A.shape[0] else None, b_eq=b if A.shape[0] else None,
                  bounds=[(None, None)] * len(q), method="highs")
    assert ref.status in (0, 2, 3), ref.message
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
    return status, (ref.fun + c if ref.status == 0 else None)


def check_against_highs(program):
    """Solve ``program``; on an LP, its status and value must match HiGHS."""
    res = solve_qp(*program)
    if res.status != "infeasible":
        assert_certified(program, res)
    if not np.any(program[0]):
        status, value = highs(program)
        assert res.status == status
        if value is not None:
            assert res.value == pytest.approx(value, rel=1e-8, abs=1e-8)
    return res


def epigraph_program(rng, n_main, atoms, domain, n_eq, curved):
    """min q.x + sum_k w_k t_k (+ x'Px/2) with t_k above a few lines of
    a_k.x, box rows on ``domain`` coordinates (lower bound sometimes above
    0, so x0 = lstsq(A, b) can violate them) and ``n_eq`` equality rows."""
    n = n_main + atoms
    rows, rhs = [], []
    for k in range(atoms):
        a = rng.normal(size=n_main)
        for s in np.sort(rng.normal(0.0, 1.5, int(rng.integers(2, 5)))):
            row = np.zeros(n)
            row[:n_main], row[n_main + k] = s * a, -1.0
            rows.append(row)
            rhs.append(-rng.normal(0.0, 0.5))
    for i in domain:
        lo = rng.uniform(-1.0, 1.0)
        for sign, bound in ((1.0, lo + rng.uniform(-0.2, 2.0)), (-1.0, -lo)):
            row = np.zeros(n)
            row[i] = sign
            rows.append(row)
            rhs.append(bound)
    A = np.zeros((n_eq, n))
    A[:, :n_main] = rng.normal(size=(n_eq, n_main))
    b = rng.normal(size=n_eq)
    P = np.zeros((n, n))
    if curved:
        L = rng.normal(size=(n_main, int(rng.integers(1, n_main + 1))))
        P[:n_main, :n_main] = L @ L.T
    q = np.concatenate([rng.normal(0.0, 0.3, n_main), rng.uniform(0.5, 2.0, atoms)])
    return P, q, 0.0, np.array(rows), np.array(rhs), A, b


@settings(max_examples=25, deadline=None, database=None)
@given(st.sampled_from(["hedging", "bolza", "bolza-lp"]), st.integers(1, 3),
       st.integers(0, 2 ** 16), st.sampled_from([ABS, PWL]))
def test_kinked_tree_programs_match_highs(family, horizon, seed, cost):
    p, u = parse_doc(kinked_doc(family, horizon, seed, cost))
    _, obj = primal_objective(p, u)
    primal = check_against_highs(obj.qp_data()[:7])
    assert primal.status == "optimal"
    dual = solve_dual(p, u)
    assert dual.status == "optimal"
    check_against_highs(dual_objective(p, dual.optimizer).lagrangian.qp_data()[:7])


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, 2 ** 16), st.integers(1, 4), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 2), st.booleans())
def test_epigraph_programs_match_highs(seed, n_main, atoms, n_domain, n_eq, curved):
    rng = np.random.default_rng(seed)
    domain = rng.choice(n_main, size=min(n_domain, n_main), replace=False)
    program = epigraph_program(rng, n_main, atoms, domain, min(n_eq, n_main - 1), curved)
    check_against_highs(program)
