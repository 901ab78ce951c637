"""Correctness gate and independent oracles, applied outside the timed region.

The gate decides whether an op delivered a certified verdict; an op that
did not is *failed* (an honest failure of the program, counted against the
ops attempted).  The oracles decide whether a delivered value is *wrong*;
a wrong value, like a report that changes between repetitions, makes the
whole run incorrect.

Oracles recompute the hedging primal value without stochdual:

* quadratic V(z) = w z^2: weighted linear least squares (numpy);
* absolute V(z) = |z|: a linear program solved by HiGHS through
  ``scipy.optimize.linprog``, used only when scipy is importable.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

GAP_TOL = 1e-6
BOUND_TOL = 1e-6
ORACLE_TOL = 1e-6


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def report_failures(code: int | None, report: dict | None, error: str | None) -> list[str]:
    """Gate of a ``report`` op: every reason it does not pass, in check order."""
    if error is not None:
        return [f"exception:{error}"]
    reasons = []
    if code != 0:
        reasons.append(f"exit-code-{code}")
    primal = report.get("primal", {})
    if primal.get("status") != "optimal":
        reasons.append(f"primal-{primal.get('status')}")
    value, gap = primal.get("value"), report.get("gap")
    if gap is None or value is None or abs(gap) > GAP_TOL * max(1.0, abs(value)):
        reasons.append("gap-above-tolerance")
    rep = report.get("dual_representation", {})
    bound, conj = rep.get("annihilator_bound"), rep.get("conjugate_at_y")
    if bound is None:
        reasons.append("annihilator-bound-null")
    elif conj is None or not _close(bound, conj, BOUND_TOL):
        reasons.append("annihilator-bound-mismatch")
    verdict = report.get("certificate", {}).get("verdict")
    if verdict != "pass":
        reasons.append(f"certificate-{verdict}")
    return reasons


def sweep_failures(out: dict | None, error: str | None) -> list[str]:
    """Gate of a library ``duality_gap`` + ``check_alm`` op."""
    if error is not None:
        return [f"exception:{error}"]
    reasons = []
    if out["primal_status"] != "optimal":
        reasons.append(f"primal-{out['primal_status']}")
    value, gap = out["primal_value"], out["gap"]
    if not (np.isfinite(value) and np.isfinite(gap)) or abs(gap) > GAP_TOL * max(1.0, abs(value)):
        reasons.append("gap-above-tolerance")
    if out["verdict"] != "pass":
        reasons.append(f"certificate-{out['verdict']}")
    return reasons


# ---------------------------------------------------------------------------
# hedging oracles
# ---------------------------------------------------------------------------


def _hedging_design(doc: dict):
    """Leaf probabilities p, gains matrix D (gains = D @ positions) and the
    terminal liability u of a hedging problem document."""
    tree = doc["tree"]
    p = np.array([float(Fraction(str(q))) for q in tree["probabilities"]])
    parts = tree["partitions"]
    price = np.array(doc["model"]["price"], dtype=float)[:, :, 0]
    n = p.size
    cols = []
    for t in range(len(parts) - 1):
        ds = price[t + 1] - price[t]
        for block in parts[t]:
            col = np.zeros(n)
            col[block] = ds[block]
            cols.append(col)
    u = np.array(doc["parameters"]["u"][-1], dtype=float).ravel()
    return p, np.column_stack(cols), u


def lstsq_value(doc: dict) -> float:
    """min E w (u - D x)^2 by weighted least squares."""
    p, D, u = _hedging_design(doc)
    w = float(doc["model"]["disutility"]["weights"][0])
    sq = np.sqrt(p)
    x, *_ = np.linalg.lstsq(D * sq[:, None], u * sq, rcond=None)
    r = u - D @ x
    return w * float(p @ (r * r))


def highs_value(doc: dict) -> float | None:
    """min E |u - D x| as an LP over (x, t) with t >= |u - D x|; None
    without scipy."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    p, D, u = _hedging_design(doc)
    n, k = D.shape
    eye = np.eye(n)
    res = linprog(
        np.concatenate([np.zeros(k), p]),
        A_ub=np.block([[-D, -eye], [D, -eye]]),
        b_ub=np.concatenate([-u, u]),
        bounds=[(None, None)] * k + [(0, None)] * n,
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS oracle failed: {res.message}")
    return float(res.fun)


ORACLES = {"lstsq": lstsq_value, "highs": highs_value}


def oracle_mismatch(oracle: tuple, primal_value) -> str | None:
    """None when the oracle agrees (or is unavailable), else a message."""
    kind, doc = oracle
    expected = ORACLES[kind](doc)
    if expected is None:
        return None
    if primal_value is None or not _close(float(primal_value), expected, ORACLE_TOL):
        return f"{kind} oracle {expected!r} != primal {primal_value!r}"
    return None
