"""Certificate checkers: saddle conditions and their model specialisations.

Every subdifferential inclusion is tested through a Fenchel residual,
g(x) + g*(v) - x.v >= 0, which vanishes exactly on the graph of the
subdifferential, so a certificate is a table of nonnegative residuals and
a verdict.  The saddle checker's per-leaf rows are judged relative to the
size of the terms each is summed from, since their rounding grows with
the data; every other row is judged at the absolute tolerance.
Zero duals in the density-cone models are reported as "degenerate" rather
than pass/fail: the cone of positive density multiples excludes zero, yet
zero duals do arise at trivial optima.

Each checker first asks, in one comparison over the leaf rows
(``is_adapted``), whether its candidate decision is adapted.  Block
conditions read each information block's mean once (``block_means``),
and the per-leaf and per-block residuals computed over stacked rows are
added to the certificate a table at a time (``Certificate.add_rows``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import cycle

import numpy as np

from .convex import NoClosedFormError, fenchel_residual, support_function
from .duality import check_martingale_density
from .integrand import (
    AlmIntegrand,
    BolzaIntegrand,
    ConstrainedIntegrand,
    KabanovStage,
    MINUS_INF,
    _row_dots,
)
from .solver import Problem
from .tree import (
    NotAdaptedError,
    StochasticProcess,
    expected_dual_increments,
    in_orthocomplement,
    is_adapted,
)

__all__ = [
    "Certificate",
    "check_saddle",
    "check_kkt",
    "check_alm",
    "check_euler_lagrange",
    "check_hamiltonian_system",
    "check_consistent_price_system",
]

INF = float("inf")
DEFAULT_TOL = 1e-6


@dataclass
class Certificate:
    """Verdict plus the residual table backing it.

    Each row is a dict ``{"condition", "residual", "ok", ...}`` whose
    trailing keys say where it holds (``leaf``, ``stage``, ``block``,
    ``constraint``).  ``add_rows`` appends a per-leaf or per-block table,
    and ``add`` one row, by the same rule.  ``finalize`` passes the
    certificate when every row is ok."""

    verdict: str  # pass | fail | degenerate
    tol: float
    rows: list = field(default_factory=list)
    reason: str = ""
    y: StochasticProcess | None = None
    v: StochasticProcess | None = None

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def __bool__(self):
        return self.ok

    @property
    def max_residual(self) -> float:
        """The largest residual, in one pass; +inf when some row is inf or
        NaN, and 0 with no rows."""
        worst = -INF
        for r in self.rows:
            res = r["residual"]
            if not math.isfinite(res):
                return INF
            if res > worst:
                worst = res
        return worst if self.rows else 0.0

    def add(self, condition: str, residual: float, tol: float | None = None,
            **where):
        """One row: the one-row reading of ``add_rows``, with no index key."""
        self.add_rows(condition, (residual,), tol, **where)

    def add_rows(self, condition: str | tuple[str, ...], residuals,
                 tol: float | None = None, key: str | None = None, **where):
        """Append a per-leaf or per-block table, one row per residual in
        order: ``{"condition", "residual", "ok", **where}``, then ``key: i``
        (``"leaf"``, ``"block"``, ``"stage"``) for the table's i-th index
        when ``key`` is given.  With a tuple of k conditions, the residuals
        run through them in turn, k rows per index (the state and velocity
        rows of one block).  A residual is kept as a float, NaN and -0.0 as
        they are, and is ok when it is <= tol (the certificate's tolerance
        by default), which a NaN never is."""
        tol = float(self.tol if tol is None else tol)
        names = (condition,) if isinstance(condition, str) else condition
        rows = [{"condition": c, "residual": r, "ok": r <= tol, **where}
                for c, r in zip(cycle(names), map(float, residuals))]
        if key is not None:
            for j, row in enumerate(rows):
                row[key] = j // len(names)
        self.rows += rows

    def finalize(self) -> "Certificate":
        if self.verdict == "degenerate":
            return self
        self.verdict = "pass" if all(r["ok"] for r in self.rows) else "fail"
        return self


def _nonnegative(res: np.ndarray) -> list:
    """``max(r, 0.0)`` of each residual, as floats: a negative r reads 0.0,
    and NaN and -0.0 are kept as they are."""
    return np.where(res < 0.0, 0.0, res).tolist()


def _not_adapted(cert: Certificate, *decisions: StochasticProcess) -> bool:
    """Whether some candidate decision is not adapted; ``cert`` then fails
    with that reason.  Every checker asks this first: its conditions hold
    for adapted decisions only."""
    if all(is_adapted(d) for d in decisions):
        return False
    cert.verdict, cert.reason = "fail", "candidate decision is not adapted"
    return True


def check_saddle(p: Problem, x: StochasticProcess, u: StochasticProcess,
                 y: StochasticProcess, v: StochasticProcess,
                 tol: float = DEFAULT_TOL) -> Certificate:
    """Joint subgradient test: per leaf f(x,u) + f*(v,y) - x.v - u.y <=
    tol * max(1, |f| + |f*| + |x.v| + |u.y|) (f* left out where it is
    +inf), with v in the annihilator; the Lagrangian split of the same
    residual is reported alongside when available, and judged at the same
    scale.  f, f* and l are each read once, over all leaves
    (``values``, ``conjugate_values``, ``lagrangians``); a leaf where f =
    +inf has one ``feasibility`` row."""
    cert = Certificate("pending", tol, y=y, v=v)
    if _not_adapted(cert, x):
        return cert
    f = p.integrand
    xs, us, ys, vs = (q.rows for q in (x, u, y, v))
    fvals, stars, lvals = (vals.tolist() for vals in (
        f.values(xs, us), f.conjugate_values(vs, ys), f.lagrangians(xs, ys)))
    feasible = True
    for leaf, (fval, star, lval) in enumerate(zip(fvals, stars, lvals)):
        if fval == INF:
            feasible = False
            cert.add("feasibility", INF, leaf=leaf)
            continue
        xv, uy = float(xs[leaf] @ vs[leaf]), float(us[leaf] @ ys[leaf])
        row_tol = tol * max(1.0, abs(fval) + (abs(star) if star < INF else 0.0)
                            + abs(xv) + abs(uy))
        res = INF if star == INF else fval + star - xv - uy
        cert.add("joint-subgradient", max(res, 0.0), row_tol, leaf=leaf)
        # Lagrangian split: x-part l + f* - x.v, y-part f - u.y - l
        if math.isfinite(lval):
            if star < INF:
                cert.add("lagrangian-x", max(lval + star - xv, 0.0), row_tol, leaf=leaf)
            cert.add("lagrangian-y", max(fval - uy - lval, 0.0), row_tol, leaf=leaf)
    if not feasible:
        cert.verdict = "fail"
        cert.reason = "infeasible candidate: E f(x, u) = +inf"
        return cert
    ortho = in_orthocomplement(v, tol)
    cert.add("annihilator", ortho.max_residual)
    joint_ok = all(r["ok"] for r in cert.rows
                   if r["condition"] in ("joint-subgradient", "annihilator"))
    lagr_rows = [r for r in cert.rows if r["condition"].startswith("lagrangian-")]
    if lagr_rows:
        lagr_ok = all(r["ok"] for r in lagr_rows) and \
            all(r["ok"] for r in cert.rows if r["condition"] == "annihilator")
        cert.add("lagrangian-form-agreement", 0.0 if joint_ok == lagr_ok else INF)
    return cert.finalize()


def check_kkt(p: Problem, x: StochasticProcess, u: StochasticProcess,
              y: StochasticProcess, v: StochasticProcess,
              tol: float = DEFAULT_TOL) -> Certificate:
    """Feasibility, sign, complementary slackness and stationarity of the
    weighted objective, per leaf."""
    f = p.integrand
    if not isinstance(f, ConstrainedIntegrand):
        raise TypeError("check_kkt needs an inequality-constrained problem")
    cert = Certificate("pending", tol, y=y, v=v)
    if _not_adapted(cert, x):
        return cert
    xs, us, ys, vs = (q.rows for q in (x, u, y, v))
    for leaf, weighted in enumerate(f.lagrangian_functions_of_x(ys)):
        xv, uv, yv = xs[leaf], us[leaf], ys[leaf]
        for j, fj in enumerate(f.constraints[leaf]):
            slack = fj.value(xv) + uv[j]
            cert.add("feasibility", max(slack, 0.0), leaf=leaf, constraint=j)
            cert.add("sign", max(-yv[j], 0.0), leaf=leaf, constraint=j)
            cert.add("complementarity", abs(yv[j] * slack), leaf=leaf, constraint=j)
        if weighted is MINUS_INF:
            cert.add("stationarity", INF, leaf=leaf)
            continue
        try:
            res = fenchel_residual(weighted, xv, vs[leaf])
        except NoClosedFormError:
            res = INF
        cert.add("stationarity", max(res, 0.0), leaf=leaf)
    ortho = in_orthocomplement(v, tol)
    cert.add("annihilator", ortho.max_residual)
    return cert.finalize()


def check_alm(p: Problem, x: StochasticProcess, u: StochasticProcess,
              y: StochasticProcess, tol: float = DEFAULT_TOL) -> Certificate:
    """Blockwise martingale condition on y plus the disutility subgradient
    condition; the annihilator element is reconstructed from the price
    increments.

    The subgradient rows are one Fenchel residual V_l(w_l) + V_l*(y_l) -
    w_l y_l per leaf, +inf where either value is: the wealth vector w is
    computed once, and V and V* are evaluated once per group of leaves that
    share one V.  The annihilator element v = -y ds has blockwise means
    that are exactly the negated means of the martingale test, so its row
    is that test's worst residual.  Both rows are judged at that test's
    tolerance, tol times the size of the products y ds."""
    f = p.integrand
    if not isinstance(f, AlmIntegrand):
        raise TypeError("check_alm needs a hedging-model problem")
    cert = Certificate("pending", tol, y=y)
    if _not_adapted(cert, x):
        return cert
    vals = y.rows.ravel()
    if np.abs(vals).max(initial=0.0) <= tol:
        cert.verdict = "degenerate"
        cert.reason = "zero dual: the density cone excludes it"
        return cert
    # the blockwise means only: the sign of y is the disutility rows' to
    # judge, as y_l in dV_l lies in dom V_l*, which is y >= 0 exactly when
    # V_l is nondecreasing
    report = check_martingale_density(vals, f.price, tol)
    cert.add("martingale-density", report.max_residual, report.tol)
    xs, us = x.rows, u.rows
    wealth = us[:, -1] - (xs[:, None, :] @ f.gain_rows[:, :, None])[:, 0, 0]
    res = np.empty(p.tree.n_leaves)
    for leaves, V, _, _ in f.leaf_groups[0]:
        w, v = wealth[leaves], vals[leaves]
        gx, gv = V.value_many(w[:, None]), V.conjugate().value_many(v[:, None])
        res[leaves] = np.where((gx == INF) | (gv == INF), INF, gx + gv - w * v)
    cert.add_rows("disutility-subgradient", _nonnegative(res), key="leaf")
    # v_t = -y ds_{t+1} must have zero conditional means
    cert.v = StochasticProcess.from_leaf_rows(p.tree, p.n_dims, -vals[:, None] * f.gain_rows)
    cert.add("annihilator", report.max_residual, report.tol)
    return cert.finalize()


def check_euler_lagrange(p: Problem, x: StochasticProcess, u: StochasticProcess,
                         y: StochasticProcess, tol: float = DEFAULT_TOL) -> Certificate:
    """Stagewise inclusion (E_t dy_{t+1}, y_t) in the stage-cost
    subdifferential at (x_t, dx_t + u_t), via one Fenchel residual per
    information block."""
    f = p.integrand
    if not isinstance(f, BolzaIntegrand):
        raise TypeError("check_euler_lagrange needs a dynamic-structure problem")
    cert = Certificate("pending", tol, y=y)
    if _not_adapted(cert, x):
        return cert
    if not is_adapted(y):
        raise NotAdaptedError("the dual candidate must be adapted")
    if not is_adapted(u):
        raise NotAdaptedError("the parameter must be adapted for the stage conditions")
    e_dy = expected_dual_increments(y)
    for t, groups in enumerate(f.stage_groups):
        # each shared K_t and K_t* evaluated once over the first leaves of
        # the blocks that carry it
        firsts = np.array([block[0] for block in p.tree.blocks(t)])
        x_prev = x.stage(t - 1) if t > 0 else np.zeros_like(x.stage(t))
        res = np.empty(firsts.size)
        for stage, blocks, _ in groups:
            leaves = firsts[blocks]
            x_t, a_t, y_t = x.stage(t)[leaves], e_dy[t][leaves], y.stage(t)[leaves]
            w = x_t - x_prev[leaves] + u.stage(t)[leaves]
            kval = stage.value_many(x_t, w)
            star = stage.conjugate_value_many(a_t, y_t)
            with np.errstate(invalid="ignore"):
                gap = kval + star - _row_dots(x_t, a_t) - _row_dots(w, y_t)
            res[blocks] = np.where((kval == INF) | (star == INF), INF, gap)
        cert.add_rows("stage-subgradient", _nonnegative(res), key="block", stage=t)
    return cert.finalize()


def check_hamiltonian_system(p: Problem, x: StochasticProcess, u: StochasticProcess,
                             y: StochasticProcess, tol: float = DEFAULT_TOL) -> Certificate:
    """The equivalent two-inclusion system through the stage Hamiltonians:
    E_t dy_{t+1} in d_x H_t and u_t + dx_t in d_y [-H_t], at each
    information block's first leaf.  The Hamiltonians (and K_t) of the
    blocks that share one stage object are built in one call over their
    rows (``BolzaStage.hamiltonian_functions_of_x``), one group of
    ``BolzaIntegrand.stage_groups`` at a time."""
    f = p.integrand
    if not isinstance(f, BolzaIntegrand):
        raise TypeError("check_hamiltonian_system needs a dynamic-structure problem")
    cert = Certificate("pending", tol, y=y)
    if _not_adapted(cert, x):
        return cert
    if not is_adapted(y):
        raise NotAdaptedError("the dual candidate must be adapted")
    if not is_adapted(u):
        raise NotAdaptedError("the parameter must be adapted for the stage conditions")
    e_dy = expected_dual_increments(y)
    for t, groups in enumerate(f.stage_groups):
        firsts = np.array([block[0] for block in p.tree.blocks(t)])
        x_prev = x.stage(t - 1) if t > 0 else np.zeros_like(x.stage(t))
        # one (state, velocity) residual pair per block
        res = np.empty((firsts.size, 2))
        for stage, blocks, _ in groups:
            leaves = firsts[blocks]
            x_t, a_t, y_t = x.stage(t)[leaves], e_dy[t][leaves], y.stage(t)[leaves]
            w = x_t - x_prev[leaves] + u.stage(t)[leaves]
            kvals = stage.value_many(x_t, w).tolist()
            hams = stage.hamiltonian_functions_of_x(y_t)
            for k, (b, h, kval) in enumerate(zip(blocks.tolist(), hams, kvals)):
                if h is MINUS_INF:
                    res[b] = INF
                    continue
                try:
                    res[b, 0] = fenchel_residual(
                        h, x_t[k], a_t[k], conjugate=stage.hamiltonian_x_conjugate(y_t[k], h))
                except NoClosedFormError:
                    res[b, 0] = INF
                hval = h.value(x_t[k])
                # -H(x,.) is the conjugate of K(x,.), so the residual is
                # K(x,w) - w.y - H(x,y)
                res[b, 1] = (INF if hval == INF or kval == INF
                             else kval - float(w[k] @ y_t[k]) - hval)
        cert.add_rows(("state-inclusion", "velocity-inclusion"), _nonnegative(res.ravel()),
                      key="block", stage=t)
    return cert.finalize()


def check_consistent_price_system(p: Problem, z: StochasticProcess,
                                  k: StochasticProcess, u: StochasticProcess,
                                  y: StochasticProcess,
                                  tol: float = DEFAULT_TOL) -> Certificate:
    """Currency-market optimality: y an adapted martingale, consumption
    matched to the dual through the disutility conjugate, and the trade
    supported by the solvency set; conical sets additionally report the
    feasibility / polar-membership / complementarity triple."""
    f = p.integrand
    if not isinstance(f, BolzaIntegrand) or not all(
        isinstance(st, KabanovStage) for blocks in f.stages for st in blocks
    ):
        raise TypeError("check_consistent_price_system needs a currency-market problem")
    cert = Certificate("pending", tol, y=y)
    if _not_adapted(cert, z, k):
        return cert
    if not is_adapted(y):
        raise NotAdaptedError("the price system must be adapted")
    tree = p.tree
    T = tree.horizon
    if max(float(np.max(np.abs(y.stage(t)), initial=0.0)) for t in range(T + 1)) <= tol:
        cert.verdict = "degenerate"
        cert.reason = "zero dual: not a price system"
        return cert
    # martingale property stops at t = T-1; no terminal convention is used
    means = (tree.block_means(y.stage(t + 1) - y.stage(t), t) for t in range(T))
    cert.add_rows("martingale", [np.abs(m).max(initial=0.0) for m in means], key="stage")
    for t in range(T + 1):
        for b, block in enumerate(tree.blocks(t)):
            leaf = block[0]
            stage = f.stage_cost(leaf, t)
            y_t = y.stage(t)[leaf]
            k_t = k.stage(t)[leaf]
            z_t = z.stage(t)[leaf]
            z_prev = z.stage(t - 1)[leaf] if t > 0 else np.zeros(stage.currency_dim)
            trade = z_t - z_prev + u.stage(t)[leaf] + k_t
            cert.add("trade-feasibility", stage.C.residual(trade), stage=t, block=b)
            Vstar = stage.V.conjugate()
            res_v = fenchel_residual(Vstar, y_t, -k_t, conjugate=stage.V)
            cert.add("consumption-subgradient", max(res_v, 0.0), stage=t, block=b)
            # sigma_C(y_t), one LP: the trade attains it, and on a cone it is 0
            sigma = support_function(stage.C, y_t)
            cert.add("trade-support", max(sigma - float(trade @ y_t), 0.0) if sigma < INF
                     else INF, stage=t, block=b)
            if stage.C.cone:
                cert.add("polar-membership", abs(sigma) if np.isfinite(sigma) else INF,
                         stage=t, block=b)
                cert.add("complementarity", abs(float(trade @ y_t)), stage=t, block=b)
        if t == T:
            for b, block in enumerate(tree.blocks(t)):
                leaf = block[0]
                zT = z.stage(T)[leaf]
                cert.add("terminal-holdings", float(np.max(np.abs(zT), initial=0.0)),
                         stage=T, block=b)
    return cert.finalize()
