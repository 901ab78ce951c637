"""Model-specific dual representations and the domain-condition checker.

The hedging dual runs over positive multiples of martingale densities; the
dynamic dual runs over adapted processes through stage conjugates; the
domain checker replaces an algebraic-closure hypothesis by a polyhedral
containment plus strict-interior surrogate with an explicit inconclusive
verdict (the exact condition is not computable for general convex sets).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex import NoClosedFormError, Polyhedron, domain_polyhedron
from .integrand import (
    AlmIntegrand,
    BolzaIntegrand,
    ConstrainedIntegrand,
    MINUS_INF,
)
from .simplex import solve_lp
from .solver import Problem, _stack_rows
from .tree import (
    NotAdaptedError,
    StochasticProcess,
    expected_dual_increments,
    is_adapted,
    pairing,
)

__all__ = [
    "MartingaleReport",
    "MartingaleDensityCone",
    "check_martingale_density",
    "alm_dual_value",
    "bolza_dual_value",
    "DomainConditionReport",
    "check_domain_condition",
    "polyhedral_domain_verdict",
]

INF = float("inf")


# ---------------------------------------------------------------------------
# martingale densities
# ---------------------------------------------------------------------------


@dataclass
class MartingaleReport:
    ok: bool
    max_residual: float
    negativity: float
    is_zero: bool

    def __bool__(self):
        return self.ok


def _density_values(y) -> np.ndarray:
    """Scalar per-leaf values from an array or a process (last stage)."""
    if isinstance(y, StochasticProcess):
        for arr in reversed(y.values):
            if arr.shape[1] == 1:
                return arr[:, 0].copy()
            if arr.shape[1] > 1:
                raise ValueError("martingale densities are scalar")
        raise ValueError("process carries no scalar stage")
    return np.asarray(y, dtype=float).ravel()


def check_martingale_density(y, s: StochasticProcess, tol: float = 1e-8) -> MartingaleReport:
    """Is y a positive multiple of a martingale density for the price s?

    Requires y >= -tol, y not identically zero, and blockwise
    E_t(y ds_{t+1}) = 0 within tol for every t < T.  NaN values propagate
    into the residuals, so they fail.
    """
    vals = _density_values(y)
    tree = s.tree
    if vals.size != tree.n_leaves:
        raise ValueError("density values must be leaf-indexed")
    negativity = float(np.max(-vals, initial=0.0))
    is_zero = float(np.max(np.abs(vals), initial=0.0)) <= tol
    worst = 0.0
    for t in range(tree.horizon):
        mean = tree.conditional_mean(vals[:, None] * (s.stage(t + 1) - s.stage(t)), t)
        worst = float(np.max(np.abs(mean), initial=worst))
    ok = (negativity <= tol) and (worst <= tol) and not is_zero
    return MartingaleReport(ok, worst, negativity, is_zero)


@dataclass(frozen=True)
class MartingaleDensityCone:
    """Positive multiples of martingale densities for a fixed price process.

    Membership is positively homogeneous: y in the cone implies lam * y in
    the cone for every lam > 0 (blockwise means scale linearly and the
    sign and nonzero tests are scale-free above the tolerance).
    """

    price: StochasticProcess
    tol: float = 1e-8

    def contains(self, y) -> MartingaleReport:
        return check_martingale_density(y, self.price, self.tol)

    def __contains__(self, y) -> bool:
        return self.contains(y).ok


def alm_dual_value(p: Problem, u: StochasticProcess, y: StochasticProcess,
                   tol: float = 1e-8) -> float:
    """E[u y - V*(y)] over the density cone; -inf off it."""
    f = p.integrand
    if not isinstance(f, AlmIntegrand):
        raise TypeError("alm_dual_value needs a hedging-model problem")
    report = check_martingale_density(y, f.price, tol)
    if not report.ok:
        return -INF
    vals = _density_values(y)
    stars = np.empty(vals.size)
    for leaves, V, _, _ in f.leaf_groups[0]:
        stars[leaves] = V.conjugate().value_many(vals[leaves, None])
    star = sum(p_l * s for p_l, s in zip(p.tree.probabilities.tolist(), stars.tolist()))
    return pairing(u, y) - star


def bolza_dual_value(p: Problem, u: StochasticProcess, y: StochasticProcess) -> float:
    """E sum_t [u_t.y_t - K_t*(E_t dy_{t+1}, y_t)] for adapted u and y."""
    f = p.integrand
    if not isinstance(f, BolzaIntegrand):
        raise TypeError("bolza_dual_value needs a dynamic-structure problem")
    if not is_adapted(u) or not is_adapted(y):
        raise NotAdaptedError("the dynamic dual takes adapted processes")
    tree = p.tree
    expect_dy = expected_dual_increments(y)
    # one evaluation of each shared K_t* per stage, then the sum leaf by
    # leaf and stage by stage
    terms = np.empty((tree.n_leaves, tree.stage_count))
    for t, groups in enumerate(f.stage_groups):
        for stage, _, leaves in groups:
            terms[leaves, t] = stage.conjugate_value_many(expect_dy[t][leaves],
                                                          y.stage(t)[leaves])
    if np.any(terms == INF):
        return -INF
    total = pairing(u, y)
    for weight, row in zip(tree.probabilities.tolist(), terms.tolist()):
        for term in row:
            total -= weight * term
    return total


# ---------------------------------------------------------------------------
# domain-condition checker
# ---------------------------------------------------------------------------


@dataclass
class DomainConditionReport:
    verdict: str  # verified | violated | inconclusive
    detail: str = ""
    # the surrogate never resolves whether algebraic closure could be
    # replaced by topological closure in general; it only certifies the
    # polyhedral instances it can see
    rows_checked: int = 0

    def __bool__(self):
        return self.verdict == "verified"


def _polyhedron_contains(outer: Polyhedron, inner: Polyhedron, tol=1e-7):
    """Does inner sit inside outer?  Checked row by row via support LPs."""
    rows = 0
    for a, b in zip(outer.a_ub, outer.b_ub):
        rows += 1
        res = solve_lp(-a, inner.a_ub, inner.b_ub, inner.a_eq, inner.b_eq)
        if res.status == "infeasible":
            return True, rows  # empty inner set is contained in anything
        if res.status == "unbounded" or -res.value > b + tol:
            return False, rows
    for a, b in zip(outer.a_eq, outer.b_eq):
        for sign in (1.0, -1.0):
            rows += 1
            res = solve_lp(-sign * a, inner.a_ub, inner.b_ub, inner.a_eq, inner.b_eq)
            if res.status == "infeasible":
                return True, rows
            if res.status == "unbounded" or -res.value > sign * b + tol:
                return False, rows
    return True, rows


def _has_slack_point(P: Polyhedron, eps=1e-9) -> bool:
    """Relative-interior surrogate: a point with uniform slack on the
    inequality rows (equalities held exactly)."""
    if P.a_ub.shape[0] == 0 and P.a_eq.shape[0] == 0:
        return True
    n = P.dim
    # maximize t subject to Az + t*1 <= b, t <= 1, equalities exact
    c = np.zeros(n + 1)
    c[-1] = -1.0
    top = np.hstack([P.a_ub, np.ones((P.a_ub.shape[0], 1))])
    cap = np.hstack([np.zeros((1, n)), [[1.0]]])
    a_ub = np.vstack([top, cap])
    b_ub = np.concatenate([P.b_ub, [1.0]])
    a_eq = np.hstack([P.a_eq, np.zeros((P.a_eq.shape[0], 1))]) if P.a_eq.shape[0] else None
    b_eq = P.b_eq if P.a_eq.shape[0] else None
    res = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    return res.status == "optimal" and -res.value > eps


def polyhedral_domain_verdict(dom_l: Polyhedron | None,
                              dom1: Polyhedron | None) -> DomainConditionReport:
    """Surrogate for 'dom of the Lagrangian sits in the closure of the
    effective primal domain': polyhedral containment + slack point."""
    if dom_l is None or dom1 is None:
        return DomainConditionReport("inconclusive", "non-polyhedral domain")
    contained, rows = _polyhedron_contains(dom1, dom_l)
    if not contained:
        return DomainConditionReport(
            "violated", "Lagrangian domain escapes the primal domain", rows)
    if not _has_slack_point(dom1):
        return DomainConditionReport(
            "inconclusive", "no uniform-slack point in the primal domain", rows)
    return DomainConditionReport("verified", "", rows)


def _x_domain_rows(p: Problem, leaf: int) -> Polyhedron | None:
    """Outer rows of {x : f(x, u) finite for some u}, exact when the
    parameter block can absorb every coupled row."""
    f = p.integrand
    if isinstance(f, AlmIntegrand):
        return Polyhedron(a_ub=np.zeros((0, f.n_total)), b_ub=np.zeros(0), validate=False)
    if isinstance(f, ConstrainedIntegrand):
        dom = domain_polyhedron(f.objectives[leaf])
        if dom is None:
            return None
        rows = [dom]
        for fj in f.constraints[leaf]:
            sub = domain_polyhedron(fj)
            if sub is None:
                return None
            rows.append(sub)
        a = np.vstack([r.a_ub for r in rows])
        b = np.concatenate([r.b_ub for r in rows])
        ae = np.vstack([r.a_eq for r in rows])
        be = np.concatenate([r.b_eq for r in rows])
        return Polyhedron(a_ub=a, b_ub=b, a_eq=ae, b_eq=be, validate=False)
    try:
        joint = f.joint_function(leaf)
    except NoClosedFormError:
        return None
    dom = domain_polyhedron(joint)
    if dom is None:
        return None
    n = f.n_total
    return _project_rows(dom, n)


def _project_rows(dom: Polyhedron, n: int) -> Polyhedron | None:
    """Project {(x,u) : rows} onto x by dropping u-coupled rows; exact only
    when the coupled block admits a strict recession direction in u."""

    def split(mat, rhs):
        if mat.shape[0] == 0:
            return mat[:, :n], rhs, np.zeros((0, mat.shape[1] - n))
        coupled = np.any(np.abs(mat[:, n:]) > 0, axis=1)
        return mat[~coupled, :n], rhs[~coupled], mat[coupled, n:]

    ax, bx, coupled_u = split(dom.a_ub, dom.b_ub)
    aex, bex, coupled_eq = split(dom.a_eq, dom.b_eq)
    if coupled_eq.shape[0]:
        return None  # equality coupling cannot be absorbed in general
    if coupled_u.shape[0]:
        m = coupled_u.shape[1]
        res = solve_lp(np.zeros(m), a_ub=np.vstack([coupled_u]),
                       b_ub=-np.ones(coupled_u.shape[0]))
        if res.status != "optimal":
            return None
    return Polyhedron(a_ub=ax, b_ub=bx, a_eq=aex, b_eq=bex, validate=False)


def check_domain_condition(p: Problem, y: StochasticProcess) -> DomainConditionReport:
    """Best-effort domain check for the dual representation, in the block
    coordinates of the adapted decision space."""
    layout = p.layout
    l_ub, l_eq, d_ub, d_eq = [], [], [], []  # (leaf columns, rows, rhs) blocks
    try:
        l_fns = p.integrand.lagrangian_functions_of_x(y.rows)
    except NoClosedFormError:
        return DomainConditionReport("inconclusive", "no closed-form Lagrangian")
    for leaf, l_fn in enumerate(l_fns):
        if l_fn is MINUS_INF:
            continue  # empty effective domain contributes nothing
        dom_l = domain_polyhedron(l_fn)
        dom_1 = _x_domain_rows(p, leaf)
        if dom_l is None or dom_1 is None:
            return DomainConditionReport("inconclusive", "non-polyhedral domain")
        cols = layout.columns[leaf]
        l_ub.append((cols, dom_l.a_ub, dom_l.b_ub))
        l_eq.append((cols, dom_l.a_eq, dom_l.b_eq))
        d_ub.append((cols, dom_1.a_ub, dom_1.b_ub))
        d_eq.append((cols, dom_1.a_eq, dom_1.b_eq))

    w = layout.width
    dl = Polyhedron(*_stack_rows(l_ub, w), *_stack_rows(l_eq, w), validate=False)
    d1 = Polyhedron(*_stack_rows(d_ub, w), *_stack_rows(d_eq, w), validate=False)
    return polyhedral_domain_verdict(dl, d1)
