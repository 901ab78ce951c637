"""Per-scenario convex integrands f(x, u) and their derived objects.

An integrand assigns each leaf a jointly convex function of the decision
vector x (all stages stacked) and the parameter vector u.  It reads each
of its functions by one stacked rule over the leaf rows:

  * f itself (``values``),
  * the Lagrangian  l(x, y) = inf_u { f(x, u) - u.y }  (partial conjugate
    in the parameter; ``lagrangians``, and ``lagrangian_functions_of_x``
    for the functions of x the solver compiles),
  * the pointwise conjugate  f*(v, y)  (``conjugate_values``).

For dynamic (Bolza) structure each rule goes one stage group at a time,
through the stage costs K_t, the stage Hamiltonians
H_t(x_t, y_t) = inf_w { K_t(x_t, w) - w.y_t } and the stage conjugates
K_t*, each read once for all the nodes that share a stage object, in one
stacked pass over their rows.

Each of these Lagrangians is closed in x: a partial infimum of a catalog
function is a finite sum of closed catalog functions, or the MINUS_INF
sentinel.  So the lower closed variant sup_v { x.v - f*(v, y) } is l
itself, and the solver reads it off l.  Its per-leaf form (through the
lsc hulls of the stage Hamiltonians), and a dynamic integrand's per-leaf
joint function, Lagrangian and conjugate, are reference implementations
in the tests' helpers.

Values live on the extended real line.  When the infimum defining l runs
to -inf for every u-slackening, a sentinel is returned; if additionally
f(x, .) is identically +inf the convention "+inf wins" applies, matching
the integral convention that makes E f well defined.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .convex import (
    FEAS_TOL,
    Affine,
    AffinePrecomposition,
    ConvexFunction,
    FiniteSum,
    NoClosedFormError,
    PolyhedralIndicator,
    Polyhedron,
    Quadratic,
    SeparableSum,
    constant,
    coordinate_support,
    domain_polyhedron,
    infeasible,
    support_function,
)
from .tree import ScenarioTree, is_adapted

__all__ = [
    "MINUS_INF",
    "ParametricIntegrand",
    "GenericIntegrand",
    "ConstrainedIntegrand",
    "AlmIntegrand",
    "BolzaIntegrand",
    "BolzaStage",
    "KabanovStage",
    "partial_infimum",
]

INF = float("inf")


class _MinusInf:
    """Sentinel: the partial infimum is -inf wherever f(x, .) is proper."""

    def __repr__(self):
        return "MINUS_INF"


MINUS_INF = _MinusInf()


def _is_identically_infinite(fn: ConvexFunction) -> bool:
    dom = domain_polyhedron(fn)
    return dom is not None and dom.is_empty()


# ---------------------------------------------------------------------------
# structural partial conjugation: inf over the trailing block
# ---------------------------------------------------------------------------


def partial_infimum(fn: ConvexFunction, nx: int, y):
    """inf over w of fn(x, w) - w.y as a function of x (the leading block):
    ``partial_infima`` at the one row y."""
    return partial_infima(fn, nx, np.asarray(y, dtype=float).reshape(1, -1))[0]


def partial_infima(fn: ConvexFunction, nx: int, ys) -> list:
    """inf over w of fn(x, w) - w.y_k as functions of x (the leading
    block), one per row y_k of ``ys``, in one stacked pass.

    Each entry is a catalog function of x, or the MINUS_INF sentinel when
    the infimum is -inf irrespective of x.  What does not move with y is
    one object shared by the rows: a separable sum's x-part g (each row's
    function is then g + c_k), or a finite sum's summands free of w.
    Raises NoClosedFormError when the trailing slice is not conjugable in
    closed form.

    Each row's function does not depend on the other rows, as every
    catalog kind's ``value_many`` evaluates row by row, and a row stops
    at its first -inf part, so ``partial_infimum`` is the one-row reading
    of this one rule.  A precomposition g(M (x, w) + m) with a square,
    nonzero block M_w is ``_affine_slices`` over the rows, the stacked
    rule that ``GenericIntegrand.affine_lagrangians`` runs once per group
    of ``GenericIntegrand.leaf_groups``.
    """
    ys = np.asarray(ys, dtype=float)
    m = fn.dim - nx
    if ys.ndim != 2 or ys.shape[1] != m:
        raise ValueError("dual vector does not match the parameter block")
    K = ys.shape[0]
    if m == 0:
        return [fn] * K
    u_idx = np.arange(nx, fn.dim)

    if isinstance(fn, Affine):
        off = np.max(np.abs(fn.a[nx:] - ys), axis=1, initial=0.0) > FEAS_TOL
        return _minus_inf_where(off, lambda: Affine(fn.a[:nx], fn.b))

    if isinstance(fn, Quadratic):
        w_u, t_u = fn.weights[nx:], fn.tilt[nx:]
        out = []
        for y in ys:
            drop = 0.0
            for wi, ti, yi in zip(w_u, t_u, y):
                if wi > 0:
                    drop += (yi - ti) ** 2 / (4.0 * wi)
                elif abs(yi - ti) > FEAS_TOL:
                    drop = None
                    break
            out.append(MINUS_INF if drop is None else
                       Quadratic(fn.weights[:nx], fn.tilt[:nx], fn.offset - drop))
        return out

    if isinstance(fn, SeparableSum):
        return _separable_infima(fn, nx, ys)

    if isinstance(fn, AffinePrecomposition):
        if np.max(np.abs(fn.matrix[:, nx:]), initial=0.0) == 0.0:
            off = np.max(np.abs(ys), axis=1, initial=0.0) > FEAS_TOL
            return _minus_inf_where(off, lambda: fn.fix(u_idx, np.zeros(m)))
        if fn.matrix.shape[0] == m:
            slopes, consts = _affine_slices(fn.inner, np.repeat(fn.matrix[None], K, axis=0),
                                            np.repeat(fn.offset[None], K, axis=0), nx, ys)
            return [MINUS_INF if b == -INF else Affine(a, float(b))
                    for a, b in zip(slopes, consts.tolist())]
        raise NoClosedFormError("parameter slice is not conjugable")

    if isinstance(fn, FiniteSum):
        dependent, independent = [], []
        for s in fn.summands:
            if bool(np.any(coordinate_support(s)[nx:])):
                dependent.append(s)
            else:
                independent.append(s.fix(u_idx, np.zeros(m)))
        if len(dependent) == 0:
            off = np.max(np.abs(ys), axis=1, initial=0.0) > FEAS_TOL
            return _minus_inf_where(off, lambda: FiniteSum(independent) if independent
                           else constant(0.0, nx))
        if len(dependent) > 1:
            raise NoClosedFormError("parameter couples several non-affine terms")
        return [core if core is MINUS_INF or not independent else FiniteSum(independent + [core])
                for core in partial_infima(dependent[0], nx, ys)]

    if nx == 0:
        vals = (-fn.conjugate().value_many(ys)).tolist()
        return [MINUS_INF if val == -INF else constant(val, 0) for val in vals]

    raise NoClosedFormError(f"no partial-conjugation rule for kind '{fn.kind}'")


def _minus_inf_where(off, make) -> list:
    """MINUS_INF on the rows where ``off`` holds, and on the others one
    shared function, built once by ``make`` when some row needs it."""
    fn = None if off.all() else make()
    return [MINUS_INF if o else fn for o in off.tolist()]


def _separable_infima(fn: SeparableSum, nx: int, ys) -> list:
    """``partial_infima`` of a separable sum, part by part over the rows
    still finite: a part on x alone is kept, shared by the rows; a part on
    w alone adds -g_i*(y_k) to row k's constant, every row's in one
    ``value_many``; a part across the split is partially conjugated over
    the rows.  Row k is MINUS_INF from its first -inf part on."""
    K = ys.shape[0]
    alive, const = np.ones(K, dtype=bool), np.zeros(K)
    parts = []  # a shared part, or one function per row (None on dead rows)
    for i, part in enumerate(fn.parts):
        if not alive.any():
            break
        lo, hi = fn.offsets[i], fn.offsets[i + 1]
        if hi <= nx:
            parts.append(part)
            continue
        rows = np.flatnonzero(alive)
        if lo >= nx:
            vals = part.conjugate().value_many(ys[rows, lo - nx:hi - nx])
            alive[rows[vals == INF]] = False
            const[rows] -= vals
        else:
            subs = [None] * K
            for k, sub in zip(rows.tolist(), partial_infima(part, nx - lo, ys[rows, :hi - nx])):
                subs[k] = sub
                alive[k] = sub is not MINUS_INF
            parts.append(subs)
    if not alive.any():
        return [MINUS_INF] * K
    if not parts:
        return [constant(c, nx) if a else MINUS_INF for a, c in zip(alive, const.tolist())]
    shared = _x_part(parts, nx) if not any(isinstance(q, list) for q in parts) else None
    out = []
    for k, c in enumerate(const.tolist()):
        if not alive[k]:
            out.append(MINUS_INF)
            continue
        g = shared if shared is not None else _x_part(
            [q[k] if isinstance(q, list) else q for q in parts], nx)
        out.append(_shift(g, c))
    return out


def _x_part(parts, nx: int) -> ConvexFunction:
    """The separable sum of ``parts`` on x, or its one part."""
    out = SeparableSum(parts) if len(parts) > 1 or parts[0].dim != nx else parts[0]
    if out.dim != nx:  # fully-frozen pieces reduced the width
        raise NoClosedFormError("separable slice lost coordinates")
    return out


def _affine_slices(inner: ConvexFunction, mats, offsets, nx: int, ys):
    """The Lagrangians x -> inf over w of g(M_k (x, w) + m_k) - w.y_k of K
    functions of one inner g, each with a square, nonzero block M_k,w on
    the trailing coordinates, at the rows y_k of ``ys``, in one stacked
    pass.  ``mats`` and ``offsets`` stack the M_k and m_k.

    The infimum is attained through eta_k = M_k,w'^{-1} y_k: it is the
    affine function x -> eta_k.(M_k,x x + m_k) - g*(eta_k).  Returns the
    stacked slopes M_k,x' eta_k and constants eta_k.m_k - g*(eta_k), -inf
    where g*(eta_k) = +inf.  One batched solve gives every eta_k and one
    ``value_many`` every g*(eta_k); K = 1 is the per-function rule.  Each
    function's result does not depend on the others', as every catalog
    kind's ``value_many`` evaluates row by row.  Raises NoClosedFormError
    when some M_k,w is singular or g has no closed-form conjugate.
    """
    try:
        eta = np.linalg.solve(mats[:, :, nx:].swapaxes(1, 2),
                              np.asarray(ys, dtype=float)[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        raise NoClosedFormError("parameter map is singular")
    star = inner.conjugate().value_many(eta)
    slopes = (mats[:, :, :nx].swapaxes(1, 2) @ eta[:, :, None])[:, :, 0]
    return slopes, (eta[:, None, :] @ offsets[:, :, None])[:, 0, 0] - star


def _shift(fn: ConvexFunction, c: float) -> ConvexFunction:
    if c == 0.0:
        return fn
    return FiniteSum([fn, Affine(np.zeros(fn.dim), c)])


# ---------------------------------------------------------------------------
# base integrand
# ---------------------------------------------------------------------------


class ParametricIntegrand:
    """Per-leaf jointly convex function of (x, u) with stage structure.

    ``n_dims`` / ``m_dims`` give the per-stage widths of the decision and
    parameter vectors; per-leaf vectors are stage-major concatenations.
    """

    def __init__(self, tree: ScenarioTree, n_dims, m_dims):
        self.tree = tree
        self.n_dims = tuple(int(d) for d in n_dims)
        self.m_dims = tuple(int(d) for d in m_dims)
        if len(self.n_dims) != tree.stage_count or len(self.m_dims) != tree.stage_count:
            raise ValueError("stage dimension lists must match the tree")
        self.n_total = sum(self.n_dims)
        self.m_total = sum(self.m_dims)
        noff = np.concatenate([[0], np.cumsum(self.n_dims)]).astype(int)
        moff = np.concatenate([[0], np.cumsum(self.m_dims)]).astype(int)
        self.x_slices = [slice(noff[t], noff[t + 1]) for t in range(tree.stage_count)]
        self.u_slices = [slice(moff[t], moff[t + 1]) for t in range(tree.stage_count)]

    # -- the integrand's functions, one stacked rule each -------------------

    def joint_function(self, leaf: int) -> ConvexFunction:
        raise NotImplementedError

    def values(self, X, U) -> np.ndarray:
        """f(x_l, u_l) of every leaf l, at row l of ``X`` and of ``U``."""
        return np.array([self.joint_function(leaf).value(np.concatenate([x, u]))
                         for leaf, (x, u) in enumerate(zip(np.asarray(X, dtype=float),
                                                           np.asarray(U, dtype=float)))],
                        dtype=float)

    def lagrangian_functions_of_x(self, ys) -> list:
        """x -> l(x, y_l) of every leaf l, at row l of ``ys``, or the
        MINUS_INF sentinel.  Raises NoClosedFormError when some leaf has no
        closed form."""
        return [partial_infimum(self.joint_function(leaf), self.n_total, y)
                for leaf, y in enumerate(np.asarray(ys, dtype=float))]

    def lagrangians(self, X, Y) -> np.ndarray:
        """l(x_l, y_l) of every leaf l, at row l of ``X`` and of ``Y``, read
        off ``lagrangian_functions_of_x``: where a leaf's is MINUS_INF, +inf
        when f(x_l, .) is identically +inf ("+inf wins") and -inf
        otherwise."""
        X = np.asarray(X, dtype=float)
        out = np.empty(len(X))
        for leaf, (fn, x) in enumerate(zip(self.lagrangian_functions_of_x(Y), X)):
            if fn is MINUS_INF:
                out[leaf] = INF if self._parameter_slice_infeasible(leaf, x) else -INF
            else:
                out[leaf] = fn.value(x)
        return out

    def conjugate_function_of_v(self, leaf: int, y) -> ConvexFunction:
        """v -> f*(v, y); identically-+inf slices come back as an
        infeasible indicator."""
        y = np.asarray(y, dtype=float).ravel()
        y_idx = np.arange(self.n_total, self.n_total + self.m_total)
        return self.joint_function(leaf).conjugate().fix(y_idx, y)

    def conjugate_values(self, vs, ys) -> np.ndarray:
        """f*(v_l, y_l) of every leaf l, at row l of ``vs`` and of ``ys``.
        Raises NoClosedFormError when some leaf has no closed form."""
        return np.array([self.conjugate_function_of_v(leaf, y).value(v)
                         for leaf, (v, y) in enumerate(zip(vs, ys))], dtype=float)

    # -- helpers ------------------------------------------------------------

    def _parameter_slice_infeasible(self, leaf: int, x) -> bool:
        """Best-effort check that f(x, .) is identically +inf."""
        x = np.asarray(x, dtype=float).ravel()
        try:
            sliced = self.joint_function(leaf).fix(np.arange(self.n_total), x)
        except NoClosedFormError:
            return False
        return _is_identically_infinite(sliced)


class GenericIntegrand(ParametricIntegrand):
    """Integrand given directly as one catalog function per leaf, the
    leaves grouped by shared inner g (``leaf_groups``)."""

    def __init__(self, tree, n_dims, m_dims, functions):
        super().__init__(tree, n_dims, m_dims)
        fns = list(functions)
        if len(fns) == 1:
            fns = fns * tree.n_leaves
        if len(fns) != tree.n_leaves:
            raise ValueError("need one joint function per leaf")
        width = self.n_total + self.m_total
        for fn in fns:
            if fn.dim != width:
                raise ValueError("joint function dimension mismatch")
        self.functions = fns

    def joint_function(self, leaf):
        return self.functions[leaf]

    @cached_property
    def leaf_groups(self):
        """(groups, rest): the groups of leaves whose joints g(M (x, u) + m)
        share one inner g and the shape of M, with a square, nonzero
        parameter block, as (leaves, g, stacked M, stacked m) in order of
        first leaf, each priced by one ``_affine_slices`` pass; and every
        other leaf, in order.  A hedging model has one group per shared
        disutility V and no other leaf."""
        n, keyed, rest = self.n_total, {}, []
        for leaf, fn in enumerate(self.functions):
            if (isinstance(fn, AffinePrecomposition) and fn.matrix.shape[0] == fn.dim - n > 0
                    and np.any(fn.matrix[:, n:])):
                keyed.setdefault((id(fn.inner), fn.matrix.shape), []).append(leaf)
            else:
                rest.append(leaf)
        groups = []
        for leaves in keyed.values():
            fns = [self.functions[leaf] for leaf in leaves]
            groups.append((np.array(leaves), fns[0].inner, np.array([fn.matrix for fn in fns]),
                           np.array([fn.offset for fn in fns])))
        return groups, rest

    def affine_lagrangians(self, ys):
        """(slopes, constants) of every leaf's Lagrangian x -> s_l.x + c_l,
        leaf l at row l of ``ys``, one stacked pass per group of
        ``leaf_groups`` (``_affine_slices``), c_l = -inf where the
        Lagrangian is MINUS_INF.  Every leaf must lie in a group.  Raises
        NoClosedFormError when some leaf has no closed form."""
        n, ys = self.n_total, np.asarray(ys, dtype=float)
        slopes, consts = np.empty((len(ys), n)), np.empty(len(ys))
        for leaves, inner, mats, offsets in self.leaf_groups[0]:
            slopes[leaves], consts[leaves] = _affine_slices(inner, mats, offsets, n, ys[leaves])
        return slopes, consts

    def conjugate_values(self, vs, ys) -> np.ndarray:
        """``conjugate_values``, a group of ``leaf_groups`` at a time: f*(.,
        y_l) conjugates the Lagrangian x -> s_l.x + c_l, so it is -c_l where
        |v_l - s_l| <= FEAS_TOL and +inf elsewhere; any other leaf keeps
        ``conjugate_function_of_v``."""
        n, vs, ys = self.n_total, np.asarray(vs, dtype=float), np.asarray(ys, dtype=float)
        groups, rest = self.leaf_groups
        out = np.empty(len(ys))
        for leaf in rest:
            out[leaf] = self.conjugate_function_of_v(leaf, ys[leaf]).value(vs[leaf])
        for leaves, inner, mats, offsets in groups:
            slopes, consts = _affine_slices(inner, mats, offsets, n, ys[leaves])
            on = np.max(np.abs(vs[leaves] - slopes), axis=1, initial=0.0) <= FEAS_TOL
            out[leaves] = np.where(on, -consts, INF)
        return out


# ---------------------------------------------------------------------------
# inequality-constrained integrand: f0 + indicator(f_j(x) + u_j <= 0)
# ---------------------------------------------------------------------------


class ConstrainedIntegrand(ParametricIntegrand):
    """Objective f0 plus m soft-parameterised constraints f_j(x) + u_j <= 0.

    The Lagrangian collapses to f0 + sum_j y_j f_j for y >= 0 and to -inf
    otherwise.  Affine constraint functions compile to polyhedral rows;
    that is what the built-in solver supports.
    """

    def __init__(self, tree, n_dims, objectives, constraints):
        objs = list(objectives)
        if len(objs) == 1:
            objs = objs * tree.n_leaves
        cons = list(constraints)
        if len(cons) == 1:
            cons = cons * tree.n_leaves
        if len(objs) != tree.n_leaves or len(cons) != tree.n_leaves:
            raise ValueError("need per-leaf objective and constraint lists")
        m = len(cons[0])
        if any(len(c) != m for c in cons):
            raise ValueError("constraint count varies across leaves")
        m_dims = [0] * len(tuple(n_dims))
        m_dims[-1] = m
        super().__init__(tree, n_dims, m_dims)
        for f0 in objs:
            if f0.dim != self.n_total:
                raise ValueError("objective dimension mismatch")
        for clist in cons:
            for fj in clist:
                if fj.dim != self.n_total:
                    raise ValueError("constraint dimension mismatch")
        self.objectives = objs
        self.constraints = cons
        self.n_constraints = m

    def values(self, X, U):
        out = np.empty(len(X))
        for leaf, (x, u) in enumerate(zip(np.asarray(X, dtype=float),
                                          np.asarray(U, dtype=float))):
            base = self.objectives[leaf].value(x)
            for j, fj in enumerate(self.constraints[leaf]):
                g = fj.value(x)
                if g == INF or g + u[j] > FEAS_TOL:
                    base = INF
                    break
            out[leaf] = base
        return out

    def joint_function(self, leaf):
        fns = [self._lift_x(self.objectives[leaf])]
        rows, rhs = [], []
        for j, fj in enumerate(self.constraints[leaf]):
            if not isinstance(fj, Affine):
                raise NoClosedFormError(
                    "joint form needs affine constraint functions"
                )
            row = np.zeros(self.n_total + self.m_total)
            row[:self.n_total] = fj.a
            row[self.n_total + j] = 1.0
            rows.append(row)
            rhs.append(-fj.b)
        fns.append(PolyhedralIndicator(
            Polyhedron(a_ub=np.array(rows), b_ub=np.array(rhs), validate=False)))
        return FiniteSum(fns)

    def _lift_x(self, fn):
        M = np.zeros((self.n_total, self.n_total + self.m_total))
        M[:, :self.n_total] = np.eye(self.n_total)
        return AffinePrecomposition(fn, M)

    def _weighted_objective(self, leaf, y):
        """x -> f0(x) + sum_j y_j f_j(x) at one leaf, MINUS_INF when some
        y_j < 0."""
        if np.any(y < -FEAS_TOL):
            return MINUS_INF
        terms = [self.objectives[leaf]]
        for j, fj in enumerate(self.constraints[leaf]):
            if y[j] > 0:
                terms.append(fj.scaled(float(y[j])))
        return FiniteSum(terms) if len(terms) > 1 else terms[0]

    def lagrangian_functions_of_x(self, ys):
        return [self._weighted_objective(leaf, y)
                for leaf, y in enumerate(np.asarray(ys, dtype=float))]

    def lagrangians(self, X, Y):
        out = np.empty(len(X))
        for leaf, (x, y) in enumerate(zip(np.asarray(X, dtype=float),
                                          np.asarray(Y, dtype=float))):
            base = self.objectives[leaf].value(x)
            vals = [fj.value(x) for fj in self.constraints[leaf]]
            if base == INF or any(v == INF for v in vals):
                # no parameter can slacken an infinite constraint value, so
                # the inner infimum runs over an empty domain: +inf wins
                out[leaf] = INF
                continue
            if np.any(y < -FEAS_TOL):
                out[leaf] = -INF
                continue
            for j, g in enumerate(vals):
                if y[j] > 0:
                    base += y[j] * g
            out[leaf] = base
        return out

    def conjugate_function_of_v(self, leaf, y):
        fn = self._weighted_objective(leaf, np.asarray(y, dtype=float).ravel())
        if fn is MINUS_INF:
            return infeasible(self.n_total)
        return fn.conjugate()


# ---------------------------------------------------------------------------
# asset-liability management: f(x, u) = V(u - sum_t x_t . ds_{t+1})
# ---------------------------------------------------------------------------


class AlmIntegrand(GenericIntegrand):
    """Hedging / optimal-investment integrand driven by a price process.

    The decision x_t holds positions over (t, t+1]; the scalar parameter u
    enters at the final stage as the liability.  The joint function is the
    disutility V composed with the affine gains map, so all derived objects
    come from the generic machinery and match the model's closed forms;
    its leaves form one group of ``leaf_groups`` per shared V.
    """

    def __init__(self, tree, disutilities, price):
        if not is_adapted(price):
            raise ValueError("the price process must be adapted")
        T = tree.horizon
        d_s = price.dims[0]
        if any(d != d_s for d in price.dims):
            raise ValueError("price dimension must be constant across stages")
        Vs = list(disutilities)
        if len(Vs) == 1:
            Vs = Vs * tree.n_leaves
        if len(Vs) != tree.n_leaves:
            raise ValueError("need one disutility per leaf")
        n_dims = [d_s] * T + [0]
        m_dims = [0] * T + [1]
        self.disutilities = Vs
        self.price = price
        # row l: leaf l's ds, stacked over stages
        self.gain_rows = (np.hstack([price.stage(t + 1) - price.stage(t) for t in range(T)])
                          if T else np.zeros((tree.n_leaves, 0)))
        # row l: leaf l's joint row (-ds, 1) on (x, u)
        joints = np.hstack([-self.gain_rows, np.ones((tree.n_leaves, 1))])
        fns = [AffinePrecomposition(V, joints[leaf:leaf + 1]) for leaf, V in enumerate(Vs)]
        super().__init__(tree, n_dims, m_dims, fns)


# ---------------------------------------------------------------------------
# Bolza structure: f(x, u) = sum_t K_t(x_t, dx_t + u_t)
# ---------------------------------------------------------------------------


class BolzaStage:
    """One stage cost K on (state, velocity) pairs in R^d x R^d.

    A problem file's equal stage specs share one BolzaStage, so K* is
    computed once however many nodes carry the stage; nothing that depends
    on a dual point is kept on it."""

    def __init__(self, fn: ConvexFunction, d: int):
        if fn.dim != 2 * d:
            raise ValueError("stage function must live on R^{2d}")
        self.fn = fn
        self.d = d

    def __repr__(self):
        return f"BolzaStage(d={self.d}, fn={self.fn!r})"

    def value_many(self, X, W) -> np.ndarray:
        """K at the rows (x, w) of X and W."""
        return self.fn.value_many(np.hstack([X, W]))

    def x_infeasible(self, x) -> bool:
        """Whether K(x, .) is identically +inf; decided once per stage
        when no row of dom K reads x."""
        empty = self._x_slices_empty
        if empty is None:
            empty = _is_identically_infinite(self.fn.fix(np.arange(self.d), np.ravel(x)))
        return empty

    @cached_property
    def _x_slices_empty(self):
        """Whether every slice K(x, .) is identically +inf, decided once
        from dom K when no row of it reads x: each slice's domain is then
        one set, whatever x is (with no rows, the whole space, and no LP
        runs).  None when some row reads x, or dom K is not polyhedral:
        the test is then made per x."""
        dom = domain_polyhedron(self.fn)
        if dom is None or np.any(dom.a_ub[:, :self.d]) or np.any(dom.a_eq[:, :self.d]):
            return None
        return dom.is_empty()

    def hamiltonian_functions_of_x(self, ys) -> list:
        """H(., y_k) at each row y_k of ``ys``, or the MINUS_INF sentinel,
        in one stacked pass (``partial_infima``)."""
        return partial_infima(self.fn, self.d, ys)

    def hamiltonian_x_conjugate(self, y, h) -> ConvexFunction:
        """a -> sup_x { x.a - H(x, y) } for residual tests in x, given the
        Hamiltonian h = H(., y) that ``hamiltonian_functions_of_x`` built
        (not MINUS_INF)."""
        return h.conjugate()

    def conjugate_value_many(self, A, B) -> np.ndarray:
        """K* at the rows (a, b) of A and B."""
        return self.fn.conjugate().value_many(np.hstack([A, B]))


def _distinct_rows(ys):
    """(y, rows) per distinct row y of ``ys``, by its bytes, in order of
    first appearance: ``rows`` lists the indices of its copies."""
    ys = np.asarray(ys, dtype=float)
    groups = {}
    for k, y in enumerate(ys):
        groups.setdefault(y.tobytes(), []).append(k)
    return [(ys[rows[0]], rows) for rows in groups.values()]


class KabanovStage(BolzaStage):
    """Currency-market stage: K((z,k),(wz,wk)) = V(-k) + ind_C(wz + k),
    plus the terminal constraint z = 0 at the horizon.

    The state is (z, k): z the holdings transferred forward, k the
    consumption taken this stage; C is the solvency cone (any polyhedron
    containing 0) of executable trades.  All derived objects use the
    model's closed forms; duals split as y = (y_z, y_k) and the velocity
    has no effect through its k-part, so -inf arises whenever y_k != 0.
    """

    def __init__(self, disutility: ConvexFunction, trade_set: Polyhedron,
                 terminal: bool = False):
        d = trade_set.dim
        if disutility.dim != d:
            raise ValueError("disutility and trade set disagree on the dimension")
        self.V = disutility
        self.C = trade_set
        self.terminal = bool(terminal)
        fn = self._build_fn(d)
        super().__init__(fn, 2 * d)
        self.currency_dim = d

    def _build_fn(self, d):
        # coordinates: (z, k, wz, wk) in R^{4d}
        sel_neg_k = np.zeros((d, 4 * d)); sel_neg_k[:, d:2 * d] = -np.eye(d)
        pieces = [AffinePrecomposition(self.V, sel_neg_k)]
        if self.C.a_ub.shape[0] or self.C.a_eq.shape[0]:
            a_ub = np.zeros((self.C.a_ub.shape[0], 4 * d))
            a_ub[:, d:2 * d] = self.C.a_ub
            a_ub[:, 2 * d:3 * d] = self.C.a_ub
            a_eq = np.zeros((self.C.a_eq.shape[0], 4 * d))
            a_eq[:, d:2 * d] = self.C.a_eq
            a_eq[:, 2 * d:3 * d] = self.C.a_eq
            pieces.append(PolyhedralIndicator(Polyhedron(
                a_ub=a_ub, b_ub=self.C.b_ub, a_eq=a_eq, b_eq=self.C.b_eq,
                validate=False)))
        if self.terminal:
            rows = np.zeros((d, 4 * d)); rows[:, :d] = np.eye(d)
            pieces.append(PolyhedralIndicator(Polyhedron(
                a_eq=rows, b_eq=np.zeros(d), validate=False)))
        return FiniteSum(pieces)

    def _split_state(self, x):
        x = np.ravel(x)
        d = self.currency_dim
        return x[:d], x[d:]

    def _split_dual(self, y):
        y = np.ravel(y)
        d = self.currency_dim
        return y[:d], y[d:]

    def x_infeasible(self, x):
        z, k = self._split_state(x)
        if self.V.value(-k) == INF:
            return True
        return self.terminal and np.max(np.abs(z), initial=0.0) > FEAS_TOL

    def _hamiltonian(self, y):
        yz, yk = self._split_dual(y)
        if np.max(np.abs(yk), initial=0.0) > FEAS_TOL:
            return MINUS_INF
        sigma = support_function(self.C, yz)
        if sigma == INF:
            return MINUS_INF
        d = self.currency_dim
        sel_neg_k = np.zeros((d, 2 * d)); sel_neg_k[:, d:] = -np.eye(d)
        tilt = np.concatenate([np.zeros(d), yz])
        pieces = [AffinePrecomposition(self.V, sel_neg_k), Affine(tilt, -sigma)]
        if self.terminal:
            rows = np.zeros((d, 2 * d)); rows[:, :d] = np.eye(d)
            pieces.append(PolyhedralIndicator(Polyhedron(
                a_eq=rows, b_eq=np.zeros(d), validate=False)))
        return FiniteSum(pieces)

    def hamiltonian_functions_of_x(self, ys):
        """H(., y_k) in closed form, V(-k) + y_z.z - sigma_C(y_z) plus the
        indicator of z = 0 at the horizon, or MINUS_INF where y_k != 0 or
        sigma_C(y_z) = +inf: built once per distinct row of ``ys`` (one
        support LP each), and shared by the rows that agree bit for bit."""
        out = [None] * len(ys)
        for y, rows in _distinct_rows(ys):
            h = self._hamiltonian(y)
            for k in rows:
                out[k] = h
        return out

    def hamiltonian_x_conjugate(self, y, h):
        # H(., y)* = K*(., y), in closed form where H(., y)'s has none
        return self.conjugate_function_of_a(y)

    def conjugate_value_many(self, A, B):
        """K* at the rows (a, b) of A and B (the stage function's conjugate
        has no closed form; each slice's has): each distinct row b of B, by
        its bytes, builds its slice once (one support LP) and reads its rows
        of A in one ``value_many``."""
        A, out = np.asarray(A, dtype=float), np.empty(len(A))
        for b, rows in _distinct_rows(B):
            out[rows] = self.conjugate_function_of_a(b).value_many(A[rows])
        return out

    def conjugate_function_of_a(self, b):
        """K*(., b) in closed form: a -> V*(b_z - a_k) + sigma_C(b_z), plus
        the indicator of a_z = 0 before the horizon; +inf everywhere when
        b_k != 0 or sigma_C(b_z) = +inf."""
        bz, bk = self._split_dual(b)
        d = self.currency_dim
        if np.max(np.abs(bk), initial=0.0) > FEAS_TOL:
            return infeasible(2 * d)
        sigma = support_function(self.C, bz)
        if sigma == INF:
            return infeasible(2 * d)
        map_k = np.zeros((d, 2 * d)); map_k[:, d:] = -np.eye(d)
        pieces = [AffinePrecomposition(self.V.conjugate(), map_k, bz),
                  Affine(np.zeros(2 * d), sigma)]
        if not self.terminal:
            rows = np.zeros((d, 2 * d)); rows[:, :d] = np.eye(d)
            pieces.append(PolyhedralIndicator(Polyhedron(
                a_eq=rows, b_eq=np.zeros(d), validate=False)))
        return FiniteSum(pieces)


class BolzaIntegrand(ParametricIntegrand):
    """f(x, u) = sum_t K_t(x_t, dx_t + u_t), dx_t = x_t - x_{t-1}, x_{-1} = 0.

    Stage costs are given one per stage-t information block, so each is
    measurable by construction; the dual convention y_{T+1} = 0 aligns the
    two summation-by-parts forms of the Lagrangian.  The solver compiles
    the integrand node by node from its stage costs, so it has no per-leaf
    joint function.  f, l and f* are read stage by stage, one group of
    ``stage_groups`` at a time (``_stage_pass``), and each leaf's stage
    terms are then summed in stage order.
    """

    def __init__(self, tree: ScenarioTree, stages):
        stages = [list(blocks) for blocks in stages]
        if len(stages) != tree.stage_count:
            raise ValueError("need one stage list per stage")
        d = stages[0][0].d
        for t, blocks in enumerate(stages):
            if len(blocks) != len(tree.blocks(t)):
                raise ValueError(f"stage {t} needs one cost per information block")
            for st in blocks:
                if st.d != d:
                    raise ValueError("state dimension varies across stages")
        super().__init__(tree, [d] * tree.stage_count, [d] * tree.stage_count)
        self.stages = stages
        self.d = d

    def stage_cost(self, leaf: int, t: int) -> BolzaStage:
        return self.stages[t][self.tree.block_of(t, leaf)]

    @cached_property
    def stage_groups(self):
        """Per stage t, one (stage, blocks, leaves) triple per distinct
        stage-t cost, in order of first block: the stage-t blocks that carry
        that very object and their leaves, in increasing order.  A
        vectorised pass evaluates a shared K_t or K_t* once per group."""
        out = []
        for t, blocks in enumerate(self.stages):
            shared = {}
            for b, st in enumerate(blocks):
                shared.setdefault(id(st), (st, []))[1].append(b)
            out.append([(st, np.array(bs), np.flatnonzero(np.isin(self.tree.leaf_block[t], bs)))
                        for st, bs in shared.values()])
        return out

    # -- the integrand's functions, one stage group at a time -------------

    def _stage_pass(self, rule) -> np.ndarray:
        """(n_leaves, stage_count) array of stage terms: column t holds
        rule(t, stage, leaves) at the rows ``leaves`` of each group of
        ``stage_groups[t]``, one group at a time."""
        out = np.empty((self.tree.n_leaves, self.tree.stage_count))
        for t, groups in enumerate(self.stage_groups):
            for stage, _, leaves in groups:
                out[leaves, t] = rule(t, stage, leaves)
        return out

    def _shift(self, rows, step: int) -> np.ndarray:
        """Leaf rows of the stage-(t + step) vectors at stage t's columns,
        step = 1 or -1, zero past the horizon and before stage 0."""
        out, d = np.zeros_like(rows), self.d
        if step > 0:
            out[:, :-d] = rows[:, d:]
        else:
            out[:, d:] = rows[:, :-d]
        return out

    def values(self, X, U):
        """f(x, u) = sum_t K_t(x_t, x_t - x_{t-1} + u_t) of every leaf,
        each shared K_t read once per stage over its leaves' rows."""
        X = np.asarray(X, dtype=float)
        W = X - self._shift(X, -1) + np.asarray(U, dtype=float)
        return _stage_sums(self._stage_pass(lambda t, stage, leaves: stage.value_many(
            X[leaves, self.x_slices[t]], W[leaves, self.x_slices[t]])))

    def lagrangians(self, X, Y):
        """l(x, y) = sum_t H_t(x_t, y_t) + (x_t - x_{t-1}).y_t of every
        leaf, the Hamiltonians of a group built in one call over its
        leaves' y_t rows: +inf when some stage is x-infeasible or reads
        +inf, otherwise -inf when some H_t(., y_t) is MINUS_INF."""
        X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
        dX = X - self._shift(X, -1)

        def rule(t, stage, leaves):
            x, y = X[leaves, self.x_slices[t]], Y[leaves, self.u_slices[t]]
            h = np.full(len(leaves), INF)
            for k, fn in enumerate(stage.hamiltonian_functions_of_x(y)):
                if not stage.x_infeasible(x[k]):
                    h[k] = -INF if fn is MINUS_INF else fn.value(x[k])
            return h + _row_dots(dX[leaves, self.x_slices[t]], y)

        return _stage_sums(self._stage_pass(rule))

    def conjugate_values(self, vs, ys):
        """f*(v, y) = sum_t K_t*(v_t + y_{t+1} - y_t, y_t) of every leaf,
        with y_{T+1} = 0, each shared K_t* read once per stage over its
        leaves' rows (``BolzaStage.conjugate_value_many``)."""
        Y = np.asarray(ys, dtype=float)
        A = np.asarray(vs, dtype=float) + (self._shift(Y, 1) - Y)
        return _stage_sums(self._stage_pass(lambda t, stage, leaves: stage.conjugate_value_many(
            A[leaves, self.x_slices[t]], Y[leaves, self.u_slices[t]])))


def _row_dots(X, Y) -> np.ndarray:
    """x . y for every pair of rows, one dot product per row as ``x @ y``
    takes it."""
    return (X[:, None, :] @ Y[:, :, None])[:, 0, 0]


def _stage_sums(terms) -> np.ndarray:
    """Each leaf's stage terms summed stage by stage, as ``total += term``
    from 0.0: +inf where some term is +inf, so -inf where some term is
    -inf and none is +inf."""
    total = np.zeros(len(terms))
    with np.errstate(invalid="ignore"):  # inf - inf, overwritten below
        for column in terms.T:
            total = total + column
    total[np.any(terms == INF, axis=1)] = INF
    return total
