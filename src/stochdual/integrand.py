"""Per-scenario convex integrands f(x, u) and their derived objects.

An integrand assigns each leaf a jointly convex function of the decision
vector x (all stages stacked) and the parameter vector u.  From it we
derive, in closed form per leaf:

  * the Lagrangian  l(x, y) = inf_u { f(x, u) - u.y }  (partial conjugate
    in the parameter),
  * its lower closed variant  sup_v { x.v - f*(v, y) },
  * the pointwise conjugate  f*(v, y),
  * for dynamic (Bolza) structure, stage Hamiltonians
    H_t(x_t, y_t) = inf_w { K_t(x_t, w) - w.y_t }.

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
from .tree import ScenarioTree

__all__ = [
    "MINUS_INF",
    "ParametricIntegrand",
    "GenericIntegrand",
    "ConstrainedIntegrand",
    "AlmIntegrand",
    "BolzaIntegrand",
    "BolzaStage",
    "KabanovStage",
    "assemble_bolza",
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
    """inf over w of fn(x, w) - w.y as a function of x (the leading block).

    Returns a catalog function of x, or the MINUS_INF sentinel when the
    infimum is -inf irrespective of x.  Raises NoClosedFormError when the
    trailing slice is not conjugable in closed form.

    A precomposition g(M (x, w) + m) with a square, nonzero block M_w is
    the one-function case of ``_precomposition_lagrangians``, the stacked
    pass that ``GenericIntegrand.lagrangian_functions_of_x`` runs once per
    group of leaves sharing one g.
    """
    y = np.asarray(y, dtype=float).ravel()
    m = fn.dim - nx
    if y.size != m:
        raise ValueError("dual vector does not match the parameter block")
    if m == 0:
        return fn
    u_idx = np.arange(nx, fn.dim)

    if isinstance(fn, Affine):
        a_x, a_u = fn.a[:nx], fn.a[nx:]
        if np.max(np.abs(a_u - y), initial=0.0) > FEAS_TOL:
            return MINUS_INF
        return Affine(a_x, fn.b)

    if isinstance(fn, Quadratic):
        w_u, t_u = fn.weights[nx:], fn.tilt[nx:]
        drop = 0.0
        for wi, ti, yi in zip(w_u, t_u, y):
            if wi > 0:
                drop += (yi - ti) ** 2 / (4.0 * wi)
            elif abs(yi - ti) > FEAS_TOL:
                return MINUS_INF
        return Quadratic(fn.weights[:nx], fn.tilt[:nx], fn.offset - drop)

    if isinstance(fn, SeparableSum):
        parts, const = [], 0.0
        for i, part in enumerate(fn.parts):
            lo, hi = fn.offsets[i], fn.offsets[i + 1]
            if hi <= nx:
                parts.append(part)
            elif lo >= nx:
                val = part.conjugate().value(y[lo - nx:hi - nx])
                if val == INF:
                    return MINUS_INF
                const -= val
            else:
                sub = partial_infimum(part, nx - lo, y[:hi - nx])
                if sub is MINUS_INF:
                    return MINUS_INF
                parts.append(sub)
        if not parts:
            return constant(const, nx)
        out = SeparableSum(parts) if len(parts) > 1 or parts[0].dim != nx else parts[0]
        if out.dim != nx:  # fully-frozen pieces reduced the width
            raise NoClosedFormError("separable slice lost coordinates")
        return _shift(out, const)

    if isinstance(fn, AffinePrecomposition):
        if np.max(np.abs(fn.matrix[:, nx:]), initial=0.0) == 0.0:
            if np.max(np.abs(y), initial=0.0) > FEAS_TOL:
                return MINUS_INF
            return fn.fix(u_idx, np.zeros(m))
        if fn.matrix.shape[0] == m:
            return _precomposition_lagrangians(fn.inner, fn.matrix[None], fn.offset[None],
                                               nx, y[None])[0]
        raise NoClosedFormError("parameter slice is not conjugable")

    if isinstance(fn, FiniteSum):
        dependent, independent = [], []
        for s in fn.summands:
            if bool(np.any(coordinate_support(s)[nx:])):
                dependent.append(s)
            else:
                independent.append(s.fix(u_idx, np.zeros(m)))
        if len(dependent) == 0:
            if np.max(np.abs(y), initial=0.0) > FEAS_TOL:
                return MINUS_INF
            return FiniteSum(independent) if independent else constant(0.0, nx)
        if len(dependent) > 1:
            raise NoClosedFormError("parameter couples several non-affine terms")
        core = partial_infimum(dependent[0], nx, y)
        if core is MINUS_INF:
            return MINUS_INF
        return FiniteSum(independent + [core]) if independent else core

    if nx == 0:
        val = -fn.conjugate().value(y)
        return MINUS_INF if val == -INF else constant(val, 0)

    raise NoClosedFormError(f"no partial-conjugation rule for kind '{fn.kind}'")


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
    function's result does not depend on the others' as long as g*'s
    ``value_many`` evaluates row by row, as every catalog kind's does (a
    polyhedral indicator's up to rounding at its feasibility tolerance).
    Raises NoClosedFormError when some M_k,w is singular or g has no
    closed-form conjugate.
    """
    try:
        eta = np.linalg.solve(mats[:, :, nx:].swapaxes(1, 2),
                              np.asarray(ys, dtype=float)[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        raise NoClosedFormError("parameter map is singular")
    star = inner.conjugate().value_many(eta)
    slopes = (mats[:, :, :nx].swapaxes(1, 2) @ eta[:, :, None])[:, :, 0]
    return slopes, (eta[:, None, :] @ offsets[:, :, None])[:, 0, 0] - star


def _precomposition_lagrangians(inner: ConvexFunction, mats, offsets, nx: int, ys):
    """``partial_infimum`` of the K functions of ``_affine_slices``: each
    an Affine function of x, or MINUS_INF where g*(eta_k) = +inf."""
    slopes, consts = _affine_slices(inner, mats, offsets, nx, ys)
    return [MINUS_INF if b == -INF else Affine(a, b) for a, b in zip(slopes, consts.tolist())]


def _precomposition_conjugates(inner: ConvexFunction, mats, offsets, nx: int, ys, vs):
    """f*(v_k, y_k) of the K functions f_k = g(M_k (x, w) + m_k) of
    ``_affine_slices``, at the rows v_k of ``vs``.  f*(., y_k) is the
    conjugate of the affine Lagrangian x -> s_k.x + c_k, s_k = M_k,x'
    eta_k: -c_k = g*(eta_k) - eta_k.m_k where |v_k - s_k| <= FEAS_TOL, and
    +inf elsewhere."""
    slopes, consts = _affine_slices(inner, mats, offsets, nx, ys)
    on = np.max(np.abs(np.asarray(vs, dtype=float) - slopes), axis=1, initial=0.0) <= FEAS_TOL
    return np.where(on, -consts, INF)


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

    tag = "generic"

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

    # -- required per-leaf surface -----------------------------------------

    def joint_function(self, leaf: int) -> ConvexFunction:
        raise NotImplementedError

    def value(self, leaf: int, x, u) -> float:
        return self.joint_function(leaf).value(np.concatenate([
            np.asarray(x, dtype=float).ravel(), np.asarray(u, dtype=float).ravel()
        ]))

    def lagrangian_function_of_x(self, leaf: int, y):
        return partial_infimum(self.joint_function(leaf), self.n_total, y)

    def lagrangian_functions_of_x(self, ys) -> list:
        """``lagrangian_function_of_x`` of every leaf, leaf l at row l of
        ``ys``.  Raises NoClosedFormError when some leaf has no closed
        form."""
        return [self.lagrangian_function_of_x(leaf, y) for leaf, y in enumerate(ys)]

    def lagrangian(self, leaf: int, x, y) -> float:
        fn = self.lagrangian_function_of_x(leaf, y)
        if fn is MINUS_INF:
            return INF if self._parameter_slice_infeasible(leaf, x) else -INF
        return fn.value(x)

    def lower_lagrangian(self, leaf: int, x, y) -> float:
        """Biconjugate of l(., y) at x: equals l when l(., y) is closed
        proper, and -inf when f*(., y) is identically +inf."""
        fn = self.lagrangian_function_of_x(leaf, y)
        if fn is MINUS_INF:
            return -INF
        return fn.value(x)

    def conjugate_value(self, leaf: int, v, y) -> float:
        vy = np.concatenate([np.asarray(v, dtype=float).ravel(),
                             np.asarray(y, dtype=float).ravel()])
        return self.joint_function(leaf).conjugate().value(vy)

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
    """Integrand given directly as one catalog function per leaf."""

    tag = "generic"

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
    def _stacked_groups(self):
        """The groups of leaves whose joints g(M (x, u) + m) share one
        inner g and the shape of M, with a square, nonzero parameter block,
        as (leaves, g, stacked M, stacked m) in order of first leaf; and
        every other leaf, in order."""
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

    def lagrangian_functions_of_x(self, ys) -> list:
        """``lagrangian_function_of_x`` of every leaf, one group of leaves
        at a time: each group of ``_stacked_groups`` goes through one
        stacked partial infimum; any other leaf keeps the per-leaf rule.
        Raises NoClosedFormError when some leaf has no closed form."""
        n, ys = self.n_total, np.asarray(ys, dtype=float)
        groups, rest = self._stacked_groups
        out = [None] * len(ys)
        for leaf in rest:
            out[leaf] = partial_infimum(self.functions[leaf], n, ys[leaf])
        for leaves, inner, mats, offsets in groups:
            for leaf, fn in zip(leaves.tolist(), _precomposition_lagrangians(
                    inner, mats, offsets, n, ys[leaves])):
                out[leaf] = fn
        return out

    def conjugate_values(self, vs, ys) -> np.ndarray:
        """``conjugate_values`` one group of leaves at a time: each group of
        ``_stacked_groups`` in one stacked pass
        (``_precomposition_conjugates``); any other leaf keeps
        ``conjugate_function_of_v``."""
        n, vs, ys = self.n_total, np.asarray(vs, dtype=float), np.asarray(ys, dtype=float)
        groups, rest = self._stacked_groups
        out = np.empty(len(ys))
        for leaf in rest:
            out[leaf] = self.conjugate_function_of_v(leaf, ys[leaf]).value(vs[leaf])
        for leaves, inner, mats, offsets in groups:
            out[leaves] = _precomposition_conjugates(inner, mats, offsets, n, ys[leaves],
                                                     vs[leaves])
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

    tag = "constrained"

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

    def value(self, leaf, x, u):
        x = np.asarray(x, dtype=float).ravel()
        u = np.asarray(u, dtype=float).ravel()
        base = self.objectives[leaf].value(x)
        if base == INF:
            return INF
        for j, fj in enumerate(self.constraints[leaf]):
            g = fj.value(x)
            if g == INF or g + u[j] > FEAS_TOL:
                return INF
        return base

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

    def lagrangian_function_of_x(self, leaf, y):
        y = np.asarray(y, dtype=float).ravel()
        if np.any(y < -FEAS_TOL):
            return MINUS_INF
        terms = [self.objectives[leaf]]
        for j, fj in enumerate(self.constraints[leaf]):
            if y[j] > 0:
                terms.append(fj.scaled(float(y[j])))
        return FiniteSum(terms) if len(terms) > 1 else terms[0]

    def lagrangian(self, leaf, x, y):
        x = np.asarray(x, dtype=float).ravel()
        base = self.objectives[leaf].value(x)
        vals = [fj.value(x) for fj in self.constraints[leaf]]
        if base == INF or any(v == INF for v in vals):
            # no parameter can slacken an infinite constraint value, so the
            # inner infimum runs over an empty domain: +inf wins
            return INF
        y = np.asarray(y, dtype=float).ravel()
        if np.any(y < -FEAS_TOL):
            return -INF
        total = base
        for j, g in enumerate(vals):
            if y[j] > 0:
                total += y[j] * g
        return total

    def conjugate_value(self, leaf, v, y):
        fn = self.lagrangian_function_of_x(leaf, y)
        if fn is MINUS_INF:
            return INF
        return fn.conjugate().value(v)

    def conjugate_function_of_v(self, leaf, y):
        fn = self.lagrangian_function_of_x(leaf, y)
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
    come from the generic machinery and match the model's closed forms.
    """

    tag = "alm"

    def __init__(self, tree, disutilities, price):
        from .tree import is_adapted  # local import to avoid cycles

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
        shared = {}
        for leaf, V in enumerate(Vs):
            shared.setdefault(id(V), (V, []))[1].append(leaf)
        # (V, the leaves whose disutility is that very object), in order of
        # first leaf: the groups a vectorised pass evaluates V or V* over
        self.disutility_groups = [(V, np.array(leaves)) for V, leaves in shared.values()]
        self.price = price
        # row l: leaf l's ds, stacked over stages
        self.gain_rows = (np.hstack([price.stage(t + 1) - price.stage(t) for t in range(T)])
                          if T else np.zeros((tree.n_leaves, 0)))
        # row l: leaf l's joint row (-ds, 1) on (x, u)
        joints = np.hstack([-self.gain_rows, np.ones((tree.n_leaves, 1))])
        fns = [AffinePrecomposition(V, joints[leaf:leaf + 1]) for leaf, V in enumerate(Vs)]
        super().__init__(tree, n_dims, m_dims, fns)
        self.tag = "alm"

    def conjugate_value(self, leaf, v, y):
        v = np.asarray(v, dtype=float).ravel()
        y = float(np.asarray(y).ravel()[0])
        forced = -y * self.gain_rows[leaf]
        if np.max(np.abs(v - forced), initial=0.0) > FEAS_TOL:
            return INF
        return self.disutilities[leaf].conjugate().value([y])


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

    def value(self, x, w) -> float:
        return self.fn.value(np.concatenate([np.ravel(x), np.ravel(w)]))

    def value_many(self, X, W) -> np.ndarray:
        """``value`` at the rows of X and W, bit for bit."""
        return self.fn.value_many(np.hstack([X, W]))

    def x_infeasible(self, x) -> bool:
        sliced = self.fn.fix(np.arange(self.d), np.ravel(x))
        return _is_identically_infinite(sliced)

    def hamiltonian_function_of_x(self, y):
        return partial_infimum(self.fn, self.d, y)

    def hamiltonian(self, x, y) -> float:
        if self.x_infeasible(x):
            return INF
        fn = self.hamiltonian_function_of_x(y)
        if fn is MINUS_INF:
            return -INF
        return fn.value(np.ravel(x))

    def hamiltonian_x_conjugate(self, y) -> ConvexFunction:
        """a -> sup_x { x.a - H(x, y) } for residual tests in x."""
        fn = self.hamiltonian_function_of_x(y)
        if fn is MINUS_INF:
            raise NoClosedFormError("Hamiltonian is -inf at this dual point")
        return fn.conjugate()

    def hbar_function_of_x(self, y, conj_in_a=None):
        """lsc hull of H(., y): conjugate of a -> K*(a, y), which is
        ``conj_in_a`` when the caller has built it."""
        if conj_in_a is None:
            conj_in_a = self.conjugate_function_of_a(y)
        empty = self._slices_empty
        if empty is None:
            empty = _is_identically_infinite(conj_in_a)
        if empty:
            return MINUS_INF
        return conj_in_a.conjugate()

    @cached_property
    def _slices_empty(self):
        """Whether every slice a -> K*(a, b) is identically +inf, decided
        once from dom K* when no row of it reads b (each slice's domain is
        then one set whatever b is; without rows it is the whole space and
        no LP runs).  None when some row reads b, or dom K* is not
        polyhedral: the test is then made per slice."""
        dom = domain_polyhedron(self.fn.conjugate())
        if dom is None:
            return None
        b = slice(self.d, 2 * self.d)
        if np.any(dom.a_ub[:, b]) or np.any(dom.a_eq[:, b]):
            return None
        return bool(dom.a_ub.shape[0] or dom.a_eq.shape[0]) and dom.is_empty()

    def conjugate_value(self, a, b) -> float:
        ab = np.concatenate([np.ravel(a), np.ravel(b)])
        return self.fn.conjugate().value(ab)

    def conjugate_value_many(self, A, B) -> np.ndarray:
        """``conjugate_value`` at the rows of A and B, bit for bit."""
        return self.fn.conjugate().value_many(np.hstack([A, B]))

    def conjugate_function_of_a(self, b) -> ConvexFunction:
        b = np.asarray(b, dtype=float).ravel()
        idx = np.arange(self.d, 2 * self.d)
        return self.fn.conjugate().fix(idx, b)


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

    def hamiltonian_function_of_x(self, y):
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

    def hamiltonian_x_conjugate(self, y):
        yz, yk = self._split_dual(y)
        if np.max(np.abs(yk), initial=0.0) > FEAS_TOL:
            raise NoClosedFormError("Hamiltonian is -inf at this dual point")
        sigma = support_function(self.C, yz)
        if sigma == INF:
            raise NoClosedFormError("Hamiltonian is -inf at this dual point")
        d = self.currency_dim
        # sup_{z,k} z.az + k.ak - H((z,k), y):
        #   z-part: ind(az = 0) unless terminal (then z is pinned and az free)
        #   k-part: V*(yz - ak), plus the sigma constant back
        map_k = np.zeros((d, 2 * d)); map_k[:, d:] = -np.eye(d)
        pieces = [AffinePrecomposition(self.V.conjugate(), map_k, yz),
                  Affine(np.zeros(2 * d), sigma)]
        if not self.terminal:
            rows = np.zeros((d, 2 * d)); rows[:, :d] = np.eye(d)
            pieces.append(PolyhedralIndicator(Polyhedron(
                a_eq=rows, b_eq=np.zeros(d), validate=False)))
        return FiniteSum(pieces)

    def conjugate_value(self, a, b):
        az, ak = self._split_dual(a)
        bz, bk = self._split_dual(b)
        if np.max(np.abs(bk), initial=0.0) > FEAS_TOL:
            return INF
        if not self.terminal and np.max(np.abs(az), initial=0.0) > FEAS_TOL:
            return INF
        star = self.V.conjugate().value(bz - ak)
        if star == INF:
            return INF
        sigma = support_function(self.C, bz)
        return star + sigma if sigma != INF else INF

    def conjugate_value_many(self, A, B):
        """``conjugate_value`` row by row (the stage function's conjugate
        has no closed form; each row's has)."""
        return np.array([self.conjugate_value(a, b) for a, b in zip(A, B)])

    def conjugate_function_of_a(self, b):
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

    def hbar_function_of_x(self, y, conj_in_a=None):
        # the Hamiltonian is already closed in x for this stage structure
        return self.hamiltonian_function_of_x(y)


class BolzaIntegrand(ParametricIntegrand):
    """f(x, u) = sum_t K_t(x_t, dx_t + u_t), dx_t = x_t - x_{t-1}, x_{-1} = 0.

    Stage costs are given per stage-t information block (measurability);
    the dual convention y_{T+1} = 0 aligns the two summation-by-parts forms
    of the Lagrangian.
    """

    tag = "bolza"

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

    @staticmethod
    def from_leaf_functions(tree, per_leaf):
        """Build from per-leaf stage lists, enforcing blockwise constancy."""
        stage_lists = []
        for t in range(tree.stage_count):
            blocks = []
            for block in tree.blocks(t):
                first = per_leaf[t][block[0]]
                for leaf in block[1:]:
                    if per_leaf[t][leaf] is not first:
                        raise ValueError(
                            f"stage-{t} cost varies inside an information block"
                        )
                blocks.append(first)
            stage_lists.append(blocks)
        return BolzaIntegrand(tree, stage_lists)

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

    # -- stacked-vector helpers ---------------------------------------------

    def _states(self, x):
        x = np.asarray(x, dtype=float).ravel()
        return [x[self.x_slices[t]] for t in range(self.tree.stage_count)]

    def _velocity(self, states, t, u_t):
        prev = states[t - 1] if t > 0 else np.zeros(self.d)
        return states[t] - prev + u_t

    def _dual_increments(self, y):
        """dy_{t+1} per stage with y_{T+1} = 0."""
        y = np.asarray(y, dtype=float).ravel()
        ys = [y[self.u_slices[t]] for t in range(self.tree.stage_count)]
        out = []
        for t in range(self.tree.stage_count):
            nxt = ys[t + 1] if t + 1 < self.tree.stage_count else np.zeros(self.d)
            out.append(nxt - ys[t])
        return ys, out

    def value(self, leaf, x, u):
        states = self._states(x)
        u = np.asarray(u, dtype=float).ravel()
        total = 0.0
        for t in range(self.tree.stage_count):
            w = self._velocity(states, t, u[self.u_slices[t]])
            v = self.stage_cost(leaf, t).value(states[t], w)
            if v == INF:
                return INF
            total += v
        return total

    def joint_function(self, leaf):
        T1 = self.tree.stage_count
        d = self.d
        width = self.n_total + self.m_total
        pieces = []
        for t in range(T1):
            M = np.zeros((2 * d, width))
            M[:d, self.x_slices[t]] = np.eye(d)
            M[d:, self.x_slices[t]] = np.eye(d)
            if t > 0:
                M[d:, self.x_slices[t - 1]] = -np.eye(d)
            M[d:, self.n_total + self.u_slices[t].start:
              self.n_total + self.u_slices[t].stop] = np.eye(d)
            pieces.append(AffinePrecomposition(self.stage_cost(leaf, t).fn, M))
        return FiniteSum(pieces)

    def hamiltonian(self, leaf, t, x_t, y_t) -> float:
        return self.stage_cost(leaf, t).hamiltonian(x_t, y_t)

    def lagrangian(self, leaf, x, y) -> float:
        states = self._states(x)
        ys, _ = self._dual_increments(y)
        total = 0.0
        minus = False
        for t in range(self.tree.stage_count):
            stage = self.stage_cost(leaf, t)
            if stage.x_infeasible(states[t]):
                return INF
            h = stage.hamiltonian(states[t], ys[t])
            if h == INF:
                return INF
            if h == -INF:
                minus = True
                continue
            prev = states[t - 1] if t > 0 else np.zeros(self.d)
            total += h + float((states[t] - prev) @ ys[t])
        return -INF if minus else total

    def lagrangian_function_of_x(self, leaf, y):
        ys, _ = self._dual_increments(y)
        T1 = self.tree.stage_count
        pieces = []
        coeff = np.zeros(self.n_total)
        for t in range(T1):
            stage = self.stage_cost(leaf, t)
            h_fn = stage.hamiltonian_function_of_x(ys[t])
            if h_fn is MINUS_INF:
                return MINUS_INF
            M = np.zeros((h_fn.dim, self.n_total))
            M[:, self.x_slices[t]] = np.eye(self.d)
            pieces.append(AffinePrecomposition(h_fn, M))
            nxt = ys[t + 1] if t + 1 < T1 else np.zeros(self.d)
            coeff[self.x_slices[t]] += ys[t] - nxt
        pieces.append(Affine(coeff, 0.0))
        return FiniteSum(pieces)

    def lower_lagrangian(self, leaf, x, y) -> float:
        # a stage whose shifted conjugate is identically +inf empties the
        # supremum for the whole leaf, so -inf dominates here
        states = self._states(x)
        ys, dys = self._dual_increments(y)
        total = 0.0
        minus = plus = False
        for t in range(self.tree.stage_count):
            stage = self.stage_cost(leaf, t)
            hb = stage.hbar_function_of_x(ys[t])
            if hb is MINUS_INF:
                minus = True
                continue
            v = hb.value(states[t])
            if v == INF:
                plus = True
                continue
            total += v - float(states[t] @ dys[t])
        if minus:
            return -INF
        if plus:
            return INF
        return total

    def conjugate_value(self, leaf, v, y) -> float:
        v = np.asarray(v, dtype=float).ravel()
        ys, dys = self._dual_increments(y)
        total = 0.0
        for t in range(self.tree.stage_count):
            term = self.stage_cost(leaf, t).conjugate_value(
                v[self.x_slices[t]] + dys[t], ys[t]
            )
            if term == INF:
                return INF
            total += term
        return total

    def conjugate_function_of_v(self, leaf, y):
        ys, dys = self._dual_increments(y)
        parts = []
        for t in range(self.tree.stage_count):
            fn_a = self.stage_cost(leaf, t).conjugate_function_of_a(ys[t])
            parts.append(AffinePrecomposition(fn_a, np.eye(self.d), dys[t]))
        return SeparableSum(parts)


def assemble_bolza(tree: ScenarioTree, stages) -> BolzaIntegrand:
    """Build the dynamic integrand from per-stage, per-block stage costs."""
    return BolzaIntegrand(tree, stages)
