"""Exact calculus for a catalog of closed proper convex functions.

Every catalog item can be evaluated exactly (with +inf for points outside
the domain) and most can be conjugated in closed form.  Each kind has one
evaluator, ``value_many``, which reads a stack of points row by row, so a
row's bits do not depend on the rows beside it; ``value`` reads it at one
row.  The support function is the exception: one LP per point is its rule,
and its ``value_many`` loops it.  Conjugates:

    quadratic <-> quadratic          |x| <-> indicator of [-1, 1]
    piecewise-linear <-> piecewise-linear
    polyhedral indicator <-> support function
    entropy <-> exponential

Sums, separable sums and affine pre-compositions conjugate by rule where a
rule exists; a general finite sum raises ``NoClosedFormError`` and callers
fall back to the grid oracle (tests only).  Every kind but the support
function has a QP form (``QPForm``): a quadratic part on a polyhedron plus
scalar atoms, kinked piecewise-linear or smooth (exponential, entropy,
which ``taylor`` reads to second order), and so has every combination of
them.  ``qp_form`` raises ``NoClosedFormError`` where there is none, as
every missing rule does.  The domain of a function is read off its form
(``domain_polyhedron``).

No kind carries a subgradient rule.  The solver reads each subgradient it
needs off a QP's multipliers, and membership v in dg(x) is tested through
the Fenchel residual g(x) + g*(v) - x.v, which is nonnegative and vanishes
exactly on the graph of the subdifferential.

Indicator-type evaluations use a fixed absolute feasibility tolerance of
1e-9 so that points produced by the finite-precision solvers land inside
their own feasible sets: a polyhedral indicator reads each row as
a.x <= b + 1e-9 (|a.x - b| <= 1e-9 for an equality), so a NaN point lies
outside it.
"""

from __future__ import annotations

import numpy as np

from .simplex import solve_lp

__all__ = [
    "FEAS_TOL",
    "NoClosedFormError",
    "QPForm",
    "ConvexFunction",
    "Affine",
    "Quadratic",
    "PiecewiseLinear",
    "Entropy",
    "Exponential",
    "Polyhedron",
    "PolyhedralIndicator",
    "SupportFunction",
    "SeparableSum",
    "AffinePrecomposition",
    "FiniteSum",
    "absolute_value",
    "indicator_nonneg",
    "indicator_nonpos",
    "indicator_interval",
    "indicator_point",
    "constant",
    "infeasible",
    "fenchel_residual",
    "support_function",
    "argmax_support",
    "support_attains",
    "SupportAttainReport",
    "grid_conjugate_oracle",
    "GridConjugate",
]

INF = float("inf")
FEAS_TOL = 1e-9


class NoClosedFormError(ValueError):
    """No closed-form conjugate (or slice) exists for this function."""


class QPForm:
    """Quadratic-plus-polyhedral description: 1/2 x'Px + q.x + c on a polyhedron.

    ``epi`` carries scalar summands as (row, offset, g) atoms whose value
    g(row.x + offset) adds to the quadratic part, each g on its domain
    [g.lo, g.hi].  A kinked g (piecewise-linear) is lowered by the solver
    to one epigraph variable with supporting-line rows; a smooth g
    (exponential, entropy) to its domain rows only, while each Newton step
    adds g's Taylor reading at the atom's argument (``taylor``).  At a
    solution of the lowered program, P x + q plus the rows' multipliers
    and each atom's row times its slope (selected by the multipliers, or
    the smooth model's) is the subgradient the solution picks, so a form
    needs no row bookkeeping beyond its arrays.

    A form may also be a stack of K forms of one shape that share their
    atom functions: ``c`` is then an array of K constants, and every other
    array (each atom's row and offset too) gains a leading axis of length K.

    ``embed`` places a form on a subset of the coordinates of a larger
    space by scattering through an index array; ``compose`` is for genuine
    affine maps.
    """

    def __init__(self, dim, P=None, q=None, c=0.0, G=None, h=None,
                 A=None, b=None, epi=None):
        self.dim = dim
        lead = np.shape(c)  # () for one form, (K,) for a stack of K
        self.c = np.asarray(c, dtype=float) if lead else float(c)
        self.P = np.zeros(lead + (dim, dim)) if P is None else np.asarray(P, dtype=float)
        self.q = np.zeros(lead + (dim,)) if q is None else np.asarray(q, dtype=float)
        self.h = (np.zeros(lead + (0,)) if h is None
                  else np.asarray(h, dtype=float).reshape(lead + (-1,)))
        self.G = (np.zeros(self.h.shape + (dim,)) if G is None
                  else np.asarray(G, dtype=float).reshape(self.h.shape + (dim,)))
        self.b = (np.zeros(lead + (0,)) if b is None
                  else np.asarray(b, dtype=float).reshape(lead + (-1,)))
        self.A = (np.zeros(self.b.shape + (dim,)) if A is None
                  else np.asarray(A, dtype=float).reshape(self.b.shape + (dim,)))
        self.epi = list(epi) if epi is not None else []

    def compose(self, M, m) -> "QPForm":
        """Form of x -> self(Mx + m).

        M and m may also be a stack of K maps, of shape (K, r, d), and K
        offsets, of shape (K, r): the result is then the K composed forms,
        stacked.  ``self`` is one form.
        """
        M = np.asarray(M, dtype=float)
        Mt = M.swapaxes(-1, -2)
        q, c, h, b, offs = self.offset_parts(M, m)
        return QPForm(
            M.shape[-1], P=Mt @ self.P @ M, q=q, c=c, G=self.G @ M, h=h, A=self.A @ M, b=b,
            epi=[((Mt @ row[:, None])[..., 0], off, g)
                 for (row, _, g), off in zip(self.epi, offs)],
        )

    def offset_parts(self, M, m):
        """The parts of ``compose(M, m)`` that move with m: (q, c, h, b,
        each atom's offset).  P, G, A and the atoms' rows depend on M
        alone."""
        M = np.asarray(M, dtype=float)
        m = np.asarray(m, dtype=float)[..., None]  # offsets as columns
        Mt, mt = M.swapaxes(-1, -2), m.swapaxes(-1, -2)
        return ((Mt @ (self.q[:, None] + self.P @ m))[..., 0],
                self.c + (self.q @ m)[..., 0] + 0.5 * (mt @ self.P @ m)[..., 0, 0],
                self.h - (self.G @ m)[..., 0], self.b - (self.A @ m)[..., 0],
                [off + (row @ m)[..., 0] for row, off, _ in self.epi])

    def as_stack(self, consts=(0.0,)) -> "QPForm":
        """This form K times, stacked, the k-th with ``consts[k]`` added to
        its constant; a stack of one by default."""
        k = len(consts)

        def tile(a):
            return np.repeat(np.asarray(a)[None], k, axis=0)

        return QPForm(self.dim, P=tile(self.P), q=tile(self.q),
                      c=self.c + np.asarray(consts, dtype=float),
                      G=tile(self.G), h=tile(self.h), A=tile(self.A), b=tile(self.b),
                      epi=[(tile(row), np.full(k, off), g) for row, off, g in self.epi])

    def embed(self, cols, dim) -> "QPForm":
        """Form of w -> self(w[cols]) for w in R^dim (``cols`` distinct)."""
        cols = np.asarray(cols, dtype=int)
        P = np.zeros((dim, dim))
        P[np.ix_(cols, cols)] = self.P
        q = np.zeros(dim)
        q[cols] = self.q
        G = np.zeros((self.G.shape[0], dim))
        G[:, cols] = self.G
        A = np.zeros((self.A.shape[0], dim))
        A[:, cols] = self.A
        epi = []
        for row, off, g in self.epi:
            full = np.zeros(dim)
            full[cols] = row
            epi.append((full, off, g))
        return QPForm(dim, P=P, q=q, c=self.c, G=G, h=self.h, A=A, b=self.b, epi=epi)

    @staticmethod
    def add(forms: list["QPForm"], dim: int) -> "QPForm":
        out = QPForm(dim)
        for f in forms:
            out.P = out.P + f.P
            out.q = out.q + f.q
            out.c += f.c
            out.epi += f.epi
        out.G = np.vstack([out.G] + [f.G for f in forms])
        out.h = np.concatenate([out.h] + [f.h for f in forms])
        out.A = np.vstack([out.A] + [f.A for f in forms])
        out.b = np.concatenate([out.b] + [f.b for f in forms])
        return out


class ConvexFunction:
    """Base class: a closed proper convex function on R^dim."""

    dim: int
    kind: str = "abstract"

    def value(self, x) -> float:
        return float(self.value_many(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def __call__(self, x) -> float:
        return self.value(x)

    def value_many(self, X) -> np.ndarray:
        """The value at each row of X, each row evaluated on its own."""
        raise NotImplementedError

    def conjugate(self) -> "ConvexFunction":
        cached = getattr(self, "_conjugate_cache", None)
        if cached is None:
            cached = self._conjugate()
            self._conjugate_cache = cached
        return cached

    def _conjugate(self) -> "ConvexFunction":
        raise NoClosedFormError(f"no closed form conjugate for kind '{self.kind}'")

    def scaled(self, alpha: float) -> "ConvexFunction":
        raise NoClosedFormError(f"no scaling rule for kind '{self.kind}'")

    def fix(self, idx, vals) -> "ConvexFunction":
        """Partial evaluation: freeze coordinates ``idx`` at ``vals``.

        Returns a function of the remaining coordinates in their original
        order.  A fully frozen function becomes a 0-dimensional constant.
        """
        raise NoClosedFormError(f"no slicing rule for kind '{self.kind}'")

    def qp_form(self) -> QPForm:
        raise NoClosedFormError(f"no QP form for kind '{self.kind}'")


def _split_fix(idx, vals, dim):
    idx = np.asarray(idx, dtype=int)
    vals = np.asarray(vals, dtype=float).ravel()
    if idx.size != vals.size:
        raise ValueError("fix() needs one value per frozen coordinate")
    keep = np.ones(dim, dtype=bool)
    keep[idx] = False
    return idx, vals, np.flatnonzero(keep)


def constant(value: float, dim: int = 0) -> "ConvexFunction":
    if value == INF:
        return infeasible(dim)
    return Affine(np.zeros(dim), value)


def infeasible(dim: int) -> "ConvexFunction":
    """Indicator of the empty set: identically +inf (internal sentinel)."""
    return PolyhedralIndicator(
        Polyhedron(a_ub=np.zeros((1, dim)), b_ub=np.array([-1.0]), validate=False)
    )


# ---------------------------------------------------------------------------
# elementary kinds
# ---------------------------------------------------------------------------


class Affine(ConvexFunction):
    kind = "affine"

    def __init__(self, a, b=0.0):
        self.a = np.asarray(a, dtype=float).ravel()
        self.b = float(b)
        self.dim = self.a.size

    def __repr__(self):
        return f"Affine(a={self.a.tolist()}, b={self.b})"

    def value_many(self, X):
        # one dot product per row
        return (np.asarray(X, dtype=float)[:, None, :] @ self.a[:, None])[:, 0, 0] + self.b

    def _conjugate(self):
        # sup x.y - a.x - b = -b on {y = a}, +inf elsewhere
        point = Polyhedron(a_eq=np.eye(self.dim), b_eq=self.a)
        return _plus_const(PolyhedralIndicator(point), -self.b)

    def scaled(self, alpha):
        return Affine(alpha * self.a, alpha * self.b)

    def fix(self, idx, vals):
        idx, vals, keep = _split_fix(idx, vals, self.dim)
        return Affine(self.a[keep], self.b + float(self.a[idx] @ vals))

    def qp_form(self):
        return QPForm(self.dim, q=self.a, c=self.b)


class Quadratic(ConvexFunction):
    """Diagonal quadratic sum_i w_i x_i^2 + t.x + o with weights w_i >= 0."""

    kind = "quadratic"

    def __init__(self, weights, tilt=None, offset=0.0):
        self.weights = np.asarray(weights, dtype=float).ravel()
        if np.any(self.weights < 0):
            raise ValueError("quadratic weights must be nonnegative")
        self.dim = self.weights.size
        self.tilt = np.zeros(self.dim) if tilt is None else np.asarray(tilt, dtype=float).ravel()
        self.offset = float(offset)
        if self.tilt.size != self.dim:
            raise ValueError("tilt dimension mismatch")

    def __repr__(self):
        return f"Quadratic(weights={self.weights.tolist()})"

    def value_many(self, X):
        # one dot product per row: a row's bits do not depend on the
        # number of rows
        X = np.asarray(X, dtype=float)[:, None, :]
        return ((X * X) @ self.weights[:, None] + X @ self.tilt[:, None])[:, 0, 0] + self.offset

    def _conjugate(self):
        w, t = self.weights, self.tilt
        if np.all(w > 0):
            # per coordinate: (y - t)^2 / (4w)
            return Quadratic(
                1.0 / (4.0 * w),
                -t / (2.0 * w),
                float(np.sum(t * t / (4.0 * w))) - self.offset,
            )
        # zero-weight coordinates conjugate to point indicators
        parts = []
        for i in range(self.dim):
            if w[i] > 0:
                parts.append(Quadratic([1.0 / (4 * w[i])], [-t[i] / (2 * w[i])],
                                       t[i] ** 2 / (4 * w[i])))
            else:
                parts.append(indicator_point(t[i]))
        return _plus_const(SeparableSum(parts), -self.offset)

    def scaled(self, alpha):
        return Quadratic(alpha * self.weights, alpha * self.tilt, alpha * self.offset)

    def fix(self, idx, vals):
        idx, vals, keep = _split_fix(idx, vals, self.dim)
        extra = float(self.weights[idx] @ (vals * vals) + self.tilt[idx] @ vals)
        return Quadratic(self.weights[keep], self.tilt[keep], self.offset + extra)

    def qp_form(self):
        return QPForm(self.dim, P=np.diag(2.0 * self.weights), q=self.tilt, c=self.offset)


class _Scalar(ConvexFunction):
    """A scalar kind on its domain [lo, hi], whose QP form is one atom
    unless the kind has a closed one."""

    dim = 1

    def qp_form(self):
        return QPForm(1, epi=[(np.array([1.0]), 0.0, self)])

    def fix(self, idx, vals):
        idx, vals, keep = _split_fix(idx, vals, 1)
        if keep.size:
            return self
        return constant(self.value(vals), 0)


class PiecewiseLinear(_Scalar):
    """Scalar convex piecewise-linear function on a closed interval.

    ``slopes`` (nondecreasing) apply on the pieces cut by ``breaks``; the
    function is +inf outside [lo, hi].  ``anchor=(x0, v0)`` pins the value.
    Conjugation swaps breakpoints and slopes and is an exact involution.
    """

    kind = "piecewise-linear"

    def __init__(self, breaks, slopes, lo=-INF, hi=INF, anchor=(0.0, 0.0)):
        breaks = np.asarray(breaks, dtype=float).ravel()
        slopes = np.asarray(slopes, dtype=float).ravel()
        if lo > hi:
            raise ValueError("empty domain")
        if lo == hi:
            if breaks.size:
                raise ValueError("point domain admits no breakpoints")
            slopes = np.zeros(1)
        else:
            if slopes.size != breaks.size + 1:
                raise ValueError("need len(slopes) == len(breaks) + 1")
            if np.any(np.diff(breaks) <= 0):
                raise ValueError("breakpoints must be strictly increasing")
            if breaks.size and (breaks[0] <= lo or breaks[-1] >= hi):
                raise ValueError("breakpoints must lie strictly inside the domain")
            if np.any(np.diff(slopes) < -1e-12):
                raise ValueError("slopes must be nondecreasing (convexity)")
            # merge pieces whose slopes coincide
            if breaks.size:
                keepers = np.abs(np.diff(slopes)) > 0
                breaks = breaks[keepers]
                slopes = np.concatenate([slopes[:1], slopes[1:][keepers]])
        self.breaks = breaks
        self.slopes = slopes
        self.lo = float(lo)
        self.hi = float(hi)
        ax, av = anchor
        if not (lo - FEAS_TOL <= ax <= hi + FEAS_TOL):
            raise ValueError("anchor point outside the domain")
        self.anchor_x = float(min(max(ax, lo), hi))
        self.anchor_val = float(av)

    def __repr__(self):
        return (f"PiecewiseLinear(breaks={self.breaks.tolist()}, "
                f"slopes={self.slopes.tolist()}, dom=[{self.lo}, {self.hi}])")

    def value_many(self, X, scale=1.0):
        """The value at every point: +inf beyond the domain's tolerance
        band, else at the point clamped to the domain, its pieces between
        the anchor and the point summed from the lower knot up.  With a
        ``scale`` (a number, or an array of K positive numbers), the values
        of ``self.scaled(scale)``, rounded as that function rounds them,
        one column per scale."""
        X = np.asarray(X, dtype=float).reshape(-1)
        scale = np.asarray(scale, dtype=float)
        xs = X.reshape((-1,) + (1,) * scale.ndim)  # a column per point with K scales
        # on a domain with a finite end the points beyond its band are
        # +inf, the others clamped to it; on R no point is either
        whole = self.lo == -INF and self.hi == INF
        if not whole:
            ok = ~((X < self.lo - FEAS_TOL) | (X > self.hi + FEAS_TOL))
            xs = xs[ok]
            if self.lo != -INF:
                xs = np.where(self.lo > xs, self.lo, xs)
            if self.hi != INF:
                xs = np.where(self.hi < xs, self.hi, xs)
        up = self.anchor_x <= xs
        left, right = np.where(up, self.anchor_x, xs), np.where(up, xs, self.anchor_x)
        total = np.zeros(xs.shape)
        breaks, slopes = self.breaks, self.slopes

        def piece(lo_knot, hi_knot):
            # the slope of the piece that holds the midpoint
            j = breaks.searchsorted(0.5 * (lo_knot + hi_knot), side="right") if breaks.size else 0
            return (scale * slopes[j]) * (hi_knot - lo_knot)

        for b in breaks.tolist():  # the knots strictly inside, in increasing order
            inside = (b > left) & (b < right)
            total = np.where(inside, total + piece(left, b), total)
            left = np.where(inside, b, left)
        total = total + piece(left, right)
        vals = scale * self.anchor_val + np.where(xs >= self.anchor_x, 1.0, -1.0) * total
        if whole:
            return vals
        out = np.full(X.shape + scale.shape, INF)
        out[ok] = vals
        return out

    def _conjugate(self):
        if self.lo == self.hi:  # point indicator: conjugate is affine
            c, v = self.lo, self.anchor_val
            return PiecewiseLinear([], [c], anchor=(0.0, -v))
        s = self.slopes
        if self.breaks.size == 0 and self.lo == -INF and self.hi == INF:
            # affine on R: conjugate is a point indicator at the slope
            val = float(s[0] * self.anchor_x - self.anchor_val)
            return PiecewiseLinear([], [], lo=s[0], hi=s[0], anchor=(s[0], val))
        g_lo = s[0] if self.lo == -INF else -INF
        g_hi = s[-1] if self.hi == INF else INF
        start = 1 if self.lo == -INF else 0
        stop = s.size - 1 if self.hi == INF else s.size
        g_breaks = s[start:stop]
        g_slopes = []
        if self.lo != -INF:
            g_slopes.append(self.lo)
        g_slopes.extend(self.breaks.tolist())
        if self.hi != INF:
            g_slopes.append(self.hi)
        # value at a reference dual point via the knot maximum
        knots = []
        if self.lo != -INF:
            knots.append(self.lo)
        knots.extend(self.breaks.tolist())
        if self.hi != INF:
            knots.append(self.hi)
        knots = np.array(knots)
        fvals = self.value_many(knots)
        y0 = g_breaks[0] if g_breaks.size else (g_lo if g_lo != -INF else g_hi)
        v0 = float(np.max(knots * y0 - fvals))
        return PiecewiseLinear(g_breaks, g_slopes, lo=g_lo, hi=g_hi, anchor=(y0, v0))

    def scaled(self, alpha):
        return PiecewiseLinear(
            self.breaks, alpha * self.slopes, self.lo, self.hi,
            anchor=(self.anchor_x, alpha * self.anchor_val),
        )

    def qp_form(self):
        if self.slopes.size > 1:  # kinked: an atom, lowered by the solver
            return super().qp_form()
        if self.lo == self.hi:
            return QPForm(1, c=self.anchor_val, A=np.array([[1.0]]), b=np.array([self.lo]))
        s = float(self.slopes[0])
        rows, rhs = [], []
        if self.hi != INF:
            rows.append([1.0]); rhs.append(self.hi)
        if self.lo != -INF:
            rows.append([-1.0]); rhs.append(-self.lo)
        return QPForm(
            1, q=np.array([s]), c=self.anchor_val - s * self.anchor_x,
            G=np.array(rows) if rows else None,
            h=np.array(rhs) if rhs else None,
        )

    def supporting_lines(self, scale=1.0):
        """(slope, intercept) per piece: f(z) = max_j slope_j z + intercept_j
        on the domain (epigraph rows for the solver).  With a ``scale`` (a
        number or an array of positive numbers), the lines of
        ``self.scaled(scale)``, without building that function.  Piece j
        is read at its left end."""
        ends = [self.lo if self.lo != -INF else float(self.breaks[0]), *self.breaks.tolist()]
        lines = []
        for s, v, z0 in zip(self.slopes, self.value_many(ends, scale), ends):
            slope = scale * s
            lines.append((slope, v - slope * z0))
        return lines


def absolute_value() -> PiecewiseLinear:
    return PiecewiseLinear([0.0], [-1.0, 1.0], anchor=(0.0, 0.0))


def indicator_nonpos() -> PiecewiseLinear:
    """Indicator of (-inf, 0]."""
    return PiecewiseLinear([], [0.0], hi=0.0, anchor=(0.0, 0.0))


def indicator_nonneg() -> PiecewiseLinear:
    """Indicator of [0, +inf)."""
    return PiecewiseLinear([], [0.0], lo=0.0, anchor=(0.0, 0.0))


def indicator_interval(lo: float, hi: float) -> PiecewiseLinear:
    anchor = lo if lo != -INF else (hi if hi != INF else 0.0)
    return PiecewiseLinear([], [0.0] if lo != hi else [], lo=lo, hi=hi,
                           anchor=(anchor, 0.0))


def indicator_point(c: float, value: float = 0.0) -> PiecewiseLinear:
    return PiecewiseLinear([], [], lo=c, hi=c, anchor=(c, value))


class Entropy(_Scalar):
    """c (x log x - x) + t x + o on x >= 0, with 0 log 0 = 0."""

    kind = "entropy"
    lo, hi = 0.0, INF

    def __init__(self, coeff=1.0, tilt=0.0, offset=0.0):
        if coeff <= 0:
            raise ValueError("entropy coefficient must be positive")
        self.coeff = float(coeff)
        self.tilt = float(tilt)
        self.offset = float(offset)

    def __repr__(self):
        return f"Entropy(coeff={self.coeff}, tilt={self.tilt})"

    def value_many(self, X):
        X = np.asarray(X, dtype=float).reshape(-1)
        out = np.full(X.shape, INF)
        ok = ~(X < -FEAS_TOL)  # NaN passes and stays NaN
        xs = X[ok]
        xs = np.where(0.0 > xs, 0.0, xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = np.where(xs > 0, xs * np.log(np.where(xs > 0, xs, 1.0)) - xs, 0.0)
        out[ok] = self.coeff * ent + self.tilt * xs + self.offset
        return out

    def _conjugate(self):
        c = self.coeff
        return Exponential(coeff=c * np.exp(-self.tilt / c), rate=1.0 / c,
                           offset=-self.offset)

    def scaled(self, alpha):
        return Entropy(alpha * self.coeff, alpha * self.tilt, alpha * self.offset)

    def taylor(self, a):
        """(value, slope, curvature) at each argument a of the Taylor
        quadratic taken at max(a, 1e-8): at 0 the curvature c / a is
        infinite."""
        a = np.asarray(a, dtype=float)
        a0, c = np.maximum(a, 1e-8), self.coeff
        d, curv = a - a0, c / a0
        slope = c * np.log(a0) + self.tilt
        value = c * (a0 * np.log(a0) - a0) + self.tilt * a0 + self.offset
        return value + d * (slope + 0.5 * curv * d), slope + curv * d, curv


class Exponential(_Scalar):
    """a exp(r x) + o with a, r > 0."""

    kind = "exponential"
    lo, hi = -INF, INF

    def __init__(self, coeff=1.0, rate=1.0, offset=0.0):
        if coeff <= 0 or rate <= 0:
            raise ValueError("exponential needs positive coefficient and rate")
        self.coeff = float(coeff)
        self.rate = float(rate)
        self.offset = float(offset)

    def __repr__(self):
        return f"Exponential(coeff={self.coeff}, rate={self.rate})"

    def value_many(self, X):
        X = np.asarray(X, dtype=float).reshape(-1)
        with np.errstate(over="ignore"):  # an overflow reads as +inf
            return self.coeff * np.exp(self.rate * X) + self.offset

    def _conjugate(self):
        a, r = self.coeff, self.rate
        return Entropy(coeff=1.0 / r, tilt=-np.log(a * r) / r, offset=-self.offset)

    def scaled(self, alpha):
        return Exponential(alpha * self.coeff, self.rate, alpha * self.offset)

    def taylor(self, a):
        """(value, slope, curvature) at each argument a; an overflow reads
        as +inf."""
        with np.errstate(over="ignore"):
            e = self.coeff * np.exp(self.rate * np.asarray(a, dtype=float))
            return e + self.offset, self.rate * e, self.rate ** 2 * e


# ---------------------------------------------------------------------------
# polyhedra, their indicators and support functions
# ---------------------------------------------------------------------------


class Polyhedron:
    """{z : a_ub z <= b_ub, a_eq z = b_eq}, optionally a cone (rhs zero).

    A cone given by generators (dimension <= 2) is turned into its facet
    form (``from_cone_generators``), so all downstream machinery works with
    inequality rows.
    """

    def __init__(self, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                 cone=False, validate=True):
        def shape(a, b):
            if a is None:
                return None, None
            a = np.asarray(a, dtype=float)
            if a.ndim == 1:
                a = a.reshape(1, -1)
            elif a.ndim != 2:
                raise ValueError("polyhedron rows must form a matrix")
            b = np.asarray(b, dtype=float).ravel()
            if b.size != a.shape[0]:
                raise ValueError("polyhedron row/offset count mismatch")
            return a, b

        self.a_ub, self.b_ub = shape(a_ub, b_ub)
        self.a_eq, self.b_eq = shape(a_eq, b_eq)
        dims = set()
        for a in (self.a_ub, self.a_eq):
            if a is not None:
                dims.add(a.shape[1])
        if len(dims) != 1:
            raise ValueError("polyhedron pieces disagree on the dimension")
        self.dim = dims.pop()
        if self.a_ub is None:
            self.a_ub, self.b_ub = np.zeros((0, self.dim)), np.zeros(0)
        if self.a_eq is None:
            self.a_eq, self.b_eq = np.zeros((0, self.dim)), np.zeros(0)
        self.cone = bool(cone)
        if validate and self.cone:
            if np.max(np.abs(self.b_ub), initial=0.0) > 0 or np.max(np.abs(self.b_eq), initial=0.0) > 0:
                raise ValueError("a cone requires zero offsets")

    def __repr__(self):
        return f"Polyhedron(dim={self.dim}, rows={self.a_ub.shape[0]}, eq={self.a_eq.shape[0]}, cone={self.cone})"

    @staticmethod
    def from_cone_generators(generators) -> "Polyhedron":
        """Facet form of cone(generators); implemented for dimension <= 2."""
        G = np.asarray(generators, dtype=float)
        if G.ndim != 2:
            raise ValueError("generators must be a matrix, one ray per row")
        d = G.shape[1]
        norms = np.linalg.norm(G, axis=1)
        G = G[norms > 1e-14]
        if d == 1:
            has_pos = bool(np.any(G[:, 0] > 0))
            has_neg = bool(np.any(G[:, 0] < 0))
            if has_pos and has_neg:
                a = np.zeros((0, 1))
                return Polyhedron(a_ub=a, b_ub=np.zeros(0), cone=True)
            if has_pos:
                return Polyhedron(a_ub=[[-1.0]], b_ub=[0.0], cone=True)
            if has_neg:
                return Polyhedron(a_ub=[[1.0]], b_ub=[0.0], cone=True)
            return Polyhedron(a_eq=np.eye(1), b_eq=[0.0], cone=True)
        if d != 2:
            raise NotImplementedError(
                "generator-form cones are supported in dimension <= 2; "
                "supply inequality rows for higher dimensions"
            )
        if G.shape[0] == 0:
            return Polyhedron(a_eq=np.eye(2), b_eq=np.zeros(2), cone=True)
        angles = np.sort(np.arctan2(G[:, 1], G[:, 0]))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
        widest = int(np.argmax(gaps))
        if gaps[widest] <= np.pi + 1e-12:
            if gaps[widest] > np.pi - 1e-12:
                # half-plane: boundary direction at the edge of the gap
                theta = angles[(widest + 1) % angles.size]
                ray = np.array([np.cos(theta), np.sin(theta)])
                n = np.array([ray[1], -ray[0]])
                # orient so the generators satisfy n.g <= 0
                if np.max(G @ n) > 1e-12:
                    n = -n
                return Polyhedron(a_ub=[n], b_ub=[0.0], cone=True)
            return Polyhedron(a_ub=np.zeros((0, 2)), b_ub=np.zeros(0), cone=True)
        # pointed sector: facets at the two rays adjacent to the widest gap
        th1 = angles[widest]
        th2 = angles[(widest + 1) % angles.size]
        rows = []
        for theta in (th1, th2):
            ray = np.array([np.cos(theta), np.sin(theta)])
            n = np.array([ray[1], -ray[0]])
            if np.max(G @ n) > 1e-12:
                n = -n
            rows.append(n)
        return Polyhedron(a_ub=np.array(rows), b_ub=np.zeros(2), cone=True)

    def residual(self, z) -> float:
        z = np.asarray(z, dtype=float).ravel()
        res = 0.0
        if self.a_ub.shape[0]:
            res = max(res, float(np.max(self.a_ub @ z - self.b_ub)))
        if self.a_eq.shape[0]:
            res = max(res, float(np.max(np.abs(self.a_eq @ z - self.b_eq))))
        return max(res, 0.0)

    def contains(self, z, tol: float = FEAS_TOL) -> bool:
        return self.residual(z) <= tol

    def feasible_point(self):
        """A point of the set, or None when it is empty.  Like ``is_empty``
        and ``support``, it raises ``simplex.PivotLimitError`` when its LP
        stops at the active-set engine's iteration cap."""
        res = solve_lp(np.zeros(self.dim), self.a_ub, self.b_ub, self.a_eq, self.b_eq)
        return res.x if res.status == "optimal" else None

    def is_empty(self) -> bool:
        """Whether the set is empty; a set with no rows is the whole space,
        and no LP runs."""
        if not (self.a_ub.shape[0] or self.a_eq.shape[0]):
            return False
        return self.feasible_point() is None

    def support(self, y):
        """(value, maximizer, status) for sup{z.y : z in self}."""
        y = np.asarray(y, dtype=float).ravel()
        res = solve_lp(-y, self.a_ub, self.b_ub, self.a_eq, self.b_eq)
        if res.status == "infeasible":
            return -INF, None, "empty"
        if res.status == "unbounded":
            return INF, None, "unbounded"
        return -res.value, res.x, "attained"


class PolyhedralIndicator(ConvexFunction):
    kind = "polyhedral-indicator"

    def __init__(self, polyhedron: Polyhedron):
        self.polyhedron = polyhedron
        self.dim = polyhedron.dim

    def __repr__(self):
        return f"PolyhedralIndicator({self.polyhedron!r})"

    def value_many(self, X):
        # row by row: each inequality as a.x <= b + FEAS_TOL, each equality
        # as |a.x - b| <= FEAS_TOL
        X = np.asarray(X, dtype=float)
        P = self.polyhedron
        ok = np.ones(X.shape[0], dtype=bool)
        if P.a_ub.shape[0]:
            ok &= np.all(X @ P.a_ub.T <= P.b_ub + FEAS_TOL, axis=1)
        if P.a_eq.shape[0]:
            ok &= np.all(np.abs(X @ P.a_eq.T - P.b_eq) <= FEAS_TOL, axis=1)
        return np.where(ok, 0.0, INF)

    def _conjugate(self):
        return SupportFunction(self.polyhedron)

    def scaled(self, alpha):
        return self

    def fix(self, idx, vals):
        idx, vals, keep = _split_fix(idx, vals, self.dim)
        P = self.polyhedron
        return PolyhedralIndicator(Polyhedron(
            a_ub=P.a_ub[:, keep], b_ub=P.b_ub - P.a_ub[:, idx] @ vals,
            a_eq=P.a_eq[:, keep], b_eq=P.b_eq - P.a_eq[:, idx] @ vals,
            validate=False,
        ))

    def qp_form(self):
        P = self.polyhedron
        return QPForm(self.dim, G=P.a_ub, h=P.b_ub, A=P.a_eq, b=P.b_eq)


class SupportFunction(ConvexFunction):
    kind = "support-function"

    def __init__(self, polyhedron: Polyhedron):
        self.polyhedron = polyhedron
        self.dim = polyhedron.dim

    def __repr__(self):
        return f"SupportFunction({self.polyhedron!r})"

    def value(self, x):
        return self.polyhedron.support(x)[0]  # one LP

    def value_many(self, X):
        return np.array([self.value(x) for x in np.asarray(X, dtype=float)])

    def _conjugate(self):
        return PolyhedralIndicator(self.polyhedron)

    def scaled(self, alpha):
        # alpha * sigma_C = sigma_{alpha C}
        P = self.polyhedron
        return SupportFunction(Polyhedron(
            a_ub=P.a_ub, b_ub=alpha * P.b_ub, a_eq=P.a_eq, b_eq=alpha * P.b_eq,
            cone=P.cone, validate=False,
        ))


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


class SeparableSum(ConvexFunction):
    """f(x) = sum_i g_i(x_i-block) over contiguous coordinate blocks."""

    kind = "separable-sum"

    def __init__(self, parts):
        self.parts = list(parts)
        self.dims = [p.dim for p in self.parts]
        self.dim = int(sum(self.dims))
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)]).astype(int)

    def __repr__(self):
        return f"SeparableSum({self.parts!r})"

    def value_many(self, X):
        X = np.asarray(X, dtype=float)
        return _sum_rows([part.value_many(X[:, self.offsets[i]:self.offsets[i + 1]])
                          for i, part in enumerate(self.parts)], X.shape[0])

    def _conjugate(self):
        return SeparableSum([p.conjugate() for p in self.parts])

    def scaled(self, alpha):
        return SeparableSum([p.scaled(alpha) for p in self.parts])

    def fix(self, idx, vals):
        idx, vals, keep = _split_fix(idx, vals, self.dim)
        new_parts, const = [], 0.0
        vmap = dict(zip(idx.tolist(), vals.tolist()))
        for i, part in enumerate(self.parts):
            local = [j - self.offsets[i] for j in idx if self.offsets[i] <= j < self.offsets[i + 1]]
            if not local:
                new_parts.append(part)
                continue
            lvals = [vmap[j + self.offsets[i]] for j in local]
            sub = part.fix(np.array(local, dtype=int), np.array(lvals))
            if sub.dim == 0:
                v = sub.value(np.zeros(0))
                if v == INF:
                    return infeasible(keep.size)
                const += v
            else:
                new_parts.append(sub)
        out = SeparableSum(new_parts) if new_parts else constant(0.0, 0)
        return _plus_const(out, const)

    def qp_form(self):
        return QPForm.add([part.qp_form().embed(np.arange(lo, hi), self.dim) for part, lo, hi
                           in zip(self.parts, self.offsets[:-1], self.offsets[1:])], self.dim)


class AffinePrecomposition(ConvexFunction):
    """f(x) = g(Mx + m)."""

    kind = "affine-precomposition"

    def __init__(self, inner: ConvexFunction, matrix, offset=None):
        self.inner = inner
        self.matrix = np.asarray(matrix, dtype=float).reshape(inner.dim, -1)
        self.offset = (np.zeros(inner.dim) if offset is None
                       else np.asarray(offset, dtype=float).ravel())
        if self.offset.size != inner.dim:
            raise ValueError("offset dimension mismatch")
        self.dim = self.matrix.shape[1]

    def __repr__(self):
        return f"AffinePrecomposition({self.inner!r}, matrix shape {self.matrix.shape})"

    def value_many(self, X):
        # one matrix-vector product per row
        X = np.asarray(X, dtype=float)
        return self.inner.value_many((self.matrix @ X[:, :, None])[:, :, 0] + self.offset)

    def _conjugate(self):
        M, m = self.matrix, self.offset
        rank = np.linalg.matrix_rank(M, tol=1e-10)
        if M.shape[0] == M.shape[1] and rank == M.shape[0]:
            Minv = np.linalg.inv(M)
            inner_conj = AffinePrecomposition(self.inner.conjugate(), Minv.T)
            tilt = Affine(-Minv @ m, 0.0)
            return FiniteSum([inner_conj, tilt])
        if rank == M.shape[0]:
            # x -> Mx is onto, so the dual variable is pinned: M' lam = y has
            # at most one solution and y must lie in the row space of M.
            L = np.linalg.pinv(M.T)  # lam = L y
            R = np.eye(self.dim) - M.T @ L
            pieces: list[ConvexFunction] = [AffinePrecomposition(self.inner.conjugate(), L)]
            if np.max(np.abs(m)) > 0:
                pieces.append(Affine(-L.T @ m, 0.0))
            if np.max(np.abs(R)) > 1e-12:
                pieces.append(PolyhedralIndicator(
                    Polyhedron(a_eq=R, b_eq=np.zeros(self.dim), validate=False)))
            return FiniteSum(pieces) if len(pieces) > 1 else pieces[0]
        raise NoClosedFormError(
            "conjugate of an affine precomposition needs a full-row-rank matrix"
        )

    def scaled(self, alpha):
        return AffinePrecomposition(self.inner.scaled(alpha), self.matrix, self.offset)

    def fix(self, idx, vals):
        idx, vals, keep = _split_fix(idx, vals, self.dim)
        return AffinePrecomposition(
            self.inner, self.matrix[:, keep], self.offset + self.matrix[:, idx] @ vals
        )

    def qp_form(self):
        return self.inner.qp_form().compose(self.matrix, self.offset)


class FiniteSum(ConvexFunction):
    """Sum of catalog functions on the same space.

    Conjugation succeeds when, after merging quadratic and affine summands,
    at most one non-affine summand remains (the affine part shifts the
    conjugate's argument); otherwise callers must use the grid oracle.
    """

    kind = "finite-sum"

    def __init__(self, summands):
        self.summands = list(summands)
        if not self.summands:
            raise ValueError("empty sum")
        dims = {s.dim for s in self.summands}
        if len(dims) != 1:
            raise ValueError("summands disagree on the dimension")
        self.dim = dims.pop()

    def __repr__(self):
        return f"FiniteSum({self.summands!r})"

    def value_many(self, X):
        X = np.asarray(X, dtype=float)
        return _sum_rows([s.value_many(X) for s in self.summands], X.shape[0])

    def _merge(self):
        """Fold affine summands and collapse quadratics; return (core, a, b)."""
        a = np.zeros(self.dim)
        b = 0.0
        quad_w = np.zeros(self.dim)
        quad_seen = False
        others = []
        for s in self.summands:
            if isinstance(s, Affine):
                a = a + s.a
                b += s.b
            elif isinstance(s, Quadratic):
                quad_w = quad_w + s.weights
                a = a + s.tilt
                b += s.offset
                quad_seen = True
            else:
                others.append(s)
        return others, quad_w if quad_seen else None, a, b

    def _conjugate(self):
        others, quad_w, a, b = self._merge()
        if quad_w is not None:
            others = [Quadratic(quad_w)] + others
        if len(others) > 1:
            raise NoClosedFormError("no closed form for a general finite sum")
        if not others:
            return Affine(a, b).conjugate()
        core = others[0]
        shifted = core.conjugate()
        if np.max(np.abs(a)) > 0:
            shifted = AffinePrecomposition(shifted, np.eye(self.dim), -a)
        return _plus_const(shifted, -b)

    def scaled(self, alpha):
        return FiniteSum([s.scaled(alpha) for s in self.summands])

    def fix(self, idx, vals):
        return FiniteSum([s.fix(idx, vals) for s in self.summands])

    def qp_form(self):
        return QPForm.add([s.qp_form() for s in self.summands], self.dim)


def _sum_rows(values, n: int) -> np.ndarray:
    """The n-row arrays ``values`` summed in order, +inf on each row where
    one of them is: a part off its domain makes the sum +inf, whatever
    another part reads there.  Only a NaN sum can hide a +inf part."""
    total = np.zeros(n)
    for v in values:
        total = total + v
    if np.isnan(total).any():
        total[np.any(np.array(values) == INF, axis=0)] = INF
    return total


def _plus_const(fn: ConvexFunction, c: float) -> ConvexFunction:
    if c == 0.0:
        return fn
    if isinstance(fn, Affine):
        return Affine(fn.a, fn.b + c)
    if isinstance(fn, Quadratic):
        return Quadratic(fn.weights, fn.tilt, fn.offset + c)
    return FiniteSum([fn, Affine(np.zeros(fn.dim), c)])


# ---------------------------------------------------------------------------
# Fenchel residuals, support queries, grid oracle
# ---------------------------------------------------------------------------


def fenchel_residual(g: ConvexFunction, x, v, conjugate: ConvexFunction | None = None) -> float:
    """g(x) + g*(v) - x.v, nonnegative; zero certifies v in dg(x).

    Any infinite term makes the residual +inf, so the undefined difference
    inf - inf never arises.
    """
    x = np.asarray(x, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    star = conjugate if conjugate is not None else g.conjugate()
    gx = g.value(x)
    gv = star.value(v)
    if gx == INF or gv == INF:
        return INF
    return gx + gv - float(x @ v)


def support_function(C: Polyhedron, y) -> float:
    """sup{z.y : z in C} by linear programming; +inf when unbounded."""
    val, _, status = C.support(y)
    if status == "empty":
        raise ValueError("support function of an infeasible polyhedron")
    return val


def argmax_support(C: Polyhedron, y):
    """A maximizer of z.y over C, or the string 'unbounded'."""
    val, point, status = C.support(y)
    if status == "empty":
        raise ValueError("support function of an infeasible polyhedron")
    if status == "unbounded":
        return "unbounded"
    return point


class SupportAttainReport:
    def __init__(self, ok, residual, feasibility):
        self.ok = bool(ok)
        self.residual = float(residual)
        self.feasibility = float(feasibility)

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"SupportAttainReport(ok={self.ok}, residual={self.residual:.3g})"


def support_attains(C: Polyhedron, y, z, tol: float = 1e-6) -> SupportAttainReport:
    """Does the point z attain sup{z.y : z in C} within tol?"""
    z = np.asarray(z, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    feas = C.residual(z)
    val, _, status = C.support(y)
    if status == "empty":
        raise ValueError("support function of an infeasible polyhedron")
    if status == "unbounded":
        return SupportAttainReport(False, INF, feas)
    gap = val - float(z @ y)
    return SupportAttainReport(feas <= tol and abs(gap) <= tol, max(gap, 0.0), feas)


class GridConjugate:
    """Brute-force conjugate oracle on a bounded grid (test use only).

    value(v) maximises x.v - g(x) over the grid; ``boundary_active`` flags
    suprema attained on the hull of the grid, where the true conjugate is
    typically infinite.
    """

    def __init__(self, g: ConvexFunction, lo=-10.0, hi=10.0, step=0.01):
        if g.dim > 2:
            raise ValueError("grid oracle supports dimensions 1 and 2")
        axis = np.arange(lo, hi + step / 2, step)
        if g.dim == 1:
            X = axis.reshape(-1, 1)
        else:
            A, B = np.meshgrid(axis, axis, indexing="ij")
            X = np.column_stack([A.ravel(), B.ravel()])
        vals = g.value_many(X)
        finite = np.isfinite(vals)
        self.points = X[finite]
        self.values = vals[finite]
        self.lo, self.hi, self.step = lo, hi, step

    def value(self, v) -> float:
        v = np.asarray(v, dtype=float).ravel()
        if self.points.shape[0] == 0:
            return -INF
        scores = self.points @ v - self.values
        return float(np.max(scores))

    def argmax(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float).ravel()
        scores = self.points @ v - self.values
        return self.points[int(np.argmax(scores))]

    def boundary_active(self, v) -> bool:
        x = self.argmax(v)
        edge = self.step * 1.5
        return bool(np.any(x <= self.lo + edge) or np.any(x >= self.hi - edge))


def grid_conjugate_oracle(g: ConvexFunction, lo=-10.0, hi=10.0, step=0.01) -> GridConjugate:
    return GridConjugate(g, lo=lo, hi=hi, step=step)


# ---------------------------------------------------------------------------
# structural queries used by the integrand machinery
# ---------------------------------------------------------------------------


def coordinate_support(fn: ConvexFunction) -> np.ndarray:
    """Boolean mask of the coordinates the function structurally depends on."""
    if isinstance(fn, Affine):
        return fn.a != 0
    if isinstance(fn, Quadratic):
        return (fn.weights != 0) | (fn.tilt != 0)
    if isinstance(fn, PolyhedralIndicator):
        P = fn.polyhedron
        mask = np.zeros(fn.dim, dtype=bool)
        if P.a_ub.shape[0]:
            mask |= np.any(P.a_ub != 0, axis=0)
        if P.a_eq.shape[0]:
            mask |= np.any(P.a_eq != 0, axis=0)
        return mask
    if isinstance(fn, SeparableSum):
        return np.concatenate([coordinate_support(p) for p in fn.parts]) \
            if fn.parts else np.zeros(0, dtype=bool)
    if isinstance(fn, AffinePrecomposition):
        return np.any(fn.matrix != 0, axis=0)
    if isinstance(fn, FiniteSum):
        mask = np.zeros(fn.dim, dtype=bool)
        for s in fn.summands:
            mask |= coordinate_support(s)
        return mask
    return np.ones(fn.dim, dtype=bool)


def domain_polyhedron(fn: ConvexFunction) -> Polyhedron | None:
    """dom(fn), read off its QP form: the form's inequality and equality
    rows, and each atom's [lo, hi] on the atom's row.  None when fn has no
    form (a support function)."""
    try:
        form = fn.qp_form()
    except NoClosedFormError:
        return None
    G, h = [form.G], [form.h]
    for row, off, g in form.epi:
        if g.hi != INF:
            G.append(row[None]); h.append([g.hi - off])
        if g.lo != -INF:
            G.append(-row[None]); h.append([off - g.lo])
    return Polyhedron(a_ub=np.vstack(G), b_ub=np.concatenate(h),
                      a_eq=form.A, b_eq=form.b, validate=False)
