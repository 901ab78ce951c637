"""Finite-dimensional solves over scenario-tree variables.

A problem couples a tree with a parametric integrand.  Adapted decisions
are parameterised by one vector per information block, so adaptedness is
structural and every solve below is an unconstrained-variable convex
program:

  * primal:       minimize  E f(x, u)      over adapted x
  * dual value:   phi*(y) = -inf_x E l(x, y)   (same machinery)
  * upper bound:  inf over v in the annihilator of E f*(v, y), read off
                  the dual value's inner solve
  * dual solve:   maximize <u, y> - phi*(y)

Each of the three objectives is a probability-weighted sum of terms, each
a function of a few coordinates.  A compiled objective holds, per term,
the index array of those coordinates: evaluation gathers through it and
the QP lowering scatters the term's local form through it.  The lowering
goes one group of terms at a time: terms g(M_k z + m_k) with one shared
g (every hedging leaf's disutility, or every node's stage cost where the
nodes share one stage object), terms g + c_k of one shared g (every
node's Hamiltonian of a shared stage), or affine terms of one width,
have their forms composed or stacked in one pass and scattered in one;
the shared g's form and the stacked maps are kept for reading the QP's
stationarity.  A
term is one leaf's function of the leaf's coordinates, or, for dynamic
(Bolza and Kabanov) problems, a node term: the stage-t cost, Hamiltonian
or stage conjugate is a function on a stage-t information node, compiled
once for the leaves of a block whose stage-t slices of u (or y) agree bit
for bit, at their summed probability.  With adapted u and y each such
group is one tree node, so the primal QP holds one epigraph atom per
node; the Lagrangian's coupling E sum_t <y_t - y_{t+1}, x_t> is one
affine term.  The stage objects themselves are shared across nodes (one
per distinct stage cost of a problem file), so K_t* is computed once per
stage; the slice a -> K_t*(a, y_t) of each node is built once per dual
solve, kept on the ``DualObjective`` for the lower variant and the
annihilator bound, and the bound's E f*(v, y) evaluates each node's slice
once over the node's leaves.  On static problems the bound prices each
group of leaves that share one g in one stacked pass.

Every compiled objective, the primal, the Lagrangian and the annihilator
QP alike, is one template (``_Template``) read at one list of per-group
offsets: the template holds the terms at their own offsets, their lowering
groups, each group's form and stacked base offsets, from the first
lowering on P, G and A, read-only, and the spectral factor of P.  The
primal is compiled once per structure.  Its terms g(M_k z + m_k + N_k u_l)
depend on u only through their offsets, so a ``Problem`` keeps one
template (``_PrimalTemplate``, the terms at u = 0 plus each group's stacked
N), and a solve at u reads it at m = base + N u: one stacked pass per
group and the parts of the groups' forms that move with m (q, c, h and
b).  The cache key is what the terms depend on, never u's values: one key
on a static problem, and the ``_stage_nodes`` partition of u on a dynamic
one.  The problem holds one template and builds another when the key
changes, so a sweep over u lowers the primal, and factors a rowless
primal's P, once.

The objective alone picks the engine: quadratic-plus-polyhedral instances
route to the active-set QP path and solve to machine precision; everything
else falls back to a projected subgradient method with diminishing steps
c/sqrt(k).  The dual solve recovers its maximizer from primal optimality
and prices it by one inner solve; its status says why a dual is missing or
its gap open.  Every primal term is g(M_k z + m_k + N_k u_l), where u_l is
the parameter vector of the term's leaf (or of each leaf of its node).  At
a solution of the lowered program, the stationarity of the QP selects a
subgradient s_k of g at the term's argument, one group of terms at a time
(``CompiledObjective._group_subgradients``), and the optimal dual is y_l =
sum_k N_k' s_k over the terms of leaf l, with no projection: the parameter
block of the subgradient (v, y) in the subdifferential of f at (x, u) that
the optimum picks.  The same reader gives the annihilator bound's v as
M_k' s_k on the Lagrangian.  Off the QP path s_k is g's subgradient rule at the
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .convex import (
    Affine,
    AffinePrecomposition,
    ConvexFunction,
    FiniteSum,
    NoClosedFormError,
    Polyhedron,
    PolyhedralIndicator,
    QPForm,
    SeparableSum,
    domain_polyhedron,
)
from .integrand import (
    MINUS_INF,
    BolzaIntegrand,
    ConstrainedIntegrand,
    KabanovStage,
    ParametricIntegrand,
)
from .qp import SpectralFactor, project_onto_polyhedron, solve_qp
from .simplex import PivotLimitError
from .tree import (
    ScenarioTree,
    StochasticProcess,
    in_orthocomplement,
    pairing,
)

__all__ = [
    "Problem",
    "SolverConfig",
    "SolveResult",
    "DualObjective",
    "OrthoBound",
    "GapReport",
    "AdaptedLayout",
    "solve_primal",
    "dual_objective",
    "solve_dual",
    "dual_via_orthocomplement",
    "duality_gap",
    "primal_objective",
]

INF = float("inf")
# the projected subgradient method treats a point this close to its rows
# as feasible
_PROJECTION_TOL = 1e-8


@dataclass(frozen=True)
class Problem:
    """A scenario tree plus the integrand defining E f(x, u)."""

    tree: ScenarioTree
    integrand: ParametricIntegrand

    def __post_init__(self):
        if self.integrand.tree is not self.tree:
            raise ValueError("integrand was built on a different tree")

    @property
    def n_dims(self):
        return self.integrand.n_dims

    @property
    def m_dims(self):
        return self.integrand.m_dims

    @property
    def tag(self):
        return self.integrand.tag

    @cached_property
    def layout(self) -> AdaptedLayout:
        """Block coordinates of the adapted decisions, built once."""
        return AdaptedLayout(self.tree, self.n_dims)

    @cached_property
    def _primal_templates(self) -> dict:
        """The compiled primal under its key: at most one entry, built at the
        first solve (``_primal_template``)."""
        return {}


@dataclass
class SolverConfig:
    max_iter: int = 100_000
    tol: float = 1e-7

    @property
    def gap_tol(self) -> float:
        """Relative tolerance of the duality gap and of the certificates:
        ``tol`` when looser than its default, else 1e-6."""
        return self.tol if self.tol > 1e-7 else 1e-6


@dataclass
class SolveResult:
    optimizer: StochasticProcess | None
    value: float
    iterations: int
    residual: float
    # optimal | unbounded | infeasible | max-iter, and for a dual also
    # not-run | not-recovered | no-closed-form | gap-open (``solve_dual``)
    status: str
    method: str = ""
    # primal: the compiled objective and its solve, from which the dual is
    # recovered
    compiled: CompiledObjective | None = None
    solution: _MinResult | None = None
    # dual: phi*(y) at the returned y, as computed during the solve
    objective: DualObjective | None = None

    def __repr__(self):
        return (f"SolveResult(status={self.status!r}, value={self.value:.10g}, "
                f"iterations={self.iterations}, residual={self.residual:.2e})")


@dataclass
class DualObjective:
    """phi*(y), its lower-Lagrangian variant, and the inner solve behind them."""

    value: float
    lower_value: float | None
    minimizer: StochasticProcess | None
    inner_status: str
    lagrangian: CompiledObjective | None = None
    inner: _MinResult | None = None
    # dynamic problems: per Hamiltonian term of ``lagrangian``, the stage
    # conjugate a -> K_t*(a, y_t) of its node, built once for the lower
    # variant and reused by the annihilator bound; None when not built
    stage_conjugates: list | None = None


@dataclass
class OrthoBound:
    value: float
    v: StochasticProcess | None
    status: str


@dataclass
class GapReport:
    gap: float
    primal: SolveResult
    dual: SolveResult


# ---------------------------------------------------------------------------
# adapted-variable layout
# ---------------------------------------------------------------------------


def _stage_major_columns(index, dims) -> tuple[np.ndarray, int]:
    """Coordinates of every leaf in a stage-major vector.

    Stage t holds dims[t] entries for each value of the leaf-indexed integer
    array index[t], in the order of those values.  Returns the
    (n_leaves, sum(dims)) array of each leaf's coordinates and the length of
    the vector.
    """
    cols, at = [], 0
    for idx, d in zip(index, dims):
        cols.append(at + idx[:, None] * d + np.arange(d))
        at += (int(idx.max()) + 1) * d
    return np.hstack(cols), at


class AdaptedLayout:
    """One free vector per (stage, block); leaf ``l`` reads the coordinates
    ``columns[l]`` of it (distinct within the row)."""

    def __init__(self, tree: ScenarioTree, dims):
        self.tree = tree
        self.dims = tuple(int(d) for d in dims)
        self.columns, self.width = _stage_major_columns(tree.leaf_block, self.dims)

    def to_process(self, w) -> StochasticProcess:
        rows = np.asarray(w, dtype=float).ravel()[self.columns]
        return StochasticProcess.from_leaf_rows(self.tree, self.dims, rows)


# ---------------------------------------------------------------------------
# compiled objectives
# ---------------------------------------------------------------------------


def _stack_rows(blocks, width: int):
    """Stack (cols, rows, rhs) blocks into one (matrix, rhs) pair of width
    ``width``, scattering each block's columns to ``cols``."""
    mat = np.zeros((sum(rows.shape[0] for _, rows, _ in blocks), width))
    at = 0
    for cols, rows, _ in blocks:
        mat[at:at + rows.shape[0], cols] = rows
        at += rows.shape[0]
    rhs = np.concatenate([r for _, _, r in blocks]) if blocks else np.zeros(0)
    return mat, rhs


@dataclass
class _Term:
    weight: float
    fn: ConvexFunction
    cols: np.ndarray  # the coordinates the term reads, distinct
    node: object  # a leaf index, (stage, leaves) for a node term, or None
    # primal terms: N, the map from a leaf's parameter vector into the
    # argument of the term's g (see CompiledObjective._group_subgradients)
    param: np.ndarray | None = None


@dataclass
class _Atom:
    """One epigraph atom of each term of a group: its rows in ``qp_data``."""

    row: np.ndarray  # (K, d) the atom's argument row.z, per term
    aux: np.ndarray  # (K,) its epigraph variable, numbered from 0
    rows: np.ndarray  # (K, k) its inequality rows
    coefs: np.ndarray  # (K, k) each row's coefficient on row.z
    intercepts: list  # one (K,) array per supporting line; its rows come first
    pwl: object  # the atom's piecewise-linear function, for its domain rows

    @property
    def n_lines(self) -> int:
        return len(self.intercepts)

    def rhs(self, off) -> np.ndarray:
        """(K, k) right-hand sides of the rows at the atom's offsets ``off``:
        each weighted line's, then the domain's hi and lo rows."""
        rhs = [-(intercept + self.coefs[:, j] * off) for j, intercept in enumerate(self.intercepts)]
        if self.pwl.hi != INF:
            rhs.append(self.pwl.hi - off)
        if self.pwl.lo != -INF:
            rhs.append(off - self.pwl.lo)
        return np.column_stack(rhs)


@dataclass
class _Group:
    """Terms lowered in one stacked pass, and where their rows go."""

    idx: np.ndarray  # (K,) the terms, in term order
    cols: np.ndarray  # (K, d)
    weights: np.ndarray  # (K,)
    inner: QPForm  # the form of the terms' g: shared, or stacked when M is None
    M: np.ndarray | None  # (K, r, d) the maps of g(M_k z + m_k); None for M = I, m = 0
    rows: np.ndarray | None = None  # (K, g) inequality rows
    eq_rows: np.ndarray | None = None  # (K, a) equality rows
    atoms: list[_Atom] | None = None


class _Lowering(NamedTuple):
    """What of a lowered program the terms' offsets m_k do not move: the
    groups and where their rows go, the numbers of inequality rows,
    equality rows and epigraph variables, P, G and A (read-only), and the
    runs of consecutive terms of one group, as (group, slice of it)."""

    groups: list
    n_ineq: int
    n_eq: int
    n_aux: int
    P: np.ndarray
    G: np.ndarray
    A: np.ndarray
    runs: list


def _shifted_core(fn: ConvexFunction):
    """(g, c) for fn = g + c, a FiniteSum of g and a constant affine
    summand, as ``partial_infimum`` shifts a shared g (every node's
    Hamiltonian g_x + c_node of one stage); (fn, 0.0) for any other fn."""
    if (isinstance(fn, FiniteSum) and len(fn.summands) == 2
            and isinstance(fn.summands[1], Affine) and not fn.summands[1].a.any()):
        return fn.summands[0], fn.summands[1].b
    return fn, 0.0


def _group_key(fn: ConvexFunction):
    """Terms with equal keys lower together: affine precompositions of one
    inner function through maps of one shape, affine functions of one
    width, or one function shifted by each term's own constant
    (``_shifted_core``), such as the Hamiltonians of the nodes that share
    a stage."""
    if isinstance(fn, AffinePrecomposition):
        return ("inner", id(fn.inner), fn.matrix.shape)
    if isinstance(fn, Affine):
        return ("affine", fn.dim)
    return ("shifted", id(_shifted_core(fn)[0]))


def _inner_forms(fns):
    """The form of one group's functions g_k(M_k z + m_k) as (inner, M): a
    shared inner g is lowered once, with the stacked maps M (the offsets m
    are the template's ``base``); a shared shifted g is lowered once and
    stacked with each function's constant, with M None.  None when there
    is no form."""
    fn = fns[0]
    if isinstance(fn, AffinePrecomposition):
        inner = fn.inner.qp_form()
        return None if inner is None else (inner, np.array([f.matrix for f in fns]))
    if isinstance(fn, Affine):
        return QPForm(fn.dim, q=np.array([f.a for f in fns]), c=np.array([f.b for f in fns])), None
    form = _shifted_core(fn)[0].qp_form()
    return None if form is None else (form.as_stack([_shifted_core(f)[1] for f in fns]), None)


class _OffsetParts(NamedTuple):
    """What of a group's K local forms moves with the offsets m_k
    (``QPForm.offset_parts``): q, c, h, b and each atom's offset."""

    q: np.ndarray
    c: np.ndarray
    h: np.ndarray
    b: np.ndarray
    offs: list


def _lower(n: int, n_terms: int, groups: list[_Group], forms) -> _Lowering:
    """Number the rows of ``groups``, whose forms are ``forms``, and lower
    their P, G and A.  Rows keep the term order: each term's inequality
    rows, then, after all of those, one block per epigraph atom, atoms in
    term order.  P adds up in term order, so the program does not depend
    on how the terms group: one pass per run of consecutive terms of a
    group.  The forms' shapes, P, G, A and atom rows do not depend on the
    offsets, so any offsets give the same lowering."""
    counts = np.zeros((3, n_terms), dtype=int)  # G rows, A rows, atoms
    for g, form in zip(groups, forms):
        counts[:, g.idx] = [[form.G.shape[-2]], [form.A.shape[-2]], [len(form.epi)]]
    first = np.cumsum(counts, axis=1) - counts  # each term's first row / atom
    n_ineq, n_eq, n_aux = (int(k) for k in counts.sum(axis=1))
    atom_rows = np.zeros(n_aux, dtype=int)
    for g, form in zip(groups, forms):
        for j, (_, _, pwl) in enumerate(form.epi):
            atom_rows[first[2, g.idx] + j] = (pwl.slopes.size + (pwl.hi != INF)
                                              + (pwl.lo != -INF))
    atom_first = n_ineq + np.cumsum(atom_rows) - atom_rows
    total, n_rows = n + n_aux, n_ineq + int(atom_rows.sum())
    P, G, A = np.zeros((total, total)), np.zeros((n_rows, total)), np.zeros((n_eq, total))
    # each term's group, and its place in the group
    owner, place = np.zeros((2, n_terms), dtype=int)
    for k, (g, form) in enumerate(zip(groups, forms)):
        C = g.cols
        owner[g.idx], place[g.idx] = k, np.arange(len(g.idx))
        g.rows = first[0, g.idx, None] + np.arange(form.G.shape[-2])
        g.eq_rows = first[1, g.idx, None] + np.arange(form.A.shape[-2])
        G[g.rows[:, :, None], C[:, None, :]] = form.G
        A[g.eq_rows[:, :, None], C[:, None, :]] = form.A
        g.atoms = []
        for j, (row, _, pwl) in enumerate(form.epi):
            # the lines of each term's weighted pwl, then its domain rows
            lines = pwl.supporting_lines(g.weights)
            ones = np.ones(len(g.idx))
            coefs = [s for s, _ in lines] + [ones] * (pwl.hi != INF) + [-ones] * (pwl.lo != -INF)
            aux = first[2, g.idx] + j
            at = _Atom(row, aux, atom_first[aux, None] + np.arange(len(coefs)),
                       np.column_stack(coefs), [b for _, b in lines], pwl)
            G[at.rows[:, :, None], C[:, None, :]] = at.coefs[:, :, None] * at.row[:, None, :]
            G[at.rows[:, :at.n_lines], n + at.aux[:, None]] = -1.0
            g.atoms.append(at)
    cuts = (np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist()
    runs = [(int(owner[i]), slice(place[i], place[i] + j - i))
            for i, j in zip([0, *cuts], [*cuts, n_terms])] if n_terms else []
    for k, run in runs:
        g, S = groups[k], forms[k]
        if S.P.any():
            C, W = g.cols[run], g.weights[run]
            np.add.at(P, (C[:, :, None], C[:, None, :]), W[:, None, None] * S.P[run])
    for a in (P, G, A):
        a.flags.writeable = False
    return _Lowering(groups, n_rows, n_eq, n_aux, P, G, A, runs)


class _Template:
    """What a compiled objective shares whatever its terms' offsets.

    The terms at their own offsets (``terms``), their lowering groups
    (``grouping``: equal ``_group_key``, groups in order of first term),
    per group the stacked offsets m_k of its terms g(M_k z + m_k)
    (``base``; None for a group of other terms), the groups' forms
    (``groups``, None off the QP path), from the first lowering on P, G and
    A, read-only (``lowering``), and the spectral factor of P
    (``spectral``).  A ``CompiledObjective`` reads it at one list of
    per-group offsets."""

    def __init__(self, n: int, terms: list[_Term]):
        self.n, self.terms = n, terms
        keyed = {}
        for i, t in enumerate(terms):
            keyed.setdefault(_group_key(t.fn), []).append(i)
        self.grouping = [np.array(idx) for idx in keyed.values()]
        self.base = [np.array([terms[i].fn.offset for i in idx])
                     if isinstance(terms[idx[0]].fn, AffinePrecomposition) else None
                     for idx in self.grouping]
        self.lowering = None

    @cached_property
    def groups(self) -> list[_Group] | None:
        """The ``_Group`` of each group of terms; None when some group has
        no form."""
        groups = []
        for idx in self.grouping:
            group = [self.terms[i] for i in idx]
            found = _inner_forms([t.fn for t in group])
            if found is None:
                return None
            groups.append(_Group(idx, np.array([t.cols for t in group]),
                                 np.array([t.weight for t in group]), *found))
        return groups

    @cached_property
    def spectral(self) -> SpectralFactor:
        return SpectralFactor(self.lowering.P)

    def lowered(self, offsets):
        """(lowering, parts): the lowering, and the ``_OffsetParts`` of each
        group's forms at ``offsets``; None off the QP path.  The first call
        lowers the groups' forms composed at its offsets; the forms' shapes,
        P, G, A and atom rows do not depend on the offsets, so a later call
        (on a kept template, whose groups are all precompositions) computes
        only the parts that move with them."""
        if self.groups is None:
            return None
        if self.lowering is not None:
            return self.lowering, [_OffsetParts(*g.inner.offset_parts(g.M, m))
                                   for g, m in zip(self.groups, offsets)]
        forms = [g.inner if g.M is None else g.inner.compose(g.M, m)
                 for g, m in zip(self.groups, offsets)]
        self.lowering = _lower(self.n, len(self.terms), self.groups, forms)
        return self.lowering, [_OffsetParts(S.q, S.c, S.h, S.b, [off for _, off, _ in S.epi])
                               for S in forms]


class CompiledObjective:
    """sum_k weight_k * fn_k(z[cols_k]) over z in R^n.

    Term k reads its coordinates of z through the index array cols_k: one
    leaf's, or one tree node's.  The QP lowering handles the terms in
    groups that share one local form up to the affine map (see
    ``_group_key``); a group's forms are computed once, stacked, and kept.

    The objective is the ``_Template`` of (n, terms) read at ``offsets``,
    one (K, r) array per group, the terms' own (the template's ``base``) by
    default.  ``template`` is that template when one is kept
    (``_PrimalTemplate``, whose groups are all precompositions); it is
    built here otherwise.
    """

    def __init__(self, n: int, terms: list[_Term], offsets=None,
                 template: _Template | None = None):
        self.n = n
        self.template = _Template(n, terms) if template is None else template
        self.offsets = self.template.base if offsets is None else offsets

    @cached_property
    def terms(self) -> list[_Term]:
        """The template's terms at this objective's offsets, built only when
        read (off the QP path, or by a caller that walks them)."""
        tpl = self.template
        if self.offsets is tpl.base:
            return tpl.terms
        terms = list(tpl.terms)
        for idx, m in zip(tpl.grouping, self.offsets):
            for i, off in zip(idx.tolist(), m):
                t = terms[i]
                terms[i] = _Term(t.weight, AffinePrecomposition(t.fn.inner, t.fn.matrix, off),
                                 t.cols, t.node, t.param)
        return terms

    def value(self, z) -> float:
        z = np.asarray(z, dtype=float).ravel()
        total = 0.0
        for t in self.terms:
            v = t.fn.value(z[t.cols])
            if v == INF:
                return INF
            total += t.weight * v
        return total

    def subgradient(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float).ravel()
        g = np.zeros(self.n)
        for t in self.terms:
            g[t.cols] += t.weight * t.fn.subgradient(z[t.cols])
        return g

    @cached_property
    def _lowered(self):
        """(lowering, parts): the template's ``_Lowering``, and per group
        the ``_OffsetParts`` of its K local forms at this objective's
        offsets; None off the polyhedral path."""
        return self.template.lowered(self.offsets)

    @property
    def _lowering(self) -> _Lowering | None:
        return None if self._lowered is None else self._lowered[0]

    def qp_data(self):
        """Lowered quadratic program, or None off the polyhedral path.

        Each group of terms scatters its stacked local forms into the rows
        and columns of its leaves or nodes in one pass.  Kinked
        piecewise-linear summands become epigraph variables: one auxiliary
        coordinate per atom, after the n main ones, bounded below by the
        supporting lines of the (probability-weighted) piece structure.
        P, G and A are the template's read-only arrays; q, c, h and b are
        this objective's.
        """
        if self._lowered is None:
            return None
        low, parts = self._lowered
        n = self.n
        q, c = np.zeros(n + low.n_aux), 0.0
        q[n:] = 1.0  # epigraph variables at weight one
        h, b = np.zeros(low.n_ineq), np.zeros(low.n_eq)
        for g, S in zip(low.groups, parts):
            h[g.rows] = S.h
            b[g.eq_rows] = S.b
            for at, off in zip(g.atoms, S.offs):
                h[at.rows] = at.rhs(off)
        # q and c add up in term order, as P does
        for k, run in low.runs:
            g, S = low.groups[k], parts[k]
            W = g.weights[run]
            np.add.at(q, g.cols[run], W[:, None] * S.q[run])
            for v in (W * S.c[run]).tolist():
                c += v
        return low.P, q, c, low.G, h, low.A, b, n

    def _group_subgradients(self, res: _MinResult) -> list[np.ndarray]:
        """Per group, the (K, r) subgradients s_k of g at r_k = M_k x_k +
        m_k that the lowered program's solution ``res`` selects, one per
        term g(M_k z + m_k) (a term that is not a precomposition is its own
        g, M_k = I): P r_k + q plus, over the weight, the multipliers of the
        term's rows on g's rows and each epigraph atom's row of g times the
        sum of the atom's row multipliers weighted by their coefficients.
        The shares weight_k M_k' s_k scatter-add to zero."""
        x, ineq, eq = res.x, res.multipliers, res.eq_multipliers
        out = []
        for g, m in zip(self._lowering.groups, self.offsets):
            S, W, r = g.inner, g.weights, x[g.cols]
            if g.M is not None:
                r = (g.M @ r[..., None])[..., 0] + m
            rows = ((S.G.swapaxes(-1, -2) @ ineq[g.rows][..., None])[..., 0]
                    + (S.A.swapaxes(-1, -2) @ eq[g.eq_rows][..., None])[..., 0])
            for at, (row, _, _) in zip(g.atoms, S.epi):
                mu, slope = ineq[at.rows], np.zeros(len(W))
                for k in range(mu.shape[1]):
                    slope = slope + mu[:, k] * at.coefs[:, k]
                rows = rows + row * slope[:, None]
            out.append((S.P @ r[..., None])[..., 0] + S.q + rows / W[:, None])
        return out

    def constraint_rows(self):
        """Domain rows of every term (used by the projected subgradient path)."""
        G_blocks, A_blocks = [], []
        for t in self.terms:
            dom = domain_polyhedron(t.fn)
            if dom is None:
                continue
            if dom.a_ub.shape[0]:
                G_blocks.append((t.cols, dom.a_ub, dom.b_ub))
            if dom.a_eq.shape[0]:
                A_blocks.append((t.cols, dom.a_eq, dom.b_eq))
        G, h = _stack_rows(G_blocks, self.n)
        A, b = _stack_rows(A_blocks, self.n)
        return G, h, A, b


@dataclass
class _MinResult:
    status: str
    x: np.ndarray | None
    value: float
    iterations: int
    residual: float
    method: str
    multipliers: np.ndarray | None = None
    eq_multipliers: np.ndarray | None = None


def _minimize(obj: CompiledObjective, cfg: SolverConfig) -> _MinResult:
    if obj.n == 0:
        return _MinResult("optimal", np.zeros(0), obj.value(np.zeros(0)), 0, 0.0, "direct")
    data = obj.qp_data()
    if data is not None:
        P, q, c, G, h, A, b, n_main = data
        rowless = not (G.shape[0] or A.shape[0])
        res = solve_qp(P, q, c, G, h, A, b, spectral=obj.template.spectral if rowless else None)
        status = {"maxiter": "max-iter"}.get(res.status, res.status)
        resid = _violation(res.x, G, h, A, b) if res.x is not None else 0.0
        x = res.x[:n_main] if res.x is not None else None
        return _MinResult(status, x, res.value, res.iterations, resid,
                          "polyhedral", res.ineq_multipliers, res.eq_multipliers)
    return _subgradient_minimize(obj, cfg)


def _violation(w, G, h, A, b) -> float:
    """Largest violation of the rows G w <= h and A w = b."""
    return max(float(np.max(G @ w - h, initial=0.0)),
               float(np.max(np.abs(A @ w - b), initial=0.0)))


def _projector(G, h, A, b, tol):
    """Euclidean projection onto {G w <= h, A w = b}, the identity on points
    within ``tol`` of it.  Raises ValueError, here or on use, when the set
    is empty.  Without inequality rows it is w - A^+(A w - b), with the
    pseudo-inverse computed once; otherwise each projection is a QP."""
    if G.shape[0]:
        def solve(w):
            return project_onto_polyhedron(w, G, h, A, b)
    else:
        pinv = np.linalg.pinv(A)
        # the rows are consistent when their least-squares point meets them
        # (the test solve_qp makes)
        if np.max(np.abs(A @ (pinv @ b) - b), initial=0.0) > 1e-8 * max(
                1.0, np.max(np.abs(b), initial=0.0)):
            raise ValueError("inconsistent equality rows")

        def solve(w):
            return w - pinv @ (A @ w - b)
    return lambda w: w if _violation(w, G, h, A, b) <= tol else solve(w)


def _subgradient_minimize(obj: CompiledObjective, cfg: SolverConfig) -> _MinResult:
    G, h, A, b = obj.constraint_rows()
    try:
        project = _projector(G, h, A, b, _PROJECTION_TOL)
        w = project(np.zeros(obj.n))
    except ValueError:
        return _MinResult("infeasible", None, INF, 0, INF, "subgradient")
    f = obj.value(w)
    if f == INF:  # boundary roundoff; nudge with a tiny interior step
        return _MinResult("infeasible", None, INF, 0, INF, "subgradient")
    g = obj.subgradient(w)
    c0 = (1.0 + abs(f)) / (1.0 + float(np.linalg.norm(g)))
    best_w, best_f = w.copy(), f
    window_best = f
    check_every = 200
    for k in range(1, cfg.max_iter + 1):
        w = project(w - (c0 / np.sqrt(k)) * g)
        f = obj.value(w)
        if f < best_f:
            best_f, best_w = f, w.copy()
        if best_f < -1e12:
            return _MinResult("unbounded", best_w, -INF, k, 0.0, "subgradient")
        if k % check_every == 0:
            if window_best - best_f <= cfg.tol * max(1.0, abs(best_f)):
                return _MinResult("optimal", best_w, best_f, k,
                                  _violation(best_w, G, h, A, b), "subgradient")
            window_best = best_f
        g = obj.subgradient(w)
    return _MinResult("max-iter", best_w, best_f, cfg.max_iter, 0.0, "subgradient")


# ---------------------------------------------------------------------------
# compilation helpers
# ---------------------------------------------------------------------------


def _leaf_vectors(p: Problem, proc: StochasticProcess, what: str):
    """Per-leaf vectors of a parameter-space process (u or y), one row each."""
    if proc.dims != p.m_dims:
        raise ValueError(f"{what} dims {proc.dims} do not match {p.m_dims}")
    return proc.leaf_rows()


def _stage_nodes(p: Problem, rows):
    """Per stage t, the leaves of each stage-t block grouped by the exact
    bytes of their stage-t slice of ``rows`` (leaf vectors of u or y), as
    (block, leaves, summed probability) triples.  For an adapted process
    every group is one tree node; otherwise a block splits into the groups
    of leaves that agree bit for bit, down to single leaves."""
    tree = p.tree
    out = []
    for t, sl in enumerate(p.integrand.u_slices):
        nodes = []
        for b, block in enumerate(tree.blocks(t)):
            groups = {}
            for leaf in block:
                groups.setdefault(rows[leaf, sl].tobytes(), []).append(leaf)
            for leaves in groups.values():
                leaves = np.array(leaves)
                nodes.append((b, leaves, float(tree.probabilities[leaves].sum())))
        out.append(nodes)
    return out


def _next_stage(p: Problem, rows):
    """Leaf vectors of y_{t+1} for leaf vectors of y, with y_{T+1} = 0."""
    d = p.integrand.d
    out = np.zeros_like(rows)
    out[:, :-d] = rows[:, d:]
    return out


class _ParamGroup(NamedTuple):
    """How the parameter enters one lowering group of the primal: per term
    g(M_k z + m_k + N_k u_l), its N_k, the leaf whose u_l it reads, and
    (leaves, owner), each leaf that the term's share N_k' s_k of y goes to
    and the term's place in the group."""

    N: np.ndarray  # (K, r, m)
    reads: np.ndarray  # (K,)
    leaves: np.ndarray
    owner: np.ndarray


class _PrimalTemplate(_Template):
    """The primal of one problem with u left symbolic.

    Every primal term is g(M_k z + m_k + N_k u_l), with u_l the parameter
    vector of its leaf (of its node's first leaf on a dynamic problem), so
    only the offsets move with u.  The template holds the terms at u = 0
    and how u enters each group (``params``); a solve at u reads it at
    base + N u (``objective``), so P, G and A are lowered, and P factored,
    once for every u."""

    def __init__(self, p: Problem, nodes):
        terms, reads, shares = (_static_primal_terms(p) if nodes is None
                                else _bolza_primal_terms(p, nodes))
        super().__init__(p.layout.width, terms)
        self.params = []
        for idx in self.grouping:
            leaves = [shares[i] for i in idx]
            self.params.append(_ParamGroup(
                np.array([terms[i].param for i in idx]), reads[idx], np.concatenate(leaves),
                np.repeat(np.arange(len(idx)), [len(s) for s in leaves])))

    def objective(self, uvecs) -> CompiledObjective:
        """The primal at the leaf vectors ``uvecs`` of u: m_k + N_k u_l,
        one stacked pass per group."""
        return CompiledObjective(self.n, self.terms, [
            m + (g.N @ uvecs[g.reads][..., None])[..., 0] for m, g in zip(self.base, self.params)],
            self)


def _primal_template(p: Problem, uvecs) -> _PrimalTemplate:
    """The problem's compiled primal for the leaf vectors ``uvecs`` of u.

    The terms depend on u only through their offsets, except that a
    dynamic problem has one term per group of leaves whose stage-t slices
    of u agree (``_stage_nodes``).  That partition is the cache key, one
    key for a static problem; the problem keeps one template and builds
    another when the key changes."""
    nodes = _stage_nodes(p, uvecs) if isinstance(p.integrand, BolzaIntegrand) else None
    key = None if nodes is None else tuple(
        np.concatenate([leaves for _, leaves, _ in stage]).tobytes()
        + np.array([len(leaves) for _, leaves, _ in stage]).tobytes() for stage in nodes)
    cache = p._primal_templates
    if key not in cache:
        cache.clear()
        cache[key] = _PrimalTemplate(p, nodes)
    return cache[key]


def primal_objective(p: Problem, u: StochasticProcess):
    """Compiled objective of the primal solve (exposed for oracles/tests),
    from the problem's template (``_primal_template``).

    Each leaf's term is its joint function with u frozen, as g(M x + m + N
    u): a joint g(Mx + Nu + m) keeps its g, and any other joint is g
    itself, at (x, u)."""
    uvecs = _leaf_vectors(p, u, "parameter")
    return p.layout, _primal_template(p, uvecs).objective(uvecs)


def _static_primal_terms(p: Problem):
    """(terms, reads, shares): one term g(M x + m) per leaf at u = 0, with
    its N; each reads u at its leaf, and its share of y goes to that leaf."""
    f, layout = p.integrand, p.layout
    n, m = f.n_total, f.m_total
    lift = np.vstack([np.eye(n), np.zeros((m, n))])  # x -> (x, 0)
    free = np.vstack([np.zeros((n, m)), np.eye(m)])  # u -> (0, u)
    terms = []
    for leaf, (weight, cols) in enumerate(zip(p.tree.probabilities.tolist(), layout.columns)):
        joint = f.joint_function(leaf)
        if isinstance(joint, AffinePrecomposition):
            N = joint.matrix[:, n:]
            fn = AffinePrecomposition(joint.inner, joint.matrix[:, :n], joint.offset)
        else:
            fn, N = AffinePrecomposition(joint, lift), free
        terms.append(_Term(weight, fn, cols, leaf, N))
    reads = np.arange(len(terms))
    return terms, reads, reads[:, None]


def _bolza_primal_terms(p: Problem, nodes):
    """One term K_t(x_t, x_t - x_{t-1} + u_t) per stage-t node of ``nodes``
    (``_stage_nodes``), over the node's x_{t-1} and x_t columns, at u = 0,
    as (terms, reads, shares): each reads u at its node's first leaf, and
    its share of y goes to each of the node's leaves."""
    f, columns = p.integrand, p.layout.columns
    eye, zero = np.eye(f.d), np.zeros((f.d, f.d))
    first = np.vstack([eye, eye])                   # x_0 -> (x_0, x_0)
    later = np.block([[zero, eye], [-eye, eye]])    # (x_{t-1}, x_t) -> (x_t, dx_t)
    terms, reads, shares = [], [], []
    for t, stage in enumerate(nodes):
        xs = f.x_slices[t] if t == 0 else slice(f.x_slices[t - 1].start, f.x_slices[t].stop)
        N = np.zeros((2 * f.d, f.m_total))  # u_t -> (0, u_t)
        N[f.d:, f.u_slices[t]] = eye
        for b, leaves, weight in stage:
            fn = AffinePrecomposition(f.stages[t][b].fn, later if t else first)
            terms.append(_Term(weight, fn, columns[leaves[0], xs],
                               (t, tuple(leaves.tolist())), N))
            reads.append(leaves[0])
            shares.append(leaves)
    return terms, np.array(reads, dtype=int), shares


def solve_primal(p: Problem, u: StochasticProcess,
                 cfg: SolverConfig | None = None) -> SolveResult:
    """Minimize E f(x, u) over adapted x."""
    cfg = cfg or SolverConfig()
    layout, obj = primal_objective(p, u)
    res = _minimize(obj, cfg)
    opt = layout.to_process(res.x) if res.x is not None and res.status in ("optimal", "max-iter") else None
    return SolveResult(opt, res.value, res.iterations, res.residual, res.status,
                       res.method, compiled=obj, solution=res)


def _lagrangian_objective(p: Problem, y: StochasticProcess):
    layout = p.layout
    yvecs = _leaf_vectors(p, y, "dual")
    if isinstance(p.integrand, BolzaIntegrand):
        terms = _bolza_lagrangian_terms(p, yvecs)
        return layout, None if terms is None else CompiledObjective(layout.width, terms)
    fns = p.integrand.lagrangian_functions_of_x(yvecs)
    if any(fn is MINUS_INF for fn in fns):
        return layout, None
    return layout, CompiledObjective(layout.width, [
        _Term(weight, fn, cols, leaf) for leaf, (weight, fn, cols) in enumerate(
            zip(p.tree.probabilities.tolist(), fns, layout.columns))])


def _bolza_lagrangian_terms(p: Problem, yvecs):
    """One Hamiltonian term H_t(x_t, y_t) per stage-t node, then the
    coupling E sum_t <y_t - y_{t+1}, x_t> as one affine term over the
    layout, last; None when some H_t(., y_t) is -inf."""
    f, layout = p.integrand, p.layout
    terms = []
    for t, nodes in enumerate(_stage_nodes(p, yvecs)):
        for b, leaves, weight in nodes:
            h = f.stages[t][b].hamiltonian_function_of_x(yvecs[leaves[0], f.u_slices[t]])
            if h is MINUS_INF:
                return None
            terms.append(_Term(weight, h, layout.columns[leaves[0], f.x_slices[t]],
                               (t, tuple(leaves.tolist()))))
    coupling = np.zeros(layout.width)
    np.add.at(coupling, layout.columns,
              p.tree.probabilities[:, None] * (yvecs - _next_stage(p, yvecs)))
    terms.append(_Term(1.0, Affine(coupling, 0.0), np.arange(layout.width), None))
    return terms


def dual_objective(p: Problem, y: StochasticProcess,
                   cfg: SolverConfig | None = None) -> DualObjective:
    """phi*(y) = -inf over adapted x of E l(x, y), plus the lower variant."""
    cfg = cfg or SolverConfig()
    layout, obj = _lagrangian_objective(p, y)
    if obj is None:
        # l = -inf on the feasible slice for some leaf: the infimum diverges
        return DualObjective(INF, INF, None, "unbounded")
    res = _minimize(obj, cfg)
    # unbounded: phi* = +inf; infeasible: l(., y) identically +inf, so the
    # model is primal-infeasible for all u; or the engine found no point
    if res.x is None or res.status in ("unbounded", "infeasible"):
        return DualObjective(-res.value, None, None, res.status, obj, res)
    minimizer = layout.to_process(res.x)
    if not isinstance(p.integrand, BolzaIntegrand):
        # off the dynamic path lower-l is l itself
        value = obj.value(res.x)
        return DualObjective(-res.value, None if value == INF else -value,
                             minimizer, res.status, obj, res)
    yvecs, conjugates = _leaf_vectors(p, y, "dual"), None
    # the stage conjugates give the lsc hulls; a Kabanov stage's Hamiltonian
    # is closed already, so a currency market leaves them to the bound
    if not all(isinstance(st, KabanovStage) for blocks in p.integrand.stages for st in blocks):
        try:
            conjugates = _stage_conjugates(p, yvecs, [t.node for t in obj.terms[:-1]])
        except (NoClosedFormError, PivotLimitError):
            pass
    return DualObjective(-res.value, _lower_dual_value(p, yvecs, obj, res.x, conjugates),
                         minimizer, res.status, obj, res, conjugates)


def _stage_conjugates(p: Problem, yvecs, nodes):
    """(t, leaves, a -> K_t*(a, y_t)) for each stage-t node (t, leaves) of
    ``nodes``: the stage conjugate is built once per node.  Raises
    NoClosedFormError when some has no closed form."""
    f = p.integrand
    out = []
    for t, leaves in nodes:
        leaves = np.asarray(leaves)
        stage = f.stage_cost(leaves[0], t)
        out.append((t, leaves, stage.conjugate_function_of_a(yvecs[leaves[0], f.u_slices[t]])))
    return out


def _lower_dual_value(p, yvecs, obj, x, conjugates):
    """-E lower-l(x, y) at the inner minimizer x of a dynamic problem; it
    coincides with the Lagrangian value whenever l(., y) is closed proper.
    None when some value is +inf or has no closed form, or when an LP that
    a hull needs (the emptiness of a slice's domain) does not terminate.

    Each node's Hamiltonian term of the compiled Lagrangian ``obj`` is
    replaced by its lsc hull in x, the conjugate of the node's stage
    conjugate: the one in ``conjugates`` (``_stage_conjugates`` of the
    terms' nodes), or, when that is None, one the stage builds.  The
    coupling term stays.
    """
    f = p.integrand
    *hamiltonians, coupling = obj.terms
    total = 0.0
    minus = plus = False
    try:
        for i, term in enumerate(hamiltonians):
            t, (leaf, *_) = term.node
            hb = f.stage_cost(leaf, t).hbar_function_of_x(
                yvecs[leaf, f.u_slices[t]], None if conjugates is None else conjugates[i][2])
            if hb is MINUS_INF:
                minus = True
                continue
            v = hb.value(x[term.cols])
            if v == INF:
                plus = True
                continue
            total += term.weight * v
    except (NoClosedFormError, PivotLimitError):
        return None
    # a hull that is -inf empties the supremum of its leaves: -inf dominates
    if minus:
        return INF
    if plus:
        return None
    return -(total + coupling.fn.value(x[coupling.cols]))


def dual_via_orthocomplement(p: Problem, y: StochasticProcess,
                             cfg: SolverConfig | None = None,
                             objective: DualObjective | None = None) -> OrthoBound:
    """Minimize E f*(v, y) over v with zero conditional means (the chain's
    upper bound).

    ``objective`` is ``dual_objective(p, y, cfg)`` when the caller already
    has it; it is solved here otherwise.  Its inner solve gives v in the
    x-subdifferential of l(x*, y) with zero conditional means, so E f*(v, y)
    = phi*(y) = -E l(x*, y).  Weak duality brackets the infimum between
    the last two for any mean-zero v and adapted x*, so the tests below
    certify the bound without trusting the solve.  Without such a v the
    infimum is solved under mean-zero equality terms.

    E f*(v, y) at the read-off v goes one group at a time, and the
    per-leaf terms f*(., y_l) are built only for the solve.  On static
    problems ``conjugate_values`` prices each group of leaves whose joints
    share one inner g in one stacked pass, and any other leaf by its own
    conjugate.  On dynamic problems the stage conjugates come from
    ``objective`` when it built them, and each node's slice is evaluated
    once over the node's leaves (``_bolza_conjugate_sum``).

    The status is ``max-iter``, with no value and no v, when an LP it
    needs (the support function in a stage conjugate or a Hamiltonian)
    does not terminate.
    """
    cfg = cfg or SolverConfig()
    try:
        return _orthocomplement_bound(p, y, cfg, objective)
    except PivotLimitError:
        return OrthoBound(np.nan, None, "max-iter")


def _orthocomplement_bound(p: Problem, y: StochasticProcess, cfg: SolverConfig,
                           objective: DualObjective | None) -> OrthoBound:
    tree = p.tree
    yvecs = _leaf_vectors(p, y, "dual")
    if objective is None:
        objective = dual_objective(p, y, cfg)
    dynamic = isinstance(p.integrand, BolzaIntegrand)
    if dynamic:
        conjugates = objective.stage_conjugates
        if conjugates is None:
            conjugates = _stage_conjugates(p, yvecs, [
                (t, leaves) for t, nodes in enumerate(_stage_nodes(p, yvecs))
                for _, leaves, _ in nodes])
    v = _stationary_v(p, yvecs, objective)
    if v is not None and in_orthocomplement(v):
        # -E l(x*, y) <= phi*(y) <= inf <= E f*(v, y) for adapted x* and
        # mean-zero v; the reported phi*(y) must close the sandwich too
        value = (_bolza_conjugate_sum(p, yvecs, conjugates, v.leaf_rows()) if dynamic
                 else _leaf_sum(p, p.integrand.conjugate_values(v.leaf_rows(), yvecs)))
        lower = -objective.lagrangian.value(objective.inner.x)
        tol = cfg.tol * max(1.0, abs(value))
        if np.isfinite(value) and all(abs(value - w) <= tol for w in (lower, objective.value)):
            return OrthoBound(float(value), v, "optimal")
    # coordinates of each leaf in the flat order of StochasticProcess.to_vector
    rows, n = _stage_major_columns([np.arange(tree.n_leaves)] * tree.stage_count,
                                   p.n_dims)
    terms = _conjugate_terms(p, rows, _bolza_conjugates_of_v(p, yvecs, conjugates) if dynamic
                             else [p.integrand.conjugate_function_of_v(leaf, yvecs[leaf])
                                   for leaf in range(tree.n_leaves)])
    res = _minimize(CompiledObjective(n, terms + _mean_zero_terms(p, rows)), cfg)
    if res.x is None or res.status == "unbounded":  # no point, or a ray
        return OrthoBound(res.value, None, res.status)
    return OrthoBound(res.value, StochasticProcess.from_vector(tree, p.n_dims, res.x),
                      res.status)


def _conjugate_terms(p: Problem, rows, conjugates):
    """One term p_l f*(v_l, y_l) per leaf l over the leaf's coordinates
    ``rows[l]`` of v."""
    return [_Term(float(p.tree.probabilities[leaf]), fn, rows[leaf], leaf)
            for leaf, fn in enumerate(conjugates)]


def _stationary_v(p: Problem, yvecs, dob: DualObjective):
    """v read off the inner solve behind ``dob``, or None without a finite
    optimum with multipliers.  A Lagrangian term g(M x + m) contributes
    M' s, s the subgradient of g its solution selects: off the dynamic path
    that is v_l for the term's leaf l.  On it, it is an x_t-gradient of
    H_t(., y_t), and v_t adds y_t - y_{t+1} (the shift that
    ``_bolza_conjugates_of_v`` undoes); the coupling term has no node."""
    res, dynamic = dob.inner, isinstance(p.integrand, BolzaIntegrand)
    if res is None or res.status != "optimal" or res.multipliers is None:
        return None
    V = yvecs - _next_stage(p, yvecs) if dynamic else np.zeros((p.tree.n_leaves, sum(p.n_dims)))
    obj = dob.lagrangian
    for idx, group in zip(obj.template.grouping, obj._group_subgradients(res)):
        for i, s in zip(idx.tolist(), group):
            t = obj.terms[i]
            if t.node is None:
                continue
            stage, leaves = t.node if dynamic else (None, t.node)
            if isinstance(t.fn, AffinePrecomposition):
                s = t.fn.matrix.T @ s
            V[leaves, p.integrand.x_slices[stage] if dynamic else slice(None)] += s
    return StochasticProcess.from_leaf_rows(p.tree, p.n_dims, V)


def _mean_zero_terms(p: Problem, rows):
    """One indicator per (stage, block): the block's stage-t values of v,
    leaf l's at ``rows[l]``, have mean zero, rows (p_l / P(block)) x I_d."""
    tree, terms, at = p.tree, [], 0
    for t, d in enumerate(p.n_dims):
        for block in tree.blocks(t) if d else ():
            probs = tree.probabilities[list(block)]
            mean = Polyhedron(a_eq=np.kron(probs / probs.sum(), np.eye(d)), b_eq=np.zeros(d))
            terms.append(_Term(1.0, PolyhedralIndicator(mean),
                               rows[list(block), at:at + d].ravel(), (t, tuple(block))))
        at += d
    return terms


def _bolza_conjugates_of_v(p: Problem, yvecs, conjugates):
    """Per leaf, v -> f*(v, y) = sum_t K_t*(v_t + y_{t+1} - y_t, y_t), from
    the stage conjugates of the nodes (``_stage_conjugates``), each shared
    by its node's leaves; the shift stays per leaf, as v is not adapted."""
    f = p.integrand
    stage_fns = [[None] * f.tree.stage_count for _ in range(f.tree.n_leaves)]
    for t, leaves, fn_a in conjugates:
        for leaf in leaves.tolist():
            stage_fns[leaf][t] = fn_a
    eye, shifts = np.eye(f.d), _next_stage(p, yvecs) - yvecs
    return [SeparableSum([AffinePrecomposition(fn_a, eye, shifts[leaf, f.u_slices[t]])
                          for t, fn_a in enumerate(fns)])
            for leaf, fns in enumerate(stage_fns)]


def _bolza_conjugate_sum(p: Problem, yvecs, conjugates, V) -> float:
    """E f*(v, y) = E sum_t K_t*(v_t + y_{t+1} - y_t, y_t) at the leaf rows
    V of v, as the terms of ``_bolza_conjugates_of_v`` sum it: each node's
    stage conjugate is evaluated once over the node's leaves, then each
    leaf's values are summed stage by stage and the leaves in order; +inf
    when some value is."""
    f = p.integrand
    shifted = V + (_next_stage(p, yvecs) - yvecs)
    vals = np.empty((f.tree.n_leaves, f.tree.stage_count))
    for t, leaves, fn_a in conjugates:
        vals[leaves, t] = fn_a.value_many(shifted[leaves, f.x_slices[t]])
    per_leaf = np.zeros(f.tree.n_leaves)
    for t in range(f.tree.stage_count):
        per_leaf = per_leaf + vals[:, t]
    return _leaf_sum(p, per_leaf)


def _leaf_sum(p: Problem, vals) -> float:
    """sum_l p_l vals_l over the leaves in order, as a compiled objective
    sums its terms; +inf when some value is."""
    if np.any(vals == INF):
        return INF
    total = 0.0
    for weight, value in zip(p.tree.probabilities.tolist(), np.asarray(vals).tolist()):
        total += weight * value
    return total


# ---------------------------------------------------------------------------
# dual solve
# ---------------------------------------------------------------------------


def solve_dual(p: Problem, u: StochasticProcess,
               cfg: SolverConfig | None = None,
               primal: SolveResult | None = None) -> SolveResult:
    """Maximize <u, y> - phi*(y).

    y is read off the primal's solution and priced by one
    ``dual_objective``.  The status is

      * ``infeasible`` (value -inf) when the primal is unbounded: weak
        duality leaves no finite dual value;
      * ``not-run`` when the primal is infeasible or ended ``max-iter``;
      * ``not-recovered`` when no y is read off the primal, or
        phi*(y) = +inf;
      * ``no-closed-form`` when a conjugate the dual needs has none;
      * ``max-iter`` when the inner solve pricing y ended ``max-iter``, or
        an LP that its Lagrangian needs did not terminate;
      * ``gap-open`` when |primal - dual| exceeds
        ``cfg.gap_tol * max(1, |primal|)``; y and its objective are kept;
      * ``optimal`` otherwise.

    ``primal`` is the result of ``solve_primal(p, u, cfg)`` when the caller
    already has it; it is solved here otherwise.
    """
    cfg = cfg or SolverConfig()
    if primal is None:
        primal = solve_primal(p, u, cfg)
    if primal.status == "unbounded":
        return SolveResult(None, -INF, 0, INF, "infeasible")
    if primal.status != "optimal":
        return SolveResult(None, INF, 0, INF, "not-run")
    try:
        y = _recover_dual_candidate(p, primal)
        dob = None if y is None else dual_objective(p, y, cfg)
    except NoClosedFormError:
        return SolveResult(None, np.nan, 0, INF, "no-closed-form")
    except PivotLimitError:
        return SolveResult(None, np.nan, 0, INF, "max-iter", "recovered")
    if dob is None or dob.value == INF:
        return SolveResult(None, np.nan, 0, INF, "not-recovered")
    if dob.inner_status == "max-iter":
        return SolveResult(None, np.nan, dob.inner.iterations, INF, "max-iter", "recovered")
    value = pairing(u, y) - dob.value
    gap = abs(primal.value - value)
    status = "optimal" if gap <= cfg.gap_tol * max(1.0, abs(primal.value)) else "gap-open"
    return SolveResult(y, value, dob.inner.iterations, gap, status, "recovered",
                       objective=dob)


def _recover_dual_candidate(p, primal):
    """y_l = sum_k N_k' s_k over the primal terms g(M_k x + m_k + N_k u_l)
    of leaf l, s_k the subgradient of g at the term's argument that the
    primal QP's solution selects; a node term's share goes to each of its
    leaves.  The shares are read one lowering group at a time: one stacked
    N_k' s_k product and one scatter per group.  y is not projected: on a
    dynamic problem it is adapted when u is.  An objective off the QP path
    takes g's subgradient rule at the argument instead (the closed form on
    a stage, none for a constrained model).  None when no rule applies."""
    obj, res, f = primal.compiled, primal.solution, p.integrand
    if obj is None or res is None or res.x is None:
        return None
    try:
        if res.multipliers is not None:
            subgradients = obj._group_subgradients(res)
        elif isinstance(f, ConstrainedIntegrand):
            return None
        else:
            subgradients = []
            for idx in obj.template.grouping:
                s = [_subgradient_rule(p, obj.terms[i], res.x[obj.terms[i].cols]) for i in idx]
                if any(s_k is None for s_k in s):
                    return None
                subgradients.append(np.array(s))
        rows = np.zeros((p.tree.n_leaves, sum(p.m_dims)))
        for g, s in zip(obj.template.params, subgradients):
            shares = (g.N.swapaxes(-1, -2) @ s[..., None])[..., 0]
            np.add.at(rows, g.leaves, shares[g.owner])
    except (NoClosedFormError, ValueError):
        return None
    return StochasticProcess.from_leaf_rows(p.tree, p.m_dims, rows)


def _subgradient_rule(p, term, x):
    """A subgradient of a primal term's g at its argument r off the QP path:
    on a stage cost, ``_stage_dual_gradient``'s velocity block (the state
    block, which N does not read, is left 0); None where there is none."""
    fn, f = term.fn, p.integrand
    r = fn.matrix @ x + fn.offset
    if isinstance(f, BolzaIntegrand):
        t, leaves = term.node
        w = _stage_dual_gradient(f.stage_cost(leaves[0], t), r[:f.d], r[f.d:])
        return None if w is None else np.concatenate([np.zeros(f.d), w])
    return None if fn.inner.value(r) == INF else fn.inner.subgradient(r)


def _stage_dual_gradient(stage, x_t, w_t):
    """Velocity-block gradient of the stage cost, when it pins the dual."""
    if isinstance(stage, KabanovStage):
        _, k = stage._split_state(np.ravel(x_t))
        try:
            yz = stage.V.subgradient(-k)
        except NoClosedFormError:
            return None
        return np.concatenate([yz, np.zeros(stage.currency_dim)])
    try:
        full = np.concatenate([np.ravel(x_t), np.ravel(w_t)])
        if stage.fn.value(full) == INF:
            return None
        return stage.fn.subgradient(full)[stage.d:]
    except (NoClosedFormError, ValueError):
        return None


def duality_gap(p: Problem, u: StochasticProcess,
                cfg: SolverConfig | None = None,
                primal: SolveResult | None = None) -> GapReport:
    """Primal optimal value minus dual optimal value (with both statuses).

    ``primal`` is the result of ``solve_primal(p, u, cfg)`` when the caller
    already has it; it is solved here otherwise.
    """
    cfg = cfg or SolverConfig()
    if primal is None:
        primal = solve_primal(p, u, cfg)
    dual = solve_dual(p, u, cfg, primal)
    if np.isfinite(primal.value) and np.isfinite(dual.value):
        gap = primal.value - dual.value
    else:
        gap = INF
    return GapReport(gap, primal, dual)
