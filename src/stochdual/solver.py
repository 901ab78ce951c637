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

Each objective is a probability-weighted sum of terms, each a function of
a few coordinates, read through the term's index array.  A term is one
leaf's function or, on dynamic (Bolza and Kabanov) problems, a node term:
the stage-t cost, Hamiltonian or stage conjugate on a stage-t information
node, compiled once for the leaves of a block whose stage-t slices of u
(or y) agree bit for bit, at their summed probability; the Lagrangian's
coupling E sum_t <y_t - y_{t+1}, x_t> is one affine term.  The stage
objects are shared across nodes, so K_t* is computed once per stage; the
Hamiltonians of the stage-t nodes that share a stage object are built in
one stacked call per dual solve, and the annihilator bound reads each
shared K_t* once over the stacked (a, y_t) rows of its leaves.  Every
catalog Lagrangian is closed, so the lower variant of phi*(y) is the
Lagrangian's own value at the inner minimizer, on every family.

The QP lowering goes one group of terms at a time: terms g(M_k z + m_k) of
one shared g, terms g + c_k of one shared g (a stage's Hamiltonians), or
affine terms of one width have their forms composed or stacked in one pass
and scattered in one; a compiled objective's value reads each group's
shared g in one ``value_many`` pass.  Every compiled objective is one
template (``_Template``: the terms, their groups and forms, and from the
first lowering on P, G and A, read-only) read at per-group offsets.  A
``Problem`` keeps its primal with u left symbolic (``_PrimalTemplate``):
its terms g(M_k z + m_k + N_k u_l) move with u only through their offsets,
so a solve at u reads the template at m = base + N u.  The cache key is
what the terms depend on, never u's values (on a dynamic problem the
``_stage_nodes`` partition of u), so a sweep over u lowers the primal, and
factors a rowless primal's P, once.  The Lagrangian of a static problem
whose every leaf lies in a group of ``GenericIntegrand.leaf_groups`` is
kept the same way (``_LagrangianTemplate``); any other is built at each y,
leaf by leaf.

The objective alone picks the engine.  Its lowering is solved once by the
active-set QP, to machine precision, unless it holds a smooth atom
(exponential, entropy); then damped Newton steps each solve that lowering
with every smooth atom's Taylor reading at the current point added
(``_newton_minimize``).  At a solution, the stationarity of the QP selects
a subgradient s_k of g at each term's argument, one group at a time
(``CompiledObjective._group_subgradients``), a smooth atom's slope being
that of Newton's last model.  One reader takes y and v off a solution as
sum_k T_k' s_k (``_read_off``): y with T = N on the primal, with no
projection (the parameter block of the subgradient (v, y) in the
subdifferential of f at (x, u) that the optimum picks), priced by one inner
solve whose status says why a dual is missing or its gap open; the
annihilator bound's v with T = M on the Lagrangian.
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
    PiecewiseLinear,
    QPForm,
)
from .integrand import (
    MINUS_INF,
    BolzaIntegrand,
    GenericIntegrand,
    ParametricIntegrand,
)
from .qp import SpectralFactor, solve_qp
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
# ``_newton_minimize``'s step cap; the smooth models tested take 6 to 14
_NEWTON_STEPS = 50


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

    @cached_property
    def layout(self) -> AdaptedLayout:
        """Block coordinates of the adapted decisions, built once."""
        return AdaptedLayout(self.tree, self.n_dims)

    @cached_property
    def _primal_templates(self) -> dict:
        """The compiled primal under its key: at most one entry, built at the
        first solve (``_primal_template``)."""
        return {}

    @cached_property
    def _lagrangian_template(self) -> _LagrangianTemplate | None:
        """The compiled Lagrangian with y left symbolic, built at the first
        dual solve, when every leaf lies in a group of
        ``GenericIntegrand.leaf_groups``; None on any other problem, whose
        Lagrangian is built at each y, leaf by leaf."""
        f = self.integrand
        if isinstance(f, GenericIntegrand) and not f.leaf_groups[1]:
            return _LagrangianTemplate(self)
        return None


@dataclass
class SolverConfig:
    tol: float = 1e-7

    @property
    def gap_tol(self) -> float:
        """Relative tolerance of the duality gap and of the certificates:
        ``tol``, but never below 1e-6."""
        return max(self.tol, 1e-6)


@dataclass
class SolveResult:
    optimizer: StochasticProcess | None
    value: float
    iterations: int
    residual: float
    # optimal | unbounded | infeasible | max-iter | no-closed-form, and for
    # a dual also not-run | not-recovered | gap-open (``solve_dual``)
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


@dataclass
class OrthoBound:
    value: float
    v: StochasticProcess | None
    # optimal | gap-open (v read off but not certified) | infeasible (value
    # +inf) | the inner solve's max-iter or infeasible | no-closed-form (a
    # conjugate the bound needs has none) (``dual_via_orthocomplement``)
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


@dataclass
class _Term:
    weight: float
    fn: ConvexFunction
    cols: np.ndarray  # the coordinates the term reads, distinct
    to: object  # the leaf or leaves whose rows receive its share (``_read_off``)
    at: int = 0  # the share's first column in the row: a Hamiltonian's x_t
    # primal terms: N, the map from a leaf's parameter vector into the
    # argument of the term's g (see CompiledObjective._group_subgradients)
    param: np.ndarray | None = None


@dataclass
class _Atom:
    """One atom g(row.z + off) of each term of a group: its rows in
    ``qp_data``.  A kinked atom has an epigraph variable and the rows of
    its supporting lines; a smooth one only its domain rows."""

    row: np.ndarray  # (K, d) the atom's argument row.z, per term
    aux: np.ndarray | None  # (K,) its epigraph variable, numbered from 0; None if smooth
    rows: np.ndarray  # (K, k) its inequality rows
    coefs: np.ndarray  # (K, k) each row's coefficient on row.z
    intercepts: np.ndarray  # (K, lines) each supporting line's; its rows come first
    fn: ConvexFunction  # the atom's g, for its domain rows and its Taylor reading

    @property
    def n_lines(self) -> int:
        return self.intercepts.shape[1]

    def args(self, z, off) -> np.ndarray:
        """(K,) the atom's arguments row.z_k + off_k, z_k the terms'
        coordinates of z."""
        return (self.row[:, None, :] @ z[:, :, None])[:, 0, 0] + off

    def rhs(self, off) -> np.ndarray:
        """(K, k) right-hand sides of the rows at the atom's offsets ``off``:
        each weighted line's, then the domain's hi and lo rows."""
        rhs = -(self.intercepts + self.coefs[:, :self.n_lines] * off[:, None])
        domain = []
        if self.fn.hi != INF:
            domain.append(self.fn.hi - off)
        if self.fn.lo != -INF:
            domain.append(off - self.fn.lo)
        return np.concatenate([rhs, np.stack(domain, axis=1)], axis=1) if domain else rhs


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

    def parts(self, m) -> _OffsetParts:
        """What of the K local forms moves with the offsets ``m``: through
        M on a group of precompositions (``QPForm.offset_parts``); on any
        other group, the form's own parts, with the slopes and constants
        m = (q, c) of an affine group (read at y on a kept one)."""
        S = self.inner
        if self.M is not None:
            return _OffsetParts(*S.offset_parts(self.M, m))
        q, c = m if isinstance(m, tuple) else (S.q, S.c)
        return _OffsetParts(q, c, S.h, S.b, [off for _, off, _ in S.epi])


class _Lowering(NamedTuple):
    """What of a lowered program the terms' offsets m_k do not move: the
    groups and where their rows go, the numbers of inequality rows,
    equality rows and epigraph variables, P, G and A (read-only), the
    runs of consecutive terms of one group, as (group, slice of it), and
    whether some atom is smooth (the program is then Newton's)."""

    groups: list
    n_ineq: int
    n_eq: int
    n_aux: int
    P: np.ndarray
    G: np.ndarray
    A: np.ndarray
    runs: list
    smooth: bool


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


def _inner_forms(fns, M, m):
    """The form of one group's functions g_k(M_k z + m_k) as (inner, M),
    given the template's stacked maps M and own offsets m (``_Template``):
    a shared inner g is lowered once, with the maps M; affine functions
    stack their slopes and constants m = (q, c), with M None; a shared
    shifted g is lowered once and stacked with each function's constant
    m_k, with M None."""
    fn = fns[0]
    if M is not None:
        return fn.inner.qp_form(), M
    if isinstance(m, tuple):
        return QPForm(fn.dim, q=m[0], c=m[1]), None
    return _shifted_core(fn)[0].qp_form().as_stack(m), None


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
    rows, then, after all of those, one block per atom, atoms in term
    order: a kinked atom's supporting lines, on its epigraph variable, and
    its domain rows; a smooth atom's domain rows.  P adds up in term order,
    so the program does not depend on how the terms group: one pass per
    run of consecutive terms of a group.  The forms' shapes, P, G, A and
    atom rows do not depend on the offsets, so any offsets give the same
    lowering."""
    # per group: its terms' numbers of G rows, A rows, atoms and epigraph
    # variables, and each atom's rows (a kinked atom's lines, then the
    # domain's hi and lo rows); each term's group, and its place in it
    sizes, atom_sizes = [], []
    for form in forms:
        fns = [fn for _, _, fn in form.epi]
        pwl = [isinstance(fn, PiecewiseLinear) for fn in fns]
        sizes.append((form.G.shape[-2], form.A.shape[-2], len(fns), sum(pwl)))
        atom_sizes.append([(fn.slopes.size if k else 0) + (fn.hi != INF) + (fn.lo != -INF)
                           for fn, k in zip(fns, pwl)])
    owner, place = np.zeros((2, n_terms), dtype=int)
    for k, g in enumerate(groups):
        owner[g.idx], place[g.idx] = k, np.arange(len(g.idx))
    counts = np.array(sizes, dtype=int).reshape(-1, 4).T[:, owner]
    first = np.cumsum(counts, axis=1) - counts  # each term's first row / atom / variable
    n_ineq, n_eq, n_atoms, n_aux = counts.sum(axis=1).tolist()
    atom_rows = np.zeros(n_atoms, dtype=int)
    for g, rows in zip(groups, atom_sizes):
        for j, r in enumerate(rows):
            atom_rows[first[2, g.idx] + j] = r
    atom_first = n_ineq + np.cumsum(atom_rows) - atom_rows
    total, n_rows = n + n_aux, n_ineq + int(atom_rows.sum())
    P, G, A = np.zeros((total, total)), np.zeros((n_rows, total)), np.zeros((n_eq, total))
    for g, form, (n_g, n_a, _, _), rows in zip(groups, forms, sizes, atom_sizes):
        C = g.cols
        g.rows = first[0, g.idx, None] + np.arange(n_g)
        g.eq_rows = first[1, g.idx, None] + np.arange(n_a)
        if n_g:
            G[g.rows[:, :, None], C[:, None, :]] = form.G
        if n_a:
            A[g.eq_rows[:, :, None], C[:, None, :]] = form.A
        g.atoms, aux = [], first[3, g.idx]
        atoms = first[2, g.idx]
        ones = np.ones(len(g.idx))
        for j, ((row, _, fn), r) in enumerate(zip(form.epi, rows)):
            # a kinked atom's lines of each term's weighted g, then its
            # domain rows
            kinked = isinstance(fn, PiecewiseLinear)
            lines = fn.supporting_lines(g.weights) if kinked else []
            coefs = [s for s, _ in lines] + [ones] * (fn.hi != INF) + [-ones] * (fn.lo != -INF)
            at = _Atom(row, aux if kinked else None, atom_first[atoms + j, None] + np.arange(r),
                       np.stack(coefs, axis=1) if coefs else np.zeros((len(ones), 0)),
                       np.stack([b for _, b in lines], axis=1) if lines
                       else np.zeros((len(ones), 0)), fn)
            G[at.rows[:, :, None], C[:, None, :]] = at.coefs[:, :, None] * at.row[:, None, :]
            if kinked:
                G[at.rows[:, :at.n_lines], n + aux[:, None]] = -1.0
                aux = aux + 1
            g.atoms.append(at)
    cuts = ((owner[1:] != owner[:-1]).nonzero()[0] + 1).tolist()
    runs = [(int(owner[i]), slice(place[i], place[i] + j - i))
            for i, j in zip([0, *cuts], [*cuts, n_terms])] if n_terms else []
    for k, run in runs:
        g, S = groups[k], forms[k]
        if S.P.any():
            C, W = g.cols[run], g.weights[run]
            np.add.at(P, (C[:, :, None], C[:, None, :]), W[:, None, None] * S.P[run])
    for a in (P, G, A):
        a.flags.writeable = False
    return _Lowering(groups, n_rows, n_eq, n_aux, P, G, A, runs, n_atoms > n_aux)


class _Template:
    """What a compiled objective shares whatever its terms' offsets.

    The terms at their own offsets (``terms``) and their weights
    (``weights``), their lowering groups (``grouping``: equal
    ``_group_key``, groups in order of first term), per group the stacked
    columns of its terms (``cols``), the stacked maps M_k of a group of
    terms g(M_k z + m_k) (``maps``; None for a group of other terms), the
    terms' own offsets (``base``: the stacked m_k of such a group, the
    stacked slopes and constants of a group of affine terms as a pair, the
    constants c_k of a group g + c_k), the groups' forms (``groups``), from
    the first lowering on P, G and A, read-only (``lowering``), the
    spectral factor of P (``spectral``) and where each term's share of a
    read-off goes (``receivers``).  A ``CompiledObjective`` reads it
    at one list of per-group offsets.  A term with no QP form (a support
    function) raises NoClosedFormError when the groups are read."""

    def __init__(self, n: int, terms: list[_Term]):
        self.n, self.terms = n, terms
        self.weights = np.array([t.weight for t in terms])
        keyed = {}
        for i, t in enumerate(terms):
            keyed.setdefault(_group_key(t.fn), []).append(i)
        self.grouping = [np.array(idx) for idx in keyed.values()]
        self.cols, self.maps, self.base = [], [], []
        for idx in self.grouping:
            fns = [terms[i].fn for i in idx]
            self.cols.append(np.array([terms[i].cols for i in idx]))
            if isinstance(fns[0], AffinePrecomposition):
                self.maps.append(np.array([f.matrix for f in fns]))
                self.base.append(np.array([f.offset for f in fns]))
                continue
            self.maps.append(None)
            self.base.append((np.array([f.a for f in fns]), np.array([f.b for f in fns]))
                             if isinstance(fns[0], Affine)
                             else np.array([_shifted_core(f)[1] for f in fns]))
        self.lowering = None

    @cached_property
    def groups(self) -> list[_Group]:
        """The ``_Group`` of each group of terms."""
        return [_Group(idx, cols, self.weights[idx],
                       *_inner_forms([self.terms[i].fn for i in idx], M, m))
                for idx, cols, M, m in zip(self.grouping, self.cols, self.maps, self.base)]

    @cached_property
    def receivers(self) -> list[tuple]:
        """Per group, ``_read_off``'s (T, owner, leaves, cols): T the terms'
        stacked N, else the maps M, else None for I; per receiving leaf, in
        term order, its term's place in the group, the leaf (a column) and
        the columns of its row that the share goes to."""
        out = []
        for idx, M, C in zip(self.grouping, self.maps, self.cols):
            terms = [self.terms[i] for i in idx]
            # a leaf index is one receiver, an array of leaves one per entry
            owner = np.repeat(np.arange(len(terms)), [getattr(t.to, "size", 1) for t in terms])
            T = M if terms[0].param is None else np.array([t.param for t in terms])
            cols = (np.array([t.at for t in terms])[owner, None]
                    + np.arange(C.shape[1] if T is None else T.shape[-1]))
            out.append((T, owner, np.concatenate([t.to for t in terms], axis=None)[:, None], cols))
        return out

    @cached_property
    def spectral(self) -> SpectralFactor:
        return SpectralFactor(self.lowering.P)

    def lowered(self, offsets):
        """(lowering, parts): the lowering, and the ``_OffsetParts`` of each
        group's forms at ``offsets`` (``_Group.parts``).  The first call
        lowers the groups' forms composed at its offsets, and reads a
        precomposition group's parts off its composed form; the forms'
        shapes, P, G, A and atom rows do not depend on the offsets, so a
        later call (on a kept template) computes only the parts that move
        with them."""
        if self.lowering is not None:
            return self.lowering, [g.parts(m) for g, m in zip(self.groups, offsets)]
        forms = [g.inner if g.M is None else g.inner.compose(g.M, m)
                 for g, m in zip(self.groups, offsets)]
        self.lowering = _lower(self.n, len(self.terms), self.groups, forms)
        return self.lowering, [
            g.parts(m) if g.M is None else _OffsetParts(S.q, S.c, S.h, S.b, [o for _, o, _ in S.epi])
            for g, m, S in zip(self.groups, offsets, forms)]


class CompiledObjective:
    """sum_k weight_k * fn_k(z[cols_k]) over z in R^n.

    Term k reads its coordinates of z through the index array cols_k: one
    leaf's, or one tree node's.  The QP lowering handles the terms in
    groups that share one local form up to the affine map (see
    ``_group_key``); a group's forms are computed once, stacked, and kept.

    The objective is the ``_Template`` of (n, terms) read at ``offsets``,
    one per group, the terms' own (the template's ``base``) by default: a
    (K, r) array of offsets m_k for a group of precompositions, a (K, d)
    array of slopes and a (K,) array of constants for a group of affine
    terms, a (K,) array of constants c_k for a group g + c_k.  Its value,
    like its lowering, goes one group at a time, and no caller walks its
    terms.  ``template`` is that template when one is kept
    (``_PrimalTemplate``, whose groups are all precompositions, or
    ``_LagrangianTemplate``, one affine group); it is built here
    otherwise.
    """

    def __init__(self, n: int, terms: list[_Term], offsets=None,
                 template: _Template | None = None):
        self.n = n
        self.template = _Template(n, terms) if template is None else template
        self.offsets = self.template.base if offsets is None else offsets

    def value(self, z) -> float:
        """The terms' values at z summed at their weights in term order;
        +inf when some value is.  The values take one ``value_many`` pass
        per group, a row per term: a group of terms g(M_k z + m_k) reads g
        at the stacked M_k z_k + m_k, an affine group takes one dot product
        per term, and a group g + c_k adds each c_k to g's value (up to the
        sign of a zero value, which the sum does not read)."""
        tpl, z = self.template, np.asarray(z, dtype=float).ravel()
        vals = np.empty(len(tpl.terms))
        for idx, cols, M, m in zip(tpl.grouping, tpl.cols, tpl.maps, self.offsets):
            fn, Z = tpl.terms[idx[0]].fn, z[cols]
            if M is not None:
                vals[idx] = fn.inner.value_many((M @ Z[..., None])[..., 0] + m)
            elif isinstance(m, tuple):  # an affine group's slopes and constants
                vals[idx] = (m[0][:, None, :] @ Z[..., None])[:, 0, 0] + m[1]
            else:  # one g, shifted by each term's constant
                vals[idx] = _shifted_core(fn)[0].value_many(Z) + m
        return _weighted_sum(tpl.weights, vals)

    @cached_property
    def _lowered(self):
        """(lowering, parts): the template's ``_Lowering``, and per group
        the ``_OffsetParts`` of its K local forms at this objective's
        offsets."""
        return self.template.lowered(self.offsets)

    @property
    def _lowering(self) -> _Lowering:
        return self._lowered[0]

    def qp_data(self):
        """Lowered quadratic program.

        Each group of terms scatters its stacked local forms into the rows
        and columns of its leaves or nodes in one pass.  A kinked atom
        becomes one epigraph variable, after the n main ones, bounded below
        by the supporting lines of the (probability-weighted) piece
        structure; a smooth atom keeps only its domain rows, and Newton's
        steps add its model (``_newton_step``).  P, G and A are the
        template's read-only arrays; q, c, h and b are this objective's.
        """
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

    @property
    def q_scale(self) -> float:
        """max |w_k q_k| over the lowered terms: the size of the summands
        that ``qp_data``'s q adds up from, and so of its rounding."""
        low, parts = self._lowered
        return max([float(np.abs(g.weights[:, None] * S.q).max(initial=0.0))
                    for g, S in zip(low.groups, parts)], default=0.0)

    def _group_subgradients(self, res: _MinResult) -> list[np.ndarray]:
        """Per group, the (K, r) subgradients s_k of g at r_k = M_k x_k +
        m_k that the lowered program's solution ``res`` selects, one per
        term g(M_k z + m_k) (a term that is not a precomposition is its own
        g, M_k = I): P r_k + q plus, over the weight, the multipliers of the
        term's rows on g's rows and each atom's row of g times its slope.
        A kinked atom's slope is the sum of its rows' multipliers weighted
        by their coefficients; a smooth atom's is the weighted slope of the
        model that Newton's last step expanded at ``res.expansion``, read at
        the solution, plus its domain rows' multipliers.  The shares
        weight_k M_k' s_k scatter-add to zero."""
        x, ineq, eq = res.x, res.multipliers, res.eq_multipliers
        low, parts = self._lowered
        out = []
        for g, m, part in zip(low.groups, self.offsets, parts):
            # g's q: the shared inner g's, or, with no map, this objective's
            # (on a kept affine group, the slopes at this y)
            S, W, r, q = g.inner, g.weights, x[g.cols], part.q
            if g.M is not None:
                r, q = (g.M @ r[..., None])[..., 0] + m, S.q
            rows = ((S.G.swapaxes(-1, -2) @ ineq[g.rows][..., None])[..., 0]
                    + (S.A.swapaxes(-1, -2) @ eq[g.eq_rows][..., None])[..., 0])
            for at, (row, _, _), off in zip(g.atoms, S.epi, part.offs):
                mu, slope = ineq[at.rows], np.zeros(len(W))
                if at.aux is None:
                    a = at.args(res.expansion[g.cols], off)
                    _, s1, s2 = at.fn.taylor(a)
                    slope = W * (s1 + s2 * (at.args(x[g.cols], off) - a))
                for k in range(mu.shape[1]):
                    slope = slope + mu[:, k] * at.coefs[:, k]
                rows = rows + row * slope[:, None]
            out.append((S.P @ r[..., None])[..., 0] + q + rows / W[:, None])
        return out


def _weighted_sum(weights, vals) -> float:
    """sum_k weights_k vals_k in order, as Python floats; +inf when some
    value is."""
    if (vals == INF).any():
        return INF
    total = 0.0
    for v in (weights * vals).tolist():
        total += v
    return total


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
    # Newton's method: the point at which its last step, whose multipliers
    # these are, expanded the smooth atoms
    expansion: np.ndarray | None = None


def _solve(data, method: str, **kw) -> _MinResult:
    """``solve_qp`` on a lowered program ``data`` (``qp_data``'s tuple),
    with x cut to the main coordinates."""
    P, q, c, G, h, A, b, n_main = data
    res = solve_qp(P, q, c, G, h, A, b, **kw)
    if res.x is None:
        return _MinResult(res.status, None, res.value, res.iterations, 0.0, method)
    # the largest violation of the rows G w <= h and A w = b
    resid = max(float((G @ res.x - h).max(initial=0.0)),
                float(np.abs(A @ res.x - b).max(initial=0.0)))
    return _MinResult(res.status, res.x[:n_main], res.value, res.iterations, resid, method,
                      res.ineq_multipliers, res.eq_multipliers)


def _minimize(obj: CompiledObjective) -> _MinResult:
    """The lowered program solved once, or, when it holds a smooth atom, by
    Newton's method."""
    data = obj.qp_data()
    if obj._lowering.smooth:
        return _newton_minimize(obj, data)
    _, _, _, G, _, A, _, _ = data
    rowless = not (G.shape[0] or A.shape[0])
    return _solve(data, "polyhedral", spectral=obj.template.spectral if rowless else None,
                  q_scale=obj.q_scale if rowless else 0.0)


def _newton_minimize(obj: CompiledObjective, data) -> _MinResult:
    """Damped Newton steps from 0 on the lowered program ``data``.  Each
    step is that program with each smooth atom's Taylor reading at x added
    (``_newton_step``), written in the step d, so a direction the QP finds
    flat keeps x's coordinate.  The step is halved until the value does not
    rise, while the model's predicted decrease is above 1e-14 max(1, |f|);
    below it, one more full step polishes the gradient that the dual
    reads.  An optimum carries that last step's multipliers and the point
    it expanded at, so the dual and the annihilator bound read it as they
    read any QP's.  A smooth atom's Taylor reading that is not finite, or
    a polishing step whose value is +inf, ends ``max-iter`` with no point."""
    x = np.zeros(obj.n)
    f = obj.value(x)
    for it in range(1, _NEWTON_STEPS + 1):
        stepped = _newton_step(obj, data, x)
        if stepped is None:
            return _MinResult("max-iter", None, f, it, INF, "newton")
        step = _solve(stepped[0], "newton", q_scale=stepped[1])
        if step.status != "optimal":
            return _MinResult(step.status, None, step.value, it, INF, "newton")
        floor = 1e-14 * max(1.0, abs(f)) if f < INF else 0.0
        pred, t = f - step.value, 1.0
        while t * pred > floor:
            trial = obj.value(x + t * step.x)
            if trial <= f:
                break
            t *= 0.5
        else:  # converged: the polishing step
            value = obj.value(x + step.x)
            if value == INF:
                return _MinResult("max-iter", None, f, it, INF, "newton")
            return _MinResult("optimal", x + step.x, value, it, step.residual,
                              "newton", step.multipliers, step.eq_multipliers, x)
        x, f = x + t * step.x, trial
    return _MinResult("max-iter", x, f, _NEWTON_STEPS, 0.0, "newton")


def _newton_step(obj: CompiledObjective, data, x):
    """(the program of Newton's step at x, the size of the summands its q
    adds up from), or None when some smooth atom's Taylor reading at x is
    not finite.  The lowered program ``data`` is shifted to the step d on
    the main coordinates (q <- P x + q, h <- h - G x, b <- b - A x), and
    each smooth atom g(row.z + off) adds W g''(a) row row' to P, W g'(a)
    row to q and W g(a) to c, g's Taylor reading at its arguments a at x,
    one stacked pass per atom of a group."""
    P, q, c, G, h, A, b, n = data
    Px = P[:n, :n] @ x
    P, q = P.copy(), q.copy()
    c = c + float(q[:n] @ x) + 0.5 * float(x @ Px)
    q[:n] += Px
    scale = max(obj.q_scale, float(np.abs(Px).max(initial=0.0)))
    low, parts = obj._lowered
    for g, part in zip(low.groups, parts):
        C, W, z = g.cols, g.weights, x[g.cols]
        for at, off in zip(g.atoms, part.offs):
            if at.aux is None:
                value, slope, curv = reading = at.fn.taylor(at.args(z, off))
                if not np.isfinite(reading).all():
                    return None
                np.add.at(P, (C[:, :, None], C[:, None, :]),
                          (W * curv)[:, None, None] * at.row[:, :, None] * at.row[:, None, :])
                share = (W * slope)[:, None] * at.row
                np.add.at(q, C, share)
                scale = max(scale, float(np.abs(share).max(initial=0.0)))
                c += float(W @ value)
    return (P, q, c, G, h - G[:, :n] @ x, A, b - A[:, :n] @ x, n), scale


# ---------------------------------------------------------------------------
# compilation helpers
# ---------------------------------------------------------------------------


def _leaf_vectors(p: Problem, proc: StochasticProcess, what: str):
    """Per-leaf vectors of a parameter-space process (u or y), one row each."""
    if proc.dims != p.m_dims:
        raise ValueError(f"{what} dims {proc.dims} do not match {p.m_dims}")
    return proc.rows


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


class _PrimalTemplate(_Template):
    """The primal of one problem with u left symbolic.

    Every primal term is g(M_k z + m_k + N_k u_l), with u_l the parameter
    vector of its leaf (of its node's first leaf on a dynamic problem), so
    only the offsets move with u.  The template holds the terms at u = 0
    and reads it at base + N u (``objective``), through the N that y is
    read out through, so P, G and A are lowered, and P factored, once for
    every u."""

    def __init__(self, p: Problem, nodes):
        super().__init__(p.layout.width, _static_primal_terms(p) if nodes is None
                         else _bolza_primal_terms(p, nodes))
        # each term reads u at the first leaf it names
        self.reads = [leaves[np.searchsorted(owner, np.arange(owner[-1] + 1)), 0]
                      for _, owner, leaves, _ in self.receivers]

    def objective(self, uvecs) -> CompiledObjective:
        """The primal at the leaf vectors ``uvecs`` of u: m_k + N_k u_l,
        one stacked pass per group."""
        return CompiledObjective(self.n, self.terms, [
            m + (N @ uvecs[reads][..., None])[..., 0]
            for m, (N, *_), reads in zip(self.base, self.receivers, self.reads)], self)


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
    """One term g(M x + m) per leaf at u = 0, with its N; its share of y
    goes to that leaf."""
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
        terms.append(_Term(weight, fn, cols, leaf, param=N))
    return terms


def _bolza_primal_terms(p: Problem, nodes):
    """One term K_t(x_t, x_t - x_{t-1} + u_t) per stage-t node of ``nodes``
    (``_stage_nodes``), over the node's x_{t-1} and x_t columns, at u = 0;
    its share of y goes to each of the node's leaves."""
    f, columns = p.integrand, p.layout.columns
    eye, zero = np.eye(f.d), np.zeros((f.d, f.d))
    first = np.vstack([eye, eye])                   # x_0 -> (x_0, x_0)
    later = np.block([[zero, eye], [-eye, eye]])    # (x_{t-1}, x_t) -> (x_t, dx_t)
    terms = []
    for t, stage in enumerate(nodes):
        xs = f.x_slices[t] if t == 0 else slice(f.x_slices[t - 1].start, f.x_slices[t].stop)
        N = np.zeros((2 * f.d, f.m_total))  # u_t -> (0, u_t)
        N[f.d:, f.u_slices[t]] = eye
        for b, leaves, weight in stage:
            fn = AffinePrecomposition(f.stages[t][b].fn, later if t else first)
            terms.append(_Term(weight, fn, columns[leaves[0], xs], leaves, param=N))
    return terms


def solve_primal(p: Problem, u: StochasticProcess) -> SolveResult:
    """Minimize E f(x, u) over adapted x; ``no-closed-form`` when some
    leaf has no joint form (a constraint that is not affine) or some term
    no QP form (a support function).  No engine runs then, so that result
    names no method."""
    try:
        layout, obj = primal_objective(p, u)
        res = _minimize(obj)
    except NoClosedFormError:
        return SolveResult(None, np.nan, 0, INF, "no-closed-form")
    opt = layout.to_process(res.x) if res.x is not None and res.status in ("optimal", "max-iter") else None
    return SolveResult(opt, res.value, res.iterations, res.residual, res.status,
                       res.method, compiled=obj, solution=res)


class _LagrangianTemplate(_Template):
    """The Lagrangian of a static problem with y left symbolic.

    When every leaf lies in a group of ``GenericIntegrand.leaf_groups``,
    leaf l's Lagrangian is the affine x -> s_l.x + c_l, and only s_l and c_l
    move with y.  The template holds one affine term per leaf, its slope
    and constant zero, in one lowering group; a solve at y reads it at the
    stacked (s, c) (``objective``), so the Lagrangian is grouped and
    lowered once for every y."""

    def __init__(self, p: Problem):
        layout, zero = p.layout, Affine(np.zeros(p.integrand.n_total), 0.0)
        super().__init__(layout.width, [
            _Term(weight, zero, cols, leaf) for leaf, (weight, cols) in enumerate(
                zip(p.tree.probabilities.tolist(), layout.columns))])
        self.integrand = p.integrand

    def objective(self, yvecs) -> CompiledObjective | None:
        """The Lagrangian at the leaf vectors ``yvecs`` of y
        (``GenericIntegrand.affine_lagrangians``); None when some leaf's
        is -inf."""
        slopes, consts = self.integrand.affine_lagrangians(yvecs)
        if np.any(consts == -INF):
            return None
        return CompiledObjective(self.n, self.terms, [(slopes, consts)], self)


def _lagrangian_objective(p: Problem, y: StochasticProcess):
    """(layout, the compiled Lagrangian l(., y)), None in place of the
    objective when some term is -inf: read off the problem's kept template
    when it has one (``_LagrangianTemplate``), built at y otherwise."""
    layout = p.layout
    yvecs = _leaf_vectors(p, y, "dual")
    if isinstance(p.integrand, BolzaIntegrand):
        terms = _bolza_lagrangian_terms(p, yvecs)
        return layout, None if terms is None else CompiledObjective(layout.width, terms)
    if p._lagrangian_template is not None:
        return layout, p._lagrangian_template.objective(yvecs)
    fns = p.integrand.lagrangian_functions_of_x(yvecs)
    if any(fn is MINUS_INF for fn in fns):
        return layout, None
    return layout, CompiledObjective(layout.width, [
        _Term(weight, fn, cols, leaf) for leaf, (weight, fn, cols) in enumerate(
            zip(p.tree.probabilities.tolist(), fns, layout.columns))])


def _bolza_lagrangian_terms(p: Problem, yvecs):
    """One Hamiltonian term H_t(x_t, y_t) per stage-t node, then the
    coupling E sum_t <y_t - y_{t+1}, x_t> as one affine term over the
    layout, last; None when some H_t(., y_t) is -inf.  The Hamiltonians of
    the stage-t nodes that share one stage object (a group of
    ``BolzaIntegrand.stage_groups``) are built in one call over the nodes'
    y_t rows (``BolzaStage.hamiltonian_functions_of_x``), one group at a
    time."""
    f, layout = p.integrand, p.layout
    terms = []
    for t, nodes in enumerate(_stage_nodes(p, yvecs)):
        node_blocks = np.array([b for b, _, _ in nodes])
        hams = [None] * len(nodes)
        for stage, blocks, _ in f.stage_groups[t]:
            idx = np.flatnonzero(np.isin(node_blocks, blocks)).tolist()
            fns = stage.hamiltonian_functions_of_x(yvecs[[nodes[i][1][0] for i in idx],
                                                         f.u_slices[t]])
            if any(h is MINUS_INF for h in fns):
                return None
            for i, h in zip(idx, fns):
                hams[i] = h
        for (_, leaves, weight), h in zip(nodes, hams):
            terms.append(_Term(weight, h, layout.columns[leaves[0], f.x_slices[t]], leaves,
                               f.x_slices[t].start))
    coupling = np.zeros(layout.width)
    np.add.at(coupling, layout.columns,
              p.tree.probabilities[:, None] * (yvecs - f._shift(yvecs, 1)))
    terms.append(_Term(1.0, Affine(coupling, 0.0), np.arange(layout.width), np.arange(0)))
    return terms


def dual_objective(p: Problem, y: StochasticProcess) -> DualObjective:
    """phi*(y) = -inf over adapted x of E l(x, y), plus the lower variant
    -E l(x*, y) at the inner minimizer x*: every catalog Lagrangian is
    closed in x (a finite sum of closed catalog functions, or MINUS_INF),
    so its lower closure sup_v { x.v - f*(v, y) } is l itself.  The lower
    variant is None when l(x*, y) = +inf."""
    layout, obj = _lagrangian_objective(p, y)
    if obj is None:
        # l = -inf on the feasible slice for some leaf: the infimum diverges
        return DualObjective(INF, INF, None, "unbounded")
    res = _minimize(obj)
    # unbounded: phi* = +inf; infeasible: l(., y) identically +inf, so the
    # model is primal-infeasible for all u; or the engine found no point
    if res.x is None or res.status in ("unbounded", "infeasible"):
        return DualObjective(-res.value, None, None, res.status, obj, res)
    value = obj.value(res.x)
    return DualObjective(-res.value, None if value == INF else -value,
                         layout.to_process(res.x), res.status, obj, res)


def dual_via_orthocomplement(p: Problem, y: StochasticProcess,
                             cfg: SolverConfig | None = None,
                             objective: DualObjective | None = None) -> OrthoBound:
    """E f*(v, y) at the v read off the inner solve of phi*(y) (the
    chain's upper bound, inf over v with zero conditional means).

    ``objective`` is ``dual_objective(p, y)`` when the caller already
    has it; it is solved here otherwise.  Its inner solve gives v in the
    x-subdifferential of l(x*, y) with zero conditional means, so E f*(v, y)
    = phi*(y) = -E l(x*, y), and v attains the infimum.  Weak duality
    brackets the infimum between the last two for any mean-zero v and
    adapted x*, so the tests below certify the bound without trusting the
    solve; nothing is solved over v.  The status is

      * ``optimal`` when v has zero conditional means (to 1e-9 relative
        to max |v|, as rounding on a large v scales with it) and E f*(v, y)
        closes the sandwich to ``cfg.tol``;
      * ``gap-open``, with no value and no v, when it does not;
      * ``infeasible`` (value +inf) when the inner solve is unbounded:
        phi*(y) = +inf, and so is the infimum;
      * the inner solve's status (``max-iter``, ``infeasible``), with no
        value and no v, when it ended otherwise short of its optimum, or
        ``max-iter`` when an LP the bound needs (the support function in
        a stage conjugate or a Hamiltonian) does not terminate;
      * ``no-closed-form``, with no value and no v, when a Lagrangian or
        a conjugate the bound needs has no closed form.

    E f*(v, y) is the integrand's ``conjugate_values``, one group at a
    time.  On static problems it prices each group of leaves whose joints
    share one inner g in one stacked pass, and any other leaf by its own
    conjugate.  On dynamic problems each stage t prices the leaves that
    share a stage object in one pass of that stage's conjugate over their
    stacked (a, y_t) rows, with no slice per node.
    """
    cfg = cfg or SolverConfig()
    try:
        return _orthocomplement_bound(p, y, cfg, objective)
    except PivotLimitError:
        return OrthoBound(np.nan, None, "max-iter")
    except NoClosedFormError:
        return OrthoBound(np.nan, None, "no-closed-form")


def _orthocomplement_bound(p: Problem, y: StochasticProcess, cfg: SolverConfig,
                           objective: DualObjective | None) -> OrthoBound:
    yvecs = _leaf_vectors(p, y, "dual")
    if objective is None:
        objective = dual_objective(p, y)
    if objective.inner_status == "unbounded":
        return OrthoBound(INF, None, "infeasible")
    if objective.inner_status != "optimal":
        return OrthoBound(np.nan, None, objective.inner_status)
    v = _stationary_v(p, yvecs, objective)
    V = v.rows
    if not in_orthocomplement(v, 1e-9 * max(1.0, float(np.abs(V).max(initial=0.0)))):
        return OrthoBound(np.nan, None, "gap-open")
    value = _weighted_sum(p.tree.probabilities, p.integrand.conjugate_values(V, yvecs))
    # -E l(x*, y) <= phi*(y) <= inf <= E f*(v, y) for adapted x* and
    # mean-zero v; the reported phi*(y) must close the sandwich too.  The
    # lower variant is -E l(x*, y), read at the inner minimizer x* (None
    # where l(x*, y) = +inf), never the QP's own value
    lower = -INF if objective.lower_value is None else objective.lower_value
    tol = cfg.tol * max(1.0, abs(value))
    if np.isfinite(value) and all(abs(value - w) <= tol for w in (lower, objective.value)):
        return OrthoBound(float(value), v, "optimal")
    return OrthoBound(np.nan, None, "gap-open")


def _stationary_v(p: Problem, yvecs, dob: DualObjective):
    """v read off the optimal inner solve behind ``dob``: ``_read_off``
    with T = M on the Lagrangian, from y_t - y_{t+1} on the dynamic path
    (the shift that ``BolzaIntegrand.conjugate_values`` undoes)."""
    f = p.integrand
    base = (yvecs - f._shift(yvecs, 1) if isinstance(f, BolzaIntegrand)
            else np.zeros((p.tree.n_leaves, sum(p.n_dims))))
    return StochasticProcess.from_leaf_rows(p.tree, p.n_dims,
                                            _read_off(dob.lagrangian, dob.inner, base))


def _read_off(obj: CompiledObjective, res: _MinResult, rows) -> np.ndarray:
    """``rows`` plus each term's T_k' s_k on the rows of its leaves from its
    column on (``_Template.receivers``), s_k the subgradient of its g that
    ``res`` selects: one stacked product and one scatter per group."""
    for (T, owner, leaves, cols), s in zip(obj.template.receivers, obj._group_subgradients(res)):
        if T is not None:
            s = (T.swapaxes(-1, -2) @ s[..., None])[..., 0]
        np.add.at(rows, (leaves, cols), s[owner])
    return rows


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
      * ``not-run`` when the primal is infeasible, ended ``max-iter`` or
        has no closed form;
      * ``not-recovered`` when phi*(y) = +inf at the y read off the primal;
      * ``no-closed-form`` when a conjugate the dual needs has none;
      * ``max-iter`` when the inner solve pricing y ended ``max-iter``, or
        an LP that its Lagrangian needs did not terminate;
      * ``gap-open`` when |primal - dual| exceeds
        ``cfg.gap_tol * max(1, |primal|)``; y and its objective are kept;
      * ``optimal`` otherwise.

    ``primal`` is the result of ``solve_primal(p, u)`` when the caller
    already has it; it is solved here otherwise.
    """
    cfg = cfg or SolverConfig()
    if primal is None:
        primal = solve_primal(p, u)
    if primal.status == "unbounded":
        return SolveResult(None, -INF, 0, INF, "infeasible")
    if primal.status != "optimal":
        return SolveResult(None, INF, 0, INF, "not-run")
    try:
        y = _recover_dual_candidate(p, primal)
        dob = dual_objective(p, y)
    except NoClosedFormError:
        return SolveResult(None, np.nan, 0, INF, "no-closed-form")
    except PivotLimitError:
        return SolveResult(None, np.nan, 0, INF, "max-iter", "recovered")
    if dob.value == INF:
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
    primal's QP selects (on Newton's method, its last step's); a node
    term's share goes to each of its leaves (``_read_off`` with T = N).
    y is not projected: on a dynamic problem it is adapted when u is."""
    rows = np.zeros((p.tree.n_leaves, sum(p.m_dims)))
    return StochasticProcess.from_leaf_rows(
        p.tree, p.m_dims, _read_off(primal.compiled, primal.solution, rows))


def duality_gap(p: Problem, u: StochasticProcess,
                cfg: SolverConfig | None = None,
                primal: SolveResult | None = None) -> GapReport:
    """Primal optimal value minus dual optimal value (with both statuses).

    ``primal`` is the result of ``solve_primal(p, u)`` when the caller
    already has it; it is solved here otherwise.
    """
    cfg = cfg or SolverConfig()
    if primal is None:
        primal = solve_primal(p, u)
    dual = solve_dual(p, u, cfg, primal)
    if np.isfinite(primal.value) and np.isfinite(dual.value):
        gap = primal.value - dual.value
    else:
        gap = INF
    return GapReport(gap, primal, dual)
