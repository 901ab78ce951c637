"""Shared independent oracles and random generators for the test suite.

Oracles here are deliberately naive (vertex enumeration, dense grids) and
never call the code paths they are checking.
"""

import dataclasses
import itertools
import json
import pathlib
import tempfile

import numpy as np

from stochdual.convex import (
    Affine,
    AffinePrecomposition,
    Entropy,
    Exponential,
    FiniteSum,
    PiecewiseLinear,
    Quadratic,
    SeparableSum,
    absolute_value,
    domain_polyhedron,
    indicator_interval,
    indicator_nonneg,
    indicator_nonpos,
)
from stochdual.integrand import MINUS_INF, AlmIntegrand, BolzaIntegrand, KabanovStage
from stochdual.tree import ScenarioTree, StochasticProcess, build_tree


def same_bits(a, b) -> bool:
    """Equal arrays of floats, bit for bit (signed zeros told apart); NaNs
    match NaNs whatever their payload."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


# ---------------------------------------------------------------------------
# LP oracle: vertex enumeration (assumes a bounded feasible polytope)
# ---------------------------------------------------------------------------


def lp_by_enumeration(c, a_ub, b_ub, a_eq=None, b_eq=None, tol=1e-8):
    """Minimize c.x over a polytope by enumerating basic feasible points."""
    c = np.asarray(c, dtype=float)
    n = c.size
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    rows = [(a_ub[i], b_ub[i]) for i in range(a_ub.shape[0])]
    eqs = []
    if a_eq is not None:
        a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n)
        b_eq = np.asarray(b_eq, dtype=float).ravel()
        eqs = [(a_eq[i], b_eq[i]) for i in range(a_eq.shape[0])]
    best, best_x = np.inf, None
    need = n - len(eqs)
    for combo in itertools.combinations(range(len(rows)), need):
        A = np.array([rows[i][0] for i in combo] + [e[0] for e in eqs])
        b = np.array([rows[i][1] for i in combo] + [e[1] for e in eqs])
        if A.shape[0] != n:
            continue
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if np.all(a_ub @ x <= b_ub + tol) and all(
            abs(e[0] @ x - e[1]) <= tol for e in eqs
        ):
            val = float(c @ x)
            if val < best:
                best, best_x = val, x
    return best, best_x


# ---------------------------------------------------------------------------
# grid minimization oracle for compiled objectives
# ---------------------------------------------------------------------------


def grid_minimize(value_many, n_free, lo=-10.0, hi=10.0, step=0.01,
                  chunk=2_000_000):
    """Exhaustive minimization of a vectorised objective over a grid."""
    axis = np.arange(lo, hi + step / 2, step)
    grids = [axis] * n_free
    best, best_x = np.inf, None
    if n_free == 0:
        v = value_many(np.zeros((1, 0)))[0]
        return float(v), np.zeros(0)
    if n_free == 1:
        X = axis.reshape(-1, 1)
        vals = value_many(X)
        i = int(np.argmin(vals))
        return float(vals[i]), X[i]
    # chunk over the first axis to bound memory
    rest = np.array(list(itertools.product(*grids[1:])))
    per = max(1, chunk // max(1, rest.shape[0]))
    for start in range(0, axis.size, per):
        block = axis[start:start + per]
        X = np.column_stack([
            np.repeat(block, rest.shape[0]),
            np.tile(rest, (block.size, 1)).reshape(-1, n_free - 1),
        ])
        vals = value_many(X)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, best_x = float(vals[i]), X[i]
    return best, best_x


def terms(obj):
    """The terms of a compiled objective: its template's terms read at the
    objective's offsets, those of a group read at other offsets than its
    own rebuilt as ``Affine`` or ``AffinePrecomposition``."""
    tpl = obj.template
    out = list(tpl.terms)
    for idx, m, own in zip(tpl.grouping, obj.offsets, tpl.base):
        if m is own:
            continue
        idx = idx.tolist()
        if isinstance(m, tuple):  # an affine group's slopes and constants
            fns = [Affine(a, b) for a, b in zip(m[0], m[1].tolist())]
        else:
            fns = [AffinePrecomposition(out[i].fn.inner, out[i].fn.matrix, off)
                   for i, off in zip(idx, m)]
        for i, fn in zip(idx, fns):
            out[i] = dataclasses.replace(out[i], fn=fn)
    return out


def objective_values(obj):
    """Vectorised values of a compiled objective, one row of W per point:
    each term's value_many on its gathered columns, at its weight."""
    def value_many(W):
        W = np.asarray(W, dtype=float)
        total = np.zeros(W.shape[0])
        for t in terms(obj):
            total = total + t.weight * t.fn.value_many(W[:, t.cols])
        return total
    return value_many


# ---------------------------------------------------------------------------
# random catalog functions
# ---------------------------------------------------------------------------


def random_scalar_function(rng, smooth_only=False):
    """A random 1-d catalog function; used for conjugate/residual sweeps."""
    choices = ["quadratic", "affine", "pwl", "abs", "entropy", "exponential",
               "interval", "nonneg", "nonpos"]
    if smooth_only:
        choices = ["quadratic", "exponential"]
    kind = rng.choice(choices)
    if kind == "quadratic":
        return Quadratic([rng.uniform(0.1, 2.0)], [rng.normal()], rng.normal())
    if kind == "affine":
        return Affine([rng.normal()], rng.normal())
    if kind == "pwl":
        k = int(rng.integers(1, 4))
        breaks = np.sort(rng.uniform(-3, 3, k))
        breaks += np.arange(k) * 1e-3  # enforce strict increase
        slopes = np.sort(rng.normal(size=k + 1) * 2)
        return PiecewiseLinear(breaks, slopes, anchor=(float(breaks[0]), rng.normal()))
    if kind == "abs":
        return absolute_value().scaled(rng.uniform(0.5, 3.0))
    if kind == "entropy":
        return Entropy(rng.uniform(0.5, 2.0), rng.normal(), rng.normal())
    if kind == "exponential":
        return Exponential(rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5), rng.normal())
    if kind == "interval":
        lo = rng.uniform(-4, 0)
        return indicator_interval(lo, lo + rng.uniform(0.5, 4))
    if kind == "nonneg":
        return indicator_nonneg()
    return indicator_nonpos()


def random_composite_function(rng, dim=2):
    """Random separable/precomposed/summed function on R^dim."""
    roll = rng.integers(0, 3)
    if roll == 0:
        return SeparableSum([random_scalar_function(rng) for _ in range(dim)])
    if roll == 1:
        M = rng.normal(size=(dim, dim))
        M += np.eye(dim) * (2 + abs(rng.normal()))  # keep it invertible
        inner = Quadratic(rng.uniform(0.1, 1.0, dim), rng.normal(size=dim))
        return AffinePrecomposition(inner, M, rng.normal(size=dim))
    return FiniteSum([
        Quadratic(rng.uniform(0.1, 1.0, dim)),
        Affine(rng.normal(size=dim), rng.normal()),
    ])


# ---------------------------------------------------------------------------
# subgradient oracle
# ---------------------------------------------------------------------------


def subgradient(fn, x):
    """One subgradient of a catalog function, or of a compiled objective,
    at x, by the textbook rule of its kind: the gradient where it is
    differentiable, the mean of the two slopes at a kink of a scalar
    piecewise-linear function, 0 for a polyhedral indicator (valid on the
    interior) and a maximiser for a support function.  Sums, separable
    sums, precompositions and compiled objectives combine their parts'
    rules.  Raises NoClosedFormError for any other kind."""
    from stochdual.convex import NoClosedFormError, PolyhedralIndicator, SupportFunction
    from stochdual.solver import CompiledObjective

    x = np.asarray(x, dtype=float).ravel()
    if isinstance(fn, CompiledObjective):
        g = np.zeros(fn.n)
        for t in terms(fn):
            g[t.cols] += t.weight * subgradient(t.fn, x[t.cols])
        return g
    if isinstance(fn, Affine):
        return fn.a.copy()
    if isinstance(fn, Quadratic):
        return 2.0 * fn.weights * x + fn.tilt
    if isinstance(fn, PiecewiseLinear):
        if fn.lo == fn.hi:
            return np.zeros(1)
        j = int(np.searchsorted(fn.breaks, x[0], side="right"))
        if j > 0 and x[0] == fn.breaks[j - 1]:
            return np.array([0.5 * (fn.slopes[j - 1] + fn.slopes[j])])
        return np.array([fn.slopes[min(j, fn.slopes.size - 1)]])
    if isinstance(fn, Entropy):
        return np.array([fn.coeff * np.log(max(x[0], 1e-300)) + fn.tilt])
    if isinstance(fn, Exponential):
        return np.array([fn.coeff * fn.rate * np.exp(fn.rate * x[0])])
    if isinstance(fn, PolyhedralIndicator):
        return np.zeros(fn.dim)
    if isinstance(fn, SupportFunction):
        _, point, status = fn.polyhedron.support(x)
        if status != "attained":
            raise ValueError("support function has no subgradient here")
        return point
    if isinstance(fn, SeparableSum):
        return np.concatenate([np.zeros(0)] + [
            subgradient(part, x[lo:hi])
            for part, lo, hi in zip(fn.parts, fn.offsets[:-1], fn.offsets[1:])])
    if isinstance(fn, AffinePrecomposition):
        return fn.matrix.T @ subgradient(fn.inner, fn.matrix @ x + fn.offset)
    if isinstance(fn, FiniteSum):
        return np.sum([subgradient(s, x) for s in fn.summands], axis=0)
    raise NoClosedFormError(f"no subgradient rule for kind '{fn.kind}'")


# ---------------------------------------------------------------------------
# shared trees
# ---------------------------------------------------------------------------


def reference_value(fn, x) -> float:
    """fn(x), one point at a time, by the scalar rule of its kind: a sum
    (separable or not) returns +inf at its first part that is +inf, and a
    piecewise-linear function integrates its pieces from the anchor.  The
    reference for each kind's ``value_many``; a support function is its own
    rule."""
    from stochdual.convex import FEAS_TOL, PolyhedralIndicator, SupportFunction

    inf = float("inf")
    x = np.asarray(x, dtype=float).ravel()
    if isinstance(fn, SupportFunction):
        return fn.value(x)
    if isinstance(fn, Affine):
        return float(fn.a @ x) + fn.b
    if isinstance(fn, Quadratic):
        return float(fn.weights @ (x * x) + fn.tilt @ x) + fn.offset
    if isinstance(fn, PiecewiseLinear):
        x = float(x[0])
        if x < fn.lo - FEAS_TOL or x > fn.hi + FEAS_TOL:
            return inf
        x = min(max(x, fn.lo), fn.hi)
        a, b = (fn.anchor_x, x) if fn.anchor_x <= x else (x, fn.anchor_x)
        total = 0.0
        knots = np.concatenate([[a], fn.breaks[(fn.breaks > a) & (fn.breaks < b)], [b]])
        for left, right in zip(knots[:-1], knots[1:]):
            j = int(np.searchsorted(fn.breaks, 0.5 * (left + right), side="right"))
            total += fn.slopes[j] * (right - left)
        return fn.anchor_val + (1.0 if x >= fn.anchor_x else -1.0) * total
    if isinstance(fn, Entropy):
        x = float(x[0])
        if x < -FEAS_TOL:
            return inf
        x = max(x, 0.0)
        ent = 0.0 if x == 0.0 else x * np.log(x) - x
        return float(fn.coeff * ent + fn.tilt * x + fn.offset)
    if isinstance(fn, Exponential):
        with np.errstate(over="ignore"):  # an overflow reads as +inf
            return float(fn.coeff * np.exp(fn.rate * float(x[0])) + fn.offset)
    if isinstance(fn, PolyhedralIndicator):
        P = fn.polyhedron
        inside = (np.all(P.a_ub @ x <= P.b_ub + FEAS_TOL)
                  and np.all(np.abs(P.a_eq @ x - P.b_eq) <= FEAS_TOL))
        return 0.0 if inside else inf
    if isinstance(fn, AffinePrecomposition):
        return reference_value(fn.inner, fn.matrix @ x + fn.offset)
    if isinstance(fn, (SeparableSum, FiniteSum)):
        total = 0.0
        for part, lo, hi in (zip(fn.parts, fn.offsets[:-1], fn.offsets[1:])
                             if isinstance(fn, SeparableSum)
                             else ((s, 0, fn.dim) for s in fn.summands)):
            v = reference_value(part, x[lo:hi])
            if v == inf:
                return inf
            total += v
        return total
    raise TypeError(f"no reference rule for kind '{fn.kind}'")


def _catalog_samples():
    from stochdual.convex import indicator_point

    return [
        Quadratic([0.5]),
        Quadratic([1.3], [0.7], -0.2),
        Affine([1.5], 0.3),
        absolute_value(),
        PiecewiseLinear([-1.0, 2.0], [-2.0, 0.5, 3.0], anchor=(0.0, 1.0)),
        PiecewiseLinear([0.5], [0.0, 1.0], lo=-2.0, anchor=(0.0, 0.0)),
        indicator_interval(-1.0, 3.0),
        indicator_nonneg(),
        indicator_nonpos(),
        indicator_point(1.5, 0.25),
        Entropy(1.0, 0.0, 0.0),
        Entropy(0.7, 0.4, -0.1),
        Exponential(1.0, 1.0, 0.0),
        Exponential(2.0, 0.5, 1.0),
    ]


def two_leaf_tree(p=(0.5, 0.5)):
    return build_tree(p, [[[0, 1]], [[0], [1]]])


def random_catalog_problem(rng):
    """Random solvable instance from the quadratic families: tracking-type,
    hedging with a random adapted price, or dynamic quadratic stage costs."""
    from stochdual.integrand import AlmIntegrand, BolzaStage
    from stochdual.solver import Problem
    from stochdual.tree import adapted_projection

    from stochdual.integrand import GenericIntegrand, KabanovStage
    from stochdual.convex import Polyhedron

    roll = rng.integers(0, 4)
    tree = random_small_tree(rng)
    if roll == 3:
        # one-currency market: trade set z <= 0, quadratic stage disutility
        C = Polyhedron.from_cone_generators([[-1.0]])
        stages = [
            [KabanovStage(Quadratic([rng.uniform(0.3, 1.2)]), C,
                          terminal=(t == tree.stage_count - 1))
             for _ in tree.blocks(t)]
            for t in range(tree.stage_count)
        ]
        return Problem(tree, BolzaIntegrand(tree, stages))
    if roll == 0:
        n_dims = [0] * tree.stage_count
        n_dims[0] = 1
        m_dims = [0] * tree.stage_count
        m_dims[-1] = 1
        w = rng.uniform(0.2, 1.5)
        joint = AffinePrecomposition(Quadratic([w]), np.array([[1.0, -1.0]]))
        return Problem(tree, GenericIntegrand(tree, n_dims, m_dims, [joint]))
    if roll == 1:
        price_vals = [np.ones((tree.n_leaves, 1))]
        for t in range(1, tree.stage_count):
            step = adapted_projection(StochasticProcess(
                tree, tuple(
                    rng.uniform(-0.4, 0.6, (tree.n_leaves, 1)) if r == t
                    else np.zeros((tree.n_leaves, 1))
                    for r in range(tree.stage_count)
                )
            )).stage(t)
            price_vals.append(price_vals[-1] + step)
        price = StochasticProcess(tree, tuple(price_vals))
        f = AlmIntegrand(tree, [Quadratic([rng.uniform(0.3, 1.0)])], price)
        return Problem(tree, f)
    stages = [
        [BolzaStage(SeparableSum([
            Quadratic([rng.uniform(0.2, 1.5)], [rng.normal() * 0.3]),
            Quadratic([rng.uniform(0.2, 1.5)]),
        ]), 1) for _ in tree.blocks(t)]
        for t in range(tree.stage_count)
    ]
    return Problem(tree, BolzaIntegrand(tree, stages))


def random_small_tree(rng, max_leaves=8):
    """Random nested tree with at most ``max_leaves`` leaves."""
    depth = int(rng.integers(1, 4))
    parts = [[[0]]]
    for _ in range(depth):
        prev_leaves = parts[-1]
        count = 0
        expand = {}
        for block in prev_leaves:
            for leaf in block:
                k = int(rng.integers(1, 3))
                expand[leaf] = list(range(count, count + k))
                count += k
        if count > max_leaves:
            break
        parts = [
            [[c for leaf in block for c in expand[leaf]] for block in stage]
            for stage in parts
        ]
        parts.append([expand[leaf] for block in prev_leaves for leaf in block])
    n = sum(len(b) for b in parts[-1])
    probs = rng.uniform(0.2, 1.0, n)
    probs /= probs.sum()
    return build_tree(probs, parts)


STAGE_DIMS = (2, 0, 1, 2)  # one entry per stage of irregular_tree


def irregular_tree(seed, n=9, stages=4):
    """Nested partitions with unequal block sizes, blocks listed out of leaf
    order, shuffled leaves inside each block and non-uniform probabilities."""
    rng = np.random.default_rng(seed)
    parts = [[[int(i) for i in rng.permutation(n)]]]
    for _ in range(stages - 1):
        stage = []
        for block in parts[-1]:
            block = rng.permutation(block)
            n_cuts = int(rng.integers(0, min(3, len(block))))
            cuts = np.sort(rng.choice(np.arange(1, len(block)), n_cuts, replace=False)) \
                if n_cuts else []
            stage += [[int(i) for i in piece] for piece in np.split(block, cuts)]
        parts.append([stage[j] for j in rng.permutation(len(stage))])
    probs = rng.uniform(0.2, 1.0, n)
    return build_tree(probs / probs.sum(), parts)


def selection_matrix(cols, width):
    """Dense (len(cols) x width) matrix E with E w = w[cols]."""
    mat = np.zeros((len(cols), width))
    mat[np.arange(len(cols)), cols] = 1.0
    return mat


def random_process(rng, tree, dims):
    return StochasticProcess(
        tree, tuple(rng.normal(size=(tree.n_leaves, d)) for d in dims)
    )


def is_adapted_per_stage(proc):
    """``is_adapted`` one stage at a time: each stage array's rows at the
    leaves that are not the first of their block against its rows at their
    blocks' first leaves, two gathers per stage."""
    for arr, (others, firsts) in zip(proc.values, proc.tree._later_leaves):
        if not np.array_equal(arr[others], arr[firsts]):
            return False
    return True


def conditional_mean_scatter(tree, arr, t):
    """E_t written straight onto the leaves: each stacked group's batched
    ``w @ arr[idx] / mass`` scattered to its blocks' leaves, with no
    per-block table in between."""
    arr = np.asarray(arr, dtype=float)
    rows = arr.reshape(len(arr), -1)
    new = np.empty_like(rows)
    for _, idx, w, mass in tree._block_weights[t]:
        new[idx] = w @ rows[idx] / mass
    return new.reshape(arr.shape)


CATALOG_SAMPLES = _catalog_samples()


def binary_prices(horizon):
    """(horizon + 1, 2**horizon) leaf prices on the binary tree: 1 at stage
    0, then x1.2 or x0.9 per step."""
    n = 2 ** horizon
    leaves = np.arange(n)
    prices = np.ones((horizon + 1, n))
    for t in range(1, horizon + 1):
        down = (leaves >> (horizon - t)) & 1
        prices[t] = prices[t - 1] * np.where(down, 0.9, 1.2)
    return prices


def binary_hedging(horizon, disutility):
    """Hedging problem on ``ScenarioTree.binary(horizon)`` with the
    ``binary_prices`` and one disutility shared by every leaf (built
    without the model's disutility checks)."""
    from stochdual.integrand import AlmIntegrand
    from stochdual.solver import Problem

    tree = ScenarioTree.binary(horizon)
    price = StochasticProcess.from_stage_values(tree, binary_prices(horizon)[:, :, None])
    return Problem(tree, AlmIntegrand(tree, [disutility], price))


# V(0) = 0 disutilities whose conjugates are of each kind the stacked
# hedging passes evaluate: a quadratic, the indicator of [-1, 1], a pwl off
# its anchor, and an entropy
HEDGING_DISUTILITIES = {
    "quadratic": Quadratic([0.5]),
    "abs": absolute_value(),
    "pwl-off-anchor": PiecewiseLinear([-0.5, 1.0], [0.25, 0.5, 2.0], anchor=(0.7, 0.35)),
    "exponential": Exponential(1.0, 1.0, -1.0),
}


HALF_SQUARE = {"kind": "quadratic", "weights": [0.5]}  # z -> z^2 / 2


def binary_partitions(horizon):
    """Stage partitions of the binary tree with 2**horizon leaves."""
    n = 2 ** horizon
    return [[list(range(b * (n >> t), (b + 1) * (n >> t))) for b in range(2 ** t)]
            for t in range(horizon + 1)]


def bolza_doc(horizon, state_cost, rng, noise=0.0, velocity_cost=HALF_SQUARE):
    """Bolza problem document on the binary tree: stage cost K(x, w) =
    state_cost(x) + velocity_cost(w), w^2/2 by default, one spec repeated
    on every block, and u a drift of 1 plus one N(0, 0.1^2) draw per block,
    so adapted.  With ``noise``, an N(0, noise^2) draw is added to u on
    every leaf, which leaves it not adapted."""
    n = 2 ** horizon
    stage = {"kind": "separable", "parts": [state_cost, velocity_cost]}
    u = [np.repeat(1.0 + rng.normal(0.0, 0.1, 2 ** t), n >> t) for t in range(horizon + 1)]
    if noise:
        u = [u_t + rng.normal(0.0, noise, n) for u_t in u]
    return {
        "tree": {"probabilities": [f"1/{n}"] * n, "partitions": binary_partitions(horizon)},
        "model": {"family": "bolza", "state_dim": 1,
                  "stages": [[stage] * (2 ** t) for t in range(horizon + 1)]},
        "parameters": {"u": [[[float(x)] for x in u_t] for u_t in u]},
    }


def kabanov_doc(horizon, rng, disutility=None):
    """Two-currency market on the binary tree: the blocks of each stage
    alternate between two solvency cones, every block has the disutility
    |c|^2 / 2 unless a function spec is given, and the endowment u_z is one
    uniform draw per block (the consumption part of u is 0)."""
    n = 2 ** horizon
    disutility = disutility or {"kind": "quadratic", "weights": [0.5, 0.5]}
    cones = [{"A": [[2.0, 1.0], [1.0, 2.0]], "b": [0.0, 0.0], "cone": True},
             {"A": [[3.0, 1.0], [1.0, 1.5]], "b": [0.0, 0.0], "cone": True}]
    u = []
    for t in range(horizon + 1):
        z = np.repeat(rng.uniform(-0.5, 1.0, (2 ** t, 2)), n >> t, axis=0)
        u.append(np.hstack([z, np.zeros((n, 2))]).tolist())
    return {
        "tree": {"probabilities": [f"1/{n}"] * n, "partitions": binary_partitions(horizon)},
        "model": {"family": "kabanov", "currency_dim": 2,
                  "trade_sets": [[cones[b % 2] for b in range(2 ** t)]
                                 for t in range(horizon + 1)],
                  "disutilities": [[disutility] * (2 ** t) for t in range(horizon + 1)]},
        "parameters": {"u": u},
    }


# A one-leaf generic problem, f(x, u) = e^x - 1000 x + u at u = 0: Newton's
# first step from x = 0 lands near x = 999, where e^x overflows, so its line
# search reads +inf there.  `report --json` exits 0 with the primal value
# -5907.755278982137.
NEWTON_OVERFLOW_DOC = {
    "tree": {"probabilities": ["1"], "partitions": [[[0]]]},
    "model": {"family": "generic", "x_dims": [1], "u_dims": [1], "functions": [
        {"kind": "sum", "terms": [
            {"kind": "precompose", "inner": {"kind": "exponential"}, "matrix": [[1, 0]]},
            {"kind": "affine", "a": [-1000, 1]}]}]},
    "parameters": {"u": [[0]]},
}


def dynamic_docs():
    """The problem documents behind data/dynamic_reports.json, by name:
    Bolza x^2/2 + w^2/2 and |x| + w^2/2 on binary trees of horizon 2 to 5,
    and a horizon-3 Kabanov market, each drawn with seed = horizon."""
    docs = {}
    for horizon in range(2, 6):
        for tag, cost in (("quadratic", HALF_SQUARE), ("abs", {"kind": "abs"})):
            docs[f"bolza-{tag}-H{horizon}"] = bolza_doc(horizon, cost,
                                                        np.random.default_rng(horizon))
    docs["kabanov-H3"] = kabanov_doc(3, np.random.default_rng(3))
    return docs


# the tree section of a document with two leaves of probability 1/2
TWO_LEAVES = {"probabilities": [0.5, 0.5], "partitions": [[[0, 1]], [[0], [1]]]}


def sum_stage_doc(*state_costs):
    """A Bolza document on the two-leaf tree whose one stage cost is
    written as a general ``sum``: each state cost precomposed with x, and
    w^2/2 precomposed with w.  K* then has no closed form, and H_t's
    x-conjugate has one exactly when a single state cost is given."""
    K = {"kind": "sum", "terms": [
        {"kind": "precompose", "inner": cost, "matrix": [[1, 0]]} for cost in state_costs] + [
        {"kind": "precompose", "inner": HALF_SQUARE, "matrix": [[0, 1]]}]}
    return {"tree": TWO_LEAVES,
            "model": {"family": "bolza", "state_dim": 1, "stages": [[K], [K, K]]},
            "parameters": {"u": [[[1.0], [1.0]], [[1.5], [0.5]]]}}


# K = |x| + w^2/2, whose K_t* is read through H_t; and |x| + pwl(x) + w^2/2,
# where neither K_t* nor H_t's x-conjugate has a closed form
SUM_STAGE_DOC = sum_stage_doc({"kind": "abs"})
NEITHER_DOC = sum_stage_doc({"kind": "abs"}, {"kind": "pwl", "breaks": [1], "slopes": [0, 2]})


def no_model_docs():
    """Documents whose primal has no QP form, by name: |x_0 - u| as a
    support function on two leaves, and x^2 under a constraint that is not
    an ``Affine`` instance, x^2 - 1 + u <= 0 or the precomposed 1 - x + u
    <= 0.  Every command reports a ``no-closed-form`` primal on them."""
    def constrained(constraint):
        return {"tree": TWO_LEAVES,
                "model": {"family": "constrained", "x_dims": [1, 0],
                          "objective": {"kind": "quadratic", "weights": [1.0]},
                          "constraints": [constraint]},
                "parameters": {"u": [0, [0.0, -0.5]]}}

    support = {"kind": "support", "A": [[1.0], [-1.0]], "b": [1.0, 1.0]}
    return {
        "support-loss": {
            "tree": TWO_LEAVES,
            "model": {"family": "generic", "x_dims": [1, 0], "u_dims": [0, 1],
                      "functions": [{"kind": "precompose", "inner": support,
                                     "matrix": [[1.0, -1.0]]}]},
            "parameters": {"u": [0, [1.0, -0.5]]}},
        "quadratic-constraint": constrained(
            {"kind": "quadratic", "weights": [1.0], "offset": -1.0}),
        "precomposed-affine-constraint": constrained(
            {"kind": "precompose", "inner": {"kind": "affine", "a": [-1.0], "b": 1.0},
             "matrix": [[1.0]]}),
    }


def write_doc(directory, name, doc):
    """Write a problem document as sorted JSON; returns the path."""
    path = directory / f"{name}.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    return str(path)


def hedging_doc(horizon, liability, disutility=None):
    """Hedging problem document on a binary tree: price x1.2 or x0.9 per
    step, disutility z^2/2 unless a function spec is given."""
    n = 2 ** horizon
    prices = binary_prices(horizon)
    return {
        "tree": {"probabilities": [f"1/{n}"] * n, "partitions": binary_partitions(horizon)},
        "model": {"family": "alm",
                  "disutility": disutility or {"kind": "quadratic", "weights": [0.5]},
                  "price": [[[float(s)] for s in stage] for stage in prices]},
        "parameters": {"u": [0] * horizon + [[[float(x)] for x in liability]]},
    }


def hedging_file(tmp_path, horizon, liability, disutility=None):
    """``hedging_doc`` written to ``tmp_path``; returns the path."""
    path = tmp_path / f"hedge-H{horizon}.json"
    path.write_text(json.dumps(hedging_doc(horizon, liability, disutility)))
    return str(path)


def parse_doc(doc):
    """(problem, u) of a problem document, parsed as a file."""
    from stochdual.cli import parse_problem_file

    with tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory) / "doc.json"
        path.write_text(json.dumps(doc))
        problem, _, params, _, _ = parse_problem_file(str(path))
    return problem, params["u"]


def bound_solves(monkeypatch):
    """Record each engine solve (``solver._minimize``) made inside an
    annihilator bound (``dual_via_orthocomplement``).  A bound handed its
    dual value reads v off that value's inner solve, so it makes none."""
    from stochdual import solver

    calls, inside = [], []
    minimize, bound = solver._minimize, solver._orthocomplement_bound

    def spy(obj):
        if inside:
            calls.append(obj)
        return minimize(obj)

    def within(*args):
        inside.append(True)
        try:
            return bound(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(solver, "_minimize", spy)
    monkeypatch.setattr(solver, "_orthocomplement_bound", within)
    return calls


def solve_bits(p, u):
    """What one ``duality_gap`` and its certificate give for (p, u), as
    exact strings: statuses, x and y, the values, the gap, and the residuals
    of ``check_alm`` on a hedging model or else of the saddle checker at
    the annihilator bound's v."""
    from stochdual.optimality import check_alm, check_saddle
    from stochdual.solver import dual_via_orthocomplement, duality_gap

    gap = duality_gap(p, u)
    x, y = gap.primal.optimizer, gap.dual.optimizer
    if isinstance(p.integrand, AlmIntegrand):
        cert = check_alm(p, x, u, y)
    else:
        cert = check_saddle(p, x, u, y,
                            dual_via_orthocomplement(p, y, objective=gap.dual.objective).v)
    return [gap.primal.status, gap.dual.status, x.rows.tobytes(), y.rows.tobytes(),
            repr(gap.primal.value), repr(gap.dual.value), repr(gap.gap), cert.verdict,
            [repr(row["residual"]) for row in cert.rows]]


def kinked_doc(family, horizon, seed, cost):
    """A kinked problem document on the binary tree of ``horizon``:
    ``"hedging"`` with disutility ``cost`` and liability U(2.5, 3.5) per
    leaf, or ``"bolza"`` / ``"bolza-lp"`` with state cost ``cost`` and
    velocity cost w^2/2 / |w|."""
    rng = np.random.default_rng(seed)
    if family == "hedging":
        return hedging_doc(horizon, rng.uniform(2.5, 3.5, 2 ** horizon), cost)
    velocity = {"kind": "abs"} if family == "bolza-lp" else HALF_SQUARE
    return bolza_doc(horizon, cost, rng, velocity_cost=velocity)


def kinked_docs():
    """The problem documents behind data/kinked_reports.json, by name:
    |z| hedging on binary trees of horizon 2 to 5 and the horizon-3 Bolza
    LP |x| + |w|, each drawn with seed = horizon."""
    abs_v = {"kind": "abs"}
    docs = {f"hedging-abs-H{h}": kinked_doc("hedging", h, h, abs_v) for h in range(2, 6)}
    docs["bolza-lp-abs-H3"] = kinked_doc("bolza-lp", 3, 3, abs_v)
    return docs


# ---------------------------------------------------------------------------
# per-leaf references for the node-wise compilation of dynamic problems
# ---------------------------------------------------------------------------


def grouped_process(rng, tree, dims, splits=1):
    """Random process that takes, on every stage-t block, one of ``splits``
    values per leaf: adapted for splits=1; otherwise a block's leaves fall
    into bit-equal groups that are not tree nodes."""
    arrays = []
    for t, d in enumerate(dims):
        a = np.zeros((tree.n_leaves, d))
        for block in tree.blocks(t):
            vals = rng.normal(size=(splits, d))
            a[list(block)] = vals[rng.integers(splits, size=len(block))]
        arrays.append(a)
    return StochasticProcess(tree, tuple(arrays))


def joint_function(f, leaf):
    """(x, u) -> f(x, u) at ``leaf`` as one catalog function.  For a Bolza
    integrand, sum_t K_t(x_t, x_t - x_{t-1} + u_t) built from the leaf's
    stage costs; any other integrand gives its own."""
    if not isinstance(f, BolzaIntegrand):
        return f.joint_function(leaf)
    d, width = f.d, f.n_total + f.m_total
    pieces = []
    for t in range(f.tree.stage_count):
        M = np.zeros((2 * d, width))
        M[:d, f.x_slices[t]] = np.eye(d)
        M[d:, f.x_slices[t]] = np.eye(d)
        if t > 0:
            M[d:, f.x_slices[t - 1]] = -np.eye(d)
        M[d:, f.n_total + f.u_slices[t].start:f.n_total + f.u_slices[t].stop] = np.eye(d)
        pieces.append(AffinePrecomposition(f.stage_cost(leaf, t).fn, M))
    return FiniteSum(pieces)


def stage_parts(f, z):
    """A leaf vector of a Bolza integrand (x, u, v or y) split by stage."""
    z = np.asarray(z, dtype=float).ravel()
    return [z[sl] for sl in f.x_slices]


def stage_value(stage, x, w):
    """K(x, w) of one stage at one point, by K's one-row ``value``."""
    return stage.fn.value(np.concatenate([np.ravel(x), np.ravel(w)]))


def stage_conjugate_value(stage, a, b):
    """K*(a, b) of one stage at one point, by K*'s one-row ``value``; a
    Kabanov stage's K* has no closed form, so its slice at b."""
    if isinstance(stage, KabanovStage):
        return stage.conjugate_function_of_a(b).value(a)
    return stage.fn.conjugate().value(np.concatenate([np.ravel(a), np.ravel(b)]))


def stage_hamiltonian(stage, x, y):
    """H(x, y) of one stage at one point: +inf where K(x, .) is
    identically +inf, -inf where H(., y) is MINUS_INF."""
    if stage.x_infeasible(x):
        return np.inf
    fn = stage.hamiltonian_functions_of_x(np.asarray(y, dtype=float).reshape(1, -1))[0]
    return -np.inf if fn is MINUS_INF else fn.value(np.ravel(x))


def bolza_value(f, leaf, x, u):
    """f(x, u) at one leaf of a Bolza integrand: sum_t K_t(x_t, x_t -
    x_{t-1} + u_t) stage by stage, +inf at the first +inf stage cost."""
    states, us = stage_parts(f, x), stage_parts(f, u)
    total = 0.0
    for t in range(f.tree.stage_count):
        prev = states[t - 1] if t > 0 else np.zeros(f.d)
        v = stage_value(f.stage_cost(leaf, t), states[t], states[t] - prev + us[t])
        if v == np.inf:
            return np.inf
        total += v
    return total


def bolza_lagrangian(f, leaf, x, y):
    """l(x, y) at one leaf of a Bolza integrand: sum_t H_t(x_t, y_t) +
    (x_t - x_{t-1}).y_t stage by stage; +inf when some stage is, otherwise
    -inf when some H_t(., y_t) is MINUS_INF."""
    states, ys = stage_parts(f, x), stage_parts(f, y)
    total, minus = 0.0, False
    for t in range(f.tree.stage_count):
        h = stage_hamiltonian(f.stage_cost(leaf, t), states[t], ys[t])
        if h == np.inf:
            return np.inf
        if h == -np.inf:
            minus = True
            continue
        prev = states[t - 1] if t > 0 else np.zeros(f.d)
        total += h + float((states[t] - prev) @ ys[t])
    return -np.inf if minus else total


def dual_increments(f, y):
    """(y_t, y_{t+1} - y_t) per stage of a leaf vector y, y_{T+1} = 0."""
    ys = stage_parts(f, y)
    nxt = ys[1:] + [np.zeros(f.d)]
    return ys, [n - y_t for n, y_t in zip(nxt, ys)]


def bolza_conjugate_value(f, leaf, v, y):
    """f*(v, y) at one leaf of a Bolza integrand: sum_t K_t*(v_t + y_{t+1}
    - y_t, y_t) stage by stage, +inf at the first +inf term."""
    vs = stage_parts(f, v)
    ys, dys = dual_increments(f, y)
    total = 0.0
    for t in range(f.tree.stage_count):
        term = stage_conjugate_value(f.stage_cost(leaf, t), vs[t] + dys[t], ys[t])
        if term == np.inf:
            return np.inf
        total += term
    return total


def lagrangian_functions_of_x(f, ys):
    """x -> l(x, y_l) of every leaf l at row l of ``ys``, or the MINUS_INF
    sentinel.  For a Bolza integrand, per leaf sum_t H_t(x_t, y_t) + (y_t -
    y_{t+1}).x_t with y_{T+1} = 0, MINUS_INF when some H_t(., y_t) is; any
    other integrand gives its own."""
    if not isinstance(f, BolzaIntegrand):
        return f.lagrangian_functions_of_x(ys)
    return [_bolza_lagrangian_function_of_x(f, leaf, y) for leaf, y in enumerate(ys)]


def _bolza_lagrangian_function_of_x(f, leaf, y):
    ys, dys = dual_increments(f, y)
    pieces, coeff = [], np.zeros(f.n_total)
    for t in range(f.tree.stage_count):
        h_fn = f.stage_cost(leaf, t).hamiltonian_functions_of_x(ys[t][None])[0]
        if h_fn is MINUS_INF:
            return MINUS_INF
        M = np.zeros((h_fn.dim, f.n_total))
        M[:, f.x_slices[t]] = np.eye(f.d)
        pieces.append(AffinePrecomposition(h_fn, M))
        coeff[f.x_slices[t]] -= dys[t]
    pieces.append(Affine(coeff, 0.0))
    return FiniteSum(pieces)


def conjugate_function_of_a(stage, b):
    """The slice a -> K*(a, b) of a stage's conjugate, built per node: the
    reference of ``BolzaStage.conjugate_value_many``, which reads K* at
    the stacked rows (a, b).  K*'s trailing block fixed at b, or a Kabanov
    stage's own closed form."""
    if isinstance(stage, KabanovStage):
        return stage.conjugate_function_of_a(b)
    b = np.asarray(b, dtype=float).ravel()
    return stage.fn.conjugate().fix(np.arange(stage.d, 2 * stage.d), b)


def hbar_function_of_x(stage, y):
    """The lsc hull of a stage's Hamiltonian H(., y): the conjugate of
    a -> K*(a, y), MINUS_INF where that slice is identically +inf (its
    supremum is then empty).  A Kabanov stage's Hamiltonian is closed in x
    already, and its slice's conjugate has no closed form."""
    if isinstance(stage, KabanovStage):
        return stage.hamiltonian_functions_of_x(np.asarray(y, dtype=float).reshape(1, -1))[0]
    conj = conjugate_function_of_a(stage, y)
    dom = domain_polyhedron(conj)
    if dom is not None and dom.is_empty():
        return MINUS_INF
    return conj.conjugate()


def lower_lagrangians(f, xs, ys):
    """The lower variant sup_v { x.v - f*(v, y) } of every leaf, at rows l
    of ``xs`` and ``ys``: l(x, y) where l(., y) is closed proper, -inf
    where f*(., y) is identically +inf.  For a Bolza integrand, stage by
    stage through the lsc hulls of the Hamiltonians, minus sum_t
    x_t.dy_{t+1}; a stage whose shifted conjugate is identically +inf
    empties the supremum for the whole leaf, so -inf dominates a +inf from
    another stage."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if not isinstance(f, BolzaIntegrand):
        return [-np.inf if fn is MINUS_INF else fn.value(x)
                for fn, x in zip(f.lagrangian_functions_of_x(ys), xs)]
    return [_bolza_lower_lagrangian(f, leaf, x, y) for leaf, (x, y) in enumerate(zip(xs, ys))]


def _bolza_lower_lagrangian(f, leaf, x, y):
    states = stage_parts(f, x)
    ys, dys = dual_increments(f, y)
    total = 0.0
    minus = plus = False
    for t in range(f.tree.stage_count):
        hb = hbar_function_of_x(f.stage_cost(leaf, t), ys[t])
        if hb is MINUS_INF:
            minus = True
            continue
        v = hb.value(states[t])
        if v == np.inf:
            plus = True
            continue
        total += v - float(states[t] @ dys[t])
    if minus:
        return -np.inf
    if plus:
        return np.inf
    return total


def conjugate_function_of_v(f, leaf, y):
    """v -> f*(v, y) at ``leaf``.  For a Bolza integrand, the separable sum
    over t of K_t*(v_t + dy_{t+1}, y_t); any other integrand gives its
    own."""
    if not isinstance(f, BolzaIntegrand):
        return f.conjugate_function_of_v(leaf, y)
    ys, dys = dual_increments(f, y)
    return SeparableSum([
        AffinePrecomposition(conjugate_function_of_a(f.stage_cost(leaf, t), ys[t]),
                             np.eye(f.d), dys[t])
        for t in range(f.tree.stage_count)])


def per_leaf_objective(p, functions):
    """sum_l p_l fn_l(w[columns_l]) over the adapted layout, one term per
    leaf; None when some leaf function is the MINUS_INF sentinel."""
    from stochdual.solver import CompiledObjective, _Term

    if any(fn is MINUS_INF for fn in functions):
        return None
    return CompiledObjective(p.layout.width, [
        _Term(float(p.tree.probabilities[leaf]), fn, p.layout.columns[leaf], leaf)
        for leaf, fn in enumerate(functions)])


def per_leaf_primal(p, u):
    """E f(x, u), leaf by leaf: each leaf's joint function with u frozen."""
    f, rows = p.integrand, u.rows
    u_idx = np.arange(f.n_total, f.n_total + f.m_total)
    return per_leaf_objective(p, [joint_function(f, leaf).fix(u_idx, rows[leaf])
                                  for leaf in range(p.tree.n_leaves)])


def per_leaf_lagrangian(p, y):
    """E l(x, y), leaf by leaf."""
    return per_leaf_objective(p, lagrangian_functions_of_x(p.integrand, y.rows))


def per_leaf_lower_value(p, y, x):
    """-E lower-l(x, y), leaf by leaf: +inf when some leaf's lower-l is
    -inf, None when none is and some is +inf."""
    vals = lower_lagrangians(p.integrand, x.rows, y.rows)
    if -np.inf in vals:
        return np.inf
    if np.inf in vals:
        return None
    total = 0.0
    for leaf, v in enumerate(vals):
        total += float(p.tree.probabilities[leaf]) * v
    return -total


def per_leaf_conjugates(p, y):
    """v -> f*(v, y) for every leaf."""
    rows = y.rows
    return [conjugate_function_of_v(p.integrand, leaf, rows[leaf])
            for leaf in range(p.tree.n_leaves)]


def per_leaf_conjugate_values(p, ys, vs):
    """f*(v_l, y_l) of every leaf l at rows l of ``vs`` and ``ys``, each
    from the leaf's own conjugate function of v."""
    return np.array([conjugate_function_of_v(p.integrand, leaf, y).value(v)
                     for leaf, (v, y) in enumerate(zip(vs, ys))])


def per_leaf_conjugate_sum(p, y, v):
    """E f*(v, y) leaf by leaf: ``per_leaf_conjugate_values`` at the leaf
    rows of v and y, summed over the leaves in order as a compiled
    objective sums its terms; +inf when some value is."""
    total = 0.0
    for weight, val in zip(p.tree.probabilities.tolist(),
                           per_leaf_conjugate_values(p, y.rows, v.rows).tolist()):
        if val == np.inf:
            return np.inf
        total += weight * val
    return total


def _stage_dual_gradient(stage, x_t, w_t):
    """Velocity-block gradient of the stage cost, when it pins the dual."""
    from stochdual.convex import NoClosedFormError
    from stochdual.integrand import KabanovStage

    if isinstance(stage, KabanovStage):
        k = np.ravel(x_t)[stage.currency_dim:]
        try:
            yz = subgradient(stage.V, -k)
        except NoClosedFormError:
            return None
        return np.concatenate([yz, np.zeros(stage.currency_dim)])
    try:
        full = np.concatenate([np.ravel(x_t), np.ravel(w_t)])
        if stage.fn.value(full) == np.inf:
            return None
        return subgradient(stage.fn, full)[stage.d:]
    except (NoClosedFormError, ValueError):
        return None


def per_leaf_recovered_dual(p, u, x):
    """The dynamic dual candidate leaf by leaf: the velocity gradient of
    every leaf's stage costs at (x_t, dx_t + u_t); None when some stage
    does not pin it."""
    f, xs, us = p.integrand, x.rows, u.rows
    arrays = [np.zeros((p.tree.n_leaves, d)) for d in p.m_dims]
    for leaf in range(p.tree.n_leaves):
        states = stage_parts(f, xs[leaf])
        for t in range(p.tree.stage_count):
            prev = states[t - 1] if t > 0 else np.zeros(f.d)
            w = states[t] - prev + us[leaf][f.u_slices[t]]
            y_t = _stage_dual_gradient(f.stage_cost(leaf, t), states[t], w)
            if y_t is None:
                return None
            arrays[t][leaf] = y_t
    return StochasticProcess(p.tree, tuple(arrays))


def group_scatter_dual(p, primal):
    """The leaf rows of y read off the primal group by group: per lowering
    group, its terms' stacked N_k' s_k, each scattered to the rows of the
    leaves its term names."""
    obj = primal.compiled
    tpl, rows = obj.template, np.zeros((p.tree.n_leaves, sum(p.m_dims)))
    for idx, s in zip(tpl.grouping, obj._group_subgradients(primal.solution)):
        group = [tpl.terms[i] for i in idx]
        leaves = [np.atleast_1d(t.to) for t in group]
        shares = (np.array([t.param for t in group]).swapaxes(-1, -2) @ s[..., None])[..., 0]
        owner = np.repeat(np.arange(len(group)), [len(ls) for ls in leaves])
        np.add.at(rows, np.concatenate(leaves), shares[owner])
    return rows


def term_loop_v(p, yvecs, dob):
    """The leaf rows of v read off the inner solve behind ``dob`` term by
    term: M' s on a precomposition g(M x + m), s itself on any other term,
    added to the rows of the leaves the term names from its first column
    on, after the Bolza base y_t - y_{t+1}."""
    f, obj = p.integrand, dob.lagrangian
    V = (yvecs - f._shift(yvecs, 1) if isinstance(f, BolzaIntegrand)
         else np.zeros((p.tree.n_leaves, sum(p.n_dims))))
    for idx, group in zip(obj.template.grouping, obj._group_subgradients(dob.inner)):
        for i, s in zip(idx.tolist(), group):
            t = obj.template.terms[i]
            if not np.size(t.to):  # the coupling term
                continue
            if isinstance(t.fn, AffinePrecomposition):
                s = t.fn.matrix.T @ s
            V[t.to, t.at:t.at + len(s)] += s
    return V


# ---------------------------------------------------------------------------
# dense references for lowered programs and the annihilator bound
# ---------------------------------------------------------------------------


def dense_lowering(obj, mats):
    """qp_data the dense way: each term's form composed with its matrix and
    added at its weight, then one epigraph variable per kinked atom."""
    width = mats[0].shape[1]
    P, q, c = np.zeros((width, width)), np.zeros(width), 0.0
    G, h, A, b, atoms = [], [], [], [], []
    for t, M in zip(terms(obj), mats):
        form = t.fn.qp_form().compose(M, np.zeros(M.shape[0]))
        P += t.weight * form.P
        q += t.weight * form.q
        c += t.weight * form.c
        G += list(form.G); h += list(form.h); A += list(form.A); b += list(form.b)
        atoms += [(row, off, pwl.scaled(t.weight)) for row, off, pwl in form.epi]
    n_aux = len(atoms)
    G = [np.append(row, np.zeros(n_aux)) for row in G]
    for i, (row, off, pwl) in enumerate(atoms):
        aux, none = np.zeros(n_aux), np.zeros(n_aux)
        aux[i] = -1.0
        for slope, intercept in pwl.supporting_lines():
            G.append(np.append(slope * row, aux)); h.append(-(intercept + slope * off))
        if pwl.hi != np.inf:
            G.append(np.append(row, none)); h.append(pwl.hi - off)
        if pwl.lo != -np.inf:
            G.append(np.append(-row, none)); h.append(off - pwl.lo)
    total = width + n_aux
    Pt = np.zeros((total, total)); Pt[:width, :width] = P
    return (Pt, np.append(q, np.ones(n_aux)), c,
            np.array(G).reshape(-1, total), np.array(h),
            np.array([np.append(row, np.zeros(n_aux)) for row in A]).reshape(-1, total),
            np.array(b), width)


def orthocomplement_basis(tree, dims):
    """Columns span {v : blockwise weighted means vanish at every stage}, in
    the flat stage-major order (stage by stage, each stage leaf-major): per
    block, each leaf but the last paired with the last at -p_leaf / p_last."""
    total = sum(tree.n_leaves * d for d in dims)
    offsets = np.cumsum([0] + [tree.n_leaves * d for d in dims])
    probs, cols = tree.probabilities, []
    for t, d in enumerate(dims):
        for block in tree.blocks(t):
            last = block[-1]
            for leaf in block[:-1]:
                for comp in range(d):
                    col = np.zeros(total)
                    col[offsets[t] + leaf * d + comp] = 1.0
                    col[offsets[t] + last * d + comp] = -probs[leaf] / probs[last]
                    cols.append(col)
    return np.column_stack(cols) if cols else np.zeros((total, 0))


def basis_bound(p, y):
    """The annihilator bound the basis way: inf of E f*(v, y) over v = B w
    with w free, each leaf's conjugate (per_leaf_conjugates) lowered
    through its rows of the basis B and the program solved by solve_qp.
    Returns (status, value, v as a flat vector or None)."""
    from stochdual.qp import solve_qp
    from stochdual.solver import CompiledObjective, _Term

    tree = p.tree
    B = orthocomplement_basis(tree, p.n_dims)
    offsets = np.cumsum([0] + [tree.n_leaves * d for d in p.n_dims])
    leaf_cols = [np.concatenate([off + leaf * d + np.arange(d)
                                 for off, d in zip(offsets, p.n_dims)])
                 for leaf in range(tree.n_leaves)]
    obj = CompiledObjective(B.shape[0], [
        _Term(float(tree.probabilities[leaf]), fn, leaf_cols[leaf], leaf)
        for leaf, fn in enumerate(per_leaf_conjugates(p, y))])
    if B.shape[1] == 0:  # v = 0 is the only candidate
        value = obj.value(np.zeros(B.shape[0]))
        return ("optimal" if value < np.inf else "infeasible"), value, np.zeros(B.shape[0])
    P, q, c, G, h, A, b, width = dense_lowering(obj, [B[t.cols] for t in terms(obj)])
    res = solve_qp(P, q, c, G, h, A, b)
    return res.status, res.value, None if res.x is None else B @ res.x[:width]


def precomposition_lagrangian_per_leaf(fn, nx, y):
    """inf over w of g(M_x x + M_w w + m) - w.y for one g(M (x, w) + m)
    with a square parameter block M_w: one solve and one scalar conjugate
    value, the per-leaf rule that the stacked pass replaced."""
    M_x, M_w = fn.matrix[:, :nx], fn.matrix[:, nx:]
    eta = np.linalg.solve(M_w.T, np.asarray(y, dtype=float))
    star = fn.inner.conjugate().value(eta)
    if star == np.inf:
        return MINUS_INF
    return Affine(M_x.T @ eta, float(eta @ fn.offset) - star)


def check_alm_per_leaf(p, x, u, y, tol=1e-6):
    """``check_alm`` leaf by leaf: one Fenchel residual per leaf and the
    annihilator row from a second pass over v = -y ds; a position x that
    is not adapted fails first."""
    from stochdual.convex import fenchel_residual
    from stochdual.duality import check_martingale_density
    from stochdual.optimality import Certificate
    from stochdual.tree import in_orthocomplement, is_adapted

    f = p.integrand
    cert = Certificate("pending", tol, y=y)
    if not is_adapted(x):
        cert.verdict, cert.reason = "fail", "candidate decision is not adapted"
        return cert
    vals = y.rows.ravel()
    if np.max(np.abs(vals), initial=0.0) <= tol:
        cert.verdict = "degenerate"
        cert.reason = "zero dual: the density cone excludes it"
        return cert
    report = check_martingale_density(vals, f.price, tol)
    cert.add("martingale-density", report.max_residual, report.tol)
    xs, us = x.rows, u.rows
    for leaf in range(p.tree.n_leaves):
        wealth = us[leaf][-1] - float(xs[leaf] @ f.gain_rows[leaf])
        res = fenchel_residual(f.disutilities[leaf], [wealth], [vals[leaf]])
        cert.add("disutility-subgradient", max(res, 0.0), leaf=leaf)
    arrays = [-vals[:, None] * (f.price.stage(t + 1) - f.price.stage(t))
              for t in range(p.tree.horizon)]
    arrays.append(np.zeros((p.tree.n_leaves, 0)))
    cert.v = StochasticProcess(p.tree, tuple(arrays))
    cert.add("annihilator", in_orthocomplement(cert.v, tol).max_residual, report.tol)
    return cert.finalize()


# ---------------------------------------------------------------------------
# per-node references for the stage-group passes of dynamic problems
# ---------------------------------------------------------------------------


def bolza_dual_value_per_node(p, u, y):
    """``bolza_dual_value`` leaf by leaf and stage by stage: one scalar
    K_t*(E_t dy_{t+1}, y_t) per leaf and stage."""
    from stochdual.tree import expected_dual_increments, pairing

    f, tree = p.integrand, p.tree
    expect_dy = expected_dual_increments(y)
    total = pairing(u, y)
    for leaf in range(tree.n_leaves):
        for t in range(tree.stage_count):
            term = stage_conjugate_value(f.stage_cost(leaf, t), expect_dy[t][leaf],
                                         y.stage(t)[leaf])
            if term == np.inf:
                return -np.inf
            total -= float(tree.probabilities[leaf]) * term
    return total


def check_euler_lagrange_per_node(p, x, u, y, tol=1e-6):
    """``check_euler_lagrange`` one information block at a time: scalar
    K_t and K_t* values at the block's first leaf."""
    from stochdual.optimality import Certificate
    from stochdual.tree import expected_dual_increments

    f = p.integrand
    cert = Certificate("pending", tol, y=y)
    e_dy = expected_dual_increments(y)
    for t in range(p.tree.stage_count):
        for b, block in enumerate(p.tree.blocks(t)):
            leaf = block[0]
            stage = f.stage_cost(leaf, t)
            x_t = x.stage(t)[leaf]
            x_prev = x.stage(t - 1)[leaf] if t > 0 else np.zeros(f.d)
            w = x_t - x_prev + u.stage(t)[leaf]
            kval = stage_value(stage, x_t, w)
            star = stage_conjugate_value(stage, e_dy[t][leaf], y.stage(t)[leaf])
            if kval == np.inf or star == np.inf:
                res = np.inf
            else:
                res = kval + star - float(x_t @ e_dy[t][leaf]) - float(w @ y.stage(t)[leaf])
            cert.add("stage-subgradient", max(res, 0.0), stage=t, block=b)
    return cert.finalize()


def check_hamiltonian_system_per_node(p, x, u, y, tol=1e-6):
    """``check_hamiltonian_system`` one information block at a time: the
    Hamiltonian built at the block's first leaf alone, scalar K values,
    and the state residual a Fenchel residual of H(., y) through its own
    conjugate, ``h.conjugate()``, or where that has no closed form the
    slice a -> K*(a, y) (``conjugate_function_of_a``): the checker reads
    K*(a, y) = H(., y)*(a) at the stacked rows, so the two agree to
    rounding."""
    from stochdual.convex import NoClosedFormError, fenchel_residual
    from stochdual.optimality import Certificate
    from stochdual.tree import expected_dual_increments

    f = p.integrand
    cert = Certificate("pending", tol, y=y)
    e_dy = expected_dual_increments(y)
    for t in range(p.tree.stage_count):
        for b, block in enumerate(p.tree.blocks(t)):
            leaf = block[0]
            stage = f.stage_cost(leaf, t)
            x_t, y_t = x.stage(t)[leaf], y.stage(t)[leaf]
            x_prev = x.stage(t - 1)[leaf] if t > 0 else np.zeros(f.d)
            w = x_t - x_prev + u.stage(t)[leaf]
            h_fn = stage.hamiltonian_functions_of_x(y_t[None])[0]
            if h_fn is MINUS_INF:
                cert.add("state-inclusion", np.inf, stage=t, block=b)
                cert.add("velocity-inclusion", np.inf, stage=t, block=b)
                continue
            try:
                h_star = h_fn.conjugate()
            except NoClosedFormError:
                h_star = conjugate_function_of_a(stage, y_t)
            res_x = fenchel_residual(h_fn, x_t, e_dy[t][leaf], conjugate=h_star)
            cert.add("state-inclusion", max(res_x, 0.0), stage=t, block=b)
            hval, kval = h_fn.value(x_t), stage_value(stage, x_t, w)
            res_y = np.inf if hval == np.inf or kval == np.inf else kval - float(w @ y_t) - hval
            cert.add("velocity-inclusion", max(res_y, 0.0), stage=t, block=b)
    return cert.finalize()


def bolza_conjugates_per_node(p, y):
    """Per leaf, v -> f*(v, y) = sum_t K_t*(v_t + y_{t+1} - y_t, y_t), each
    stage conjugate a -> K_t*(a, y_t) built in a loop over the nodes (the
    leaves of a block with bit-equal y_t) and shared by the node's leaves."""
    from stochdual.convex import SeparableSum
    from stochdual.solver import _leaf_vectors, _stage_nodes

    f, yvecs = p.integrand, _leaf_vectors(p, y, "dual")
    stage_fns = [[None] * p.tree.stage_count for _ in range(p.tree.n_leaves)]
    for t, nodes in enumerate(_stage_nodes(p, yvecs)):
        for b, leaves, _ in nodes:
            fn_a = conjugate_function_of_a(f.stages[t][b], yvecs[leaves[0], f.u_slices[t]])
            for leaf in leaves:
                stage_fns[leaf][t] = fn_a
    eye, shifts = np.eye(f.d), f._shift(yvecs, 1) - yvecs
    return [SeparableSum([AffinePrecomposition(fn_a, eye, shifts[leaf, f.u_slices[t]])
                          for t, fn_a in enumerate(fns)])
            for leaf, fns in enumerate(stage_fns)]


def joint_conjugate_sum(p, y, v):
    """E f*(v, y) through a Bolza integrand's joint rule at each leaf
    (``bolza_conjugate_value``), the leaves summed in order as a compiled
    objective sums its terms; +inf when some value is."""
    total = 0.0
    for leaf, (weight, v_l, y_l) in enumerate(zip(p.tree.probabilities.tolist(), v.rows, y.rows)):
        val = bolza_conjugate_value(p.integrand, leaf, v_l, y_l)
        if val == np.inf:
            return np.inf
        total += weight * val
    return total


def conjugate_sum_per_leaf(p, y, v):
    """E f*(v, y), each leaf's ``bolza_conjugates_per_node`` function
    evaluated at the leaf's v and the leaves summed in order, as a compiled
    objective sums its terms."""
    total = 0.0
    for leaf, (fn, v_l) in enumerate(zip(bolza_conjugates_per_node(p, y), v.rows)):
        val = fn.value(v_l)
        if val == np.inf:
            return np.inf
        total += float(p.tree.probabilities[leaf]) * val
    return total
