"""Finite filtered probability spaces represented as scenario trees.

A scenario tree fixes a finite set of leaves (elementary outcomes), strictly
positive leaf probabilities, and for every stage a partition of the leaves
into information blocks.  Later partitions refine earlier ones.  A process
is one array of leaf rows whose stage-t columns are its stage-t component;
it is adapted when that component is constant on every stage-t block.
Conditional expectations, the expectation pairing E(u.y) and the
zero-conditional-mean test used for dual variables are all block
operations on these columns: each block's mean is taken once
(``ScenarioTree.block_means``), which the zero-mean test reads as it is
and a conditional expectation repeats on the block's leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

__all__ = [
    "TreeError",
    "NotAdaptedError",
    "ScenarioTree",
    "StochasticProcess",
    "build_tree",
    "conditional_expectation",
    "adapted_projection",
    "expected_dual_increments",
    "is_adapted",
    "pairing",
    "in_orthocomplement",
    "OrthoReport",
]

PROB_TOL = 1e-12


class TreeError(ValueError):
    """Raised for invalid tree descriptions or mismatched processes."""


class NotAdaptedError(ValueError):
    """Raised where a process must be adapted (the dynamic dual, the stage
    conditions) and is not."""


def _leaf_index(i) -> int:
    """A leaf index: a number with an integral value, not a bool or a string."""
    if type(i) is int:  # the common case, and no bool is of type int
        return i
    if isinstance(i, (bool, np.bool_, str)) or not float(i).is_integer():
        raise ValueError(f"{i!r} is not an integer")
    return int(i)


def _as_probability(p) -> float:
    if isinstance(p, str):
        return float(Fraction(p))
    return float(p)


@dataclass(frozen=True, eq=False)
class ScenarioTree:
    """Leaf probabilities plus one partition of the leaves per stage.

    ``partitions[t]`` lists the stage-t blocks, each block a tuple of leaf
    indices.  Stage 0 usually has a single block (trivial initial
    information) but any partition is accepted as long as the sequence is
    nested.  Probabilities are strictly positive and sum to one.
    """

    probabilities: np.ndarray
    partitions: tuple[tuple[tuple[int, ...], ...], ...]
    leaf_block: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", probs)
        probs.setflags(write=False)
        n = probs.size
        if n < 1:
            raise TreeError("tree needs at least one leaf")
        if np.any(probs <= 0.0):
            raise TreeError("leaf probabilities must be strictly positive")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise TreeError(f"probabilities sum to {total:.12g}")
        if not self.partitions:
            raise TreeError("tree needs at least one stage")

        try:
            parts = tuple(tuple(tuple(_leaf_index(i) for i in block) for block in stage)
                          for stage in self.partitions)
        except (TypeError, ValueError) as exc:
            raise TreeError(f"partitions must list blocks of leaf indices: {exc}")
        object.__setattr__(self, "partitions", parts)

        leaf_block = []
        for t, stage in enumerate(parts):
            seen = np.full(n, -1, dtype=int)
            for b, block in enumerate(stage):
                if not block:
                    raise TreeError(f"stage {t} has an empty block")
                for leaf in block:
                    if leaf < 0 or leaf >= n:
                        raise TreeError(f"stage {t} refers to unknown leaf {leaf}")
                    if seen[leaf] != -1:
                        raise TreeError(f"leaf {leaf} appears twice at stage {t}")
                    seen[leaf] = b
            if np.any(seen < 0):
                missing = int(np.argmin(seen))
                raise TreeError(f"leaf {missing} missing from stage {t} partition")
            leaf_block.append(seen)
        # nesting: every stage-(t+1) block inside exactly one stage-t block
        for t in range(len(parts) - 1):
            coarse = leaf_block[t]
            for block in parts[t + 1]:
                owners = {int(coarse[leaf]) for leaf in block}
                if len(owners) != 1:
                    raise TreeError(
                        f"stage {t + 1} block {block} straddles stage {t} blocks"
                    )
        for arr in leaf_block:
            arr.setflags(write=False)
        object.__setattr__(self, "leaf_block", tuple(leaf_block))

    # -- basic shape ------------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return self.probabilities.size

    @property
    def stage_count(self) -> int:
        return len(self.partitions)

    @property
    def horizon(self) -> int:
        """Last stage index T (stages run 0..T)."""
        return len(self.partitions) - 1

    def blocks(self, t: int) -> tuple[tuple[int, ...], ...]:
        return self.partitions[t]

    def block_of(self, t: int, leaf: int) -> int:
        return int(self.leaf_block[t][leaf])

    @cached_property
    def _block_weights(self):
        """Per stage, its blocks stacked by size: one (block ordinals (K,),
        leaf indices (K, s), leaf probabilities (K, 1, s), block
        probabilities (K, 1, 1)) quadruple per block size s, sizes in order
        of first block.  Each block's probability is its own sum of its
        leaves' probabilities."""
        out = []
        for stage in self.partitions:
            sizes = {}
            for b, block in enumerate(stage):
                sizes.setdefault(len(block), []).append(b)
            groups = []
            for ordinals in sizes.values():
                idx = np.array([stage[b] for b in ordinals])
                w = self.probabilities[idx]
                groups.append((np.array(ordinals), idx, w[:, None, :],
                               np.array([row.sum() for row in w])[:, None, None]))
            out.append(tuple(groups))
        return tuple(out)

    @cached_property
    def _later_leaves(self):
        """Per stage, the leaves that are not the first of their block and,
        for each, the first leaf of its block."""
        out = []
        for stage, blocks in zip(self.partitions, self.leaf_block):
            firsts = np.array([block[0] for block in stage])[blocks]
            others = np.flatnonzero(firsts != np.arange(self.n_leaves))
            out.append((others, firsts[others]))
        return tuple(out)

    @cached_property
    def _adapted_pairs_by_dims(self) -> dict:
        return {}

    def _adapted_pairs(self, dims: tuple[int, ...]):
        """Flat C-order indices into an (n_leaves, sum(dims)) leaf-row
        array: each stage-t entry of a leaf that is not the first of its
        stage-t block, and the same entry of that block's first leaf.  Built
        once per ``dims`` from ``_later_leaves``."""
        pairs = self._adapted_pairs_by_dims.get(dims)
        if pairs is None:
            width, later, first = sum(dims), [], []
            for (others, firsts), d, end in zip(self._later_leaves, dims, accumulate(dims)):
                cols = np.arange(end - d, end)
                later.append((others[:, None] * width + cols).ravel())
                first.append((firsts[:, None] * width + cols).ravel())
            pairs = self._adapted_pairs_by_dims[dims] = (np.concatenate(later), np.concatenate(first))
        return pairs

    def block_means(self, arr, t: int) -> np.ndarray:
        """The probability-weighted mean of a leaf-indexed array's rows over
        each stage-t block, one row per block in partition order.  The
        blocks' index arrays and weights are built once per tree, stacked
        by block size; the blocks of one size take their means in one
        batched ``w @ arr[idx] / mass``, (K, 1, s) @ (K, s, d), whose
        product for each block is the one ``w @ arr[idx]`` takes for it
        alone, so each mean has the bits of a loop over the blocks (a
        scatter-add over all blocks at once would round differently)."""
        arr = np.asarray(arr, dtype=float)
        rows = arr.reshape(len(arr), -1)
        means = np.empty((len(self.partitions[t]), rows.shape[1]))
        for ordinals, idx, w, mass in self._block_weights[t]:
            means[ordinals] = (w @ rows[idx] / mass)[:, 0]
        return means

    def conditional_mean(self, arr, t: int) -> np.ndarray:
        """E_t of a leaf-indexed array: each stage-t block's mean
        (``block_means``) repeated on the block's leaves, with the array's
        shape."""
        arr = np.asarray(arr, dtype=float)
        return self.block_means(arr, t)[self.leaf_block[t]].reshape(arr.shape)

    # -- convenience constructors ----------------------------------------

    @staticmethod
    def deterministic(stages: int) -> "ScenarioTree":
        """Single-leaf tree with the given number of stages."""
        return ScenarioTree(np.array([1.0]), tuple(((0,),) for _ in range(stages)))

    @staticmethod
    def binary(horizon: int, probabilities=None) -> "ScenarioTree":
        """Recombining-free binary tree with 2**horizon leaves."""
        n = 2 ** horizon
        if probabilities is None:
            probabilities = np.full(n, 1.0 / n)
        parts = []
        for t in range(horizon + 1):
            width = 2 ** (horizon - t)
            parts.append(
                tuple(tuple(range(b * width, (b + 1) * width)) for b in range(2 ** t))
            )
        return ScenarioTree(np.asarray(probabilities, dtype=float), tuple(parts))


def build_tree(probabilities: Sequence, partitions: Sequence) -> ScenarioTree:
    """Validate and build a tree from a plain description.

    Probabilities may be floats or exact rationals given as strings "p/q".
    ``partitions`` is a stage-indexed list of blocks, each block a list of
    leaf indices.
    """
    try:
        probs = np.array([_as_probability(p) for p in probabilities], dtype=float)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise TreeError(f"probabilities must be numbers or 'p/q' strings: {exc}")
    return ScenarioTree(probs, partitions)


@cache
def _stage_columns(dims: tuple[int, ...]) -> tuple[slice, ...]:
    """The column slice of each stage in a leaf-row array of these dims."""
    return tuple(slice(end - d, end) for d, end in zip(dims, accumulate(dims)))


@dataclass(frozen=True, eq=False)
class StochasticProcess:
    """Stage-indexed, leaf-indexed real vectors on a scenario tree.

    Stored once, as ``rows``: the read-only (n_leaves, sum(dims)) array
    whose row l holds leaf l's stage components, stage after stage;
    ``values[t]`` (``stage(t)``) is its (n_leaves, dims[t]) column view.
    Dimensions may differ per stage and may be zero.  The constructor
    validates its stage arrays and copies them into ``rows``;
    ``from_leaf_rows`` takes ownership of its array, uncopied.
    """

    tree: ScenarioTree
    values: tuple[np.ndarray, ...]
    rows: np.ndarray = field(init=False, repr=False)
    dims: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.values) != self.tree.stage_count:
            raise TreeError(
                f"process has {len(self.values)} stages, tree has "
                f"{self.tree.stage_count}"
            )
        arrays = []
        for t, arr in enumerate(self.values):
            a = np.asarray(arr, dtype=float)
            if a.ndim == 1:
                a = a.reshape(-1, 1)
            if a.ndim != 2 or a.shape[0] != self.tree.n_leaves:
                raise TreeError(
                    f"stage {t} values must have shape (n_leaves, dim)"
                )
            arrays.append(a)
        self._own(np.concatenate(arrays, axis=1), tuple(a.shape[1] for a in arrays))

    def _own(self, rows: np.ndarray, dims: tuple[int, ...]):
        """Keep ``rows`` read-only, with one column view per stage."""
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "values", tuple(rows[:, cols] for cols in _stage_columns(dims)))

    def stage(self, t: int) -> np.ndarray:
        return self.values[t]

    @staticmethod
    def zeros(tree: ScenarioTree, dims: Sequence[int]) -> "StochasticProcess":
        return StochasticProcess.from_leaf_rows(tree, dims, np.zeros((tree.n_leaves, sum(dims))))

    @staticmethod
    def from_stage_values(tree: ScenarioTree, stage_values) -> "StochasticProcess":
        """Build from a stage-indexed list of per-leaf arrays (or scalars)."""
        arrays = []
        for vals in stage_values:
            a = np.asarray(vals, dtype=float)
            if a.ndim == 0:
                a = np.full((tree.n_leaves, 1), float(a))
            arrays.append(a)
        return StochasticProcess(tree, tuple(arrays))

    @staticmethod
    def from_leaf_rows(tree: ScenarioTree, dims: Sequence[int], rows) -> "StochasticProcess":
        """The process whose leaf l has the components ``rows[l]``, stage
        after stage, with ``dims[t]`` of them at stage t.  A float array is
        kept as it is, not copied: the process owns it from here on."""
        dims = tuple(int(d) for d in dims)
        rows = np.asarray(rows, dtype=float)
        if len(dims) != tree.stage_count or rows.shape != (tree.n_leaves, sum(dims)):
            raise TreeError(f"leaf rows of shape {rows.shape} do not fit dims {dims}")
        proc = object.__new__(StochasticProcess)
        object.__setattr__(proc, "tree", tree)
        proc._own(rows, dims)
        return proc

    def components(self, start: int, stop: int) -> "StochasticProcess":
        """The process whose stage t is ``stage(t)[:, start:stop]``."""
        spans = [range(e - d, e)[start:stop] for d, e in zip(self.dims, accumulate(self.dims))]
        return StochasticProcess.from_leaf_rows(self.tree, [len(r) for r in spans],
                                                self.rows[:, [c for r in spans for c in r]])


def _check_same_tree(a: StochasticProcess, b: StochasticProcess):
    if a.tree is not b.tree and (
        a.tree.partitions != b.tree.partitions
        or not np.array_equal(a.tree.probabilities, b.tree.probabilities)
    ):
        raise TreeError("processes live on different trees")


def conditional_expectation(proc: StochasticProcess, t: int) -> StochasticProcess:
    """Average every stage component over the stage-t information blocks.

    The result is constant on stage-t blocks; averaging uses the leaf
    probabilities normalised within each block.
    """
    tree = proc.tree
    if t < 0 or t >= tree.stage_count:
        raise TreeError(f"stage {t} out of range 0..{tree.stage_count - 1}")
    return StochasticProcess.from_leaf_rows(tree, proc.dims, np.concatenate(
        [tree.conditional_mean(arr, t) for arr in proc.values], axis=1))


def adapted_projection(proc: StochasticProcess) -> StochasticProcess:
    """Replace each stage-t component by its stage-t conditional expectation."""
    tree = proc.tree
    return StochasticProcess.from_leaf_rows(tree, proc.dims, np.concatenate(
        [tree.conditional_mean(arr, t) for t, arr in enumerate(proc.values)], axis=1))


def expected_dual_increments(y: StochasticProcess) -> tuple[np.ndarray, ...]:
    """E_t(y_{t+1} - y_t) for every stage t, with y_{T+1} = 0."""
    tree, T = y.tree, y.tree.horizon
    return tuple(
        tree.conditional_mean((y.stage(t + 1) if t < T else 0.0) - y.stage(t), t)
        for t in range(T + 1)
    )


def is_adapted(proc: StochasticProcess) -> bool:
    """Exact blockwise constancy check (adapted processes are built
    blockwise): each leaf's stage-t row equals the row of the first leaf of
    its stage-t block, where a NaN equals nothing.  One comparison over
    ``rows``, through the tree's flat index pairs for the process's dims."""
    later, first = proc.tree._adapted_pairs(proc.dims)
    rows = proc.rows
    return bool((rows.take(later) == rows.take(first)).all())


def pairing(u: StochasticProcess, y: StochasticProcess) -> float:
    """Expectation pairing E(u.y) = sum_leaf p(leaf) sum_t u_t(leaf).y_t(leaf)."""
    _check_same_tree(u, y)
    if u.dims != y.dims:
        raise TreeError(f"dimension mismatch: {u.dims} vs {y.dims}")
    probs = u.tree.probabilities
    total = 0.0
    for a, b in zip(u.values, y.values):
        if a.shape[1]:
            total += float(probs @ np.sum(a * b, axis=1))
    return total


@dataclass(frozen=True)
class OrthoReport:
    """Outcome of the zero-conditional-mean test, with the worst residual."""

    ok: bool
    max_residual: float
    worst_stage: int
    worst_block: int

    def __bool__(self) -> bool:
        return self.ok


def in_orthocomplement(v: StochasticProcess, tol: float = 1e-9) -> OrthoReport:
    """Test whether every stage-t component of v has zero mean on every
    stage-t block.

    On a finite tree this nodewise criterion characterises the annihilator
    of the adapted processes under the pairing E(x.v).  A NaN block residual
    fails the test and is reported as the worst.
    """
    tree = v.tree
    worst = 0.0
    worst_stage, worst_block = -1, -1
    for t, arr in enumerate(v.values):
        if arr.shape[1] == 0:
            continue
        res = np.abs(tree.block_means(arr, t)).max(axis=1)
        b = int(res.argmax())  # first block in partition order on ties, or first NaN
        if not res[b] <= worst:
            worst, worst_stage, worst_block = float(res[b]), t, b
            if np.isnan(worst):
                break
    return OrthoReport(worst <= tol, worst, worst_stage, worst_block)
