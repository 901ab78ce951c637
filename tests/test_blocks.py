"""Block arithmetic on irregular trees: the conditional-mean primitive, the
quantities built on it, and the adapted-variable layout, each checked
against a brute-force loop over the information blocks."""

import numpy as np
import pytest

from stochdual.convex import Polyhedron, Quadratic
from stochdual.duality import check_martingale_density
from stochdual.models import build_kabanov
from stochdual.optimality import check_consistent_price_system
from stochdual.solver import AdaptedLayout
from stochdual.tree import (
    ScenarioTree,
    StochasticProcess,
    adapted_projection,
    build_tree,
    expected_dual_increments,
    in_orthocomplement,
    is_adapted,
)

from helpers import (
    STAGE_DIMS,
    conditional_mean_scatter,
    irregular_tree,
    is_adapted_per_stage,
    same_bits,
    selection_matrix,
)

SEEDS = range(6)
CONE_GENERATORS = np.array([[1.0, -2.0], [-1.0, 0.5], [-1.0, 0.0], [0.0, -1.0]])


def brute_mean(tree, arr, t):
    """E_t by an explicit sum over each block."""
    out = np.empty_like(arr)
    for block in tree.blocks(t):
        mass = sum(tree.probabilities[i] for i in block)
        mean = sum(tree.probabilities[i] * arr[i] for i in block) / mass
        for i in block:
            out[i] = mean
    return out


def random_process(rng, tree, dims):
    return StochasticProcess(tree, tuple(rng.normal(size=(tree.n_leaves, d)) for d in dims))


def test_trees_are_irregular():
    trees = [irregular_tree(seed) for seed in SEEDS]
    sizes = {len(block) for tree in trees for stage in tree.partitions for block in stage}
    assert len(sizes) >= 3
    firsts = [[min(block) for block in stage] for tree in trees for stage in tree.partitions]
    assert any(f != sorted(f) for f in firsts)
    assert not np.allclose(trees[0].probabilities, trees[0].probabilities[0])


class TestConditionalMean:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_block_loop(self, seed):
        tree = irregular_tree(seed)
        rng = np.random.default_rng(100 + seed)
        for t in range(tree.stage_count):
            for d in (0, 1, 2):
                arr = rng.normal(size=(tree.n_leaves, d))
                got = tree.conditional_mean(arr, t)
                assert got.shape == arr.shape
                np.testing.assert_allclose(got, brute_mean(tree, arr, t), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("d", (0, 1, 2))
    def test_expected_dual_increments(self, seed, d):
        tree = irregular_tree(seed)
        y = random_process(np.random.default_rng(200 + seed), tree, [d] * tree.stage_count)
        got = expected_dual_increments(y)
        T = tree.horizon
        assert len(got) == T + 1
        for t in range(T + 1):
            nxt = y.stage(t + 1) if t < T else np.zeros_like(y.stage(t))
            np.testing.assert_allclose(got[t], brute_mean(tree, nxt - y.stage(t), t),
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("d", (1, 2))
    def test_martingale_density_residual(self, seed, d):
        tree = irregular_tree(seed)
        rng = np.random.default_rng(300 + seed)
        s = random_process(rng, tree, [d] * tree.stage_count)
        vals = rng.uniform(0.5, 2.0, tree.n_leaves)
        worst = 0.0
        for t in range(tree.horizon):
            ds = s.stage(t + 1) - s.stage(t)
            mean = brute_mean(tree, vals[:, None] * ds, t)
            worst = max(worst, float(np.max(np.abs(mean))))
        report = check_martingale_density(vals, s)
        assert report.max_residual == pytest.approx(worst, rel=0, abs=1e-15)

    def test_nan_density_fails(self):
        tree = build_tree([0.5, 0.5], [[[0, 1]], [[0], [1]]])
        price = StochasticProcess(tree, (np.ones((2, 1)), np.array([[1.2], [0.9]])))
        report = check_martingale_density(np.array([np.nan, 1.0]), price)
        assert not report.ok
        assert not np.isfinite(report.max_residual)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_price_system_martingale_rows(self, seed):
        tree = irregular_tree(seed)
        C = Polyhedron.from_cone_generators(CONE_GENERATORS)
        p = build_kabanov(tree, [[C]] * tree.stage_count,
                          [[Quadratic([0.5, 0.5])]] * tree.stage_count)
        rng = np.random.default_rng(400 + seed)
        y = adapted_projection(random_process(rng, tree, [2] * tree.stage_count))
        zero = StochasticProcess.zeros(tree, [2] * tree.stage_count)
        cert = check_consistent_price_system(p, zero, zero, zero, y)
        rows = {r["stage"]: r["residual"] for r in cert.rows if r["condition"] == "martingale"}
        assert sorted(rows) == list(range(tree.horizon))
        for t in range(tree.horizon):
            mean = brute_mean(tree, y.stage(t + 1) - y.stage(t), t)
            assert rows[t] == pytest.approx(float(np.max(np.abs(mean))), rel=0, abs=1e-15)


class TestBlockMeans:
    """One mean per block, in partition order: the rule that
    ``conditional_mean``, the martingale test and the zero-mean test read."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("d", (0, 1, 3))
    def test_bits_of_the_leaf_means(self, seed, d):
        tree = irregular_tree(seed)
        rng = np.random.default_rng(700 + seed)
        for t in range(tree.stage_count):
            arr = rng.normal(size=(tree.n_leaves, d)) * 10.0 ** rng.integers(-8, 8, tree.n_leaves)[:, None]
            means = tree.block_means(arr, t)
            assert means.shape == (len(tree.blocks(t)), d)
            for got in (means[tree.leaf_block[t]], tree.conditional_mean(arr, t)):
                assert same_bits(got, conditional_mean_scatter(tree, arr, t))
            # row b is block b's mean, the one its first leaf carries
            firsts = [block[0] for block in tree.blocks(t)]
            assert same_bits(means, conditional_mean_scatter(tree, arr, t)[firsts])

    def test_trees_mix_block_sizes_within_a_stage(self):
        mixed = [t for seed in SEEDS for tree in [irregular_tree(seed)]
                 for t in range(tree.stage_count) if len(tree._block_weights[t]) > 1]
        assert mixed

    def test_leaf_vector_keeps_its_shape(self):
        tree = irregular_tree(0)
        arr = np.random.default_rng(7).normal(size=tree.n_leaves)
        for t in range(tree.stage_count):
            assert tree.block_means(arr, t).shape == (len(tree.blocks(t)), 1)
            assert same_bits(tree.conditional_mean(arr, t), conditional_mean_scatter(tree, arr, t))

    def test_nan_stays_in_its_block(self):
        tree = build_tree([0.25] * 4, [[[0, 1, 2, 3]], [[2, 3], [0, 1]]])
        means = tree.block_means(np.array([[1.0], [3.0], [np.nan], [5.0]]), 1)
        assert np.isnan(means[0, 0]) and means[1, 0] == 2.0


class TestIsAdapted:
    """The one comparison over the leaf rows against the per-stage loop."""

    @staticmethod
    def adapted(tree, dims, seed):
        return adapted_projection(random_process(np.random.default_rng(800 + seed), tree, dims))

    @staticmethod
    def with_entry(proc, leaf, col, value):
        rows = proc.rows.copy()
        rows[leaf, col] = value
        return StochasticProcess.from_leaf_rows(proc.tree, proc.dims, rows)

    @staticmethod
    def agree(proc):
        got = is_adapted(proc)
        assert got is is_adapted_per_stage(proc)
        return got

    @staticmethod
    def stage_of(proc, t):
        start = sum(proc.dims[:t])
        return range(start, start + proc.dims[t])

    def blocks_by_size(self, tree, dims, large):
        """(t, block) pairs of stages with columns, blocks of two or more
        leaves when ``large``, singletons otherwise."""
        return [(t, block) for t, d in enumerate(dims) if d
                for block in tree.blocks(t) if (len(block) > 1) == large]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_processes(self, seed):
        tree = irregular_tree(seed)
        rng = np.random.default_rng(900 + seed)
        assert self.agree(self.adapted(tree, STAGE_DIMS, seed))
        assert not self.agree(random_process(rng, tree, STAGE_DIMS))
        proc = self.adapted(tree, STAGE_DIMS, seed)
        for t, block in self.blocks_by_size(tree, STAGE_DIMS, large=True):
            for leaf in block:
                col = self.stage_of(proc, t)[-1]
                assert not self.agree(self.with_entry(proc, leaf, col, np.nextafter(proc.rows[leaf, col], np.inf)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_nan_at_a_first_leaf(self, seed):
        tree = irregular_tree(seed)
        proc = self.adapted(tree, STAGE_DIMS, seed)
        for t, block in self.blocks_by_size(tree, STAGE_DIMS, large=True):
            assert not self.agree(self.with_entry(proc, block[0], self.stage_of(proc, t)[0], np.nan))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_nan_at_a_later_leaf(self, seed):
        tree = irregular_tree(seed)
        proc = self.adapted(tree, STAGE_DIMS, seed)
        for t, block in self.blocks_by_size(tree, STAGE_DIMS, large=True):
            assert not self.agree(self.with_entry(proc, block[-1], self.stage_of(proc, t)[0], np.nan))

    def test_nan_at_a_singleton_block_is_not_compared(self):
        cases = 0
        for seed in SEEDS:
            tree = irregular_tree(seed)
            proc = self.adapted(tree, STAGE_DIMS, seed)
            for t, (leaf,) in self.blocks_by_size(tree, STAGE_DIMS, large=False):
                assert self.agree(self.with_entry(proc, leaf, self.stage_of(proc, t)[0], np.nan))
                cases += 1
        assert cases

    @pytest.mark.parametrize("seed", SEEDS)
    def test_zero_width_stage(self, seed):
        # STAGE_DIMS has a zero-width stage; so does a process of no columns
        tree = irregular_tree(seed)
        assert 0 in STAGE_DIMS
        dims = (0,) * tree.stage_count
        assert self.agree(StochasticProcess.zeros(tree, dims))
        proc = self.adapted(tree, (1, 0, 0, 2), seed)
        assert self.agree(proc)
        t, block = self.blocks_by_size(tree, (0, 0, 0, 2), large=True)[0]
        assert not self.agree(self.with_entry(proc, block[-1], 2, 7.0))

    def test_one_leaf_tree(self):
        tree = ScenarioTree.deterministic(3)
        proc = StochasticProcess.from_leaf_rows(tree, (2, 0, 1), np.array([[np.nan, 1.0, np.inf]]))
        assert self.agree(proc)

    def test_pairs_kept_per_dims(self):
        tree = irregular_tree(0)
        assert tree._adapted_pairs(STAGE_DIMS) is tree._adapted_pairs(STAGE_DIMS)
        later, first = tree._adapted_pairs(STAGE_DIMS)
        assert later.shape == first.shape
        width = sum(STAGE_DIMS)
        expected = sum(d * (tree.n_leaves - len(tree.blocks(t))) for t, d in enumerate(STAGE_DIMS))
        assert later.size == expected
        assert np.all(later // width != first // width)


class TestOrthocomplementWorst:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_worst_block_matches_block_loop(self, seed):
        tree = irregular_tree(seed)
        v = random_process(np.random.default_rng(500 + seed), tree, STAGE_DIMS)
        worst, where = 0.0, (-1, -1)
        for t, arr in enumerate(v.values):
            if arr.shape[1] == 0:
                continue
            mean = brute_mean(tree, arr, t)
            for b, block in enumerate(tree.blocks(t)):
                res = float(np.max(np.abs(mean[block[0]])))
                if res > worst:
                    worst, where = res, (t, b)
        report = in_orthocomplement(v)
        assert report.max_residual == pytest.approx(worst, rel=0, abs=1e-15)
        assert (report.worst_stage, report.worst_block) == where

    def tie_tree(self):
        # stage-1 blocks listed with the higher leaves first
        return build_tree([0.25] * 4, [[[0, 1, 2, 3]], [[2, 3], [0, 1]], [[3], [2], [1], [0]]])

    def test_tie_across_blocks_reports_first_in_partition_order(self):
        tree = self.tie_tree()
        v = StochasticProcess(tree, (np.zeros((4, 1)), np.ones((4, 1)), np.zeros((4, 0))))
        report = in_orthocomplement(v)
        assert report.max_residual == 1.0
        assert (report.worst_stage, report.worst_block) == (1, 0)

    def test_tie_across_stages_reports_first_stage(self):
        tree = self.tie_tree()
        v = StochasticProcess(tree, (np.ones((4, 1)), np.ones((4, 1)), np.zeros((4, 0))))
        report = in_orthocomplement(v)
        assert (report.worst_stage, report.worst_block) == (0, 0)

    def test_larger_second_block_wins(self):
        tree = self.tie_tree()
        v = StochasticProcess(tree, (np.zeros((4, 1)), np.array([[2.0], [2.0], [1.0], [1.0]]),
                                     np.zeros((4, 0))))
        report = in_orthocomplement(v)
        assert report.max_residual == 2.0
        assert (report.worst_stage, report.worst_block) == (1, 1)

    def test_nan_residual_fails(self):
        tree = build_tree([0.5, 0.5], [[[0, 1]], [[0], [1]]])
        v = StochasticProcess(tree, (np.array([[np.nan], [1.0]]), np.zeros((2, 1))))
        report = in_orthocomplement(v)
        assert not report.ok
        assert not np.isfinite(report.max_residual)
        assert (report.worst_stage, report.worst_block) == (0, 0)
        # a later finite residual does not hide it
        v = StochasticProcess(tree, (np.array([[np.nan], [1.0]]), np.ones((2, 1))))
        assert np.isnan(in_orthocomplement(v).max_residual)

    def test_annihilator_member_has_no_worst_block(self):
        tree = self.tie_tree()
        v = StochasticProcess(tree, (np.zeros((4, 1)), np.array([[1.0], [-1.0], [2.0], [-2.0]]),
                                     np.zeros((4, 0))))
        report = in_orthocomplement(v)
        assert report.ok and report.max_residual == 0.0
        assert (report.worst_stage, report.worst_block) == (-1, -1)


class TestAdaptedLayout:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_width_counts_blocks(self, seed):
        tree = irregular_tree(seed)
        layout = AdaptedLayout(tree, STAGE_DIMS)
        assert layout.width == sum(d * len(tree.blocks(t)) for t, d in enumerate(STAGE_DIMS))
        assert layout.columns.shape == (tree.n_leaves, sum(STAGE_DIMS))
        # every block coordinate belongs to some leaf
        assert set(layout.columns.ravel()) == set(range(layout.width))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_leaf_matrix_selects_columns(self, seed):
        # the leaf's selection is its row of column indices: one coordinate
        # per leaf row, distinct, so gathers and scatters through it are exact
        tree = irregular_tree(seed)
        layout = AdaptedLayout(tree, STAGE_DIMS)
        for leaf in range(tree.n_leaves):
            cols = layout.columns[leaf]
            assert len(set(cols.tolist())) == cols.size == sum(STAGE_DIMS)
            mat = selection_matrix(cols, layout.width)
            for row, col in zip(mat, cols):
                assert np.flatnonzero(row).tolist() == [col]
                assert row[col] == 1.0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_to_process_agrees_with_leaf_matrix(self, seed):
        tree = irregular_tree(seed)
        layout = AdaptedLayout(tree, STAGE_DIMS)
        w = np.random.default_rng(600 + seed).normal(size=layout.width)
        proc = layout.to_process(w)
        assert proc.dims == STAGE_DIMS
        assert is_adapted(proc)
        for leaf in range(tree.n_leaves):
            np.testing.assert_array_equal(w[layout.columns[leaf]], proc.rows[leaf])
        # blocks of one stage own distinct coordinates
        for t, d in enumerate(STAGE_DIMS):
            if d:
                firsts = [block[0] for block in tree.blocks(t)]
                assert len({tuple(proc.stage(t)[leaf]) for leaf in firsts}) == len(firsts)
