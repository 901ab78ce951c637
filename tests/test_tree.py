"""Scenario trees, conditional expectations and the annihilator test."""

import numpy as np
import pytest

from stochdual.tree import (
    OrthoReport,
    ScenarioTree,
    StochasticProcess,
    TreeError,
    adapted_projection,
    build_tree,
    conditional_expectation,
    in_orthocomplement,
    is_adapted,
    pairing,
)


def two_leaf(p=(0.5, 0.5)):
    return build_tree(p, [[[0, 1]], [[0], [1]]])


def random_tree(rng, max_depth=3, max_branch=3):
    """Random nested partition tree with <= 8 leaves."""
    parts = [[[0]]]
    leaves = 1
    for _ in range(rng.integers(1, max_depth + 1)):
        prev = parts[-1]
        new_stage = []
        mapping = []
        count = 0
        for block in prev:
            for leaf in block:
                k = int(rng.integers(1, max_branch + 1))
                mapping.append((leaf, list(range(count, count + k))))
                count += k
        if count > 8:
            break
        # rebuild all earlier stages in the new leaf labels
        expand = {}
        for leaf, kids in mapping:
            expand[leaf] = kids
        parts = [
            [[c for leaf in block for c in expand[leaf]] for block in stage]
            for stage in parts
        ]
        parts.append([expand[leaf] for leaf, _ in mapping])
        leaves = count
    probs = rng.uniform(0.2, 1.0, leaves)
    probs /= probs.sum()
    return build_tree(probs, parts)


class TestBuildTree:
    def test_minimal_binomial(self):
        t = two_leaf()
        assert t.n_leaves == 2
        assert t.stage_count == 2
        assert t.blocks(0) == ((0, 1),)
        assert t.blocks(1) == ((0,), (1,))

    def test_bad_probability_sum(self):
        with pytest.raises(TreeError, match="sum to 1.1"):
            build_tree([0.7, 0.4], [[[0, 1]], [[0], [1]]])

    def test_three_stage_binary_block_counts(self):
        t = ScenarioTree.binary(2)
        assert t.n_leaves == 4
        assert tuple(len(t.blocks(s)) for s in range(3)) == (1, 2, 4)

    def test_rational_probabilities(self):
        t = build_tree(["1/3", "2/3"], [[[0, 1]], [[0], [1]]])
        assert t.probabilities[0] == pytest.approx(1 / 3)

    def test_non_nested_partitions_rejected(self):
        with pytest.raises(TreeError, match="straddles"):
            build_tree(
                [0.25] * 4,
                [[[0, 1], [2, 3]], [[1, 2], [0], [3]]],
            )

    def test_empty_block_rejected(self):
        with pytest.raises(TreeError, match="empty block"):
            build_tree([1.0], [[[0], []]])

    def test_zero_probability_rejected(self):
        with pytest.raises(TreeError, match="strictly positive"):
            build_tree([1.0, 0.0], [[[0, 1]], [[0], [1]]])

    @pytest.mark.parametrize("index", [1.9, True, np.True_, float("nan"), "1", None])
    def test_non_integral_leaf_index_rejected(self, index):
        with pytest.raises(TreeError, match="leaf indices") as err:
            build_tree(["1/2", "1/2"], [[[0, index]], [[0], [1]]])
        assert "probabilit" not in str(err.value)

    def test_integral_leaf_indices_accepted(self):
        t = build_tree(["1/2", "1/2"], [[[0, 1.0]], [[np.int64(0)], [1]]])
        assert t.partitions == (((0, 1),), ((0,), (1,)))

    def test_trees_and_processes_compare_by_identity(self):
        t = two_leaf()
        p = StochasticProcess.zeros(t, (1, 1))
        assert t == t and t != two_leaf() and p == p and p != StochasticProcess.zeros(t, (1, 1))
        assert len({t, two_leaf(), p}) == 3


class TestConditionalExpectation:
    def test_mean_at_root(self):
        t = two_leaf()
        p = StochasticProcess.from_stage_values(t, [[[1.0], [3.0]], [[0.0], [0.0]]])
        e = conditional_expectation(p, 0)
        np.testing.assert_allclose(e.stage(0), [[2.0], [2.0]])

    def test_identity_on_finest_partition(self):
        t = two_leaf()
        p = StochasticProcess.from_stage_values(t, [[[1.0], [3.0]], [[5.0], [7.0]]])
        e = conditional_expectation(p, 1)
        for s in range(2):
            np.testing.assert_array_equal(e.stage(s), p.stage(s))

    def test_weighted_mean(self):
        t = two_leaf((0.25, 0.75))
        p = StochasticProcess.from_stage_values(t, [[[4.0], [0.0]], [[0.0], [0.0]]])
        e = conditional_expectation(p, 0)
        np.testing.assert_allclose(e.stage(0), [[1.0], [1.0]])

    def test_stage_out_of_range(self):
        t = two_leaf()
        p = StochasticProcess.zeros(t, (1, 1))
        with pytest.raises(TreeError):
            conditional_expectation(p, 5)

    def test_tower_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t = random_tree(rng)
            dims = tuple(int(rng.integers(1, 3)) for _ in range(t.stage_count))
            p = StochasticProcess(
                t, tuple(rng.normal(size=(t.n_leaves, d)) for d in dims)
            )
            for s in range(t.stage_count):
                for u in range(t.stage_count):
                    lhs = conditional_expectation(conditional_expectation(p, s), u)
                    rhs = conditional_expectation(p, min(s, u))
                    for a, b in zip(lhs.values, rhs.values):
                        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_stacked_blocks_match_a_block_loop_bit_for_bit(self):
        # stage 1 has blocks of 5, 2, 4, 1 and 2 leaves (5 and 4 interleaved
        # with the others), stage 2 pairs and singletons: the blocks of one
        # size take their means in one batched product, each the product
        # ``w @ arr[block]`` takes for that block alone
        parts = [[list(range(14))],
                 [[0, 1, 2, 3, 4], [5, 6], [7, 8, 9, 10], [11], [12, 13]],
                 [[0, 1], [2], [3, 4], [5], [6], [7, 8], [9, 10], [11], [12], [13]],
                 [[leaf] for leaf in range(14)]]
        rng = np.random.default_rng(9)
        probs = rng.uniform(0.1, 1.0, 14)
        t = build_tree(probs / probs.sum(), parts)
        for scale in (1e-6, 1.0, 1e8):
            for shape in ((14,), (14, 1), (14, 3), (14, 7), (14, 0)):
                arr = scale * rng.normal(size=shape)
                for s in range(t.stage_count):
                    want = np.empty_like(arr)
                    for block in t.blocks(s):
                        idx = np.array(block)
                        w = t.probabilities[idx]
                        want[idx] = w @ arr[idx] / w.sum()
                    got = t.conditional_mean(arr, s)
                    assert got.shape == arr.shape
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_self_adjointness(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            t = random_tree(rng)
            dims = tuple(int(rng.integers(1, 3)) for _ in range(t.stage_count))
            u = StochasticProcess(t, tuple(rng.normal(size=(t.n_leaves, d)) for d in dims))
            y = StochasticProcess(t, tuple(rng.normal(size=(t.n_leaves, d)) for d in dims))
            for s in range(t.stage_count):
                lhs = pairing(conditional_expectation(u, s), y)
                rhs = pairing(u, conditional_expectation(y, s))
                assert lhs == pytest.approx(rhs, abs=1e-10)


class TestAdaptedProjection:
    def test_projection_fixes_adapted_input(self):
        t = ScenarioTree.binary(2)
        vals = [np.ones((4, 1)), np.repeat([[1.0], [2.0]], 2, axis=0), np.arange(4.0)]
        p = StochasticProcess.from_stage_values(t, vals)
        assert is_adapted(p)
        q = adapted_projection(p)
        for a, b in zip(p.values, q.values):
            np.testing.assert_array_equal(a, b)

    def test_block_averaging(self):
        t = two_leaf()
        p = StochasticProcess.from_stage_values(t, [[[1.0], [-1.0]], [[5.0], [7.0]]])
        q = adapted_projection(p)
        np.testing.assert_allclose(q.stage(0), [[0.0], [0.0]])
        np.testing.assert_allclose(q.stage(1), [[5.0], [7.0]])

    def test_idempotence(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            t = random_tree(rng)
            dims = tuple(int(rng.integers(1, 3)) for _ in range(t.stage_count))
            p = StochasticProcess(t, tuple(rng.normal(size=(t.n_leaves, d)) for d in dims))
            once = adapted_projection(p)
            twice = adapted_projection(once)
            assert is_adapted(once)
            for a, b in zip(once.values, twice.values):
                np.testing.assert_allclose(a, b, atol=1e-14)


class TestPairing:
    def test_single_stage_arithmetic(self):
        t = two_leaf()
        u = StochasticProcess.from_stage_values(t, [[[1.0], [2.0]], [[0.0], [0.0]]])
        y = StochasticProcess.from_stage_values(t, [[[3.0], [4.0]], [[0.0], [0.0]]])
        assert pairing(u, y) == pytest.approx(5.5)

    def test_zero_element(self):
        t = two_leaf()
        u = StochasticProcess.from_stage_values(t, [[[1.0], [2.0]], [[3.0], [4.0]]])
        z = StochasticProcess.zeros(t, u.dims)
        assert pairing(u, z) == 0.0

    def test_dimension_mismatch(self):
        t = two_leaf()
        u = StochasticProcess.zeros(t, (1, 1))
        y = StochasticProcess.zeros(t, (2, 1))
        with pytest.raises(TreeError, match="dimension"):
            pairing(u, y)

    def test_tower_pairing_with_adapted_side(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = random_tree(rng)
            dims = tuple(int(rng.integers(1, 3)) for _ in range(t.stage_count))
            u = StochasticProcess(t, tuple(rng.normal(size=(t.n_leaves, d)) for d in dims))
            y = adapted_projection(
                StochasticProcess(t, tuple(rng.normal(size=(t.n_leaves, d)) for d in dims))
            )
            assert pairing(adapted_projection(u), y) == pytest.approx(
                pairing(u, y), abs=1e-12
            )


class TestOrthocomplement:
    def test_zero_conditional_mean(self):
        t = two_leaf()
        v = StochasticProcess.from_stage_values(t, [[[1.0], [-1.0]], [[0.0], [0.0]]])
        assert in_orthocomplement(v, 1e-9)

    def test_nonzero_mean_reports_residual(self):
        t = two_leaf()
        v = StochasticProcess.from_stage_values(t, [[[1.0], [1.0]], [[0.0], [0.0]]])
        rep = in_orthocomplement(v, 1e-9)
        assert not rep
        assert rep.max_residual == pytest.approx(1.0)

    def test_compensated_increments_are_orthogonal(self):
        # v_t := E_t(dy_{t+1}) - dy_{t+1} with y_{T+1} = 0 lands in the
        # annihilator for any y; checked by direct computation.
        rng = np.random.default_rng(12)
        for _ in range(20):
            t = random_tree(rng)
            T = t.horizon
            d = int(rng.integers(1, 3))
            y = StochasticProcess(
                t, tuple(rng.normal(size=(t.n_leaves, d)) for _ in range(T + 1))
            )
            stages = []
            for s in range(T + 1):
                nxt = y.stage(s + 1) if s < T else np.zeros((t.n_leaves, d))
                dy = nxt - y.stage(s)
                dproc = StochasticProcess(t, tuple(
                    dy if r == s else np.zeros((t.n_leaves, d)) for r in range(T + 1)
                ))
                comp = conditional_expectation(dproc, s).stage(s) - dy
                stages.append(comp)
            v = StochasticProcess(t, tuple(stages))
            assert in_orthocomplement(v, 1e-9)

    def test_pairs_to_zero_against_adapted(self):
        # finite-tree annihilator property: E(x.v) = 0 for adapted x
        rng = np.random.default_rng(13)
        for _ in range(10):
            t = random_tree(rng)
            dims = tuple(int(rng.integers(1, 3)) for _ in range(t.stage_count))
            for _ in range(10):
                raw = StochasticProcess(
                    t, tuple(rng.normal(size=(t.n_leaves, d)) for d in dims)
                )
                v = StochasticProcess(t, tuple(
                    raw.stage(s) - conditional_expectation(raw, s).stage(s)
                    for s in range(t.stage_count)
                ))
                assert in_orthocomplement(v, 1e-9)
                x = adapted_projection(StochasticProcess(
                    t, tuple(rng.normal(size=(t.n_leaves, d)) for d in dims)
                ))
                assert abs(pairing(x, v)) <= 1e-10

    def test_equivalence_with_indicator_basis(self):
        # blockwise zero mean iff the pairing vanishes on every adapted
        # indicator process (the finite basis of the adapted space)
        rng = np.random.default_rng(14)
        for _ in range(10):
            t = random_tree(rng)
            dims = tuple(int(rng.integers(1, 3)) for _ in range(t.stage_count))
            v = StochasticProcess(
                t, tuple(rng.normal(size=(t.n_leaves, d)) for d in dims)
            )
            rep = in_orthocomplement(v, 1e-9)
            vanish = True
            for s in range(t.stage_count):
                for block in t.blocks(s):
                    for comp in range(dims[s]):
                        arr = np.zeros((t.n_leaves, dims[s]))
                        arr[list(block), comp] = 1.0
                        x = StochasticProcess(t, tuple(
                            arr if r == s else np.zeros((t.n_leaves, dims[r]))
                            for r in range(t.stage_count)
                        ))
                        if abs(pairing(x, v)) > 1e-9:
                            vanish = False
            assert bool(rep) == vanish
