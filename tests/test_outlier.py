import numpy as np
import pytest

from kvtrace import (
    ContractViolation,
    OutlierEntry,
    OutlierPool,
    row_l1_norm,
    score_tokens,
    substitute_means,
)


def make_entry(position, score, d=4):
    key = np.zeros(d, dtype=np.float32)
    key[0] = score  # L1 of the key equals the requested score
    return OutlierEntry.from_rows(position, key, np.zeros(d, dtype=np.float32))


def brute_force_pool(history, capacity):
    """Independent oracle: the N smallest scores seen so far."""
    ranked = sorted(history, key=lambda e: (e.score, e.position))
    return {e.position for e in ranked[:capacity]}


class TestScoreTokens:
    def test_single_row(self):
        got = score_tokens(np.array([[1.0, -2.0, 3.0]], dtype=np.float32))
        np.testing.assert_array_equal(got, [6.0])

    def test_identical_rows_identical_scores(self):
        keys = np.tile(np.array([[0.5, -0.25]], dtype=np.float32), (2, 1))
        s = score_tokens(keys)
        assert s[0] == s[1]

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(21)
        keys = rng.standard_normal((128, 64)).astype(np.float32)
        got = score_tokens(keys)
        for i in range(128):
            want = sum(abs(float(v)) for v in keys[i])
            assert got[i] == want

    @pytest.mark.parametrize(
        "width", list(range(1, 70)) + [100, 127, 128, 129, 200, 257, 513]
    )
    def test_bit_equal_to_per_row_norm(self, width):
        rng = np.random.default_rng(width)
        scales = 10.0 ** rng.uniform(-3, 3, size=(128, 1))
        keys = (rng.standard_normal((128, width)) * scales).astype(np.float32)
        want = np.array([row_l1_norm(keys, i) for i in range(128)])
        np.testing.assert_array_equal(score_tokens(keys), want)


class TestPoolUpdate:
    def test_fill_from_empty(self):
        pool = OutlierPool(capacity=2, aux_capacity=8)
        selected, evicted = pool.update(
            [make_entry(0, 5.0), make_entry(1, 1.0), make_entry(2, 3.0)]
        )
        assert selected == {1, 2}
        assert evicted == []
        assert sorted(e.score for e in pool.entries) == [1.0, 3.0]

    def test_loser_stays_out(self):
        pool = OutlierPool(capacity=1, aux_capacity=8)
        pool.update([make_entry(0, 2.0)])
        selected, evicted = pool.update([make_entry(1, 5.0)])
        assert selected == set()
        assert evicted == []
        assert pool.positions == {0}
        assert pool.aux == []

    def test_eviction_moves_to_aux(self):
        pool = OutlierPool(capacity=1, aux_capacity=8)
        pool.update([make_entry(0, 2.0)])
        selected, evicted = pool.update([make_entry(1, 1.0)])
        assert selected == {1}
        assert [e.position for e in evicted] == [0]
        assert [e.position for e in pool.aux] == [0]

    def test_tie_breaks_to_smaller_position(self):
        pool = OutlierPool(capacity=1, aux_capacity=8)
        selected, _ = pool.update([make_entry(3, 1.0), make_entry(1, 1.0)])
        assert selected == {1}

    def test_duplicate_positions_rejected(self):
        pool = OutlierPool(capacity=2, aux_capacity=8)
        pool.update([make_entry(0, 1.0)])
        with pytest.raises(ContractViolation):
            pool.update([make_entry(0, 2.0)])

    def test_stream_matches_brute_force_oracle_until_frozen(self):
        rng = np.random.default_rng(22)
        pool = OutlierPool(capacity=3, aux_capacity=4)
        history = []
        position = 0
        max_scores = []
        for _ in range(5):  # 40 candidates in groups of 8
            group = [make_entry(position + i, float(rng.uniform(0, 100))) for i in range(8)]
            position += 8
            frozen_before = pool.frozen
            pool.update(group)
            history.extend(group)
            if not frozen_before:
                assert pool.positions == brute_force_pool(history, 3)
                max_scores.append(max(e.score for e in pool.entries))
        # pool max is non-increasing while updates are applied
        assert all(a >= b for a, b in zip(max_scores, max_scores[1:]))

    def test_freeze_is_permanent(self):
        rng = np.random.default_rng(23)
        pool = OutlierPool(capacity=2, aux_capacity=2)
        position = 0
        while not pool.frozen:
            group = [make_entry(position + i, float(rng.uniform(0, 10))) for i in range(4)]
            position += 4
            pool.update(group)
        frozen_members = pool.positions
        frozen_aux = [e.position for e in pool.aux]
        for _ in range(200):
            group = [make_entry(position + i, 0.0) for i in range(4)]
            position += 4
            selected, evicted = pool.update(group)
            assert selected == set() and evicted == []
        assert pool.positions == frozen_members
        assert [e.position for e in pool.aux] == frozen_aux

    def test_zero_aux_capacity_freezes_immediately(self):
        pool = OutlierPool(capacity=2, aux_capacity=0)
        assert pool.frozen
        selected, _ = pool.update([make_entry(0, 1.0)])
        assert selected == set() and pool.entries == []

    def test_zero_capacity_never_admits(self):
        pool = OutlierPool(capacity=0, aux_capacity=8)
        selected, evicted = pool.update([make_entry(0, 1.0)])
        assert selected == set() and evicted == [] and pool.entries == []


class TestSubstituteMeans:
    def test_empty_selection_unchanged(self):
        k = np.arange(6, dtype=np.float32).reshape(3, 2)
        v = k + 10
        k2, v2 = substitute_means(k, v, [])
        np.testing.assert_array_equal(k2, k)
        np.testing.assert_array_equal(v2, v)

    def test_per_channel_mean(self):
        k = np.array([[0.0, 0.0], [2.0, 4.0]], dtype=np.float32)
        v = np.array([[1.0, 1.0], [3.0, 5.0]], dtype=np.float32)
        k2, v2 = substitute_means(k, v, [1])
        np.testing.assert_array_equal(k2[1], [1.0, 2.0])
        np.testing.assert_array_equal(k2[0], k[0])
        np.testing.assert_array_equal(v2[1], [2.0, 3.0])

    def test_identical_rows_unchanged(self):
        k = np.tile(np.array([[2.0, -1.0]], dtype=np.float32), (4, 1))
        k2, _ = substitute_means(k, k.copy(), [0, 3])
        np.testing.assert_array_equal(k2, k)

    def test_inputs_not_mutated(self):
        k = np.array([[0.0, 0.0], [2.0, 4.0]], dtype=np.float32)
        k_orig = k.copy()
        substitute_means(k, k.copy(), [0])
        np.testing.assert_array_equal(k, k_orig)

    def test_out_of_range_selection(self):
        k = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ContractViolation):
            substitute_means(k, k, [2])

    def test_substitution_shrinks_channel_range(self):
        rng = np.random.default_rng(24)
        k = rng.standard_normal((32, 6)).astype(np.float32)
        v = rng.standard_normal((32, 6)).astype(np.float32)
        selected = rng.choice(32, size=5, replace=False)
        k2, v2 = substitute_means(k, v, selected)
        for mat, mat2 in ((k, k2), (v, v2)):
            before = mat.max(axis=0) - mat.min(axis=0)
            after = mat2.max(axis=0) - mat2.min(axis=0)
            assert (after <= before + 1e-6).all()
