from typing import NamedTuple

import numpy as np
import pytest

from kvtrace import (
    ContractViolation,
    OutlierPool,
    score_tokens,
    substitute_means,
)


def offer(pool, scores, first, d=4):
    """Offer tokens at positions ``first, first + 1, ...`` whose key L1 norms are ``scores``."""
    keys = np.zeros((len(scores), d), dtype=np.float32)
    keys[:, 0] = scores
    return pool.update(score_tokens(keys), first)


def row_l1_norm(m, row):
    """Per-row reference for ``score_tokens``: one float64 sum of |row|."""
    return float(np.abs(m[row]).sum(dtype=np.float64))


def brute_force_pool(history, capacity):
    """Independent oracle: positions of the N smallest (score, position) seen so far."""
    return {p for _, p in sorted(history)[:capacity]}


class Entry(NamedTuple):
    position: int
    score: float


class ReferencePool:
    """State of the slow reference pool: one entry object per token, in lists."""

    def __init__(self, capacity, aux_capacity):
        self.capacity, self.aux_capacity = capacity, aux_capacity
        self.entries: list[Entry] = []
        self.aux: list[Entry] = []
        # Frozen: no update can change the pool.
        self.frozen = capacity == 0 or aux_capacity == 0


def reference_pool_update(pool, candidates):
    """Slow reference for ``OutlierPool.update``: one ``sorted`` over entry objects.

    Returns ``(selected, evicted)`` position lists in the order the array
    pool reports them: winners in rank order, losers in member rank order.
    """
    if pool.frozen:
        return [], []
    ranked = sorted(pool.entries + list(candidates), key=lambda e: (e.score, e.position))
    winners = ranked[: pool.capacity]
    winner_positions = {e.position for e in winners}
    old_positions = {e.position for e in pool.entries}
    selected = [e.position for e in winners if e.position not in old_positions]
    evicted = [e for e in pool.entries if e.position not in winner_positions]
    pool.entries = winners
    room = pool.aux_capacity - len(pool.aux)
    pool.aux.extend(evicted[:room])
    if len(pool.aux) >= pool.aux_capacity:
        pool.frozen = True
    return selected, [e.position for e in evicted]


def pool_fields(pool):
    """Every stored field of an ``OutlierPool``, as plain lists."""
    return {
        name: getattr(pool, name).tolist()
        for name in ("positions", "scores", "aux_positions")
    } | {"frozen": pool.frozen}


def reference_fields(ref):
    """The fields of ``pool_fields``, read from a ``ReferencePool``."""
    return {
        "positions": [e.position for e in ref.entries],
        "scores": [e.score for e in ref.entries],
        "aux_positions": [e.position for e in ref.aux],
        "frozen": ref.frozen,
    }


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

    @pytest.mark.parametrize("keys", [np.ones(4), np.ones((0, 4))], ids=["1-D", "empty"])
    def test_malformed_keys_rejected(self, keys):
        with pytest.raises(ContractViolation, match="non-empty 2-D key matrix"):
            score_tokens(keys)

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
        selected, evicted = offer(pool, [5.0, 1.0, 3.0], 0)
        assert set(selected.tolist()) == {1, 2}
        assert evicted.tolist() == []
        assert sorted(pool.scores.tolist()) == [1.0, 3.0]

    def test_loser_stays_out(self):
        pool = OutlierPool(capacity=1, aux_capacity=8)
        offer(pool, [2.0], 0)
        selected, evicted = offer(pool, [5.0], 1)
        assert selected.tolist() == []
        assert evicted.tolist() == []
        assert pool.positions.tolist() == [0]
        assert pool.aux_positions.tolist() == []

    def test_eviction_moves_to_aux(self):
        pool = OutlierPool(capacity=1, aux_capacity=8)
        offer(pool, [2.0], 0)
        selected, evicted = offer(pool, [1.0], 1)
        assert selected.tolist() == [1]
        assert evicted.tolist() == [0]
        assert pool.aux_positions.tolist() == [0]

    def test_tie_breaks_to_smaller_position(self):
        pool = OutlierPool(capacity=1, aux_capacity=8)
        # Inside one offer, the earlier of two equal scores wins.
        selected, _ = offer(pool, [1.0, 1.0], 3)
        assert selected.tolist() == [3]
        # Against a member, the member is earlier and keeps its slot.
        selected, evicted = offer(pool, [1.0], 5)
        assert selected.tolist() == [] and evicted.tolist() == []
        assert pool.positions.tolist() == [3]

    def test_stream_matches_brute_force_oracle_until_frozen(self):
        rng = np.random.default_rng(22)
        pool = OutlierPool(capacity=3, aux_capacity=4)
        history = []
        max_scores = []
        for position in range(0, 40, 8):  # 40 candidates in groups of 8
            # Keys are float32, so the pool ranks the float32-rounded scores.
            scores = rng.uniform(0, 100, size=8).astype(np.float32).astype(np.float64)
            frozen_before = pool.frozen
            offer(pool, scores, position)
            history.extend(zip(scores.tolist(), range(position, position + 8)))
            if not frozen_before:
                assert set(pool.positions.tolist()) == brute_force_pool(history, 3)
                max_scores.append(pool.scores.max())
        # pool max is non-increasing while updates are applied
        assert all(a >= b for a, b in zip(max_scores, max_scores[1:]))

    def test_freeze_is_permanent(self):
        rng = np.random.default_rng(23)
        pool = OutlierPool(capacity=2, aux_capacity=2)
        position = 0
        for _ in range(100):
            if pool.frozen:
                break
            offer(pool, rng.uniform(0, 10, size=4), position)
            position += 4
        assert pool.frozen
        frozen_members = pool.positions.tolist()
        frozen_aux = pool.aux_positions.tolist()
        for _ in range(200):
            selected, evicted = offer(pool, np.zeros(4), position)
            position += 4
            assert selected.size == 0 and evicted.size == 0
        assert pool.positions.tolist() == frozen_members
        assert pool.aux_positions.tolist() == frozen_aux

    def test_zero_aux_capacity_freezes_immediately(self):
        pool = OutlierPool(capacity=2, aux_capacity=0)
        assert pool.frozen
        selected, _ = offer(pool, [1.0], 0)
        assert selected.size == 0 and pool.positions.size == 0

    def test_zero_capacity_never_admits(self):
        # No update can change a pool without capacity, so it is frozen.
        pool = OutlierPool(capacity=0, aux_capacity=8)
        assert pool.frozen
        before = pool_fields(pool)
        selected, evicted = offer(pool, [1.0], 0)
        assert selected.size == 0 and evicted.size == 0 and pool.positions.size == 0
        assert pool_fields(pool) == before

    @pytest.mark.parametrize("capacity, aux_capacity", [(-1, 8), (2, -1)], ids=["capacity", "aux"])
    def test_negative_capacity_rejected(self, capacity, aux_capacity):
        with pytest.raises(ContractViolation, match="nonnegative"):
            OutlierPool(capacity, aux_capacity)


class TestAgainstReference:
    """The array pool equals the list-and-``sorted`` pool field for field."""

    @pytest.mark.parametrize("aux_capacity", range(6))
    @pytest.mark.parametrize("capacity", range(5))
    def test_seeded_streams_with_ties(self, capacity, aux_capacity):
        froze = evicted_total = 0
        for group_size in range(1, 10):
            rng = np.random.default_rng(100 * capacity + 10 * aux_capacity + group_size)
            pool = OutlierPool(capacity, aux_capacity)
            ref = ReferencePool(capacity, aux_capacity)
            position = 0
            for step in range(12):
                # Integer scores repeat, so ties are broken by position
                # within and across groups; the scores drift down, so
                # members keep being evicted.
                positions = range(position, position + group_size)
                scores = (rng.integers(0, 4, size=group_size) + 12 - step).astype(np.float64)
                want = reference_pool_update(
                    ref, [Entry(*c) for c in zip(positions, scores.tolist())])
                selected, evicted = pool.update(scores, position)
                position += group_size
                assert (selected.tolist(), evicted.tolist()) == want
                assert selected.dtype == evicted.dtype == np.int64
                assert pool_fields(pool) == reference_fields(ref)
                evicted_total += evicted.size
            froze += pool.frozen
        if capacity and aux_capacity:
            assert evicted_total and froze

    def test_first_not_after_members_rejected(self):
        pool = OutlierPool(capacity=2, aux_capacity=3)
        pool.update([3.0, 2.0, 1.0, 4.0], 0)
        pool.update([0.5, 5.0], 4)
        assert pool.positions.tolist() == [4, 2] and pool.aux_positions.tolist() == [1]
        before = pool_fields(pool)
        # The newest member, an older member, and a non-member below the newest.
        for first in (4, 2, 3):
            with pytest.raises(ContractViolation, match="not after every member"):
                pool.update([0.0], first)
            assert pool_fields(pool) == before

    @pytest.mark.parametrize("first, count", [(2**63, 1), (2**63 - 1, 2), (2**63, 0)])
    def test_positions_past_int64_rejected(self, first, count):
        pool = OutlierPool(capacity=2, aux_capacity=3)
        pool.update([3.0, 1.0, 2.0], 0)
        before = pool_fields(pool)
        with pytest.raises(ContractViolation, match="int64 range"):
            pool.update([0.5] * count, first)
        assert pool_fields(pool) == before

    def test_int64_end_positions_accepted(self):
        pool = OutlierPool(capacity=2, aux_capacity=3)
        with pytest.raises(ContractViolation, match="int64 range"):
            pool.update([1.0], -(2**63) - 1)
        selected, _ = pool.update([1.0], -(2**63))
        assert selected.tolist() == [-(2**63)]
        pool.update([2.0, 0.5], 2**63 - 2)
        assert pool.positions.tolist() == [2**63 - 1, -(2**63)]

    @pytest.mark.parametrize("scores, message", [
        ([[1.0, 2.0]], "1-D"),
        ([np.nan, 2.0], "finite"),
    ], ids=["2-D scores", "NaN score"])
    def test_malformed_candidates_rejected(self, scores, message):
        pool = OutlierPool(capacity=2, aux_capacity=3)
        pool.update([3.0, 1.0, 2.0], 0)
        before = pool_fields(pool)
        with pytest.raises(ContractViolation, match=message):
            pool.update(scores, 8)
        assert pool_fields(pool) == before


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

    def test_row_count_mismatch_rejected(self):
        k = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ContractViolation, match="same row count"):
            substitute_means(k, k[:1], [0])

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
