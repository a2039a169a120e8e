from typing import NamedTuple

import numpy as np
import pytest

from kvtrace import (
    ContractViolation,
    OutlierPool,
    score_tokens,
    substitute_means,
)


def offer(pool, positions, scores, d=4):
    """Offer one token per position whose key L1 norm equals its score."""
    keys = np.zeros((len(positions), d), dtype=np.float32)
    keys[:, 0] = scores
    return pool.update(np.asarray(positions), score_tokens(keys), keys, np.zeros_like(keys))


def row_l1_norm(m, row):
    """Per-row reference for ``score_tokens``: one float64 sum of |row|."""
    return float(np.abs(m[row]).sum(dtype=np.float64))


def brute_force_pool(history, capacity):
    """Independent oracle: positions of the N smallest (score, position) seen so far."""
    return {p for _, p in sorted(history)[:capacity]}


class Entry(NamedTuple):
    position: int
    score: float
    key: np.ndarray
    value: np.ndarray


class ReferencePool:
    """State of the slow reference pool: one entry object per token, in lists."""

    def __init__(self, capacity, aux_capacity):
        self.capacity, self.aux_capacity = capacity, aux_capacity
        self.entries: list[Entry] = []
        self.aux: list[Entry] = []
        self.frozen = aux_capacity == 0


def reference_pool_update(pool, candidates):
    """Slow reference for ``OutlierPool.update``: one ``sorted`` over entry objects.

    Returns ``(selected, evicted)`` position lists in the order the array
    pool reports them: winners in rank order, losers in member rank order.
    """
    if pool.frozen or pool.capacity == 0:
        return [], []
    seen = {e.position for e in pool.entries}
    for c in candidates:
        if c.position in seen:
            raise ContractViolation(f"duplicate position {c.position} in pool update")
        seen.add(c.position)
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
        for name in ("positions", "scores", "keys", "values",
                     "aux_positions", "aux_keys", "aux_values")
    } | {"frozen": pool.frozen}


def reference_fields(ref):
    """The fields of ``pool_fields``, read from a ``ReferencePool``."""
    return {
        "positions": [e.position for e in ref.entries],
        "scores": [e.score for e in ref.entries],
        "keys": [e.key.tolist() for e in ref.entries],
        "values": [e.value.tolist() for e in ref.entries],
        "aux_positions": [e.position for e in ref.aux],
        "aux_keys": [e.key.tolist() for e in ref.aux],
        "aux_values": [e.value.tolist() for e in ref.aux],
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
        pool = OutlierPool(capacity=2, aux_capacity=8, head_dim=4)
        selected, evicted = offer(pool, [0, 1, 2], [5.0, 1.0, 3.0])
        assert set(selected.tolist()) == {1, 2}
        assert evicted.tolist() == []
        assert sorted(pool.scores.tolist()) == [1.0, 3.0]

    def test_loser_stays_out(self):
        pool = OutlierPool(capacity=1, aux_capacity=8, head_dim=4)
        offer(pool, [0], [2.0])
        selected, evicted = offer(pool, [1], [5.0])
        assert selected.tolist() == []
        assert evicted.tolist() == []
        assert pool.positions.tolist() == [0]
        assert pool.aux_positions.tolist() == []

    def test_eviction_moves_to_aux(self):
        pool = OutlierPool(capacity=1, aux_capacity=8, head_dim=4)
        offer(pool, [0], [2.0])
        selected, evicted = offer(pool, [1], [1.0])
        assert selected.tolist() == [1]
        assert evicted.tolist() == [0]
        assert pool.aux_positions.tolist() == [0]

    def test_tie_breaks_to_smaller_position(self):
        pool = OutlierPool(capacity=1, aux_capacity=8, head_dim=4)
        selected, _ = offer(pool, [3, 1], [1.0, 1.0])
        assert selected.tolist() == [1]

    def test_duplicate_positions_rejected(self):
        pool = OutlierPool(capacity=2, aux_capacity=8, head_dim=4)
        offer(pool, [0], [1.0])
        with pytest.raises(ContractViolation):
            offer(pool, [0], [2.0])

    def test_stream_matches_brute_force_oracle_until_frozen(self):
        rng = np.random.default_rng(22)
        pool = OutlierPool(capacity=3, aux_capacity=4, head_dim=4)
        history = []
        position = 0
        max_scores = []
        for _ in range(5):  # 40 candidates in groups of 8
            positions = list(range(position, position + 8))
            # Keys are float32, so the pool ranks the float32-rounded scores.
            scores = rng.uniform(0, 100, size=8).astype(np.float32).astype(np.float64)
            position += 8
            frozen_before = pool.frozen
            offer(pool, positions, scores)
            history.extend(zip(scores.tolist(), positions))
            if not frozen_before:
                assert set(pool.positions.tolist()) == brute_force_pool(history, 3)
                max_scores.append(pool.scores.max())
        # pool max is non-increasing while updates are applied
        assert all(a >= b for a, b in zip(max_scores, max_scores[1:]))

    def test_freeze_is_permanent(self):
        rng = np.random.default_rng(23)
        pool = OutlierPool(capacity=2, aux_capacity=2, head_dim=4)
        position = 0
        for _ in range(100):
            if pool.frozen:
                break
            offer(pool, range(position, position + 4), rng.uniform(0, 10, size=4))
            position += 4
        assert pool.frozen
        frozen_members = pool.positions.tolist()
        frozen_aux = pool.aux_positions.tolist()
        for _ in range(200):
            selected, evicted = offer(pool, range(position, position + 4), np.zeros(4))
            position += 4
            assert selected.size == 0 and evicted.size == 0
        assert pool.positions.tolist() == frozen_members
        assert pool.aux_positions.tolist() == frozen_aux

    def test_zero_aux_capacity_freezes_immediately(self):
        pool = OutlierPool(capacity=2, aux_capacity=0, head_dim=4)
        assert pool.frozen
        selected, _ = offer(pool, [0], [1.0])
        assert selected.size == 0 and pool.positions.size == 0

    def test_zero_capacity_never_admits(self):
        pool = OutlierPool(capacity=0, aux_capacity=8, head_dim=4)
        selected, evicted = offer(pool, [0], [1.0])
        assert selected.size == 0 and evicted.size == 0 and pool.positions.size == 0


class TestAgainstReference:
    """The array pool equals the list-and-``sorted`` pool field for field."""

    @pytest.mark.parametrize("aux_capacity", range(6))
    @pytest.mark.parametrize("capacity", range(5))
    def test_seeded_streams_with_ties(self, capacity, aux_capacity):
        d = 3
        froze = evicted_total = 0
        for group_size in range(1, 10):
            rng = np.random.default_rng(100 * capacity + 10 * aux_capacity + group_size)
            pool = OutlierPool(capacity, aux_capacity, head_dim=d)
            ref = ReferencePool(capacity, aux_capacity)
            position = 0
            for step in range(12):
                # Positions arrive out of order and integer scores repeat,
                # so ties are broken by position within and across groups;
                # the scores drift down, so members keep being evicted.
                positions = (position + rng.permutation(group_size)).tolist()
                position += group_size
                scores = (rng.integers(0, 4, size=group_size) + 12 - step).astype(np.float64)
                keys = rng.standard_normal((group_size, d)).astype(np.float32)
                values = rng.standard_normal((group_size, d)).astype(np.float32)
                want = reference_pool_update(
                    ref, [Entry(*c) for c in zip(positions, scores.tolist(), keys, values)])
                selected, evicted = pool.update(positions, scores, keys, values)
                assert (selected.tolist(), evicted.tolist()) == want
                assert selected.dtype == evicted.dtype == np.int64
                assert pool_fields(pool) == reference_fields(ref)
                evicted_total += evicted.size
            froze += pool.frozen
        if capacity and aux_capacity:
            assert evicted_total and froze

    @pytest.mark.parametrize("duplicate", ["member", "candidate"])
    def test_duplicate_position_leaves_pool_unchanged(self, duplicate):
        rng = np.random.default_rng(7)
        pool = OutlierPool(capacity=2, aux_capacity=3, head_dim=3)
        for start in (0, 4):
            pool.update(range(start, start + 4), rng.uniform(size=4),
                        rng.standard_normal((4, 3)), rng.standard_normal((4, 3)))
        assert not pool.frozen and pool.positions.size == 2
        before = pool_fields(pool)
        repeat = pool.positions[0] if duplicate == "member" else 8
        with pytest.raises(ContractViolation, match="duplicate position"):
            pool.update([8, 9, repeat], np.zeros(3), np.zeros((3, 3)), np.zeros((3, 3)))
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
