"""The decode step's fast paths against the slow code they replaced.

The softmax inside ``attend_full_precision``, ``TieredCache.append`` and the
L1 error were rewritten to make fewer and cheaper numpy calls, and
``simulate`` takes each cache's per-step L1 errors in one ``row_l1_errors``
pass, which also gives one row's error. ``attend_full_precision`` calls
``np.dot`` in place of ``@`` on C-contiguous operands, and the replay must
keep handing it those. The code they replaced is kept here
as the reference, and ``attend_full_precision`` and ``attend_mixed`` are
held to it. Every fast path must match it bit for bit, on float32, float64
and non-contiguous inputs, and must reject the same inputs with the same
message.
"""

import math

import numpy as np
import pytest

import kvtrace.replay
from kvtrace import (
    ContractViolation,
    EngineConfig,
    OutlierPool,
    SyntheticSpec,
    TieredCache,
    attend_full_precision,
    attend_mixed,
    generate_synthetic,
    read_trace,
    replay_caches,
    row_l1_errors,
    write_trace,
)


def reference_softmax(v):
    v = np.asarray(v)
    if v.ndim != 1 or v.size == 0:
        raise ContractViolation("softmax input must be a non-empty 1-D vector")
    top = np.maximum.reduce(v)
    if not (math.isfinite(top) and math.isfinite(np.minimum.reduce(v))):
        raise ContractViolation("softmax input contains NaN or Inf")
    e = np.subtract(v, top, dtype=np.float64)
    np.exp(e, out=e)
    e /= np.add.reduce(e)
    return e.astype(np.float32)


def reference_attend_full_precision(q, keys, values):
    """Returns (output, weights, scores)."""
    q = np.asarray(q, dtype=np.float32)
    keys = np.asarray(keys, dtype=np.float32)
    values = np.asarray(values, dtype=np.float32)
    if q.ndim != 1:
        raise ContractViolation("query must be 1-D")
    if keys.ndim != 2 or values.ndim != 2:
        raise ContractViolation("keys and values must be 2-D")
    if keys.shape[0] != values.shape[0]:
        raise ContractViolation("keys and values must cover the same tokens")
    if keys.shape[1] != q.shape[0] or values.shape[1] != q.shape[0]:
        raise ContractViolation("width mismatch between query and cache rows")
    if keys.shape[0] == 0:
        raise ContractViolation("attention needs at least one cached token")
    scores = keys @ q
    scores /= np.float32(math.sqrt(q.shape[0]))
    weights = reference_softmax(scores)
    return weights @ values, weights, scores


def reference_l1_error(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ContractViolation(f"length mismatch: {a.shape} vs {b.shape}")
    diff = np.subtract(a, b, dtype=np.float64)
    return float(np.add.reduce(np.abs(diff, out=diff)))


def reference_row_l1_errors(mixed, oracle):
    """``simulate``'s old per-step loop: one ``reference_l1_error`` call per step."""
    errors = np.empty(len(mixed))
    for t in range(len(mixed)):
        errors[t] = reference_l1_error(mixed[t], oracle[t])
    return errors


RNG = np.random.default_rng(2024)
MAX_LEN = 1100
# One pool of values that every case slices, so strided views come for free.
POOL = (RNG.standard_normal((2 * MAX_LEN, 2 * 129)) * RNG.choice([0.1, 1.0, 30.0], (2 * MAX_LEN, 1))).astype(
    np.float32
)
QUERIES = RNG.standard_normal(2 * 129).astype(np.float32)
# Magnitudes from 1e-9 to 1e9 within a row, so float64 sums of the
# differences round, and a changed summation order shows.
WIDE = (POOL * 10.0 ** RNG.uniform(-9, 9, POOL.shape)).astype(np.float32)


def layouts(d, pool=POOL):
    """(name, q, keys, values) at head dim d in every layout a caller may pass.

    Keys and values have MAX_LEN rows, except the one-row layout's single
    row; their first n rows keep the layout. ``attend_full_precision`` takes
    ``np.dot`` for C-contiguous keys or values and ``@`` otherwise, so the
    layouts cover both sides of that test: operands numpy flags C- and
    F-contiguous whatever the stride of their size-1 axis ((1, d), and
    (n, 1) at d = 1), negative and zero row strides, and one contiguous
    operand beside a strided one.
    """
    keys = np.ascontiguousarray(pool[:MAX_LEN, :d])
    values = np.ascontiguousarray(pool[MAX_LEN:, d : 2 * d])
    q = np.ascontiguousarray(QUERIES[:d])
    strided_keys, strided_values = pool[::2, :d], pool[1::2, d : 2 * d]
    cases = [
        ("float32", q, keys, values),
        ("float64", q.astype(np.float64), keys.astype(np.float64), values.astype(np.float64)),
        ("row-strided", QUERIES[: 2 * d : 2], strided_keys, strided_values),
        ("strided-query", QUERIES[: 2 * d : 2], keys, values),
        ("column-strided", q, pool[:MAX_LEN, : 2 * d : 2], pool[MAX_LEN:, 1 : 2 * d : 2]),
        ("fortran", q, np.asfortranarray(keys), np.asfortranarray(values)),
        ("one-row", q, keys[None, 0], values[None, 0]),  # (1, d), row stride 0
        ("reversed-rows", q, keys[::-1], values[::-1]),
        ("broadcast-values", q, keys, np.broadcast_to(values[0], values.shape)),
        ("contiguous-keys", q, keys, strided_values),
        ("contiguous-values", q, strided_keys, values),
    ]
    if d == 1:
        cases.append(("column-vectors", q, keys[:, 0, None], values[:, 0, None]))  # (n, 1), column stride 0
    return cases


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# Layouts that only probe which product ``attend_full_precision`` picks. Each
# of their products takes a path that "float32" (np.dot) or the reference
# (@) covers at every length, so the every-length test samples them, and
# ``row_l1_errors``, which has no such choice, skips them.
DOT_BOUNDARY = ("reversed-rows", "broadcast-values", "contiguous-keys", "contiguous-values")


def check_attention(d, lengths, sample_every=1):
    for name, q, keys, values in layouts(d):
        # numpy's unblocked loop for column-strided operands is slow, so they are sampled too.
        sample = name == "column-strided" or name in DOT_BOUNDARY
        for n in lengths[::sample_every] if sample else lengths:
            if n > len(keys):
                continue
            got = attend_full_precision(q, keys[:n], values[:n])
            want = reference_attend_full_precision(q, keys[:n], values[:n])
            for field, w in zip(("output", "weights", "scores"), want):
                assert getattr(got, field).tobytes() == w.tobytes(), (name, n, d, field)


# Every head dim 1-129 at these lengths, and every length 1-1100 at the head dims below.
SOME_LENGTHS = (1, 2, 7, 128, 129, MAX_LEN)
SOME_HEAD_DIMS = (1, 16, 64, 129)


def logits_only(v):
    """(q, keys, values) whose logits are ``v`` cast to float32: d = 1, q = [1], keys ``v[..., None]``."""
    keys = np.asarray(v, dtype=np.float32)[..., None]
    return np.ones(1, dtype=np.float32), keys, np.zeros_like(keys)


class TestSoftmax:
    """``attend_full_precision``'s weights over given logits against ``reference_softmax``."""

    def test_bit_equal_at_every_length(self):
        for n in range(1, MAX_LEN + 1):
            column = POOL[:n, n % 7]  # a strided view
            scaled = column * np.float32(1e6)
            for v in (np.ascontiguousarray(column), column, column[::-1], scaled, column.astype(np.float64)):
                weights = attend_full_precision(*logits_only(v)).weights
                assert_same_bits(weights, reference_softmax(v.astype(np.float32)))

    def test_bit_equal_on_lists_ints_and_ties(self):
        for v in ([0.0, -0.0], [-0.0, 0.0], [3, 1, 3], [3e38, -3e38], [2.5] * 9, [1e-45, 0.0]):
            weights = attend_full_precision(*logits_only(v)).weights
            assert_same_bits(weights, reference_softmax(np.asarray(v, dtype=np.float32)))

    @pytest.mark.parametrize(
        "bad",
        [[], [[1.0, 2.0]], np.zeros((2, 2), np.float32), 3.0,
         [math.nan], [1.0, math.nan], [math.inf, 1.0], [1.0, -math.inf], [math.nan, math.inf],
         np.array([2.0, np.nan, -np.inf], np.float32)],
    )
    def test_same_rejection(self, bad):
        # Logits that are empty, not a vector, NaN or infinite: shape errors come
        # from the attention checks, the rest from the softmax check.
        with pytest.raises(ContractViolation) as want:
            reference_attend_full_precision(*logits_only(bad))
        with pytest.raises(ContractViolation) as got:
            attend_full_precision(*logits_only(bad))
        assert str(got.value) == str(want.value)


class TestAttendFullPrecision:
    @pytest.mark.parametrize("d", range(1, 130))
    def test_bit_equal_at_every_head_dim(self, d):
        check_attention(d, SOME_LENGTHS)

    @pytest.mark.parametrize("d", SOME_HEAD_DIMS)
    def test_bit_equal_at_every_length(self, d):
        check_attention(d, range(1, MAX_LEN + 1), sample_every=10)

    @pytest.mark.parametrize(
        "q, keys, values",
        [
            (np.zeros((1, 2)), np.zeros((3, 2)), np.zeros((3, 2))),
            (np.zeros(2), np.zeros(2), np.zeros((3, 2))),
            (np.zeros(2), np.zeros((3, 2)), np.zeros((1, 3, 2))),
            (np.zeros(2), np.zeros((3, 2)), np.zeros((4, 2))),
            (np.zeros(2), np.zeros((3, 2)), np.zeros((4, 3))),
            (np.zeros(2), np.zeros((3, 3)), np.zeros((3, 2))),
            (np.zeros(2), np.zeros((3, 2)), np.zeros((3, 3))),
            (np.zeros(2), np.zeros((0, 2)), np.zeros((0, 2))),
            (np.array([1.0, math.nan]), np.ones((3, 2)), np.ones((3, 2))),
            (np.ones(2), np.array([[1.0, math.inf]]), np.ones((1, 2))),
            (np.full(2, 1e30), np.full((3, 2), 1e30), np.ones((3, 2))),
        ],
    )
    def test_same_rejection(self, q, keys, values):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ContractViolation) as want:
                reference_attend_full_precision(q, keys, values)
            with pytest.raises(ContractViolation) as got:
                attend_full_precision(q, keys, values)
        assert str(got.value) == str(want.value)


class TestDecodeStep:
    @pytest.mark.parametrize("d", [1, 5, 64, 129])
    def test_mixed_attention_bit_equal_to_reference_over_its_rows(self, d):
        cfg = EngineConfig(group_size=16, residual=3, outlier_num=2, aux_capacity=2, skip_layers=(), head_dim=d)
        cache = TieredCache(cfg)
        for t in range(300):
            cache.append(POOL[t, :d], POOL[t + 300, :d])
            q = POOL[t + 600, :d]
            got = attend_mixed(q, cache)
            output, weights, scores = reference_attend_full_precision(q, *cache.attended_kv())
            assert got.output.tobytes() == output.tobytes()
            assert got.weights.tobytes() == weights.tobytes()
            assert got.scores.tobytes() == scores.tobytes()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda c: c.append(np.zeros(3), np.zeros(4)), "rows must have shape (4,)"),
            (lambda c: c.append(np.zeros(4), np.zeros((1, 4))), "rows must have shape (4,)"),
            (lambda c: c.append([1.0, 2.0, math.nan, 0.0], np.zeros(4)), "rows contain NaN or Inf"),
            (lambda c: c.append(np.zeros(4), [0.0, -math.inf, 0.0, 0.0]), "rows contain NaN or Inf"),
            # attend_mixed rejects through attend_full_precision's checks.
            (lambda c: attend_mixed(np.zeros(3), c), "width mismatch between query and cache rows"),
            (lambda c: attend_mixed(np.zeros(4), c), "attention needs at least one cached token"),
        ],
    )
    def test_same_rejection_and_cache_unchanged(self, call, message):
        cache = TieredCache(EngineConfig(head_dim=4))
        with pytest.raises(ContractViolation) as got:
            call(cache)
        assert str(got.value) == message
        assert cache.total_tokens == 0 and cache.pending_rows == 0

    def test_rejected_row_leaves_a_written_cache_unchanged(self):
        cfg = EngineConfig(group_size=8, residual=2, head_dim=4)
        cache = TieredCache(cfg)
        for t in range(13):
            cache.append(POOL[t, :4], POOL[t + 20, :4])
        keys, values = (a.copy() for a in cache.attended_kv())
        with pytest.raises(ContractViolation, match="NaN or Inf"):
            cache.append(np.full(4, math.inf), np.zeros(4))
        assert cache.total_tokens == 13
        assert all(np.array_equal(a, b) for a, b in zip(cache.attended_kv(), (keys, values)))


class TestReplayFeedsNpDot:
    """Every key and value matrix a replay attends over is C-contiguous.

    So both products of every oracle and mixed step take ``np.dot``; a layout
    change that sends them back to ``@`` fails here.
    """

    @pytest.mark.parametrize("source", ["synthetic", "file"])
    def test_every_step_attends_c_contiguous_rows(self, source, monkeypatch, tmp_path):
        # G + R = 19 rows at first, doubled four times by T = 200; 12 group
        # writes; the pool has room to evict 4 members before it freezes.
        cfg = EngineConfig(group_size=16, residual=3, outlier_num=2, aux_capacity=4, skip_layers=(), head_dim=8)
        trace = generate_synthetic(SyntheticSpec(seed=6, m=12), 1, 2, 8, 200)
        if source == "file":
            write_trace(tmp_path / "t.kvt", trace)
            trace = read_trace(tmp_path / "t.kvt")
        seen = {"oracle": 0, "mixed": 0, "buffer_rows": set(), "evicted": 0}

        def oracle_step(q, keys, values):
            assert keys.flags.c_contiguous and values.flags.c_contiguous
            seen["oracle"] += 1
            return attend_full_precision(q, keys, values)

        def mixed_step(q, cache):
            assert all(a.flags.c_contiguous for a in cache.attended_kv())
            seen["mixed"] += 1
            seen["buffer_rows"].add(len(cache._k))
            return attend_mixed(q, cache)

        def update(pool, scores, first):
            selected, evicted = real_update(pool, scores, first)
            seen["evicted"] += evicted.size
            return selected, evicted

        real_update = OutlierPool.update
        monkeypatch.setattr(kvtrace.replay, "attend_full_precision", oracle_step)
        monkeypatch.setattr(kvtrace.replay, "attend_mixed", mixed_step)
        monkeypatch.setattr(OutlierPool, "update", update)
        caches = [cache for _, _, cache, _ in replay_caches(trace, cfg)]
        assert seen["oracle"] == seen["mixed"] == 2 * 200
        assert seen["buffer_rows"] == {19, 38, 76, 152, 304}
        assert all(cache.quantized_tokens == 192 for cache in caches)
        assert seen["evicted"] > 0


class TestRowL1Errors:
    @pytest.mark.parametrize("d", range(1, 130))
    def test_bit_equal_at_every_head_dim(self, d):
        self.check(d, SOME_LENGTHS)

    @pytest.mark.parametrize("d", SOME_HEAD_DIMS)
    def test_bit_equal_at_every_length(self, d):
        self.check(d, range(1, MAX_LEN + 1))

    @staticmethod
    def check(d, lengths):
        # Rows are independent, so the reference runs once over all of them,
        # and once per distinct set of values: several layouts hold the same ones.
        done = []  # (mixed, oracle, reference errors)
        for name, _q, mixed, oracle in layouts(d, WIDE):
            if name in DOT_BOUNDARY:
                continue
            for m, o, want in done:
                if np.array_equal(m, mixed) and np.array_equal(o, oracle):
                    break
            else:
                want = reference_row_l1_errors(mixed, oracle)
                done.append((mixed, oracle, want))
            reachable = [n for n in lengths if n <= len(mixed)]
            for steps in reachable:
                assert_same_bits(row_l1_errors(mixed[:steps], oracle[:steps]), want[:steps])
            for t in reachable:
                assert row_l1_errors(mixed[t - 1], oracle[t - 1]) == want[t - 1]

    @pytest.mark.parametrize(
        "a, b",
        [([1.0], [1.0, 2.0]), (np.zeros((2, 3)), np.zeros((3, 2))), (np.zeros(3), np.zeros((1, 3)))],
    )
    def test_same_rejection(self, a, b):
        with pytest.raises(ContractViolation) as want:
            reference_l1_error(a, b)
        with pytest.raises(ContractViolation) as got:
            row_l1_errors(a, b)
        assert str(got.value) == str(want.value)
