import tracemalloc

import numpy as np
import pytest

from kvtrace import (
    ContractViolation,
    EngineConfig,
    MemoryBreakdown,
    OutlierPool,
    TieredCache,
    attend_full_precision,
    attend_mixed,
    quantize_keys_channelwise,
    quantize_values_tokenwise,
)


def fill(cache, rows_k, rows_v):
    for k, v in zip(rows_k, rows_v):
        cache.append(k, v)


def random_rows(rng, n, d):
    return rng.standard_normal((n, d)).astype(np.float32)


def shrinking_keys(rng, n, d):
    # Norms shrink over the sequence, so later groups keep displacing pool
    # members: evictions happen until the auxiliary list fills.
    shrink = np.linspace(3.0, 0.1, n)[:, None] * rng.uniform(0.5, 1.5, size=(n, 1))
    return (random_rows(rng, n, d) * shrink).astype(np.float32)


def reconstructed_kv(cache):
    """The cache as full (total_tokens, d) key/value matrices, built from scratch.

    Quantized blocks are dequantized, pending rows copied verbatim, and
    rows at pooled positions replaced with the pool's full-precision rows:
    the slow reference for ``TieredCache.attended_kv``.
    """
    if not cache.total_tokens:
        empty = np.empty((0, cache.config.head_dim), np.float32)
        return empty, empty.copy()
    keys = np.concatenate([b.to_matrix() for b in cache.quantized_k] + [cache.pending_k])
    values = np.concatenate([b.to_matrix() for b in cache.quantized_v] + [cache.pending_v])
    keys[cache.pool.positions] = cache.pool.keys
    values[cache.pool.positions] = cache.pool.values
    return keys, values


def per_block_memory_usage(cache):
    """The slow reference for ``memory_usage``: what the stored arrays hold.

    Each block is charged its codes at its width and two 16-bit values per
    parameter line; pending and pool rows at 16 bits per value.
    """
    blocks = cache.quantized_k + cache.quantized_v
    full_rows = [cache.pending_k, cache.pending_v, cache.pool.keys, cache.pool.values,
                 cache.pool.aux_keys, cache.pool.aux_values]
    return MemoryBreakdown(
        quantized_bits=sum(b.n_tokens * b.n_channels * b.bits for b in blocks),
        param_bits=sum((b.mins.size + b.steps.size) * 16 for b in blocks),
        pending_bits=sum(rows.size * 16 for rows in full_rows[:2]),
        pool_bits=sum(rows.size * 16 for rows in full_rows[2:]),
    )


def pool_fields(pool):
    return [getattr(pool, name).tolist() for name in (
        "positions", "scores", "keys", "values", "aux_positions", "aux_keys", "aux_values")]


def assert_same_cache(a, b):
    """Every block, pending row, pool member and accounting figure agrees."""
    assert (a.total_tokens, a.quantized_tokens, a.pending_rows) == (
        b.total_tokens, b.quantized_tokens, b.pending_rows)
    np.testing.assert_array_equal(a.pending_k, b.pending_k)
    np.testing.assert_array_equal(a.pending_v, b.pending_v)
    for x, y in zip(a.quantized_k + a.quantized_v, b.quantized_k + b.quantized_v, strict=True):
        assert type(x) is type(y)
        assert {k: np.asarray(v).tolist() for k, v in vars(x).items()} == {
            k: np.asarray(v).tolist() for k, v in vars(y).items()}
    assert pool_fields(a.pool) == pool_fields(b.pool)
    assert a.pool.frozen == b.pool.frozen
    assert a.substituted_positions == b.substituted_positions
    assert a.memory_usage() == b.memory_usage()


class TestEngineConfig:
    def test_defaults(self):
        cfg = EngineConfig()
        assert (cfg.bits, cfg.group_size, cfg.residual) == (2, 128, 32)
        assert cfg.outlier_num == 3 and cfg.aux_capacity == 32
        assert cfg.skip_layers == (0, 1)

    def test_skip_layers_disable_pool(self):
        cfg = EngineConfig(outlier_num=3, skip_layers=(0, 1))
        assert cfg.outlier_capacity(0) == 0
        assert cfg.outlier_capacity(1) == 0
        assert cfg.outlier_capacity(2) == 3

    def test_validation(self):
        with pytest.raises(ContractViolation):
            EngineConfig(bits=0)
        with pytest.raises(ContractViolation):
            EngineConfig(group_size=0)
        with pytest.raises(ContractViolation):
            EngineConfig(residual=-1)


class TestAppendTrigger:
    def test_single_append(self):
        cache = TieredCache(EngineConfig(group_size=4, residual=2, head_dim=3), layer=2)
        cache.append([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert cache.pending_rows == 1
        assert cache.quantized_k == []
        assert cache.total_tokens == 1

    def test_zero_residual_quantizes_at_group(self):
        rng = np.random.default_rng(31)
        cache = TieredCache(EngineConfig(group_size=4, residual=0, head_dim=3), layer=2)
        fill(cache, random_rows(rng, 4, 3), random_rows(rng, 4, 3))
        assert len(cache.quantized_k) == 1
        assert cache.pending_rows == 0
        assert cache.quantized_tokens == 4

    def test_residual_window_defers_trigger(self):
        rng = np.random.default_rng(32)
        cache = TieredCache(EngineConfig(group_size=4, residual=2, head_dim=3), layer=2)
        fill(cache, random_rows(rng, 6, 3), random_rows(rng, 6, 3))
        # trigger fired at the 6th append: block covers positions 0-3
        assert len(cache.quantized_k) == 1
        assert cache.quantized_k[0].n_tokens == 4
        assert cache.pending_rows == 2
        assert cache.quantized_tokens == 4

    def test_dimension_mismatch(self):
        cache = TieredCache(EngineConfig(head_dim=3), layer=2)
        with pytest.raises(ContractViolation):
            cache.append([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_insufficient_rows_for_manual_quantize(self):
        cache = TieredCache(EngineConfig(group_size=4, residual=0, head_dim=3), layer=2)
        cache.append([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ContractViolation):
            cache.quantize_oldest_group()

    def test_conservation_and_bounds(self):
        rng = np.random.default_rng(33)
        cfg = EngineConfig(group_size=8, residual=3, head_dim=4)
        cache = TieredCache(cfg, layer=2)
        for i in range(100):
            cache.append(*random_rows(rng, 2, 4))
            assert cache.quantized_tokens + cache.pending_rows == cache.total_tokens
            assert cache.pending_rows <= cfg.group_size + cfg.residual
            # a trigger leaves exactly residual + later appends pending
            assert cache.pending_rows - cfg.residual < cfg.group_size


class TestBaselineEquivalence:
    def test_zero_outliers_matches_direct_group_quantization(self):
        rng = np.random.default_rng(34)
        cfg = EngineConfig(group_size=8, residual=2, outlier_num=0, head_dim=4, bits=2)
        cache = TieredCache(cfg, layer=2)
        keys = random_rows(rng, 30, 4)
        values = random_rows(rng, 30, 4)
        fill(cache, keys, values)

        # independent assembly: quantize consecutive groups of 8 directly
        n_groups = len(cache.quantized_k)
        assert n_groups == 3
        for g in range(n_groups):
            k_block = quantize_keys_channelwise(keys[g * 8 : (g + 1) * 8], 2)
            v_block = quantize_values_tokenwise(values[g * 8 : (g + 1) * 8], 2)
            assert cache.quantized_k[g].codes == k_block.codes
            assert cache.quantized_v[g].codes == v_block.codes
            assert cache.quantized_k[g].params == k_block.params

    def test_skip_layer_equals_explicit_zero(self):
        rng = np.random.default_rng(35)
        keys = random_rows(rng, 40, 4)
        values = random_rows(rng, 40, 4)
        skipped = TieredCache(
            EngineConfig(group_size=8, residual=0, outlier_num=3, skip_layers=(0,), head_dim=4),
            layer=0,
        )
        disabled = TieredCache(
            EngineConfig(group_size=8, residual=0, outlier_num=0, skip_layers=(), head_dim=4),
            layer=0,
        )
        fill(skipped, keys, values)
        fill(disabled, keys, values)
        for a, b in zip(skipped.quantized_k, disabled.quantized_k):
            assert a.codes == b.codes and a.params == b.params


class TestOutlierPath:
    def test_planted_token_is_pooled_and_substituted(self):
        # one manufactured low-magnitude token inside an otherwise uniform group
        rng = np.random.default_rng(36)
        g, d = 16, 4
        cfg = EngineConfig(group_size=g, residual=0, outlier_num=1, skip_layers=(), head_dim=d, bits=2)
        cache = TieredCache(cfg, layer=0)
        keys = rng.uniform(4.5, 5.5, size=(g, d)).astype(np.float32)
        keys[5] = 0.01
        values = random_rows(rng, g, d)
        fill(cache, keys, values)

        assert cache.pool.positions.tolist() == [5]
        assert cache.substituted_positions == {5}
        group_mean = keys.mean(axis=0)
        recon = cache.quantized_k[0].to_matrix()[5]
        step = max(p.step for p in cache.quantized_k[0].params)
        assert np.abs(recon - group_mean).max() <= step + 1e-6
        # the pooled entry keeps the original full-precision rows
        np.testing.assert_array_equal(cache.pool.keys[0], keys[5])
        np.testing.assert_array_equal(cache.pool.values[0], values[5])

    def test_pool_swap_sends_loser_to_aux(self):
        rng = np.random.default_rng(37)
        g, d = 8, 4
        cfg = EngineConfig(group_size=g, residual=0, outlier_num=1, skip_layers=(), head_dim=d)
        cache = TieredCache(cfg, layer=0)
        first = rng.uniform(4.5, 5.5, size=(g, d)).astype(np.float32)
        first[2] = 0.5  # pooled after group 1
        second = rng.uniform(4.5, 5.5, size=(g, d)).astype(np.float32)
        second[6] = 0.01  # lower score: wins the slot in group 2
        fill(cache, first, random_rows(rng, g, d))
        assert cache.pool.positions.tolist() == [2]
        fill(cache, second, random_rows(rng, g, d))
        assert cache.pool.positions.tolist() == [g + 6]
        assert cache.pool.aux_positions.tolist() == [2]
        assert cache.substituted_positions == {2, g + 6}


class TestMemoryUsage:
    def test_empty_cache(self):
        usage = TieredCache(EngineConfig(), layer=2).memory_usage()
        assert usage.total_bits == 0

    def test_single_block_accounting(self):
        rng = np.random.default_rng(38)
        cfg = EngineConfig(group_size=128, residual=0, outlier_num=0, head_dim=64, bits=2)
        cache = TieredCache(cfg, layer=2)
        fill(cache, random_rows(rng, 128, 64), random_rows(rng, 128, 64))
        usage = cache.memory_usage()
        assert usage.quantized_bits == 2 * 128 * 64 * 2
        assert usage.param_bits == (64 + 128) * 2 * 16
        assert usage.pending_bits == 0
        fp16_bits = 2 * 128 * 64 * 16
        assert fp16_bits / usage.total_bits == pytest.approx(6.7368, abs=1e-3)

    def test_pending_and_pool_accounting(self):
        rng = np.random.default_rng(39)
        g, d = 8, 4
        cfg = EngineConfig(group_size=g, residual=2, outlier_num=1, skip_layers=(), head_dim=d)
        cache = TieredCache(cfg, layer=0)
        keys = rng.uniform(4.5, 5.5, size=(g + 2, d)).astype(np.float32)
        keys[1] = 0.01
        fill(cache, keys, random_rows(rng, g + 2, d))
        usage = cache.memory_usage()
        assert usage.pending_bits == 2 * d * 16 * 2
        assert usage.pool_bits == 1 * d * 16 * 2

    def test_total_bits_monotone_at_trigger_aligned_lengths(self):
        # sampled right after each quantization event, the footprint only grows
        rng = np.random.default_rng(40)
        cfg = EngineConfig(group_size=8, residual=2, outlier_num=0, head_dim=4)
        cache = TieredCache(cfg, layer=2)
        totals = []
        for i in range(200):
            cache.append(*random_rows(rng, 2, 4))
            if cache.pending_rows == cfg.residual:
                totals.append(cache.memory_usage().total_bits)
        assert len(totals) > 5
        assert all(a < b for a, b in zip(totals, totals[1:]))

    @pytest.mark.parametrize("bits", [1, 2, 8])
    @pytest.mark.parametrize("d", [1, 5])
    @pytest.mark.parametrize("r", [0, 3])
    @pytest.mark.parametrize("g", [1, 4, 16])
    def test_closed_form_matches_per_block_sum(self, g, r, d, bits):
        n = 6 * g + r + 3
        rng = np.random.default_rng(100 * g + 10 * r + d + bits)
        keys, values = shrinking_keys(rng, n, d), random_rows(rng, n, d)
        evicted = 0
        # (outlier_num, aux_capacity, layer): pool off, on, and skipped.
        for outlier_num, aux, layer in [(0, 0, 0), (2, 1, 0), (3, 4, 0), (3, 4, 1)]:
            cfg = EngineConfig(bits=bits, group_size=g, residual=r, outlier_num=outlier_num,
                               skip_layers=(1,), aux_capacity=aux, head_dim=d)
            cache = TieredCache(cfg, layer=layer)
            assert cache.memory_usage() == per_block_memory_usage(cache)
            for t in range(n):
                cache.append(keys[t], values[t])
                assert cache.memory_usage() == per_block_memory_usage(cache)
            evicted += cache.pool.aux_positions.size
        assert evicted


class TestPassthrough:
    """A cache whose window never fills is lossless: it quantizes and pools nothing.

    Its row buffer grows one side at a time.
    """

    G, R, D = 4, 3, 5

    def fed(self, feed):
        # Pooling on with room to evict, so any quantization would show;
        # the group is one row longer than the rows fed.
        rng = np.random.default_rng(48)
        n = 5 * (self.G + self.R) + 2
        cfg = EngineConfig(group_size=n + 1, residual=self.R, outlier_num=3,
                           skip_layers=(), aux_capacity=2, head_dim=self.D)
        keys, values = shrinking_keys(rng, n, self.D), random_rows(rng, n, self.D)
        cache = TieredCache(cfg, layer=0)
        fed = feed(cache, keys, values)
        return cache, keys[:fed], values[:fed]

    @staticmethod
    def by_append(cache, keys, values):
        fill(cache, keys, values)
        return len(keys)

    @pytest.mark.parametrize("feed", ["by_append"])
    def test_every_row_stays_pending(self, feed):
        cache, keys, values = self.fed(getattr(self, feed))
        t = len(keys)
        assert cache.total_tokens == cache.pending_rows == t
        assert cache.quantized_tokens == 0 and not cache.quantized_k and not cache.quantized_v
        assert cache.pool.positions.size == cache.pool.aux_positions.size == 0
        assert not cache.substituted_positions
        got_k, got_v = cache.attended_kv()
        assert got_k.tobytes() == keys.tobytes() and got_v.tobytes() == values.tobytes()
        usage = cache.memory_usage()
        assert (usage.quantized_bits, usage.param_bits, usage.pending_bits, usage.pool_bits) == (
            0, 0, 2 * t * self.D * 16, 0)
        assert usage == per_block_memory_usage(cache)

    def test_growth_holds_one_old_buffer_at_a_time(self):
        # Two rows at first, doubled to exactly 4096 by the 2049th row: the
        # last doubling replaces two 512 KiB buffers with two of 1 MiB.
        cfg = EngineConfig(group_size=1, residual=1, outlier_num=0, head_dim=64)
        rows = np.ones((2049, 64), dtype=np.float32)
        side = 4096 * 64 * 4
        tracemalloc.start()
        try:
            cache = TieredCache(cfg, layer=0)
            tracemalloc.reset_peak()
            fill(cache, rows, rows)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cache._k.shape[0] == cache._v.shape[0] == 4096
        assert all(a.tobytes() == rows.tobytes() for a in cache.attended_kv())
        assert current >= 2 * side
        # Growing K and V together would add both old buffers (side).
        assert peak - current <= side // 2 + 64 * 1024


class TestAttendedKv:
    """The in-place read buffer against the slow from-scratch reference."""

    # (outlier_num, aux_capacity): pool off, frozen from the start, and
    # pools that evict and then freeze after a few groups.
    POOLS = [(0, 0), (1, 0), (1, 4), (2, 1), (3, 2), (3, 4)]

    @staticmethod
    def schedules(g, r):
        mid_group = g // 2 + 1
        several_groups = 3 * g + r + 1
        return [(0, 1), (mid_group, 3), (several_groups, 1), (several_groups, 4)]

    @staticmethod
    def check_read(cache, q):
        ref_k, ref_v = reconstructed_kv(cache)
        keys, values = cache.attended_kv()
        np.testing.assert_array_equal(keys, ref_k)
        np.testing.assert_array_equal(values, ref_v)
        got = attend_mixed(q, cache)
        want = attend_full_precision(q, ref_k, ref_v)
        np.testing.assert_array_equal(got.output, want.output)
        np.testing.assert_array_equal(got.weights, want.weights)
        np.testing.assert_array_equal(got.scores, want.scores)

    # A lossless run reads, at the same steps, a cache whose group is one
    # row longer than the rows fed, so nothing is ever quantized.
    @pytest.mark.parametrize("lossless", [False, True])
    @pytest.mark.parametrize("r", [0, 3])
    @pytest.mark.parametrize("g", [1, 4, 16])
    def test_bit_equal_to_reference(self, g, r, lossless):
        d = 4
        n = 6 * g + r + 2
        rng = np.random.default_rng(1000 * g + 10 * r + lossless)
        keys = shrinking_keys(rng, n, d)
        values = random_rows(rng, n, d)
        queries = random_rows(rng, n, d)
        froze = evicted = 0
        for outlier_num, aux in self.POOLS:
            cfg = EngineConfig(group_size=n + 1 if lossless else g, residual=r,
                               outlier_num=outlier_num, skip_layers=(), aux_capacity=aux,
                               head_dim=d)
            for first, every in self.schedules(g, r):
                cache = TieredCache(cfg, layer=0)
                for t in range(n):
                    cache.append(keys[t], values[t])
                    if t >= first and (t - first) % every == 0:
                        self.check_read(cache, queries[t])
                self.check_read(cache, queries[-1])
                froze += outlier_num > 0 and aux > 0 and cache.pool.frozen
                evicted += cache.pool.aux_positions.size
                if lossless:
                    assert cache.quantized_tokens == 0 and cache.pool.positions.size == 0
        assert lossless or (froze and evicted)

class TestExtend:
    """Rejected and extreme rows through ``append`` on a cache several groups in."""

    @staticmethod
    def fed_pair(seed):
        # Two caches in the same state: three groups in, pool full.
        cfg = EngineConfig(group_size=4, residual=3, outlier_num=2, skip_layers=(),
                           aux_capacity=4, head_dim=3)
        rng = np.random.default_rng(seed)
        keys, values = shrinking_keys(rng, 17, 3), random_rows(rng, 17, 3)
        pair = [TieredCache(cfg, layer=0) for _ in range(2)]
        for cache in pair:
            fill(cache, keys, values)
        return pair

    def test_append_rejects_non_finite_rows(self):
        cache, twin = self.fed_pair(2)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ContractViolation, match="NaN or Inf"):
                cache.append([0.0, bad, 0.0], [0.0, 0.0, 0.0])
            with pytest.raises(ContractViolation, match="NaN or Inf"):
                cache.append([0.0, 0.0, 0.0], [bad, 0.0, 0.0])
        assert_same_cache(cache, twin)

    def test_extreme_finite_rows_accepted(self):
        # Their float32 sum overflows; every value is still finite.
        big = np.float32(3e38)
        rows = np.array([[big, big, big], [-big, -big, -big], [big, -big, big]], dtype=np.float32)
        cfg = EngineConfig(group_size=8, residual=2, outlier_num=0, head_dim=3)
        cache = TieredCache(cfg)
        fill(cache, rows, rows[::-1])
        np.testing.assert_array_equal(cache.pending_k, rows)
        np.testing.assert_array_equal(cache.pending_v, rows[::-1])


class TestPoolCandidates:
    """The pool stores copies: no pool or aux row aliases a group or the cache."""

    def test_no_pool_row_shares_a_group_buffer(self, monkeypatch):
        groups = []
        update = OutlierPool.update

        def recording_update(pool, positions, scores, keys, values):
            groups.extend((keys, values))
            return update(pool, positions, scores, keys, values)

        monkeypatch.setattr(OutlierPool, "update", recording_update)
        g = 8
        cfg = EngineConfig(group_size=g, residual=2, outlier_num=3,
                           skip_layers=(), aux_capacity=4, head_dim=4)
        rng = np.random.default_rng(5)
        n = 12 * g + 2
        cache = TieredCache(cfg, layer=0)
        fill(cache, shrinking_keys(rng, n, 4), random_rows(rng, n, 4))
        cache.attended_kv()
        pool = cache.pool
        assert pool.aux_positions.size and pool.positions.size == 3
        assert len(groups) >= 2 * (len(pool.aux_positions) + 1)
        for stored in (pool.keys, pool.values, pool.aux_keys, pool.aux_values):
            for buffer in groups + [cache._k, cache._v]:
                assert not np.shares_memory(stored, buffer)
