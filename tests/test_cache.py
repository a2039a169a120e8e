import tracemalloc

import numpy as np
import pytest

from kvtrace import (
    ContractViolation,
    EngineConfig,
    MemoryBreakdown,
    OutlierPool,
    SyntheticSpec,
    TieredCache,
    TraceHeader,
    attend_full_precision,
    attend_mixed,
    compare_criteria,
    fp16_bits,
    quantize_keys_channelwise,
    quantize_uniform,
    quantize_values_tokenwise,
    ratio_curve,
    substitute_means,
)

from spec import group_rows, spec_steps, substituted


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


def pending_kv(cache):
    """The full-precision pending rows: the attended rows from ``quantized_tokens`` on."""
    return [rows[cache.quantized_tokens :] for rows in cache.attended_kv()]


def assert_matches_spec(cache, step):
    """The rows attention reads and the pool's and aux list's positions are the spec's at this step."""
    ref_k, ref_v, positions, aux_positions = step
    keys, values = cache.attended_kv()
    assert keys.tobytes() == ref_k.tobytes() and values.tobytes() == ref_v.tobytes()
    assert cache.pool.positions.tolist() == positions
    assert cache.pool.aux_positions.tolist() == aux_positions


def final_step(keys, values, config, layer):
    """The spec's last step after feeding every row of ``keys`` and ``values``."""
    *_, step = spec_steps(keys, values, config, layer)
    return step


def per_block_memory_usage(cache, blocks):
    """The slow reference for ``memory_usage``: what the packed blocks would hold.

    ``blocks`` are the (K, V) blocks of the fed rows' whole groups,
    quantized directly. Each of the cache's quantized groups is
    charged its blocks' codes at their width and two 16-bit values per
    parameter line; pending rows at 16 bits per value. The pool holds no
    rows, so each member and auxiliary position is charged one K and one V
    row at 16 bits per value.
    """
    blocks = [b for pair in blocks[: cache.quantized_tokens // cache.config.group_size] for b in pair]
    pool_rows = cache.pool.positions.size + cache.pool.aux_positions.size
    return MemoryBreakdown(
        quantized_bits=sum(b.n_tokens * b.n_channels * b.bits for b in blocks),
        param_bits=sum((b.mins.size + b.steps.size) * 16 for b in blocks),
        pending_bits=sum(rows.size * 16 for rows in pending_kv(cache)),
        pool_bits=2 * pool_rows * cache.config.head_dim * 16,
    )


def pool_fields(pool):
    return [getattr(pool, name).tolist() for name in ("positions", "scores", "aux_positions")]


def assert_same_cache(a, b):
    """Every attended row, pending row, pool member and accounting figure agrees."""
    assert (a.total_tokens, a.quantized_tokens, a.pending_rows) == (
        b.total_tokens, b.quantized_tokens, b.pending_rows)
    for x, y in zip(pending_kv(a), pending_kv(b), strict=True):
        np.testing.assert_array_equal(x, y)
    for x, y in zip(a.attended_kv(), b.attended_kv(), strict=True):
        assert x.tobytes() == y.tobytes()
    assert pool_fields(a.pool) == pool_fields(b.pool)
    assert a.pool.frozen == b.pool.frozen
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

    def test_skip_layers_stored_as_a_tuple_of_ints(self):
        cfg = EngineConfig(skip_layers=[0, np.int64(1)])
        assert cfg.skip_layers == (0, 1)
        assert all(type(layer) is int for layer in cfg.skip_layers)
        assert cfg == EngineConfig() and hash(cfg) == hash(EngineConfig())

    def test_validation(self):
        with pytest.raises(ContractViolation):
            EngineConfig(bits=0)
        with pytest.raises(ContractViolation):
            EngineConfig(group_size=0)
        with pytest.raises(ContractViolation):
            EngineConfig(residual=-1)
        with pytest.raises(ContractViolation, match="skip_layers entries must be >= 0"):
            EngineConfig(skip_layers=(0, -1))


@pytest.mark.parametrize("build", [
    lambda: EngineConfig(bits=2.0),
    lambda: EngineConfig(group_size=2.0),
    lambda: EngineConfig(residual=1.5),
    lambda: EngineConfig(outlier_num=2.5),
    lambda: EngineConfig(aux_capacity=1.5),
    lambda: EngineConfig(head_dim=4.0),
    lambda: OutlierPool(2.5, 3),
    lambda: OutlierPool(2, 1.5),
    lambda: OutlierPool(2, 3).update([1.0], 0.0),
    lambda: quantize_uniform([0.0, 1.0], 2.5),
    lambda: TraceHeader(2.0, 1, 8, 40),
    lambda: SyntheticSpec(m=2.5),
    lambda: SyntheticSpec(outlier_channels=1.0),
    lambda: SyntheticSpec(seed=1.5),
    lambda: compare_criteria(np.ones((3, 8, 2), np.float32), 2.5, 2),
    lambda: compare_criteria(np.ones((3, 8, 2), np.float32), 2, 2, group_size=16.0),
    lambda: fp16_bits(1.0, 1),
    lambda: ratio_curve(EngineConfig(), [200.5]),
    lambda: ratio_curve(EngineConfig(), [64], seed=1.5),
    lambda: EngineConfig(skip_layers=(0.0, 1.0)),
    lambda: TieredCache(EngineConfig(skip_layers="0,1"), 0),
    lambda: substitute_means(np.zeros((3, 2)), np.zeros((3, 2)), [1.5]),
], ids=["bits", "group_size", "residual", "outlier_num", "aux_capacity", "head_dim",
        "pool capacity", "pool aux_capacity", "pool first", "quantize bits",
        "trace header", "spec m", "spec outlier_channels", "spec seed", "criteria budget",
        "criteria group_size", "kv bytes seq_len", "curve seq_lens", "curve seed",
        "skip_layers float", "skip_layers string", "substituted row"])
def test_non_integer_size_rejected(build):
    # A float that would otherwise fail later, inside numpy, with a TypeError.
    with pytest.raises(ContractViolation, match="must be an integer"):
        build()


class TestAppendTrigger:
    def test_single_append(self):
        cache = TieredCache(EngineConfig(group_size=4, residual=2, head_dim=3), layer=2)
        cache.append([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert cache.pending_rows == 1
        assert cache.quantized_tokens == 0
        assert cache.total_tokens == 1

    def test_zero_residual_quantizes_at_group(self):
        rng = np.random.default_rng(31)
        cache = TieredCache(EngineConfig(group_size=4, residual=0, head_dim=3), layer=2)
        keys, values = random_rows(rng, 4, 3), random_rows(rng, 4, 3)
        fill(cache, keys, values)
        assert_matches_spec(cache, final_step(keys, values, cache.config, 2))
        assert cache.pending_rows == 0
        assert cache.quantized_tokens == 4

    def test_residual_window_defers_trigger(self):
        rng = np.random.default_rng(32)
        cache = TieredCache(EngineConfig(group_size=4, residual=2, head_dim=3), layer=2)
        keys, values = random_rows(rng, 6, 3), random_rows(rng, 6, 3)
        fill(cache, keys, values)
        # trigger fired at the 6th append: block covers positions 0-3
        assert_matches_spec(cache, final_step(keys, values, cache.config, 2))
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
        n_groups = cache.quantized_tokens // 8
        assert n_groups == 3
        got_k, got_v = cache.attended_kv()
        for g in range(n_groups):
            k_block = quantize_keys_channelwise(keys[g * 8 : (g + 1) * 8], 2)
            v_block = quantize_values_tokenwise(values[g * 8 : (g + 1) * 8], 2)
            assert got_k[g * 8 : (g + 1) * 8].tobytes() == k_block.to_matrix().tobytes()
            assert got_v[g * 8 : (g + 1) * 8].tobytes() == v_block.to_matrix().tobytes()

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
        assert skipped.quantized_tokens == disabled.quantized_tokens == 40
        for a, b in zip(skipped.attended_kv(), disabled.attended_kv(), strict=True):
            assert a.tobytes() == b.tobytes()


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
        block_k, block_v = group_rows(keys, values, [5], 2)
        step = max(p.step for p in quantize_keys_channelwise(substituted(keys, values, [5])[0], 2).params)
        assert np.abs(block_k[5] - keys.mean(axis=0)).max() <= step + 1e-6
        # the other rows attend through the substituted group's block ...
        got_k, got_v = cache.attended_kv()
        np.testing.assert_array_equal(np.delete(got_k, 5, 0), np.delete(block_k, 5, 0))
        np.testing.assert_array_equal(np.delete(got_v, 5, 0), np.delete(block_v, 5, 0))
        # ... and the pooled token through the rows it was fed
        np.testing.assert_array_equal(got_k[5], keys[5])
        np.testing.assert_array_equal(got_v[5], values[5])

    def test_pool_swap_sends_loser_to_aux(self):
        rng = np.random.default_rng(37)
        g, d = 8, 4
        cfg = EngineConfig(group_size=g, residual=0, outlier_num=1, skip_layers=(), head_dim=d)
        cache = TieredCache(cfg, layer=0)
        first = rng.uniform(4.5, 5.5, size=(g, d)).astype(np.float32)
        first[2] = 0.5  # pooled after group 1
        second = rng.uniform(4.5, 5.5, size=(g, d)).astype(np.float32)
        second[6] = 0.01  # lower score: wins the slot in group 2
        values = random_rows(rng, 2 * g, d)
        fill(cache, first, values[:g])
        assert cache.pool.positions.tolist() == [2]
        fill(cache, second, values[g:])
        assert cache.pool.positions.tolist() == [g + 6]
        assert cache.pool.aux_positions.tolist() == [2]
        assert_matches_spec(cache, final_step(np.concatenate((first, second)), values, cfg, 0))


class TestMemoryUsage:
    def test_empty_cache(self):
        usage = TieredCache(EngineConfig(), layer=2).memory_usage()
        assert usage.total_bits == 0

    # (T, d, residual) with T < G + R, G = 8; the last is one row short of a group write.
    @pytest.mark.parametrize("t, d, r", [(0, 4, 2), (1, 1, 0), (7, 3, 0), (9, 5, 4), (11, 64, 4)])
    def test_unquantized_cache_costs_fp16_bits(self, t, d, r):
        rng = np.random.default_rng(37)
        cfg = EngineConfig(group_size=8, residual=r, outlier_num=3, skip_layers=(), head_dim=d)
        cache = TieredCache(cfg, layer=0)
        fill(cache, random_rows(rng, t, d), random_rows(rng, t, d))
        assert cache.quantized_tokens == 0
        assert cache.memory_usage().total_bits == fp16_bits(t, d)

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
        blocks = [(quantize_keys_channelwise(keys[b : b + g], bits),
                   quantize_values_tokenwise(values[b : b + g], bits)) for b in range(0, n - g + 1, g)]
        evicted = 0
        # (outlier_num, aux_capacity, layer): pool off, on, and skipped.
        for outlier_num, aux, layer in [(0, 0, 0), (2, 1, 0), (3, 4, 0), (3, 4, 1)]:
            cfg = EngineConfig(bits=bits, group_size=g, residual=r, outlier_num=outlier_num,
                               skip_layers=(1,), aux_capacity=aux, head_dim=d)
            cache = TieredCache(cfg, layer=layer)
            assert cache.memory_usage() == per_block_memory_usage(cache, blocks)
            for t in range(n):
                cache.append(keys[t], values[t])
                assert cache.memory_usage() == per_block_memory_usage(cache, blocks)
            evicted += cache.pool.aux_positions.size
        assert evicted


class TestLosslessWindow:
    """A cache whose window never fills is lossless: it quantizes and pools nothing.

    Its row buffer grows one side at a time.
    """

    G, R, D = 4, 3, 5

    def fed(self):
        # Pooling on with room to evict, so any quantization would show;
        # the group is one row longer than the rows fed.
        rng = np.random.default_rng(48)
        n = 5 * (self.G + self.R) + 2
        cfg = EngineConfig(group_size=n + 1, residual=self.R, outlier_num=3,
                           skip_layers=(), aux_capacity=2, head_dim=self.D)
        keys, values = shrinking_keys(rng, n, self.D), random_rows(rng, n, self.D)
        cache = TieredCache(cfg, layer=0)
        fill(cache, keys, values)
        return cache, keys, values

    def test_every_row_stays_pending(self):
        cache, keys, values = self.fed()
        t = len(keys)
        assert cache.total_tokens == cache.pending_rows == t
        assert cache.quantized_tokens == 0
        assert cache.pool.positions.size == cache.pool.aux_positions.size == 0
        got_k, got_v = cache.attended_kv()
        assert got_k.tobytes() == keys.tobytes() and got_v.tobytes() == values.tobytes()
        usage = cache.memory_usage()
        assert (usage.quantized_bits, usage.param_bits, usage.pending_bits, usage.pool_bits) == (
            0, 0, 2 * t * self.D * 16, 0)
        assert usage == per_block_memory_usage(cache, [])

    def test_growth_holds_one_old_buffer_at_a_time(self):
        # 64 rows at first, doubled to exactly 4096 by the 2049th row: the
        # last doubling replaces two 512 KiB buffers with two of 1 MiB.
        cfg = EngineConfig(group_size=63, residual=1, outlier_num=0, head_dim=64)
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
    """The in-place read buffer against the spec, OTT's rule replayed from the fed rows."""

    # (outlier_num, aux_capacity): pool off, frozen from the start, and
    # pools that evict and then freeze after a few groups.
    POOLS = [(0, 0), (1, 0), (1, 4), (2, 1), (3, 2), (3, 4)]

    @staticmethod
    def schedules(g, r):
        mid_group = g // 2 + 1
        several_groups = 3 * g + r + 1
        return [(0, 1), (mid_group, 3), (several_groups, 1), (several_groups, 4)]

    @staticmethod
    def check_read(cache, q, step):
        # Shadow rows are kept for the pool's members and no one else.
        assert sorted(cache._shadows) == sorted(cache.pool.positions.tolist())
        assert_matches_spec(cache, step)
        got = attend_mixed(q, cache)
        want = attend_full_precision(q, step[0], step[1])
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
            steps = list(spec_steps(keys, values, cfg, 0))
            for first, every in self.schedules(g, r):
                cache = TieredCache(cfg, layer=0)
                for t in range(n):
                    cache.append(keys[t], values[t])
                    if t >= first and (t - first) % every == 0:
                        self.check_read(cache, queries[t], steps[t])
                self.check_read(cache, queries[-1], steps[-1])
                froze += outlier_num > 0 and aux > 0 and cache.pool.frozen
                evicted += cache.pool.aux_positions.size
                if lossless:
                    assert cache.quantized_tokens == 0 and cache.pool.positions.size == 0
        assert lossless or (froze and evicted)

class TestRejectedRows:
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
        pending_k, pending_v = pending_kv(cache)
        np.testing.assert_array_equal(pending_k, rows)
        np.testing.assert_array_equal(pending_v, rows[::-1])
