"""End-to-end acceptance checks.

Each test exercises one exit criterion at its stated tolerance and prints
one pass/fail line (run with ``pytest -s`` to see them). The criteria are
ordered; the weight-normalization check (8) audits every mixed-attention
call made by criteria 5 and 6.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from kvtrace import (
    Criterion,
    EngineConfig,
    OutlierPool,
    SyntheticSpec,
    TieredCache,
    attend_full_precision,
    attend_mixed,
    compare_criteria,
    decile_stats,
    dequantize,
    generate_synthetic,
    quantize_uniform,
    ratio_curve,
    replay_caches,
    score_tokens,
)
import kvtrace.replay as replay_module
from kvtrace.cli import run


@contextmanager
def criterion(number, name, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"[acceptance] criterion {number} ({name}): PASS ({elapsed:.1f}s)")


# max |sum(weights) - 1| seen across every attend_mixed call in criteria 5-6
_WEIGHT_DEVIATIONS: list[float] = []


def _checked_attend(q, cache):
    res = attend_mixed(q, cache)
    _WEIGHT_DEVIATIONS.append(abs(float(res.weights.sum(dtype=np.float64)) - 1.0))
    return res


def test_criterion_1_memory_formula(capsys):
    with criterion(1, "memory formula", budget_s=1.0):
        code = run(
            [
                "mem-estimate",
                "--layers", "32", "--heads", "8", "--head-dim", "512",
                "--seq-len", "8192", "--batch", "64",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("274877906944 bytes")


def test_criterion_2_reconstruction_bound():
    with criterion(2, "reconstruction bound", budget_s=10.0):
        rng = np.random.default_rng(100)
        widths = np.array([1, 2, 4, 8])
        for _ in range(10_000):
            size = int(rng.integers(1, 257))
            bits = int(rng.choice(widths))
            x = rng.uniform(-10.0, 10.0, size=size)
            codes, params = quantize_uniform(x, bits)
            err = x - dequantize(codes, params)
            assert err.min() >= 0.0
            assert err.max() <= params.step or params.step == 0.0
        # lattice-aligned inputs reconstruct exactly
        for bits in (1, 2, 4, 8):
            levels = (1 << bits) - 1
            lattice = -10.0 + 0.5 * np.arange(levels + 1)
            rng.shuffle(lattice)
            codes, params = quantize_uniform(lattice, bits)
            np.testing.assert_array_equal(dequantize(codes, params), lattice)


def test_criterion_3_step_inflation():
    with criterion(3, "step inflation", budget_s=1.0):
        rng = np.random.default_rng(101)
        for _ in range(100):
            mu = float(rng.uniform(1.0, 100.0))
            sigma = float(rng.uniform(0.01, mu / 3))
            eps = float(rng.uniform(1e-4, (mu - sigma) * 0.9))
            channel = rng.uniform(mu - sigma, mu + sigma, size=int(rng.integers(8, 512)))
            _, before = quantize_uniform(channel, 2)
            _, after = quantize_uniform(np.append(channel, eps), 2)
            x_max = channel.max()
            x_min_old = channel.min()
            expected = (x_max - eps) / (x_max - x_min_old)
            measured = after.step / before.step
            assert measured == pytest.approx(expected, rel=1e-6)
            assert measured > 1.0


def test_criterion_4_pool_oracle():
    with criterion(4, "pool competition oracle", budget_s=30.0):
        rng = np.random.default_rng(102)
        for _ in range(100):
            capacity = int(rng.integers(1, 7))
            n_tokens = int(rng.integers(256, 10_001))
            keys = np.zeros((n_tokens, 2), dtype=np.float32)
            keys[:, 0] = rng.uniform(0.0, 1.0, size=n_tokens)
            scores = score_tokens(keys)
            positions = np.arange(n_tokens)
            # Independent oracle: rank every token once by (score, position).
            # A total order restricted to a prefix keeps its order.
            ranked = np.lexsort((positions, scores))
            pool = OutlierPool(capacity=capacity, aux_capacity=32)
            frozen_members = None
            for start in range(0, n_tokens, 128):
                group = slice(start, start + 128)
                was_frozen = pool.frozen
                pool.update(scores[group], start)
                if not was_frozen:
                    # The pool holds the best of the prefix seen so far.
                    end = min(start + 128, n_tokens)
                    np.testing.assert_array_equal(pool.positions, ranked[ranked < end][:capacity])
                    frozen_members = pool.positions.copy()
                else:
                    np.testing.assert_array_equal(pool.positions, frozen_members)


def test_criterion_5_lossless_equivalence():
    with criterion(5, "lossless equivalence", budget_s=30.0):
        rng = np.random.default_rng(103)
        for _ in range(50):
            seq_len = int(rng.integers(32, 1025))
            d = int(rng.integers(4, 129))
            keys = rng.standard_normal((seq_len, d)).astype(np.float32)
            values = rng.standard_normal((seq_len, d)).astype(np.float32)
            # The group size is still drawn, so every case keeps its draws,
            # but the window never fills: nothing is quantized.
            rng.integers(8, 65)
            cfg = EngineConfig(
                group_size=seq_len + 1,
                residual=int(rng.integers(0, 17)),
                outlier_num=0,
                skip_layers=(),
                head_dim=d,
            )
            cache = TieredCache(cfg, layer=0)
            for k, v in zip(keys, values):
                cache.append(k, v)
            q = rng.standard_normal(d).astype(np.float32)
            mixed = _checked_attend(q, cache)
            oracle = attend_full_precision(q, keys, values)
            scale = max(float(np.abs(oracle.output).max()), 1e-12)
            assert float(np.abs(mixed.output - oracle.output).max()) / scale <= 1e-5


def _assert_ott_excludes_planted(trace, cache):
    """OTT's mechanism in one replayed cache: the pool takes the planted
    tokens, attention reads their exact key rows, and their groups'
    outlier channel is quantized as if they were absent."""
    _, keys, _ = trace.block(0, 0)
    planted = trace.planted(0, 0)
    offered = planted[planted < cache.quantized_tokens]
    pooled, aux = cache.pool.positions, cache.pool.aux_positions
    assert set(offered.tolist()) <= set(pooled.tolist())
    attended_keys, _ = cache.attended_kv()
    np.testing.assert_array_equal(attended_keys[pooled], keys[pooled])
    never_pooled = np.ones(cache.quantized_tokens, dtype=bool)
    never_pooled[pooled] = never_pooled[aux] = False
    g = cache.config.group_size
    for start in np.unique(offered // g * g):
        rows = np.arange(start, start + g)
        rows = rows[never_pooled[rows]]
        # The group's smallest key in the outlier channel (channel 0) gets
        # code 0, which dequantizes exactly once the planted rows are excluded.
        assert attended_keys[rows, 0].min() == keys[rows, 0].min()


def test_criterion_6_retention_ordering_and_outlier_benefit(monkeypatch):
    # Criterion 8 audits every mixed attention the replays below make.
    monkeypatch.setattr(replay_module, "attend_mixed", _checked_attend)
    with criterion(6, "retention ordering + outlier benefit", budget_s=120.0):
        n_seeds, heads, d, seq_len, budget = 20, 2, 16, 1024, 3
        baseline_cfg, ott_cfg = (
            EngineConfig(bits=2, group_size=128, residual=32, outlier_num=n,
                         skip_layers=(), aux_capacity=32, head_dim=d)
            for n in (0, 3)
        )
        crit_errs = {c: [] for c in Criterion}
        ott_errs, baseline_errs = [], []
        for seed in range(n_seeds):
            spec = SyntheticSpec(seed=seed)
            trace = generate_synthetic(spec, 1, heads, d, seq_len)
            per_head = [
                compare_criteria(trace.block(0, h), budget, 2, group_size=128, rng=np.random.default_rng(
                    np.random.SeedSequence(entropy=seed, spawn_key=(0, h, 1))))
                for h in range(heads)
            ]
            for c in Criterion:
                crit_errs[c].append(float(np.mean([errs[c] for errs in per_head])))
            # A one-head trace's head 0 is ``trace``'s head 0: blocks are
            # drawn from their (layer, head)'s own stream.
            head_0 = generate_synthetic(spec, 1, 1, d, seq_len)
            [(*_, baseline), (*_, cache, ott)] = replay_caches(head_0, baseline_cfg, ott_cfg)
            baseline_errs.append(baseline.mean())
            ott_errs.append(ott.mean())
            _assert_ott_excludes_planted(head_0, cache)
        smallest = float(np.mean(crit_errs[Criterion.SMALLEST_KEY]))
        random_ = float(np.mean(crit_errs[Criterion.RANDOM]))
        largest = float(np.mean(crit_errs[Criterion.LARGEST_KEY]))
        assert smallest < random_ < largest, (smallest, random_, largest)
        assert float(np.mean(ott_errs)) < float(np.mean(baseline_errs))


def test_criterion_7_compression_ratio():
    with criterion(7, "compression ratio", budget_s=60.0):
        cfg = EngineConfig(bits=2, group_size=128, residual=32, outlier_num=3, head_dim=64)
        short_len, long_len = cfg.group_size + cfg.residual - 1, 65_536
        [short] = ratio_curve(cfg, [short_len])
        assert 2 * short_len * cfg.head_dim * 16 / short.total_bits == 1.0
        [long] = ratio_curve(cfg, [long_len])
        long_ratio = 2 * long_len * cfg.head_dim * 16 / long.total_bits
        assert 6.0 <= long_ratio <= 7.2, long_ratio


def test_criterion_8_weight_normalization():
    with criterion(8, "weight normalization", budget_s=10.0):
        if not _WEIGHT_DEVIATIONS:  # criteria 5-6 not run in this session
            rng = np.random.default_rng(104)
            cfg = EngineConfig(group_size=16, residual=4, outlier_num=2,
                               skip_layers=(), head_dim=8)
            cache = TieredCache(cfg, layer=0)
            for _ in range(100):
                cache.append(
                    rng.standard_normal(8).astype(np.float32),
                    rng.standard_normal(8).astype(np.float32),
                )
                _checked_attend(rng.standard_normal(8).astype(np.float32), cache)
        assert len(_WEIGHT_DEVIATIONS) > 0
        assert max(_WEIGHT_DEVIATIONS) <= 1e-6


def test_criterion_9_decile_statistics():
    with criterion(9, "decile statistics", budget_s=5.0):
        spec = SyntheticSpec(mu=5.0, sigma=1.25, eps=0.01, delta=0.01, m=3, seed=7)
        trace = generate_synthetic(spec, 1, 1, 8, 1024)
        stats = decile_stats(trace.block(0, 0)[1][:, 0])
        assert abs(float(stats.sum()) - 100.0) <= 1e-6
        assert stats[0] < 1.0  # only the planted tokens sit at the bottom
        assert int(stats.argmax()) >= 6  # dominant decile in the upper region
        assert float(stats[6:].sum()) > 95.0
