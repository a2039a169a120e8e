#!/usr/bin/env python3
"""Replay a synthetic trace through the tiered cache and measure fidelity.

Streams tokens into per-tier storage (quantized groups + full-precision
pending window + outlier pool) through ``kvtrace.replay_caches`` (see
``kvtrace/replay.py``), which runs mixed-tier attention at every decode
step and compares it against the exact full-precision oracle; here without
and with outlier tracking, against one oracle.
"""

from kvtrace import EngineConfig, SyntheticSpec, fp16_bits, generate_synthetic, replay_caches

SEQ, DIM = 1024, 16
spec = SyntheticSpec(seed=2)
trace = generate_synthetic(spec, 1, 1, DIM, SEQ)
print(f"synthetic trace: {SEQ} tokens x {DIM} channels, "
      f"outlier channel in [{spec.mu - spec.sigma}, {spec.mu + spec.sigma}], "
      f"{spec.m} planted low-magnitude tokens")
print()


def config(outlier_num):
    return EngineConfig(bits=2, group_size=128, residual=32, outlier_num=outlier_num,
                        skip_layers=(), head_dim=DIM)


# The trace has one (layer, head), so the replay yields one cache per
# config, both measured against the same oracle rows.
[(_, _, base, base_errs), (_, _, cache, ott_errs)] = replay_caches(
    trace, config(outlier_num=0), config(outlier_num=3))

print("=== Baseline: plain group quantization (no outlier pool) ===")
print(f"blocks {base.quantized_tokens // 128}, pending {base.pending_rows}, "
      f"pool empty: {base.pool.positions.size == 0}")
print(f"mean per-step L1 error: {base_errs.mean():.4f}")
print()

print("=== With outlier-token tracking (pool capacity 3) ===")
print(f"pooled positions: {sorted(cache.pool.positions.tolist())}")
# Every token the pool took was mean-substituted in its group: its members,
# and those it evicted, which all fit in the 32-slot aux list here.
pool = cache.pool
print(f"mean-substituted positions: {sorted(pool.positions.tolist() + pool.aux_positions.tolist())}")
print(f"mean per-step L1 error: {ott_errs.mean():.4f}")
print()

gain = (base_errs.mean() - ott_errs.mean()) / base_errs.mean() * 100
print(f"tracking the {spec.m} planted tokens cuts the error by {gain:.1f}%")

usage = cache.memory_usage()
print()
print("=== Tier footprint (fp16-equivalent bits) ===")
print(f"quantized codes : {usage.quantized_bits}")
print(f"parameter lines : {usage.param_bits}")
print(f"pending window  : {usage.pending_bits}")
print(f"outlier pool    : {usage.pool_bits}")
fp16 = fp16_bits(SEQ, DIM)
print(f"total {usage.total_bits} vs fp16 {fp16} -> {fp16 / usage.total_bits:.2f}x smaller")
