#!/usr/bin/env python3
"""Size the KV-cache problem and the compression the tiered cache delivers.

First the closed-form full-precision footprint for a production-scale
decoder, then the measured compression-ratio curve of the 2-bit tiered
cache as sequence length grows.
"""

from kvtrace import EngineConfig, fp16_bits, ratio_curve

print("=== Full-precision KV cache footprint ===")
total = fp16_bits(32 * 8 * 8192 * 64, 512) // 8  # layers x heads x tokens x batch rows of 512
print("32 layers x 8 heads x 512 dims, 8192 tokens, batch 64, fp16:")
print(f"  {total:,} bytes = {total / 2**30:.0f} GiB")
print()

print("=== Compression ratio vs sequence length (2-bit tiered cache) ===")
cfg = EngineConfig(bits=2, group_size=128, residual=32, outlier_num=3, head_dim=64)
lengths = [128, 256, 1024, 4096, 16384, 65536]
print(f"{'seq_len':>8} {'stored bits':>14} {'ratio vs fp16':>14}")
for t, usage in zip(lengths, ratio_curve(cfg, lengths)):
    ratio = fp16_bits(t, cfg.head_dim) / usage.total_bits
    print(f"{t:>8} {usage.total_bits:>14,} {ratio:>14.3f}")
print()
print("below group_size + residual nothing is quantized (ratio 1.0);")
print("with length the full-precision tiers amortize and the ratio")
print("approaches the per-block rate of ~6.7x")
print()

print("=== Where the steady-state rate comes from ===")
g, d, b = cfg.group_size, cfg.head_dim, cfg.bits
code_bits = 2 * g * d * b
param_bits = (d + g) * 2 * 16  # a min and a step per line, both fp16
fp16 = fp16_bits(g, d)
print(f"per group of {g} tokens: {code_bits} code bits + {param_bits} parameter bits")
print(f"fp16 equivalent: {fp16} bits -> {fp16 / (code_bits + param_bits):.3f}x")
