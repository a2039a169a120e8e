#!/usr/bin/env python3
"""Walk through uniform min-max quantization and why low outliers hurt it.

Covers: the floor rule and its one-sided error bound, per-channel vs
per-token grouping, bit packing, and the step-inflation effect of a single
low-magnitude value.
"""

import numpy as np

from kvtrace import (
    dequantize,
    pack_codes,
    quantize_keys_channelwise,
    quantize_uniform,
    quantize_values_tokenwise,
    unpack_codes,
)

rng = np.random.default_rng(0)

print("=== Uniform quantization: floor rule ===")
x = np.array([0.0, 0.4, 1.1, 2.7, 3.0])
codes, params = quantize_uniform(x, bits=2)
print(f"input      : {x}")
print(f"step       : {params.step:.4f} (range / (2^2 - 1))")
print(f"codes      : {codes}")
recon = dequantize(codes, params)
print(f"reconstruct: {np.round(recon, 4)}")
print(f"error      : {np.round(x - recon, 4)}  (always in [0, step])")
print()

print("=== One-sided error bound on random data ===")
x = rng.uniform(-3, 3, size=2000)
codes, params = quantize_uniform(x, bits=2)
err = x - dequantize(codes, params)
print(f"2000 samples at 2 bits: min error {err.min():.2e}, "
      f"max error {err.max():.4f}, step {params.step:.4f}")
assert err.min() >= 0 and err.max() <= params.step
print()

print("=== Step inflation from one low value ===")
mu, sigma, eps = 5.0, 0.5, 0.01
channel = rng.uniform(mu - sigma, mu + sigma, size=128)
_, clean = quantize_uniform(channel, bits=2)
_, dirty = quantize_uniform(np.append(channel, eps), bits=2)
print(f"channel uniform in [{mu - sigma}, {mu + sigma}], one appended value {eps}")
print(f"step before: {clean.step:.4f}")
print(f"step after : {dirty.step:.4f}  ({dirty.step / clean.step:.1f}x wider)")
print("every other token in the channel now reconstructs that much worse")
print()

print("=== Group quantization: keys per channel, values per token ===")
group = rng.standard_normal((128, 8))
k_block = quantize_keys_channelwise(group, bits=2)
v_block = quantize_values_tokenwise(group, bits=2)
print(f"group shape {group.shape}")
print(f"channel-wise block: {len(k_block.steps)} parameter lines (one per channel)")
print(f"token-wise block  : {len(v_block.steps)} parameter lines (one per token)")
print(f"packed payload    : {len(pack_codes(np.frombuffer(k_block.codes, np.uint8), 2))} bytes for {group.size} 2-bit codes")
print()

print("=== Bit packing round trip ===")
codes = rng.integers(0, 4, size=12)
packed = pack_codes(codes, bits=2)
print(f"codes : {codes.tolist()}")
print(f"packed: {packed.hex()} ({len(packed)} bytes)")
print(f"unpack: {unpack_codes(packed, 2, 12).tolist()}")
