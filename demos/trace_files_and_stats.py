#!/usr/bin/env python3
"""Generate a synthetic trace, round-trip it through the file format, and
reproduce the channel statistics and retention-criteria comparison.

The retention study retains a small budget of tokens at full precision
under three selection rules and measures attention-output error against
the oracle: keeping the smallest-key tokens wins, random is second, and
keeping the largest-key tokens is worst.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from kvtrace import (
    Criterion,
    SyntheticSpec,
    compare_criteria,
    decile_stats,
    generate_synthetic,
    read_trace,
    write_trace,
)

spec = SyntheticSpec(seed=3)
trace = generate_synthetic(spec, 1, 2, 16, 1024)

print("=== File format round trip ===")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.kvt"
    write_trace(path, trace)
    size = path.stat().st_size
    back = read_trace(path)
    again = Path(tmp) / "again.kvt"
    write_trace(again, back)
    h1 = hashlib.sha256(path.read_bytes()).hexdigest()
    h2 = hashlib.sha256(again.read_bytes()).hexdigest()
print(f"wrote {size:,} bytes, re-read and re-wrote: hashes match = {h1 == h2}")
print()

print("=== Decile statistics of the outlier channel ===")
stats = decile_stats(trace.block(0, 0)[1][:, 0])
for i, pct in enumerate(stats):
    bar = "#" * int(round(pct))
    print(f"{i * 10:>3}-{(i + 1) * 10:<3}% {pct:6.2f}% {bar}")
print("the planted low-magnitude tokens put a sliver of mass at the bottom;")
print("everything else concentrates in the upper deciles")
print()

print("=== Retention criteria at a budget of 3 tokens, 2-bit codes ===")
errs = {c: [] for c in Criterion}
for seed in range(8):
    t = generate_synthetic(SyntheticSpec(seed=seed), 1, 2, 16, 1024)
    per_head = []
    for h in range(2):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, h, 1)))
        per_head.append(compare_criteria(t.block(0, h), 3, 2, rng=rng))
    for c in Criterion:
        errs[c].append(np.mean([head_errs[c] for head_errs in per_head]))
for c in (Criterion.SMALLEST_KEY, Criterion.RANDOM, Criterion.LARGEST_KEY):
    print(f"  retain {c.value:<12} mean L1 error {np.mean(errs[c]):.4f}")
print("protecting the smallest keys deflates the quantization step for the")
print("whole channel; protecting the largest keys protects tokens nothing")
print("attends to")
