#!/usr/bin/env python3
"""Follow the outlier pool through competition, eviction, and freezing.

Tokens are scored by the L1 norm of their key rows; the pool keeps the
lowest-scoring tokens seen so far, parks losers in a bounded auxiliary
list, and freezes for good once that list fills.
"""

import numpy as np

from kvtrace import OutlierPool, score_tokens, substitute_means

rng = np.random.default_rng(1)

print("=== Scoring ===")
keys = rng.uniform(4.5, 5.5, size=(6, 4)).astype(np.float32)
keys[2] = 0.05  # a low-magnitude token
scores = score_tokens(keys)
print("token scores:", np.round(scores, 2))
print(f"token 2 stands out with score {scores[2]:.2f}")
print()

print("=== Competition until the auxiliary pool fills ===")
pool = OutlierPool(capacity=2, aux_capacity=3, head_dim=4)
position = 0
for step in range(100):
    if pool.frozen:
        break
    keys = []
    for _ in range(4):
        key = rng.uniform(4.5, 5.5, size=4).astype(np.float32)
        if rng.random() < 0.4:
            key *= float(rng.uniform(0.01, 0.2))  # plant a low-magnitude token
        keys.append(key)
    keys = np.array(keys)
    # Values are irrelevant to the competition; reuse the keys.
    selected, evicted = pool.update(np.arange(position, position + 4), score_tokens(keys), keys, keys)
    position += 4
    members = sorted(zip(pool.positions.tolist(), [round(s, 2) for s in pool.scores.tolist()]))
    print(f"update {step}: selected {sorted(selected.tolist())} evicted "
          f"{evicted.tolist()} -> pool {members} "
          f"aux {pool.aux_positions.tolist()} frozen={pool.frozen}")
assert pool.frozen
print("three evictions filled the auxiliary pool; identification stops here")
print()

print("=== Freezing is permanent ===")
before = pool.positions.copy()
zero = np.zeros((1, 4), dtype=np.float32)
for _ in range(1000):
    pool.update([position], [0.0], zero, zero)
    position += 1
print(f"after 1000 zero-score candidates, membership unchanged: {np.array_equal(pool.positions, before)}")
print()

print("=== Mean substitution shrinks the channel range ===")
group_k = rng.uniform(4.5, 5.5, size=(8, 4)).astype(np.float32)
group_k[5] = 0.01
group_v = rng.standard_normal((8, 4)).astype(np.float32)
print(f"channel 0 range before: {group_k[:, 0].max() - group_k[:, 0].min():.3f}")
sub_k, _ = substitute_means(group_k, group_v, [5])
print(f"channel 0 range after : {sub_k[:, 0].max() - sub_k[:, 0].min():.3f}")
print("the substituted row now carries the per-channel group means,")
print("so it no longer stretches the quantization step")
