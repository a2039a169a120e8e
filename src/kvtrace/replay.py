"""The decode replay: at step t a cache takes one key and value row, then
mixed attention over it and the full-precision oracle over the first t + 1
exact rows each give an output row, each O(t*d), so a replay is quadratic
in sequence length: meant for desk-scale traces (<= 8k tokens).
"""

from collections.abc import Iterator

import numpy as np

from .attention import attend_full_precision, attend_mixed, row_l1_errors
from .cache import EngineConfig, TieredCache
from .trace import Trace


def replay_caches(trace: Trace, config: EngineConfig) -> Iterator[tuple[int, int, TieredCache, np.ndarray]]:
    """Yield ``(layer, head, cache, errors)`` per (layer, head), layer-major.

    ``errors`` holds the cache's T float64 per-step L1 errors, from one
    ``row_l1_errors`` pass. Each cache is dropped before the next is built,
    so a caller that drops it too holds one at a time. Adding the errors in
    yield order sums every step exactly as a step-major loop would.
    """
    h = trace.header
    for layer in range(h.n_layers):
        for head in range(h.n_heads):
            cache = TieredCache(config, layer=layer)
            q, k, v = trace.q[layer, head], trace.k[layer, head], trace.v[layer, head]
            mixed = np.empty((h.seq_len, h.head_dim), dtype=np.float32)
            oracle = np.empty_like(mixed)
            for t, (q_t, k_t, v_t) in enumerate(zip(q, k, v)):
                cache.append(k_t, v_t)
                mixed[t] = attend_mixed(q_t, cache).output
                oracle[t] = attend_full_precision(q_t, k[: t + 1], v[: t + 1]).output
            errors = row_l1_errors(mixed, oracle)
            del mixed, oracle
            yield layer, head, cache, errors
            del cache
