"""OTT's rules, replayed from the fed rows alone, against ``replay_caches``.

The spec holds none of a cache's state. Per (layer, head), group j is
quantized once ``t + 1 - j*G >= G + R``. Before that, a list pool offers
the group's key L1 scores to its members, ranks all by (score, position)
and keeps ``capacity`` (0 on skipped layers). Members that lose their slot
go to an aux list, and the pool freezes once that list holds
``aux_capacity`` positions. The group's winners are mean-substituted, and
the group is quantized keys per channel and values per token. At step t
attention reads the dequantized groups, then the pending rows, with the
exact rows at the pool's current positions in place.

So a token the pool evicts is attended through its shadow row, the
mean-substituted dequantized one, even while the aux list holds it and
the memory model pays for its full-precision row. That rule is this
repository's decision: the OTT abstract does not say how evicted tokens
are attended.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kvtrace import (
    EngineConfig,
    SyntheticSpec,
    SyntheticTrace,
    TraceHeader,
    attend_full_precision,
    quantize_keys_channelwise,
    quantize_values_tokenwise,
    replay_caches,
    row_l1_errors,
    substitute_means,
)


def spec_replay(q, k, v, config, layer):
    """Per-step L1 errors and the final pool and aux positions of one (layer, head)."""
    g, aux_capacity = config.group_size, config.aux_capacity
    capacity = 0 if layer in config.skip_layers else config.outlier_num
    pool, aux, groups = [], [], []  # pool and aux hold (score, position)
    mixed, oracle = np.empty_like(q), np.empty_like(q)
    for t in range(len(q)):
        base = len(groups) * g
        if t + 1 - base >= g + config.residual:
            gk, gv = k[base : base + g], v[base : base + g]
            if capacity and len(aux) < aux_capacity:
                scores = np.abs(gk).sum(axis=1, dtype=np.float64).tolist()
                ranked = sorted(pool + [(s, base + i) for i, s in enumerate(scores)])[:capacity]
                aux += [m for m in pool if m not in ranked][: aux_capacity - len(aux)]
                pool = ranked
                gk, gv = substitute_means(gk, gv, [p - base for _, p in pool if p >= base])
            groups.append((quantize_keys_channelwise(gk, config.bits).to_matrix(),
                           quantize_values_tokenwise(gv, config.bits).to_matrix()))
        n = len(groups) * g
        rows_k = np.concatenate([gk for gk, _ in groups] + [k[n : t + 1]])
        rows_v = np.concatenate([gv for _, gv in groups] + [v[n : t + 1]])
        members = [p for _, p in pool]
        rows_k[members], rows_v[members] = k[members], v[members]
        mixed[t] = attend_full_precision(q[t], rows_k, rows_v).output
        oracle[t] = attend_full_precision(q[t], k[: t + 1], v[: t + 1]).output
    return row_l1_errors(mixed, oracle), members, [p for _, p in aux]


def assert_replay_matches_spec(trace, config):
    for layer, head, cache, errors in replay_caches(trace, config):
        want, positions, aux_positions = spec_replay(*trace.block(layer, head), config, layer)
        assert errors.tobytes() == want.tobytes()
        assert cache.pool.positions.tolist() == positions
        assert cache.pool.aux_positions.tolist() == aux_positions


@settings(deadline=None, max_examples=30)
@given(g=st.integers(1, 24), r=st.integers(0, 6), capacity=st.integers(0, 4),
       aux=st.integers(0, 5), bits=st.integers(1, 8), skip=st.sets(st.integers(0, 1)),
       seed=st.integers(0, 2**16))
def test_replay_matches_spec(g, r, capacity, aux, bits, skip, seed):
    config = EngineConfig(bits=bits, group_size=g, residual=r, outlier_num=capacity,
                          skip_layers=tuple(sorted(skip)), aux_capacity=aux, head_dim=8)
    assert_replay_matches_spec(SyntheticTrace(TraceHeader(2, 1, 8, 80), SyntheticSpec(seed=seed)), config)
