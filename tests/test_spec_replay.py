"""``replay_caches`` against OTT's rules replayed from the fed rows alone (``spec.spec_steps``)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kvtrace import (
    EngineConfig,
    SyntheticSpec,
    SyntheticTrace,
    TraceHeader,
    attend_full_precision,
    replay_caches,
    row_l1_errors,
)

from spec import spec_steps


def assert_replay_matches_spec(trace, config):
    """Per (layer, head): the same per-step error bytes and final pool and aux positions."""
    for layer, head, cache, errors in replay_caches(trace, config):
        q, k, v = trace.block(layer, head)
        mixed, oracle = np.empty_like(q), np.empty_like(q)
        for t, (rows_k, rows_v, positions, aux_positions) in enumerate(spec_steps(k, v, config, layer)):
            mixed[t] = attend_full_precision(q[t], rows_k, rows_v).output
            oracle[t] = attend_full_precision(q[t], k[: t + 1], v[: t + 1]).output
        assert errors.tobytes() == row_l1_errors(mixed, oracle).tobytes()
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
