"""``replay_caches`` against OTT's rules replayed from the fed rows alone (``spec.spec_replay``)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kvtrace import EngineConfig, SyntheticSpec, SyntheticTrace, TraceHeader, replay_caches

from spec import spec_replay


class TiedScores:
    """A trace whose keys are rounded to whole numbers, so that key L1 scores often tie."""

    def __init__(self, trace):
        self.header, self.trace = trace.header, trace

    def block(self, layer, head):
        q, k, v = self.trace.block(layer, head)
        return q, np.round(k), v


@settings(deadline=None, max_examples=30)
@given(g=st.integers(1, 24), r=st.integers(0, 6), capacity=st.integers(0, 4),
       aux=st.integers(0, 5), bits=st.integers(1, 8), skip=st.sets(st.integers(0, 1)),
       seed=st.integers(0, 2**16), ties=st.booleans())
def test_replay_matches_spec(g, r, capacity, aux, bits, skip, seed, ties):
    config = EngineConfig(bits=bits, group_size=g, residual=r, outlier_num=capacity,
                          skip_layers=tuple(sorted(skip)), aux_capacity=aux, head_dim=8)
    trace = SyntheticTrace(TraceHeader(2, 1, 8, 80), SyntheticSpec(seed=seed))
    if ties:  # the pool's tie rule, smaller position first, then decides
        trace = TiedScores(trace)
    # Per (layer, head): the same per-step error bytes and final pool and aux positions.
    got, want = replay_caches(trace, config), spec_replay(trace, config)
    for (layer, head, cache, errors), (*key, spec_errors, positions, aux_positions) in zip(got, want, strict=True):
        assert [layer, head] == key
        assert errors.tobytes() == spec_errors.tobytes()
        assert cache.pool.positions.tolist() == positions
        assert cache.pool.aux_positions.tolist() == aux_positions
