import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvtrace import (
    ContractViolation,
    EngineConfig,
    SyntheticSpec,
    TieredCache,
    attend_full_precision,
    attend_mixed,
    generate_synthetic,
    quantize_keys_channelwise,
    quantize_values_tokenwise,
    replay_caches,
    row_l1_errors,
)

from spec import substituted


def scalar_attention(q, keys, values):
    """Independent scalar reference for single-query attention."""
    n, d = keys.shape
    logits = []
    for i in range(n):
        s = 0.0
        for c in range(d):
            s += float(q[c]) * float(keys[i, c])
        logits.append(s / math.sqrt(d))
    mx = max(logits)
    exps = [math.exp(x - mx) for x in logits]
    z = sum(exps)
    weights = [e / z for e in exps]
    out = [0.0] * d
    for i in range(n):
        for c in range(d):
            out[c] += weights[i] * float(values[i, c])
    return np.array(out), np.array(weights)


def scalar_softmax(v):
    mx = max(v)
    exps = [math.exp(x - mx) for x in v]
    s = sum(exps)
    return [e / s for e in exps]


def attention_weights(v):
    """``attend_full_precision``'s weights over the logits ``v``: d = 1, q = [1], keys ``v[:, None]``."""
    keys = np.asarray(v, dtype=np.float32)[:, None]
    return attend_full_precision(np.ones(1), keys, np.zeros_like(keys)).weights


def build_cache(keys, values, **cfg_kwargs):
    cfg_kwargs.setdefault("head_dim", keys.shape[1])
    cfg = EngineConfig(skip_layers=(), **cfg_kwargs)
    cache = TieredCache(cfg, layer=0)
    for k, v in zip(keys, values):
        cache.append(k, v)
    return cache


class TestSoftmax:
    """The attention weights are the softmax of the logits, which ``attention_weights`` sets directly."""

    def test_symmetry(self):
        np.testing.assert_allclose(attention_weights([0.0, 0.0]), [0.5, 0.5])

    def test_singleton(self):
        np.testing.assert_allclose(attention_weights([42.0]), [1.0])

    def test_matches_direct_formula(self):
        got = attention_weights([1.0, 2.0, 3.0])
        np.testing.assert_allclose(got, scalar_softmax([1.0, 2.0, 3.0]), atol=1e-7)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            attention_weights([])

    def test_nan_rejected(self):
        with pytest.raises(ContractViolation):
            attention_weights([1.0, float("nan")])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_non_finite_rejected_anywhere(self, bad, where):
        values = [1.0, -2.0, 3.0]
        values[where] = bad
        with pytest.raises(ContractViolation, match="NaN or Inf"):
            attention_weights(values)
        with pytest.raises(ContractViolation, match="NaN or Inf"):
            attention_weights(np.array(values, dtype=np.float32))

    def test_input_left_unchanged(self):
        # The softmax runs in place on a copy: the returned logits and the keys keep their values.
        keys = np.array([[1.0], [2.0], [3.0]], dtype=np.float32)
        res = attend_full_precision(np.ones(1, dtype=np.float32), keys, keys)
        np.testing.assert_array_equal(res.scores, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(keys, [[1.0], [2.0], [3.0]])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_probability_vector(self, values):
        w = attention_weights(values)
        assert (w >= 0).all()
        assert abs(float(w.sum()) - 1.0) <= 1e-6


class TestFullPrecision:
    def test_single_key_returns_value(self):
        q = np.array([0.3, -0.5], dtype=np.float32)
        k = np.array([[1.0, 2.0]], dtype=np.float32)
        v = np.array([[7.0, -3.0]], dtype=np.float32)
        res = attend_full_precision(q, k, v)
        np.testing.assert_allclose(res.weights, [1.0])
        np.testing.assert_allclose(res.output, v[0])

    def test_identical_keys_average_values(self):
        q = np.array([1.0, 0.0], dtype=np.float32)
        k = np.array([[2.0, 1.0], [2.0, 1.0]], dtype=np.float32)
        v = np.array([[0.0, 4.0], [2.0, 0.0]], dtype=np.float32)
        res = attend_full_precision(q, k, v)
        np.testing.assert_allclose(res.weights, [0.5, 0.5])
        np.testing.assert_allclose(res.output, [1.0, 2.0])

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(41)
        q = rng.standard_normal(8).astype(np.float32)
        k = rng.standard_normal((16, 8)).astype(np.float32)
        v = rng.standard_normal((16, 8)).astype(np.float32)
        res = attend_full_precision(q, k, v)
        out, weights = scalar_attention(q, k, v)
        np.testing.assert_allclose(res.output, out, atol=1e-6)
        np.testing.assert_allclose(res.weights, weights, atol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            attend_full_precision(
                np.zeros(3, np.float32), np.zeros((2, 4), np.float32), np.zeros((2, 4), np.float32)
            )


class TestL1Error:
    """``row_l1_errors`` on one row: one step's L1 error."""

    def test_identical(self):
        assert row_l1_errors([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_simple(self):
        assert row_l1_errors([1.0, 2.0], [2.0, 0.0]) == 3.0

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(42)
        a, b = rng.standard_normal(50), rng.standard_normal(50)
        want = sum(abs(float(x) - float(y)) for x, y in zip(a, b))
        assert row_l1_errors(a, b) == pytest.approx(want, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ContractViolation):
            row_l1_errors([1.0], [1.0, 2.0])


class TestMixedAttention:
    def test_single_pending_token(self):
        cache = build_cache(
            np.array([[1.0, 2.0]], dtype=np.float32),
            np.array([[5.0, -1.0]], dtype=np.float32),
            head_dim=2,
        )
        res = attend_mixed(np.array([0.1, 0.2], dtype=np.float32), cache)
        np.testing.assert_allclose(res.weights, [1.0])
        np.testing.assert_allclose(res.output, [5.0, -1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("channel", [0, 3])
    def test_non_finite_query_rejected(self, bad, channel):
        rng = np.random.default_rng(44)
        keys = rng.standard_normal((40, 4)).astype(np.float32)
        cache = build_cache(keys, keys, group_size=8, residual=2)
        q = rng.standard_normal(4).astype(np.float32)
        q[channel] = bad
        with pytest.raises(ContractViolation, match="NaN or Inf"):
            attend_mixed(q, cache)

    def test_empty_cache_rejected(self):
        cache = TieredCache(EngineConfig(head_dim=2), layer=2)
        with pytest.raises(ContractViolation):
            attend_mixed(np.zeros(2, np.float32), cache)

    def test_lossless_mode_matches_oracle(self):
        rng = np.random.default_rng(43)
        keys = rng.standard_normal((100, 8)).astype(np.float32)
        values = rng.standard_normal((100, 8)).astype(np.float32)
        # The group is longer than the 100 rows fed, so nothing is quantized.
        cfg = EngineConfig(group_size=101, residual=4, outlier_num=0, skip_layers=(), head_dim=8)
        cache = TieredCache(cfg, layer=0)
        for k, v in zip(keys, values):
            cache.append(k, v)
        q = rng.standard_normal(8).astype(np.float32)
        mixed = attend_mixed(q, cache)
        oracle = attend_full_precision(q, keys, values)
        rel = np.abs(mixed.output - oracle.output) / (np.abs(oracle.output) + 1e-12)
        assert rel.max() <= 1e-5
        assert abs(float(mixed.weights.sum()) - 1.0) <= 1e-6

    def test_weights_cover_every_token(self):
        rng = np.random.default_rng(44)
        keys = rng.standard_normal((37, 4)).astype(np.float32)
        values = rng.standard_normal((37, 4)).astype(np.float32)
        cache = build_cache(keys, values, group_size=8, residual=2, outlier_num=2)
        res = attend_mixed(rng.standard_normal(4).astype(np.float32), cache)
        assert res.weights.shape == (37,)
        assert abs(float(res.weights.sum()) - 1.0) <= 1e-6

    def test_pool_logit_ignores_shadow_row(self):
        # the group's blocks, built from the fed rows with the spec's mean
        # substitution, give the cache's attention with the exact row at the pooled position,
        # however the mean-substituted shadow row there is corrupted
        rng = np.random.default_rng(45)
        g, d = 16, 4
        keys = rng.uniform(4.5, 5.5, size=(g, d)).astype(np.float32)
        keys[3] = 0.01
        values = rng.standard_normal((g, d)).astype(np.float32)
        cache = build_cache(keys, values, group_size=g, residual=0, outlier_num=1)
        assert cache.pool.positions.tolist() == [3]

        group_k, group_v = substituted(keys, values, [3])
        block = quantize_keys_channelwise(group_k, 2)
        vblock = quantize_values_tokenwise(group_v, 2)
        corrupted = copy.deepcopy(block), copy.deepcopy(vblock)
        codes = np.frombuffer(block.codes, np.uint8).reshape(g, d).copy()
        codes[3] = (codes[3] + 1) % (1 << block.bits)
        corrupted[0].codes = codes.tobytes()
        vcodes = np.frombuffer(vblock.codes, np.uint8).reshape(g, d).copy()
        vcodes[3] = 0
        corrupted[1].codes = vcodes.tobytes()
        assert (corrupted[0].to_matrix()[3] != block.to_matrix()[3]).all()

        q = rng.standard_normal(d).astype(np.float32)
        res_a = attend_mixed(q, cache)
        for k_block, v_block in ((block, vblock), corrupted):
            rows_k, rows_v = k_block.to_matrix(), v_block.to_matrix()
            rows_k[3], rows_v[3] = keys[3], values[3]
            res_b = attend_full_precision(q, rows_k, rows_v)
            np.testing.assert_array_equal(res_a.scores, res_b.scores)
            np.testing.assert_array_equal(res_a.output, res_b.output)

    def test_outlier_tracking_beats_baseline_on_planted_trace(self):
        trace = generate_synthetic(SyntheticSpec(seed=12), 1, 1, 16, 256)
        baseline, tracked = (
            EngineConfig(group_size=64, residual=16, outlier_num=n_out, skip_layers=(), head_dim=16)
            for n_out in (0, 3)
        )
        [(*_, base_errs), (*_, tracked_errs)] = replay_caches(trace, baseline, tracked)
        assert float(np.mean(tracked_errs)) < float(np.mean(base_errs))


class TestStepErrorPropagation:
    def test_wider_step_does_not_reduce_logit_error(self):
        # doubling the outlier channel's step (deeper planted floor) must not
        # shrink the mean per-position logit error
        rng = np.random.default_rng(46)
        g, d = 64, 8
        results = []
        for eps in (2.0, 0.01):
            keys = rng.uniform(9.0, 11.0, size=(g, d)).astype(np.float32)
            keys[:, 0] = np.linspace(9.0, 11.0, g)
            keys[::21, 0] = eps
            values = rng.standard_normal((g, d)).astype(np.float32)
            q = np.zeros(d, dtype=np.float32)
            q[0] = 8.0
            cache = build_cache(keys, values, group_size=g, residual=0, outlier_num=0)
            mixed = attend_mixed(q, cache)
            oracle = attend_full_precision(q, keys, values)
            block = quantize_keys_channelwise(keys, 2)
            assert cache.attended_kv()[0].tobytes() == block.to_matrix().tobytes()
            step = block.steps[0]
            results.append((step, float(np.abs(mixed.scores - oracle.scores).mean())))
        (step_narrow, err_narrow), (step_wide, err_wide) = results
        assert step_wide > step_narrow
        assert err_wide >= err_narrow
