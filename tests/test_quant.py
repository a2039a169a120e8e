import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvtrace import (
    ContractViolation,
    GroupAxis,
    dequantize,
    pack_codes,
    quantize_keys_channelwise,
    quantize_uniform,
    quantize_values_tokenwise,
    unpack_codes,
)


def oracle_quantize(x, bits):
    """Scalar re-evaluation of the floor rule, element by element."""
    levels = (1 << bits) - 1
    x_min, x_max = min(x), max(x)
    q = (x_max - x_min) / levels
    if q == 0:
        return [0] * len(x), x_min, q
    codes = []
    for xi in x:
        c = math.floor((xi - x_min) / q)
        codes.append(max(0, min(levels, c)))
    return codes, x_min, q


class TestQuantizeUniform:
    def test_lattice_aligned(self):
        codes, p = quantize_uniform([0.0, 1.0, 2.0, 3.0], 2)
        assert p.step == 1.0
        assert codes.tolist() == [0, 1, 2, 3]

    def test_constant_group(self):
        codes, p = quantize_uniform([5.0, 5.0, 5.0], 4)
        assert p.step == 0.0
        assert p.x_min == 5.0
        assert codes.tolist() == [0, 0, 0]

    def test_one_bit_floor_rule(self):
        # floor((x - 0) / 1.0) for x in {0, 0.5, 1} -> [0, 0, 1]
        codes, p = quantize_uniform([0.0, 0.5, 1.0], 1)
        assert p.step == 1.0
        assert codes.tolist() == [0, 0, 1]

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractViolation):
            quantize_uniform([1.0, float("nan")], 2)

    def test_rejects_bad_bits(self):
        with pytest.raises(ContractViolation):
            quantize_uniform([1.0, 2.0], 9)

    def test_codes_in_range_and_top_reached(self):
        rng = np.random.default_rng(3)
        for bits in (1, 2, 4, 8):
            x = rng.uniform(-10, 10, size=100)
            codes, p = quantize_uniform(x, bits)
            levels = (1 << bits) - 1
            assert codes.min() >= 0 and codes.max() <= levels
            assert codes[int(np.argmax(x))] == levels

    def test_subnormal_scale_keeps_invariants(self):
        # division and multiply-add round differently at denormal float32
        # scales; the bound and the top-code mapping must still hold
        rng = np.random.default_rng(13)
        for bits in (2, 7, 8):
            x = (rng.standard_normal(24) * 1e-42).astype(np.float32).astype(np.float64)
            codes, p = quantize_uniform(x, bits)
            err = x - dequantize(codes, p)
            assert err.min() >= 0.0
            assert p.step == 0.0 or err.max() <= p.step
            if p.step > 0:
                assert codes[int(np.argmax(x))] == (1 << bits) - 1


class TestDequantize:
    def test_exact_lattice_round_trip(self):
        codes, p = quantize_uniform([0.0, 1.0, 2.0, 3.0], 2)
        np.testing.assert_array_equal(dequantize(codes, p), [0.0, 1.0, 2.0, 3.0])

    def test_constant_round_trip(self):
        codes, p = quantize_uniform([7.5, 7.5], 2)
        np.testing.assert_array_equal(dequantize(codes, p), [7.5, 7.5])

    def test_error_bound_against_scalar_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-3, 3, size=1000)
        codes, p = quantize_uniform(x, 2)
        oracle_codes, x_min, q = oracle_quantize(list(x), 2)
        # same floor rule per element (step may differ by <= 1 ulp)
        assert np.abs(codes - np.array(oracle_codes)).max() <= 1
        err = x - dequantize(codes, p)
        assert err.min() >= 0.0
        assert err.max() <= p.step
        assert p.step == pytest.approx(q, rel=1e-12)

    def test_code_overflow_rejected(self):
        _, p = quantize_uniform([0.0, 1.0], 2)
        with pytest.raises(ContractViolation):
            dequantize([4], p)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
            min_size=1,
            max_size=64,
        ),
        st.integers(min_value=1, max_value=8),
    )
    # Found by hypothesis: float round-off left the dequantized cell just
    # below 0 wider than step, so no code met the bound for the tiny value.
    @example(values=[0.0, -1.0, -2.2673522785835693e-33], bits=2)
    @example(values=[0.0, -1.0, -1.1754943508222875e-38], bits=2)
    @example(values=[0.0, -42.5, -1.401298464324817e-45], bits=2)
    def test_round_trip_bound_property(self, values, bits):
        x = np.array(values, dtype=np.float32).astype(np.float64)
        codes, p = quantize_uniform(x, bits)
        err = x - dequantize(codes, p)
        assert err.min() >= 0.0
        assert err.max() <= p.step or p.step == 0.0


class TestStepInflation:
    def test_appending_low_value_inflates_step_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            mu = rng.uniform(5, 50)
            sigma = rng.uniform(0.1, mu / 4)
            eps = rng.uniform(1e-3, (mu - sigma) * 0.5)
            channel = rng.uniform(mu - sigma, mu + sigma, size=128)
            _, p_old = quantize_uniform(channel, 2)
            _, p_new = quantize_uniform(np.append(channel, eps), 2)
            x_max = channel.max()
            x_min_old = channel.min()
            expected = (x_max - eps) / (x_max - x_min_old)
            assert p_new.step / p_old.step == pytest.approx(expected, rel=1e-6)
            assert p_new.step / p_old.step > 1.0


class TestGroupQuantizers:
    def test_channelwise_single_column(self):
        block = quantize_keys_channelwise(np.array([[0.0], [3.0]]), 2)
        assert block.group_axis is GroupAxis.PER_CHANNEL
        assert block.params[0].step == 1.0
        assert block.code_matrix().ravel().tolist() == [0, 3]

    def test_constant_channels_reconstruct_exactly(self):
        group = np.tile(np.array([[1.0, -2.0, 0.5]]), (8, 1))
        block = quantize_keys_channelwise(group, 2)
        assert all(p.step == 0.0 for p in block.params)
        np.testing.assert_array_equal(block.to_matrix(), group.astype(np.float32))

    def test_channelwise_matches_per_column_oracle(self):
        rng = np.random.default_rng(6)
        group = rng.standard_normal((128, 8))
        block = quantize_keys_channelwise(group, 2)
        codes = block.code_matrix()
        recon = block.to_matrix().astype(np.float64)
        for c in range(8):
            col_codes, col_params = quantize_uniform(group[:, c], 2)
            np.testing.assert_array_equal(codes[:, c], col_codes)
            err = group[:, c] - recon[:, c]
            assert err.min() >= -1e-6
            assert err.max() <= col_params.step + 1e-6

    def test_tokenwise_single_row(self):
        block = quantize_values_tokenwise(np.array([[0.0, 1.0, 2.0, 3.0]]), 2)
        assert block.group_axis is GroupAxis.PER_TOKEN
        assert block.params[0].step == 1.0
        assert block.code_matrix().ravel().tolist() == [0, 1, 2, 3]

    def test_tokenwise_matches_per_row_oracle(self):
        rng = np.random.default_rng(7)
        group = rng.standard_normal((128, 8))
        block = quantize_values_tokenwise(group, 2)
        codes = block.code_matrix()
        for r in range(0, 128, 17):
            row_codes, row_params = quantize_uniform(group[r], 2)
            np.testing.assert_array_equal(codes[r], row_codes)
            err = group[r] - block.to_matrix().astype(np.float64)[r]
            assert err.min() >= -1e-6 and err.max() <= row_params.step + 1e-6

    def test_axes_commute_with_transposition(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((16, 5))
        cw = quantize_keys_channelwise(m, 3)
        tw = quantize_values_tokenwise(m.T, 3)
        np.testing.assert_array_equal(cw.code_matrix(), tw.code_matrix().T)
        assert [(p.x_min, p.step) for p in cw.params] == [(p.x_min, p.step) for p in tw.params]

    def test_empty_group_rejected(self):
        with pytest.raises(ContractViolation):
            quantize_keys_channelwise(np.zeros((0, 4)), 2)


class TestPacking:
    def test_two_bit_example(self):
        packed = pack_codes([0, 1, 2, 3], 2)
        assert len(packed) == 1
        assert unpack_codes(packed, 2, 4).tolist() == [0, 1, 2, 3]

    def test_empty(self):
        assert pack_codes([], 2) == b""
        assert unpack_codes(b"", 2, 0).tolist() == []

    def test_packed_density(self):
        for bits in range(1, 9):
            n = 1000
            packed = pack_codes([0] * n, bits)
            assert len(packed) == (n * bits + 7) // 8

    def test_large_random_round_trip_all_widths(self):
        rng = np.random.default_rng(10)
        for bits in range(1, 9):
            codes = rng.integers(0, 1 << bits, size=10_000)
            packed = pack_codes(codes, bits)
            np.testing.assert_array_equal(unpack_codes(packed, bits, codes.size), codes)

    def test_overflow_rejected(self):
        with pytest.raises(ContractViolation):
            pack_codes([4], 2)
        with pytest.raises(ContractViolation):
            pack_codes([-1], 2)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda bits: st.tuples(
                st.just(bits),
                st.lists(st.integers(min_value=0, max_value=(1 << bits) - 1), max_size=200),
            )
        )
    )
    def test_round_trip_property(self, case):
        bits, codes = case
        packed = pack_codes(codes, bits)
        assert unpack_codes(packed, bits, len(codes)).tolist() == codes
