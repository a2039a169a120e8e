import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kvtrace import (
    ContractViolation,
    GroupAxis,
    QuantizedBlock,
    dequantize,
    pack_codes,
    quantize_keys_channelwise,
    quantize_uniform,
    quantize_values_tokenwise,
    unpack_codes,
)
from kvtrace import quant


def code_matrix(block):
    """A block's codes, one byte each, shape (n_tokens, n_channels)."""
    return np.frombuffer(block.codes, np.uint8).reshape(block.n_tokens, block.n_channels)


def reference_pack_codes(codes, bits):
    """The bit-column form of the packed byte format, the word packer's reference.

    Each code contributes ``bits`` bit columns, LSB first; the flattened
    stream is packed so stream bit i lands in bit (i % 8) of byte (i // 8).
    """
    u8 = np.asarray(codes, dtype=np.int64).astype(np.uint8)
    bit_cols = (u8[:, None] >> np.arange(bits, dtype=np.uint8)) & 1
    return np.packbits(bit_cols.reshape(-1), bitorder="little").tobytes()


def reference_unpack_codes(data, bits, count):
    stream = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    bit_cols = stream[: count * bits].reshape(count, bits).astype(np.int64)
    return bit_cols @ (1 << np.arange(bits, dtype=np.int64))


def reference_floor_codes(lines, mins, steps, bits):
    """The binary-search code finder the estimate-and-settle finder replaced.

    Per element, the highest level whose float64 reconstruction
    ``k * step + x_min`` is <= x: the reconstructions are non-decreasing
    in k and level 0 is x_min, so one code bit is fixed per pass from the
    top: ``bits`` passes over the lines.
    """
    top = 1 << (bits - 1)
    codes = np.where((top * steps + mins)[:, None] <= lines, top, 0)
    for b in reversed(range(bits - 1)):
        trial = codes + (1 << b)
        codes = np.where(trial * steps[:, None] + mins[:, None] <= lines, trial, codes)
    return codes


def reference_word_shifts(bits):
    return np.arange(0, 8 * bits, bits, dtype=np.uint64)


def reference_word_pack(codes, bits):
    """The sum-reduction word packer, ``pack_codes``' first form (codes in range)."""
    codes = np.asarray(codes, dtype=np.int64)
    words = np.zeros((-(-codes.size // 8), 8), dtype=np.uint64)
    words.reshape(-1)[: codes.size] = codes
    words = (words << reference_word_shifts(bits)).sum(axis=1, dtype=np.uint64)
    packed = words.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :bits]
    return packed.tobytes()[: (codes.size * bits + 7) // 8]


def reference_word_unpack(data, bits, count):
    """The word unpacker that returned int64 codes of length ``count``."""
    n_words = -(-count // 8)
    stream = bytes(data[: (count * bits + 7) // 8]).ljust(n_words * bits, b"\0")
    word_bytes = np.zeros((n_words, 8), dtype=np.uint8)
    word_bytes[:, :bits] = np.frombuffer(stream, dtype=np.uint8).reshape(n_words, bits)
    codes = (word_bytes.view("<u8") >> reference_word_shifts(bits)) & np.uint64((1 << bits) - 1)
    return codes.reshape(-1)[:count].astype(np.int64)


def reference_quantize_line(x, bits):
    """Slow per-line reference for the vectorized quantizer.

    Returns ``(codes, x_min, step)``. The step is nudged down until the top
    code reconstructs at or below x_max; each code is then the highest
    level whose float64 reconstruction is <= x (``searchsorted`` on the
    lattice), and step shrinks by the excess wherever round-off left a
    lattice cell wider than step, in at most as many passes as the
    quantizer allows itself.
    """
    x = np.asarray(x, dtype=np.float64)
    levels = (1 << bits) - 1
    x_min = float(x.min())
    x_max = float(x.max())
    step = (x_max - x_min) / levels
    while step > 0 and x_min + levels * step > x_max:
        step = math.nextafter(step, 0.0)
    if step == 0.0:
        return np.zeros(x.size, dtype=np.int64), x_min, step
    for _ in range(quant._SHRINK_PASSES):
        lattice = np.arange(levels + 1) * step + x_min
        codes = np.searchsorted(lattice, x, side="right") - 1
        excess = float((x - lattice[codes]).max()) - step
        if not 0.0 < excess < step:
            return codes, x_min, step
        step = min(math.nextafter(step, 0.0), step - excess)
    raise AssertionError("the reference's excess shrink took more than _SHRINK_PASSES passes")


# Inputs hypothesis found where round-off left the dequantized cell just
# below 0 wider than step, so no code met the bound for the tiny value.
ROUND_OFF_LINES = [
    [0.0, -1.0, -2.2673522785835693e-33],
    [0.0, -1.0, -1.1754943508222875e-38],
    [0.0, -42.5, -1.401298464324817e-45],
]


def one_line_block(x_min, step, code=0):
    """A hand-built 2-bit block of one token and one channel, quantize_uniform's shape."""
    return QuantizedBlock(codes=bytes([code]), group_axis=GroupAxis.PER_TOKEN, mins=[x_min],
                          steps=[step], n_tokens=1, n_channels=1, bits=2)


def bits_of(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def assert_matches_reference(lines, bits):
    """Quantize each row of ``lines`` three ways, bit-equal to the reference.

    The rows are the key channels of ``lines.T``, the value tokens of
    ``lines``, and single lines for quantize_uniform, whose block is the
    one-token value block of its line field for field. Each block's
    ``to_matrix`` is its ``dequantize`` rows cast to float32, byte for
    byte. Returns the reference steps.
    """
    lines = np.asarray(lines, dtype=np.float64)
    ref = [reference_quantize_line(line, bits) for line in lines]
    ref_codes = np.array([c for c, _, _ in ref])
    ref_mins = bits_of([m for _, m, _ in ref])
    ref_steps = bits_of([s for _, _, s in ref])
    keys = quantize_keys_channelwise(lines.T, bits)
    values = quantize_values_tokenwise(lines, bits)
    np.testing.assert_array_equal(code_matrix(keys).T, ref_codes)
    np.testing.assert_array_equal(code_matrix(values), ref_codes)
    for block in (keys, values):
        np.testing.assert_array_equal(bits_of(block.mins), ref_mins)
        np.testing.assert_array_equal(bits_of(block.steps), ref_steps)
        with np.errstate(over="ignore"):  # values past float32's range cast to inf on both sides
            assert block.to_matrix().tobytes() == dequantize(block).astype(np.float32).tobytes()
    for i, line in enumerate(lines):
        block = quantize_uniform(line, bits)
        np.testing.assert_array_equal(code_matrix(block)[0], ref_codes[i])
        assert bits_of([block.mins[0], block.steps[0]]).tolist() == [ref_mins[i], ref_steps[i]]
        row = quantize_values_tokenwise(line[None, :], bits)
        assert (block.codes, block.group_axis, block.n_tokens, block.n_channels, block.bits) == (
            row.codes, row.group_axis, row.n_tokens, row.n_channels, row.bits)
        assert bits_of(block.mins).tolist() == bits_of(row.mins).tolist()
        assert bits_of(block.steps).tolist() == bits_of(row.steps).tolist()
    return ref_steps.view(np.float64)


class TestAgainstReference:
    """The one vectorized pass, bit for bit against the per-line reference."""

    @staticmethod
    def lines(rng, n_lines, width, kind):
        x = rng.standard_normal((n_lines, width)) * 10.0 ** rng.integers(-4, 5)
        if kind == "float32":
            x = x.astype(np.float32)
        elif kind == "subnormal":
            x = (rng.standard_normal((n_lines, width)) * 1e-42).astype(np.float32)
        elif kind == "integer":
            x = rng.integers(-3, 4, size=(n_lines, width)).astype(np.float64)
        x = x.astype(np.float64)
        x[0] = x[0, 0]  # one constant line per group
        return x

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_all_widths(self, bits):
        rng = np.random.default_rng(100 + bits)
        kinds = ["float64", "float32", "subnormal", "integer"]
        for width in range(1, 130):
            assert_matches_reference(self.lines(rng, 3, width, kinds[width % len(kinds)]), bits)

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_round_off_lines_mixed_with_ordinary_lines(self, bits):
        rng = np.random.default_rng(200 + bits)
        ordinary = rng.standard_normal((4, 3)).astype(np.float32).astype(np.float64)
        group = np.array(ROUND_OFF_LINES[:1] + [ordinary[0]] + ROUND_OFF_LINES[1:]
                         + list(ordinary[1:]) + [[2.5, 2.5, 2.5]])
        steps = assert_matches_reference(group, bits)
        if bits == 2:
            # the excess shrink runs for the round-off lines and no others
            levels = (1 << bits) - 1
            plain = (group.max(axis=1) - group.min(axis=1)) / levels
            shrunk = steps < plain
            assert shrunk[[0, 2, 3]].all() and not shrunk[[1, 4, 5, 6, 7]].any()

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float32,
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
            elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
        ),
        st.integers(min_value=1, max_value=8),
    )
    @example(group=np.array(ROUND_OFF_LINES, dtype=np.float32), bits=2)
    @example(group=np.array(ROUND_OFF_LINES, dtype=np.float32).T.copy(), bits=2)
    def test_group_bound_property(self, group, bits):
        x = group.astype(np.float64)
        for block, lines in (
            (quantize_keys_channelwise(x, bits), x.T),
            (quantize_values_tokenwise(x, bits), x),
        ):
            recon = dequantize(block)
            if block.group_axis is GroupAxis.PER_CHANNEL:
                recon = recon.T
            for line, line_recon, step in zip(lines, recon, block.steps):
                err = line - line_recon
                assert err.min() >= 0.0
                assert err.max() <= step or step == 0.0


class TestFastPathsAgainstReplaced:
    """The code finder, packer and unpacker, bit for bit against the code they replaced."""

    @staticmethod
    def groups(bits):
        # TestAgainstReference's inputs: every width of test_all_widths,
        # then the round-off lines.
        rng = np.random.default_rng(100 + bits)
        kinds = ["float64", "float32", "subnormal", "integer"]
        for width in range(1, 130):
            yield TestAgainstReference.lines(rng, 3, width, kinds[width % len(kinds)])
        yield np.array(ROUND_OFF_LINES)

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_finder_matches_binary_search(self, bits):
        for lines in self.groups(bits):
            # each line contiguous, and strided as the group quantizers pass it
            for layout in (lines, np.asfortranarray(lines)):
                codes, mins, steps = quant._quantize_lines(layout, bits)
                assert codes.dtype == np.uint8
                live = steps > 0
                want = reference_floor_codes(lines[live], mins[live], steps[live], bits)
                np.testing.assert_array_equal(codes[live], want)
                assert not codes[~live].any()

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_pack_and_unpack_match_word_reference(self, bits):
        for lines in self.groups(bits):
            codes = quant._quantize_lines(lines, bits)[0].reshape(-1)
            for n in sorted({0, 1, 7, 8, 9, codes.size} & set(range(codes.size + 1))):
                packed = pack_codes(codes[:n], bits)
                assert packed == reference_word_pack(codes[:n], bits)
                got = unpack_codes(packed, bits, n)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, reference_word_unpack(packed, bits, n))
                np.testing.assert_array_equal(got, codes[:n])

    def test_public_types_unchanged(self):
        line = quantize_uniform([0.0, 1.0, 3.0], 2)
        assert isinstance(line, QuantizedBlock) and line.group_axis is GroupAxis.PER_TOKEN
        assert dequantize(line).dtype == np.float64 and dequantize(line).shape == (1, 3)
        block = quantize_values_tokenwise(np.array([[0.0, 1.0, 3.0]]), 2)
        assert isinstance(block.codes, bytes)
        assert block.codes == bytes([0, 1, 3])
        assert unpack_codes(pack_codes(code_matrix(block)[0], 2), 2, 3).dtype == np.int64


class TestLatticeBoundaries:
    """Every lattice point and both its float64 neighbours, for the settle step."""

    # (x_min, x_max) of a line: subnormal to 1e300, and |x_min| >> step.
    RANGES = [
        (0.0, 1e-320),
        (-2e-310, 1e-310),
        (1e-300, 3e-300),
        (-1.0, 1.0),
        (0.1, 0.8),
        (-3e5, -3e5 + 1e-3),
        (1e6, 1e6 + 1e-6),
        (-7.5e15, -7.5e15 + 64.0),
        (2.0**53, 2.0**53 + 2.0**12),
        (-1e300, 0.0),
        (-1e300, 1e300),
        (1e-5, 1e-5 + 3e-19),
    ]

    @staticmethod
    def line(x_min, x_max, bits):
        # The quantizer's own lattice for this range, then every point of it
        # and both neighbours that stay inside the range (so the range, and
        # with it the lattice, is unchanged).
        block = quantize_uniform([x_min, x_max], bits)
        lattice = np.arange(1 << bits) * block.steps[0] + block.mins[0]
        values = np.concatenate(
            [lattice, np.nextafter(lattice, -np.inf), np.nextafter(lattice, np.inf), [x_max]]
        )
        return values[(x_min <= values) & (values <= x_max)]

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_bit_equal_to_reference(self, bits):
        lines = [self.line(lo, hi, bits) for lo, hi in self.RANGES]
        width = max(map(len, lines))
        group = np.array([np.pad(x, (0, width - len(x)), constant_values=x[0]) for x in lines])
        assert_matches_reference(group, bits)


class TestQuantizeUniform:
    def test_lattice_aligned(self):
        block = quantize_uniform([0.0, 1.0, 2.0, 3.0], 2)
        assert block.steps[0] == 1.0
        assert code_matrix(block)[0].tolist() == [0, 1, 2, 3]

    def test_constant_group(self):
        block = quantize_uniform([5.0, 5.0, 5.0], 4)
        assert block.steps[0] == 0.0
        assert block.mins[0] == 5.0
        assert code_matrix(block)[0].tolist() == [0, 0, 0]

    def test_one_bit_floor_rule(self):
        # floor((x - 0) / 1.0) for x in {0, 0.5, 1} -> [0, 0, 1]
        block = quantize_uniform([0.0, 0.5, 1.0], 1)
        assert block.steps[0] == 1.0
        assert code_matrix(block)[0].tolist() == [0, 0, 1]

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractViolation):
            quantize_uniform([1.0, float("nan")], 2)

    @pytest.mark.parametrize("x, message", [
        ([[1.0, 2.0]], "non-empty 1-D"),
        ([], "non-empty 1-D"),
        ([math.inf, math.inf], "NaN or Inf"),
        ([-math.inf, 0.0], "NaN or Inf"),
    ], ids=["2-D", "empty", "all Inf", "-Inf"])
    # The range test rejects NaN and Inf by their NaN or infinite range,
    # with no numpy warning on the way (``inf - inf`` among them).
    @pytest.mark.filterwarnings("error")
    def test_rejects_malformed_input(self, x, message):
        with pytest.raises(ContractViolation, match=message):
            quantize_uniform(x, 2)

    def test_params_reject_negative_step(self):
        with pytest.raises(ContractViolation, match="step must be nonnegative"):
            one_line_block(x_min=0.0, step=-1.0)

    def test_rejects_bad_bits(self):
        with pytest.raises(ContractViolation):
            quantize_uniform([1.0, 2.0], 9)

    def test_codes_in_range_and_top_reached(self):
        rng = np.random.default_rng(3)
        for bits in (1, 2, 4, 8):
            x = rng.uniform(-10, 10, size=100)
            codes = code_matrix(quantize_uniform(x, bits))[0]
            levels = (1 << bits) - 1
            assert codes.min() >= 0 and codes.max() <= levels
            assert codes[int(np.argmax(x))] == levels

    def test_subnormal_scale_keeps_invariants(self):
        # division and multiply-add round differently at denormal float32
        # scales; the bound and the top-code mapping must still hold
        rng = np.random.default_rng(13)
        for bits in (2, 7, 8):
            x = (rng.standard_normal(24) * 1e-42).astype(np.float32).astype(np.float64)
            block = quantize_uniform(x, bits)
            err = x - dequantize(block)[0]
            step = block.steps[0]
            assert err.min() >= 0.0
            assert step == 0.0 or err.max() <= step
            if step > 0:
                assert code_matrix(block)[0, int(np.argmax(x))] == (1 << bits) - 1


# Lines whose range (max - min) overflows float64. The first one used to
# make the step nudge walk down from the largest float, one ulp per pass.
OVERFLOWING_LINES = [
    [-1e308, 1e308],
    [1e300, -1.7976931348623157e308, 2.0],
    [8.99e307, 0.0, -8.99e307],
]


class TestInputDomain:
    """Every call returns: ranges that overflow float64 are rejected up front."""

    @pytest.mark.parametrize("bits", range(1, 9))
    @pytest.mark.parametrize("line", OVERFLOWING_LINES, ids=["1e308", "max_float", "8.99e307"])
    def test_overflowing_range_rejected_at_once(self, line, bits):
        group = np.zeros((len(line), 3))
        group[:, 1] = line  # one key channel and one value token overflow
        start = time.perf_counter()
        with pytest.raises(ContractViolation, match="overflows float64"):
            quantize_uniform(line, bits)
        with pytest.raises(ContractViolation, match="overflows float64"):
            quantize_keys_channelwise(group, bits)
        with pytest.raises(ContractViolation, match="overflows float64"):
            quantize_values_tokenwise(group.T, bits)
        assert time.perf_counter() - start < 1.0

    # Lines at the edges of the domain: the widest ranges, the largest
    # magnitudes, subnormals, and a few ulps spread far from zero.
    EDGE_LINES = [
        [-8.98e307, 8.98e307, 0.0, 1.0, -1.0],
        [0.0, 1.7976931348623157e308, 1e308, 5e-324, 1.0],
        [5e-324, 1e-323, 0.0, -5e-324, 2.5e-323],
        (1e300 + np.spacing(1e300) * np.array([0, 1, 2, 5, 3])).tolist(),
        [-2.2250738585072014e-308, 2.2250738585072014e-308, 0.0, 1e-310, -1e-310],
    ]

    def test_largest_admitted_magnitudes_match_reference(self):
        # |x_min| + |x_max| passes the largest float here, though the range
        # does not.
        group = np.random.default_rng(12).uniform(-8.9e307, 8.9e307, size=(64, 128))
        steps = assert_matches_reference(group.T, 8)
        assert (steps > 0).all()

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_domain_edges_match_reference(self, bits):
        assert_matches_reference(np.array(self.EDGE_LINES), bits)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12),
        st.integers(min_value=1, max_value=8),
    )
    @example(values=[-1e308, 1e308], bits=2)
    @example(values=[-8.98e307, 8.98e307, 5e-324], bits=1)
    @example(values=[0.0, 1.7976931348623157e308, -5e-324], bits=8)
    @example(values=[5e-324, 1e-323, 0.0, -5e-324], bits=3)
    @example(values=[1.0, -1.7976931348623157e308, 2.0], bits=1)  # range rounds to max float
    def test_every_finite_line_returns(self, values, bits):
        x = np.array(values)
        with np.errstate(over="ignore"):
            admitted = math.isfinite(x.max() - x.min())
        if not admitted:
            with pytest.raises(ContractViolation, match="overflows float64"):
                quantize_uniform(x, bits)
            return
        block = quantize_uniform(x, bits)
        step = block.steps[0]
        ref_codes, ref_min, ref_step = reference_quantize_line(x, bits)
        assert code_matrix(block)[0].tolist() == ref_codes.tolist()
        assert bits_of([block.mins[0], step]).tolist() == bits_of([ref_min, ref_step]).tolist()
        err = x - dequantize(block)[0]
        assert err.min() >= 0.0
        # The one-sided bound, unless the line spans too few float64 values
        # for any step to meet it (the excess shrink stops at a whole step).
        assert err.max() <= step or err.max() - step >= step


class TestDequantize:
    def test_exact_lattice_round_trip(self):
        block = quantize_uniform([0.0, 1.0, 2.0, 3.0], 2)
        np.testing.assert_array_equal(dequantize(block), [[0.0, 1.0, 2.0, 3.0]])

    def test_constant_round_trip(self):
        block = quantize_uniform([7.5, 7.5], 2)
        np.testing.assert_array_equal(dequantize(block), [[7.5, 7.5]])

    def test_error_bound_against_scalar_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-3, 3, size=1000)
        block = quantize_uniform(x, 2)
        step = block.steps[0]
        ref_codes, ref_min, ref_step = reference_quantize_line(x, 2)
        assert code_matrix(block)[0].tolist() == ref_codes.tolist()
        assert bits_of([block.mins[0], step]).tolist() == bits_of([ref_min, ref_step]).tolist()
        err = x - dequantize(block)[0]
        assert err.min() >= 0.0
        assert err.max() <= step
        assert step == pytest.approx((x.max() - x.min()) / 3, rel=1e-12)

    def test_code_overflow_rejected(self):
        # A 2-bit code of 4 cannot be built, and bare codes are not a block.
        line = quantize_uniform([0.0, 1.0], 2)
        with pytest.raises(ContractViolation, match="overflow 2 bits"):
            one_line_block(x_min=line.mins[0], step=line.steps[0], code=4)
        for codes in ([4], np.array([[4]]), b"\x04"):
            with pytest.raises(ContractViolation, match="expects a QuantizedBlock"):
                dequantize(codes)

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
        block = quantize_uniform(x, bits)
        recon = dequantize(block)[0]
        # The rule the two-argument dequantize applied to the int64 codes, bit for bit.
        step, x_min = float(block.steps[0]), float(block.mins[0])
        assert bits_of(recon).tolist() == bits_of(code_matrix(block)[0].astype(np.int64) * step + x_min).tolist()
        err = x - recon
        assert err.min() >= 0.0
        assert err.max() <= step or step == 0.0


class TestStepInflation:
    def test_appending_low_value_inflates_step_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            mu = rng.uniform(5, 50)
            sigma = rng.uniform(0.1, mu / 4)
            eps = rng.uniform(1e-3, (mu - sigma) * 0.5)
            channel = rng.uniform(mu - sigma, mu + sigma, size=128)
            step_old = quantize_uniform(channel, 2).steps[0]
            step_new = quantize_uniform(np.append(channel, eps), 2).steps[0]
            x_max = channel.max()
            x_min_old = channel.min()
            expected = (x_max - eps) / (x_max - x_min_old)
            assert step_new / step_old == pytest.approx(expected, rel=1e-6)
            assert step_new / step_old > 1.0


class TestGroupQuantizers:
    def test_channelwise_single_column(self):
        block = quantize_keys_channelwise(np.array([[0.0], [3.0]]), 2)
        assert block.group_axis is GroupAxis.PER_CHANNEL
        assert block.steps[0] == 1.0
        assert code_matrix(block).ravel().tolist() == [0, 3]

    def test_constant_channels_reconstruct_exactly(self):
        group = np.tile(np.array([[1.0, -2.0, 0.5]]), (8, 1))
        block = quantize_keys_channelwise(group, 2)
        assert (block.steps == 0.0).all()
        np.testing.assert_array_equal(block.to_matrix(), group.astype(np.float32))

    def test_channelwise_matches_per_column_oracle(self):
        rng = np.random.default_rng(6)
        group = rng.standard_normal((128, 8))
        block = quantize_keys_channelwise(group, 2)
        codes = code_matrix(block)
        recon = block.to_matrix().astype(np.float64)
        for c in range(8):
            col = quantize_uniform(group[:, c], 2)
            np.testing.assert_array_equal(codes[:, c], code_matrix(col)[0])
            err = group[:, c] - recon[:, c]
            assert err.min() >= -1e-6
            assert err.max() <= col.steps[0] + 1e-6

    def test_tokenwise_single_row(self):
        block = quantize_values_tokenwise(np.array([[0.0, 1.0, 2.0, 3.0]]), 2)
        assert block.group_axis is GroupAxis.PER_TOKEN
        assert block.steps[0] == 1.0
        assert code_matrix(block).ravel().tolist() == [0, 1, 2, 3]

    def test_tokenwise_matches_per_row_oracle(self):
        rng = np.random.default_rng(7)
        group = rng.standard_normal((128, 8))
        block = quantize_values_tokenwise(group, 2)
        codes = code_matrix(block)
        for r in range(0, 128, 17):
            row = quantize_uniform(group[r], 2)
            np.testing.assert_array_equal(codes[r], code_matrix(row)[0])
            err = group[r] - block.to_matrix().astype(np.float64)[r]
            assert err.min() >= -1e-6 and err.max() <= row.steps[0] + 1e-6

    def test_axes_commute_with_transposition(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((16, 5))
        cw = quantize_keys_channelwise(m, 3)
        tw = quantize_values_tokenwise(m.T, 3)
        np.testing.assert_array_equal(code_matrix(cw), code_matrix(tw).T)
        assert cw.params == tw.params

    def test_empty_group_rejected(self):
        with pytest.raises(ContractViolation):
            quantize_keys_channelwise(np.zeros((0, 4)), 2)


class TestQuantizedBlockChecks:
    @staticmethod
    def fields(**overrides):
        # a valid 2-bit per-channel block of 4 tokens x 3 channels
        kw = dict(codes=bytes(12), group_axis=GroupAxis.PER_CHANNEL, mins=np.zeros(3),
                  steps=np.ones(3), n_tokens=4, n_channels=3, bits=2)
        kw.update(overrides)
        return kw

    def test_valid_block_and_params_view(self):
        block = QuantizedBlock(**self.fields(mins=[0.5, -1.0, 2.0], steps=[1.0, 0.0, 0.25]))
        assert block.params == [(0.5, 1.0), (-1.0, 0.0), (2.0, 0.25)]
        assert all(type(v) is float for pair in block.params for v in pair)
        assert block.mins.dtype == block.steps.dtype == np.float64

    @pytest.mark.parametrize("bits", [0, 9])
    def test_rejects_bits_out_of_range(self, bits):
        codes = bytes((4 * 3 * bits + 7) // 8)
        with pytest.raises(ContractViolation, match="bits"):
            QuantizedBlock(**self.fields(bits=bits, codes=codes))

    # One rule for every parameter line, in a group's block and in a
    # one-line block like quantize_uniform's: a finite zero point and a
    # finite, nonnegative step.
    @pytest.mark.parametrize("bad", [-1e-300, float("nan"), float("inf")])
    def test_rejects_negative_or_nonfinite_step(self, bad):
        with pytest.raises(ContractViolation, match="steps"):
            QuantizedBlock(**self.fields(steps=[1.0, bad, 1.0]))
        with pytest.raises(ContractViolation, match="steps"):
            one_line_block(x_min=0.0, step=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_min(self, bad):
        with pytest.raises(ContractViolation, match="mins"):
            QuantizedBlock(**self.fields(mins=[0.0, bad, 0.0]))
        with pytest.raises(ContractViolation, match="mins"):
            one_line_block(x_min=bad, step=1.0)

    # A float size passed the shape tests (3.0 == 3), then failed in reshape.
    @pytest.mark.parametrize("field", ["n_tokens", "n_channels"])
    def test_rejects_non_integer_shape(self, field):
        size = self.fields()[field]
        with pytest.raises(ContractViolation, match=f"{field} must be an integer"):
            QuantizedBlock(**self.fields(**{field: float(size)}))

    @pytest.mark.parametrize(
        "override",
        [{"mins": np.zeros(4)}, {"steps": np.zeros(4)}, {"group_axis": GroupAxis.PER_TOKEN}],
    )
    def test_rejects_parameter_count_off_the_group_axis(self, override):
        with pytest.raises(ContractViolation, match="parameter lines"):
            QuantizedBlock(**self.fields(**override))

    # np.frombuffer raised a raw TypeError on a str, and a string axis was
    # read as PER_TOKEN, since only ``is GroupAxis.PER_CHANNEL`` was tested.
    @pytest.mark.parametrize("codes", ["ab", "x" * 12, 12, [0] * 12, None])
    def test_rejects_codes_that_are_not_bytes_like(self, codes):
        with pytest.raises(ContractViolation, match="codes must be bytes-like"):
            QuantizedBlock(**self.fields(codes=codes))
        with pytest.raises(ContractViolation, match="codes must be bytes-like"):
            QuantizedBlock(codes=codes, group_axis=GroupAxis.PER_TOKEN, mins=[0.0], steps=[1.0],
                           n_tokens=1, n_channels=2, bits=2)

    @pytest.mark.parametrize("codes", [bytes(12), bytearray(12), memoryview(bytes(12))])
    def test_accepts_each_bytes_like_codes_type(self, codes):
        assert QuantizedBlock(**self.fields(codes=codes)).to_matrix().shape == (4, 3)

    @pytest.mark.parametrize("axis", ["per_token", "per_channel", None, 0])
    def test_rejects_group_axis_that_is_not_a_member(self, axis):
        with pytest.raises(ContractViolation, match="group_axis must be a GroupAxis"):
            QuantizedBlock(**self.fields(group_axis=axis))
        with pytest.raises(ContractViolation, match="group_axis must be a GroupAxis"):
            QuantizedBlock(codes=bytes(2), group_axis=axis, mins=[0.0], steps=[1.0],
                           n_tokens=1, n_channels=2, bits=2)

    def test_rejects_packed_length_off_the_shape(self):
        # One byte per code: 3 bytes would hold the 12 codes packed.
        for size in (0, 3, 4, 11, 13):
            with pytest.raises(ContractViolation, match="code count"):
                QuantizedBlock(**self.fields(codes=bytes(size)))

    # A byte string holds any value, where packing held at most ``bits`` bits.
    @pytest.mark.parametrize("bits", range(1, 8))
    def test_rejects_code_past_the_top_level(self, bits):
        top = (1 << bits) - 1
        QuantizedBlock(**self.fields(bits=bits, codes=bytes([top] * 12)))
        with pytest.raises(ContractViolation, match=f"overflow {bits} bits"):
            QuantizedBlock(**self.fields(bits=bits, codes=bytes([0] * 11 + [top + 1])))

    def test_group_quantizers_keep_input_checks(self):
        with pytest.raises(ContractViolation):
            quantize_values_tokenwise(np.array([[1.0, np.inf]]), 2)
        with pytest.raises(ContractViolation):
            quantize_keys_channelwise(np.zeros(4), 2)
        with pytest.raises(ContractViolation):
            quantize_keys_channelwise(np.zeros((2, 2)), 9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("quantize", [quantize_keys_channelwise, quantize_values_tokenwise])
    @pytest.mark.filterwarnings("error")
    def test_group_nonfinite_rejected_by_the_range_test(self, quantize, bad):
        # One bad element, and a whole line of it (an infinite line's range is inf - inf).
        group = np.zeros((4, 3))
        group[2, 1] = bad
        with pytest.raises(ContractViolation, match="NaN or Inf"):
            quantize(group, 2)
        group[:, 1] = group[1, :] = bad
        with pytest.raises(ContractViolation, match="NaN or Inf"):
            quantize(group, 2)


class TestPackCodesInputs:
    AS_INPUT = {
        "list": list,
        "int64": lambda c: np.array(c, dtype=np.int64),
        "uint8": lambda c: np.array(c, dtype=np.uint8),
    }

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_same_bytes_for_every_input_type(self, bits):
        rng = np.random.default_rng(300 + bits)
        for n in (0, 1, 8, 13, 1000):
            codes = rng.integers(0, 1 << bits, size=n)
            want = reference_word_pack(codes, bits)
            for as_input in self.AS_INPUT.values():
                assert pack_codes(as_input(codes.tolist()), bits) == want

    @pytest.mark.parametrize("bits", [1, 2, 7])
    @pytest.mark.parametrize("kind", AS_INPUT)
    def test_same_rejections_for_every_input_type(self, kind, bits):
        as_input = self.AS_INPUT[kind]
        with pytest.raises(ContractViolation, match="overflow"):
            pack_codes(as_input([0, 1 << bits]), bits)
        with pytest.raises(ContractViolation, match="1-D"):
            pack_codes(as_input([[0, 1], [1, 0]]), bits)
        if kind != "uint8":
            with pytest.raises(ContractViolation, match="overflow"):
                pack_codes(as_input([0, -1]), bits)


class TestPacking:
    def test_two_bit_example(self):
        packed = pack_codes([0, 1, 2, 3], 2)
        assert len(packed) == 1
        assert unpack_codes(packed, 2, 4).tolist() == [0, 1, 2, 3]

    def test_empty(self):
        assert pack_codes([], 2) == b""
        assert unpack_codes(b"", 2, 0).tolist() == []

    def test_negative_count_rejected(self):
        with pytest.raises(ContractViolation, match="count must be nonnegative"):
            unpack_codes(b"\0", 2, -1)

    @pytest.mark.parametrize("count", [2.0, 1.5, "2", None])
    def test_non_integer_count_rejected(self, count):
        with pytest.raises(ContractViolation, match="count must be an integer"):
            unpack_codes(b"\0", 2, count)

    @pytest.mark.parametrize("data", ["ab", [0, 1], None], ids=["str", "list", "None"])
    def test_non_bytes_data_rejected(self, data):
        with pytest.raises(ContractViolation, match="data must be bytes-like"):
            unpack_codes(data, 2, 4)
        for buffer in (bytearray, memoryview):
            assert unpack_codes(buffer(b"\xe4"), 2, 4).tolist() == [0, 1, 2, 3]

    def test_non_integer_codes_rejected(self):
        for codes in ([0.5, 1.0], [1.0, math.nan], [2.0, 1e-300], ["1"], [1 + 0j]):
            with pytest.raises(ContractViolation, match="integer values"):
                pack_codes(np.array(codes), 2)
        # Integer values pass whatever their type, and give the int64 codes' bytes.
        assert pack_codes(np.array([1.0, 3.0, 0.0]), 2) == pack_codes([1, 3, 0], 2) == b"\x0d"
        assert pack_codes([True, False], 1) == b"\x01"

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

    SWEEP_LENGTHS = [*range(70), 127, 128, 129, 8191, 8192, 8193]

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_bytes_equal_bit_column_reference(self, bits):
        rng = np.random.default_rng(bits)
        for n in self.SWEEP_LENGTHS:
            codes = rng.integers(0, 1 << bits, size=n)
            packed = pack_codes(codes, bits)
            assert packed == reference_pack_codes(codes, bits)
            np.testing.assert_array_equal(unpack_codes(packed, bits, n), codes)
            np.testing.assert_array_equal(reference_unpack_codes(packed, bits, n), codes)
            top = np.full(n, (1 << bits) - 1)
            assert pack_codes(top, bits) == reference_pack_codes(top, bits)
            np.testing.assert_array_equal(unpack_codes(pack_codes(top, bits), bits, n), top)

    def test_unpack_ignores_bytes_past_the_codes(self):
        codes = np.array([3, 1, 2])
        packed = pack_codes(codes, 2) + b"\xff\xff"
        np.testing.assert_array_equal(unpack_codes(packed, 2, 3), codes)
        with pytest.raises(ContractViolation):
            unpack_codes(pack_codes(codes, 8)[:2], 8, 3)

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
        assert packed == reference_pack_codes(codes, bits)
        assert unpack_codes(packed, bits, len(codes)).tolist() == codes
