"""Uniform min-max quantization, group-wise variants, and bit packing.

The scalar rule maps a value x to the integer code

    code = floor((x - x_min) / step),   step = (x_max - x_min) / (2**bits - 1)

with codes clamped to [0, 2**bits - 1]. Floor (not round-to-nearest) is
deliberate: it gives the one-sided reconstruction bound

    0 <= x - dequant(quant(x)) <= step

for every x inside the group's [x_min, x_max], exact at lattice points.
In floating point the code is the highest level whose float64
reconstruction is <= x, and step is shrunk by a few ulps wherever
round-off would leave a lattice cell wider than step, so the bound holds
exactly as ``dequantize`` computes it.

Group variants quantize keys per channel (one parameter line per column)
and values per token (one line per row), all lines of a group in one
vectorized pass: every line's min, max and step at once, the step nudge
and shrink repeated only on the lines that still need them. Each code is
estimated as ``floor((x - x_min) / step)`` and checked through its
float64 residual ``x - (code * step + x_min)``: a negative residual means
the estimate is too high, and only a residual within a derived
round-off bound ``tol`` of a whole step can hide one that is too low (see
``_quantize_lines``). Those few elements are settled against the lattice;
the cost of the pass does not depend on ``bits``. Codes stay ``uint8``
from the finder to the packer, which joins each word's eight codes in
three shift-and-merge rounds.
``quantize_uniform`` is the one-line case of the same pass. A
``QuantizedBlock`` holds the packed codes plus two float64 arrays,
``mins`` and ``steps``, with one entry per parameter line; it is the only
block type, and ``TieredCache.memory_usage`` accounts for its bits.

The input domain is one test per line: its range ``x_max - x_min`` must
be finite in float64. A NaN or an infinity fails it, and so does a finite
line whose extremes' magnitudes sum past about 1.8e308. Anything else
raises one ``ContractViolation`` before any code is computed. Inside the
domain each loop of the pass runs at most a stated number of passes.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, check_integer


def _check_bits(bits: int) -> None:
    if not 1 <= check_integer(bits, "bits") <= 8:
        raise ContractViolation(f"bits must be in [1, 8], got {bits}")


class GroupAxis(enum.Enum):
    PER_CHANNEL = "per_channel"
    PER_TOKEN = "per_token"


@dataclass(frozen=True)
class QuantParams:
    """Zero point and step size for one group line.

    ``step == (x_max - x_min) / (2**bits - 1)`` at construction, where
    x_max/x_min are the group line's extrema; step is 0 iff the line is
    constant.
    """

    x_min: float
    step: float
    bits: int

    def __post_init__(self):
        _check_bits(self.bits)
        if self.step < 0:
            raise ContractViolation("step must be nonnegative")


def _floor_codes(
    lines: np.ndarray, mins: np.ndarray, steps: np.ndarray, tol: np.ndarray, levels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per element, the highest level whose float64 reconstruction is <= x.

    ``lines`` is (m, n); ``mins``, ``steps`` and ``tol`` are (m, 1) columns.
    Returns the codes (float64, integer-valued) and the residuals
    ``x - (code * step + x_min)``, the float64 operations of ``dequantize``.
    The estimate ``floor((x - x_min) / step + 2**-32)``, capped at
    ``levels``, is right for all but a few elements; two tests on the
    residual flag every wrong one (``_quantize_lines`` derives why), and
    only the flagged elements are settled against the lattice.
    """
    # Full-size copies of the columns: arithmetic against a broadcast column
    # runs one short inner loop per line, a copy of it does not.
    lo = np.empty_like(lines)
    np.copyto(lo, mins)
    width = np.empty_like(lines)
    np.copyto(width, steps)
    codes = lines - lo
    codes /= width
    # Values on a lattice point (x_max above all) often land a hair below
    # their level; lifting the estimate by far more than that round-off
    # keeps them off the settle path.
    codes += 2.0**-32
    np.floor(codes, out=codes)
    np.minimum(codes, levels, out=codes)
    resid = codes * width
    resid += lo
    np.subtract(lines, resid, out=resid)
    unsure = resid >= steps - tol
    unsure |= resid < 0
    if unsure.any():
        i, j = np.nonzero(unsure)
        x, step, x_min, k = lines[i, j], steps[i, 0], mins[i, 0], codes[i, j]
        # Each pass moves every flagged code one level toward its right
        # value, and both lie in [0, levels] (level 0 reconstructs to
        # x_min <= x): at most ``levels`` passes each way.
        for _ in range(levels + 1):
            if not (high := k * step + x_min > x).any():
                break
            k -= high
        assert not high.any(), "settling down took more than `levels` passes"
        for _ in range(levels + 1):
            if not (low := (k < levels) & ((k + 1) * step + x_min <= x)).any():
                break
            k += low
        assert not low.any(), "settling up took more than `levels` passes"
        codes[i, j] = k
        resid[i, j] = x - (k * step + x_min)
    return codes, resid


# Most passes of the step nudge in ``_quantize_lines`` (derived there).
_NUDGE_PASSES = 5
# Most passes of its excess shrink. Unlike the other bounds this one is
# measured, not derived: at most 4 passes over about a million lines
# built to put values a few ulps off the lattice, at every code width.
_SHRINK_PASSES = 64


# ``(k + 1) * step`` overflows only where ``k == levels`` masks it, and the
# range test rejects an all-Inf line's ``inf - inf``: both are harmless.
@np.errstate(over="ignore", invalid="ignore")
def _quantize_lines(lines: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantize each row of a non-empty float64 (L, n) matrix.

    Returns ``(codes, mins, steps)``: uint8 codes of shape (L, n), laid out
    in memory like ``lines``, and the float64 zero point and step of each
    row. A row whose range is not finite (NaN, Inf or overflow) raises.

    Each code c is first estimated (see ``_floor_codes``) and checked
    through its residual ``r = x - (c * step + x_min)``, the float64
    operations of ``dequantize``. The estimate is too high exactly
    when ``r < 0``, since a rounded difference has the sign of the exact
    one. It can be too low only if ``r >= step - tol``. With u = 2**-53 and
    X = |x_min| + |x_max| + levels * step, a lattice point ``fl(fl(k *
    step) + x_min)`` lies within ``2u * X + 2**-1074`` of ``k * step +
    x_min`` (the subnormal term is the underflow of the product; sums with
    a subnormal result are exact). So if level c + 1 reconstructs at or
    below x, then ``x - fl(c * step + x_min) >= step - 4u * X - 2**-1073``,
    and rounding that subtraction, whose operands are each below X in
    magnitude, costs at most ``2u * X`` more: ``r >= step - 6u * X -
    2**-1073``. ``tol = 16 * 2**-52 * X + 4 * 2**-1074`` is over four
    times that bound, which also covers the rounding of ``tol`` and of
    ``step - tol``. It is summed as 2**-48 times each term of X, so it
    stays finite where X itself would overflow; that is exact unless a
    term is subnormal, and rounding those costs at most 3 * 2**-1075.
    Only elements failing one of the two tests (none, for
    most groups) are settled, one level at a time, so the result is
    exactly the highest level whose reconstruction is <= x, for any
    ``bits``.
    """
    levels = (1 << bits) - 1
    mins = lines.min(axis=1)
    maxs = lines.max(axis=1)
    steps = maxs - mins
    if not np.isfinite(steps).all():
        raise ContractViolation("a line contains NaN or Inf, or its range (max - min) overflows float64")
    steps /= levels
    # Guard float round-off: nudge each step down until the top code
    # reconstructs at or below x_max, so x_max gets the top level and the
    # one-sided error bound holds at the extremes. With R = x_max - x_min
    # and u = 2**-53, a step s passes once levels * s * (1 + u) + 2**-1075
    # <= R, and the first step is at most R * (1 + u)**2 / levels +
    # 2**-1075: under 3u * s + 2**-1074 above the largest s that passes.
    # Each pass lowers s by at least max(u * s, 2**-1074), so 5 suffice.
    nudge = np.flatnonzero((steps > 0) & (mins + levels * steps > maxs))
    for _ in range(_NUDGE_PASSES):
        if not nudge.size:
            break
        steps[nudge] = np.nextafter(steps[nudge], 0.0)
        nudge = nudge[(steps[nudge] > 0) & (mins[nudge] + levels * steps[nudge] > maxs[nudge])]
    assert not nudge.size, "the step nudge took more than _NUDGE_PASSES passes"
    # The steps below only shrink, so this bound stays valid for them.
    scale = 16 * 2.0**-52
    tol = np.abs(mins) * scale + np.abs(maxs) * scale + levels * steps * scale + 4 * 2.0**-1074

    # Constant rows (step 0) keep all-zero codes.
    codes = np.zeros_like(lines, dtype=np.uint8)
    todo = np.flatnonzero(steps > 0)
    for _ in range(_SHRINK_PASSES):
        if not todo.size:
            break
        rows = slice(None) if todo.size == len(lines) else todo
        step = steps[todo]
        codes[rows], resid = _floor_codes(
            lines[rows], mins[rows, None], step[:, None], tol[rows, None], levels
        )
        excess = resid.max(axis=1) - step
        # excess > 0: round-off made a lattice cell wider than step (by a few
        # ulps of the levels), so some x has no code within the bound.
        # Shrinking step by the excess narrows the cells; the top level only
        # moves down, so it stays <= x_max. An excess of a whole step means
        # the row spans too few float64 values for any step to meet the
        # bound (never the case for float32 data), so that row stops there.
        shrink = (0.0 < excess) & (excess < step)
        todo, step, excess = todo[shrink], step[shrink], excess[shrink]
        steps[todo] = np.minimum(np.nextafter(step, 0.0), step - excess)
    assert not todo.size, "the excess shrink took more than _SHRINK_PASSES passes"
    return codes, mins, steps


def quantize_uniform(x, bits: int) -> tuple[np.ndarray, QuantParams]:
    """Quantize a 1-D vector with min-max uniform quantization.

    Returns:
        ``(codes, params)`` where codes is an int64 array with every entry
        in ``[0, 2**bits - 1]``. A constant input yields step 0 and all-zero
        codes.
    """
    _check_bits(bits)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ContractViolation("quantize_uniform expects a non-empty 1-D vector")
    codes, mins, steps = _quantize_lines(x[None, :], bits)
    params = QuantParams(x_min=float(mins[0]), step=float(steps[0]), bits=bits)
    return codes[0].astype(np.int64), params


def dequantize(codes, params: QuantParams) -> np.ndarray:
    """Reconstruct ``codes * step + x_min`` as float64."""
    codes = np.asarray(codes, dtype=np.int64)
    levels = (1 << params.bits) - 1
    if codes.size and (codes.min() < 0 or codes.max() > levels):
        raise ContractViolation(f"codes out of range for {params.bits}-bit params")
    return codes * params.step + params.x_min


@dataclass(eq=False)
class QuantizedBlock:
    """Bit-packed codes plus per-line parameters for one group of tokens.

    Codes are packed little-endian within bytes, in row-major element
    order. ``mins`` and ``steps`` are float64 arrays with one entry per
    channel (PER_CHANNEL) or per token row (PER_TOKEN).
    """

    codes: bytes
    group_axis: GroupAxis
    mins: np.ndarray = field(repr=False)
    steps: np.ndarray = field(repr=False)
    n_tokens: int
    n_channels: int
    bits: int

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float64)
        self.steps = np.asarray(self.steps, dtype=np.float64)
        _check_bits(self.bits)
        expected = self.n_channels if self.group_axis is GroupAxis.PER_CHANNEL else self.n_tokens
        if self.mins.shape != (expected,) or self.steps.shape != (expected,):
            raise ContractViolation(
                f"expected {expected} parameter lines, got mins {self.mins.shape} "
                f"and steps {self.steps.shape}"
            )
        if not np.isfinite(self.steps).all() or (self.steps < 0).any():
            raise ContractViolation("steps must be finite and nonnegative")
        if len(self.codes) != _packed_size(self.n_tokens * self.n_channels, self.bits):
            raise ContractViolation("packed code length does not match block shape")

    @property
    def params(self) -> list[QuantParams]:
        """One :class:`QuantParams` per line, built from ``mins`` and ``steps``."""
        return [
            QuantParams(x_min=m, step=s, bits=self.bits)
            for m, s in zip(self.mins.tolist(), self.steps.tolist())
        ]

    def to_matrix(self) -> np.ndarray:
        """Dequantize to a float32 (n_tokens, n_channels) matrix."""
        codes = _unpack(self.codes, self.bits, self.n_tokens * self.n_channels)
        codes = codes.reshape(self.n_tokens, self.n_channels)
        if self.group_axis is GroupAxis.PER_CHANNEL:
            out = codes * self.steps[None, :] + self.mins[None, :]
        else:
            out = codes * self.steps[:, None] + self.mins[:, None]
        return out.astype(np.float32)


def _quantize_group(group: np.ndarray, bits: int, axis: GroupAxis) -> QuantizedBlock:
    # Value rows are laid out as columns, like a key group's channels:
    # numpy reduces across contiguous lines faster than along each one.
    order = "F" if axis is GroupAxis.PER_TOKEN else "K"
    group = np.asarray(group, dtype=np.float64, order=order)
    if group.ndim != 2 or group.size == 0:
        raise ContractViolation("group must be a non-empty 2-D matrix")
    _check_bits(bits)

    n_tokens, n_channels = group.shape
    if axis is GroupAxis.PER_CHANNEL:
        codes, mins, steps = _quantize_lines(group.T, bits)
        codes = codes.T
    else:
        codes, mins, steps = _quantize_lines(group, bits)
    return QuantizedBlock(
        codes=_pack(codes.reshape(-1), bits),
        group_axis=axis,
        mins=mins,
        steps=steps,
        n_tokens=n_tokens,
        n_channels=n_channels,
        bits=bits,
    )


def quantize_keys_channelwise(group, bits: int) -> QuantizedBlock:
    """Quantize a (G, d) key group with one parameter line per channel."""
    return _quantize_group(group, bits, GroupAxis.PER_CHANNEL)


def quantize_values_tokenwise(group, bits: int) -> QuantizedBlock:
    """Quantize a (G, d) value group with one parameter line per token."""
    return _quantize_group(group, bits, GroupAxis.PER_TOKEN)


def _packed_size(count: int, bits: int) -> int:
    return (count * bits + 7) // 8


def pack_codes(codes, bits: int) -> bytes:
    """Pack integer codes at ``bits`` bits each, little-endian within bytes.

    Code i occupies bits ``i * bits`` to ``(i + 1) * bits - 1`` of the
    stream, and stream bit j is bit ``j % 8`` of byte ``j // 8``. Eight
    codes fill exactly ``bits`` bytes: one little-endian uint64 word of
    which the low ``bits`` bytes are kept.
    """
    _check_bits(bits)
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 1:
        raise ContractViolation("pack_codes expects a 1-D code vector")
    if codes.size == 0:
        return b""
    if codes.min() < 0 or codes.max() >= (1 << bits):
        raise ContractViolation(f"codes overflow {bits} bits")
    return _pack(codes, bits)


def unpack_codes(data: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`; returns int64 codes of length ``count``."""
    _check_bits(bits)
    if count < 0:
        raise ContractViolation("count must be nonnegative")
    size = _packed_size(count, bits)
    if len(data) < size:
        raise ContractViolation(
            f"need {size} bytes for {count} codes, got {len(data)}"
        )
    return _unpack(data, bits, count).astype(np.int64)


# Offset of each of a word's eight codes.
_WORD_SHIFTS = {bits: np.arange(0, 8 * bits, bits, dtype=np.uint64) for bits in range(1, 9)}

def _pack(codes: np.ndarray, bits: int) -> bytes:
    """:func:`pack_codes` for a 1-D array of codes known to fit in ``bits``.

    Eight codes start one per byte of a uint64 word, and three rounds join
    neighbouring lanes: a lane of 2 * half bits holding lo + hi * 2**half,
    both parts ``width`` bits wide, becomes lo | hi << width by subtracting
    hi * (2**half - 2**width).
    """
    n = codes.size
    buf = np.zeros(-(-n // 8) * 8, dtype=np.uint8)
    buf[:n] = codes
    for lane, half, width in (("<u2", 8, bits), ("<u4", 16, 2 * bits), ("<u8", 32, 4 * bits)):
        words = buf.view(lane)
        words -= (words >> half) * ((1 << half) - (1 << width))
    return buf.reshape(-1, 8)[:, :bits].tobytes()[: _packed_size(n, bits)]


def _unpack(data: bytes, bits: int, count: int) -> np.ndarray:
    """uint8 codes from ``data``, which holds at least their packed size.

    Each word is shifted by all eight code offsets at once. Undoing
    ``_pack``'s rounds instead touches fewer bytes but takes twelve numpy
    calls.
    """
    n_words = -(-count // 8)
    stream = bytes(data[: _packed_size(count, bits)]).ljust(n_words * bits, b"\0")
    word_bytes = np.zeros((n_words, 8), dtype=np.uint8)
    word_bytes[:, :bits] = np.frombuffer(stream, dtype=np.uint8).reshape(n_words, bits)
    codes = (word_bytes.view("<u8") >> _WORD_SHIFTS[bits]).astype(np.uint8)
    codes &= np.uint8((1 << bits) - 1)
    return codes.reshape(-1)[:count]
