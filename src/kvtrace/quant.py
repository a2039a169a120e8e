"""Uniform min-max quantization, group-wise variants, and the packed code layout.

The scalar rule maps a value x to the integer code

    code = floor((x - x_min) / step),   step = (x_max - x_min) / (2**bits - 1)

with codes clamped to [0, 2**bits - 1]. Floor (not round-to-nearest) is
deliberate: it gives the one-sided reconstruction bound

    0 <= x - dequantize(quant(x)) <= step

for every x inside the group's [x_min, x_max], exact at lattice points.
In floating point the code is the highest level whose float64
reconstruction is <= x, and step is shrunk by a few ulps wherever
round-off would leave a lattice cell wider than step, so the bound holds
exactly as ``dequantize`` computes it.

Group variants quantize keys per channel (one parameter line per column)
and values per token (one line per row), all lines of a group in one
vectorized pass: every line's min, max and step at once, the step nudge
and shrink repeated only on the lines that still need them. Each code is
estimated as ``floor((x - x_min) / step)`` and checked exactly in float64:
it is too high if it reconstructs above x, too low if the next level
reconstructs at or below x. The few elements either test flags are
settled against the lattice; the cost of the pass does not depend on
``bits``. A ``QuantizedBlock`` is the one result type: the finder's
``uint8`` codes, one byte per code in row-major order, and two float64
arrays, ``mins`` and ``steps``, one entry per parameter line.
``quantize_uniform`` returns a vector's one-token ``PER_TOKEN`` block, and
``dequantize`` is the one reconstruction rule. ``quantize_uniform`` and
``QuantizedBlock.params`` have no caller in the package; the benchmark's
tests pin them.

A deployed cache stores the codes packed, ``bits`` bits each (KIVI packs
them on the GPU). ``pack_codes`` writes that layout and ``unpack_codes``
reads it; ``MemoryBreakdown.of`` charges its bits in closed form. Nothing
on the write path packs: no block outlives the write that dequantizes it.

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


def _floor_codes(
    lines: np.ndarray, mins: np.ndarray, steps: np.ndarray, levels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per element, the highest level whose float64 reconstruction is <= x.

    ``lines`` is (m, n); ``mins`` and ``steps`` are (m, 1) columns.
    Returns the codes (float64, integer-valued) and the residuals
    ``x - (code * step + x_min)``, the float64 operations of ``dequantize``.
    The estimate ``floor((x - x_min) / step + 2**-32)``, capped at
    ``levels``, is right for all but a few elements. Two exact tests flag
    every wrong one: it is too high if its residual is negative, and too
    low if the next level's reconstruction is <= x. Only the flagged
    elements are settled against the lattice.
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
    # The next level's reconstruction, then the code's own in ``width``'s
    # buffer: a fresh full-size array costs more than the rest of the test.
    # At the top level, which has no next level, the first test can flag a
    # right code; the settle leaves it there.
    resid = codes + 1
    resid *= width
    resid += lo
    unsure = resid <= lines
    width *= codes
    width += lo
    np.subtract(lines, width, out=resid)
    unsure |= resid < 0
    if unsure.any():
        i, j = np.nonzero(unsure)
        x, step, x_min, k = lines[i, j], steps[i, 0], mins[i, 0], codes[i, j]
        # Each pass moves every flagged code one level toward its right
        # value, which lies in [0, levels] (level 0 reconstructs to
        # x_min <= x). Reconstructions rise with the level, so a code that
        # was too high never becomes too low: at most ``levels`` moves.
        for _ in range(levels + 1):
            high = k * step + x_min > x
            low = (k < levels) & ((k + 1) * step + x_min <= x)
            if not (wrong := high | low).any():
                break
            k += low
            k -= high
        assert not wrong.any(), "settling took more than `levels` passes"
        codes[i, j] = k
        resid[i, j] = x - (k * step + x_min)
    return codes, resid


# Most passes of the step nudge in ``_quantize_lines`` (derived there).
_NUDGE_PASSES = 5
# Most passes of its excess shrink. Unlike the other bounds this one is
# measured, not derived: at most 4 passes over about a million lines
# built to put values a few ulps off the lattice, at every code width.
_SHRINK_PASSES = 64


# ``(k + 1) * step`` overflows only past the top level, where its Inf is
# never <= x, and the range test rejects an all-Inf line's ``inf - inf``:
# both are harmless.
@np.errstate(over="ignore", invalid="ignore")
def _quantize_lines(lines: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantize each row of a non-empty float64 (L, n) matrix.

    Returns ``(codes, mins, steps)``: uint8 codes of shape (L, n), laid out
    in memory like ``lines``, and the float64 zero point and step of each
    row. A row whose range is not finite (NaN, Inf or overflow) raises.

    Each code is the highest level whose float64 reconstruction is <= x
    (see ``_floor_codes``), for any ``bits``.
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

    # Constant rows (step 0) keep all-zero codes.
    codes = np.zeros_like(lines, dtype=np.uint8)
    todo = np.flatnonzero(steps > 0)
    for _ in range(_SHRINK_PASSES):
        rows = slice(None) if todo.size == len(lines) else todo
        step = steps[todo]
        codes[rows], resid = _floor_codes(lines[rows], mins[rows, None], step[:, None], levels)
        excess = resid.max(axis=1) - step
        # excess > 0: round-off made a lattice cell wider than step (by a few
        # ulps of the levels), so some x has no code within the bound.
        # Shrinking step by the excess narrows the cells; the top level only
        # moves down, so it stays <= x_max. An excess of a whole step means
        # the row spans too few float64 values for any step to meet the
        # bound (never the case for float32 data), so that row stops there.
        shrink = (0.0 < excess) & (excess < step)
        if not shrink.any():
            break
        todo = todo[shrink]
        steps[todo] = np.minimum(np.nextafter(step, 0.0), step - excess)[shrink]
    assert not shrink.any(), "the excess shrink took more than _SHRINK_PASSES passes"
    return codes, mins, steps


@dataclass(eq=False)
class QuantizedBlock:
    """Codes plus per-line parameters for one group of tokens.

    ``codes`` holds one byte per code, in row-major (n_tokens, n_channels)
    order; :func:`pack_codes` gives the deployed layout. ``mins`` and
    ``steps`` are float64 arrays with one entry per channel (PER_CHANNEL)
    or per token row (PER_TOKEN).
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
        check_integer(self.n_tokens, "n_tokens")
        check_integer(self.n_channels, "n_channels")
        if not isinstance(self.group_axis, GroupAxis):
            raise ContractViolation(f"group_axis must be a GroupAxis, got {self.group_axis!r}")
        expected = self.n_channels if self.group_axis is GroupAxis.PER_CHANNEL else self.n_tokens
        if self.mins.shape != (expected,) or self.steps.shape != (expected,):
            raise ContractViolation(
                f"expected {expected} parameter lines, got mins {self.mins.shape} "
                f"and steps {self.steps.shape}"
            )
        if not (np.isfinite(self.mins).all() and np.isfinite(self.steps).all() and (self.steps >= 0).all()):
            raise ContractViolation("mins and steps must be finite and each step must be nonnegative")
        if not isinstance(self.codes, (bytes, bytearray, memoryview)):
            raise ContractViolation(f"codes must be bytes-like, got {type(self.codes).__name__}")
        codes = np.frombuffer(self.codes, np.uint8)
        if codes.size != self.n_tokens * self.n_channels:
            raise ContractViolation("code count does not match block shape")
        if codes.size and codes.max() >= 1 << self.bits:
            raise ContractViolation(f"codes overflow {self.bits} bits")

    @property
    def params(self) -> list[tuple[float, float]]:
        """One ``(x_min, step)`` float pair per line, as the benchmark's tests compare it."""
        return list(zip(self.mins.tolist(), self.steps.tolist()))

    def to_matrix(self) -> np.ndarray:
        """Dequantize to a float32 (n_tokens, n_channels) matrix."""
        return dequantize(self).astype(np.float32)


def quantize_uniform(x, bits: int) -> QuantizedBlock:
    """A 1-D vector's one-token ``PER_TOKEN`` block; a constant one gets step 0."""
    _check_bits(bits)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ContractViolation("quantize_uniform expects a non-empty 1-D vector")
    return _quantize_group(x[None, :], bits, GroupAxis.PER_TOKEN)


def dequantize(block: QuantizedBlock) -> np.ndarray:
    """The one reconstruction rule: a block's float64 rows ``codes * steps + mins``.

    These are the operations the code finder tests, so the bound is exact here.
    """
    if not isinstance(block, QuantizedBlock):
        raise ContractViolation(f"dequantize expects a QuantizedBlock, got {type(block).__name__}")
    codes = np.frombuffer(block.codes, np.uint8).reshape(block.n_tokens, block.n_channels)
    if block.group_axis is GroupAxis.PER_CHANNEL:
        return codes * block.steps[None, :] + block.mins[None, :]
    return codes * block.steps[:, None] + block.mins[:, None]


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
        codes=codes.tobytes(),
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


def pack_codes(codes, bits: int) -> bytes:
    """Pack integer codes at ``bits`` bits each, little-endian within bytes.

    Code i occupies bits ``i * bits`` to ``(i + 1) * bits - 1`` of the
    stream, and stream bit j is bit ``j % 8`` of byte ``j // 8``: the
    deployed layout, ``ceil(count * bits / 8)`` bytes.
    """
    _check_bits(bits)
    codes = np.asarray(codes)
    if codes.ndim != 1:
        raise ContractViolation("pack_codes expects a 1-D code vector")
    if codes.size == 0:
        return b""
    if codes.dtype.kind not in "biuf" or (np.floor(codes) != codes).any():
        raise ContractViolation("codes must be integer values")
    if codes.min() < 0 or codes.max() >= (1 << bits):
        raise ContractViolation(f"codes overflow {bits} bits")
    bit_cols = np.unpackbits(codes.astype(np.uint8)[:, None], axis=1, count=bits, bitorder="little")
    return np.packbits(bit_cols, bitorder="little").tobytes()


def unpack_codes(data: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`; returns int64 codes of length ``count``."""
    _check_bits(bits)
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise ContractViolation(f"data must be bytes-like, got {type(data).__name__}")
    if check_integer(count, "count") < 0:
        raise ContractViolation("count must be nonnegative")
    size = (count * bits + 7) // 8
    if len(data) < size:
        raise ContractViolation(f"need {size} bytes for {count} codes, got {len(data)}")
    stream = np.unpackbits(np.frombuffer(data, np.uint8, count=size), count=count * bits, bitorder="little")
    return np.packbits(stream.reshape(count, bits), axis=1, bitorder="little")[:, 0].astype(np.int64)
