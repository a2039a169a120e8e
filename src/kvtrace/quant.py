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
and shrink repeated only on the lines that still need them, and each code
found by a binary search over the float64 lattice, one code bit per pass.
``quantize_uniform`` is the one-line case of the same pass. A
``QuantizedBlock`` holds the packed codes plus two float64 arrays,
``mins`` and ``steps``, with one entry per parameter line.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation

# Bits accounted per stored value in the fp16-equivalent memory model.
# Parameters are held as wider floats in memory but deployed as fp16.
FP16_BITS = 16


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
        if not 1 <= self.bits <= 8:
            raise ContractViolation(f"bits must be in [1, 8], got {self.bits}")
        if self.step < 0:
            raise ContractViolation("step must be nonnegative")


def _floor_codes(lines: np.ndarray, mins: np.ndarray, steps: np.ndarray, bits: int) -> np.ndarray:
    """Per element, the highest level whose float64 reconstruction is <= x.

    The reconstructions ``k * step + x_min`` (the float64 operations of
    ``dequantize``) are non-decreasing in k and level 0 is x_min, so the
    code is found by binary search, one code bit per pass from the top:
    ``bits`` passes, none building anything larger than the lines. The
    first probe is the same level for every element.
    """
    top = 1 << (bits - 1)
    codes = np.where((top * steps + mins)[:, None] <= lines, top, 0)
    for b in reversed(range(bits - 1)):
        trial = codes + (1 << b)
        codes = np.where(trial * steps[:, None] + mins[:, None] <= lines, trial, codes)
    return codes


def _quantize_lines(lines: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantize each row of a finite, non-empty float64 (L, n) matrix.

    Returns ``(codes, mins, steps)``: int64 codes of shape (L, n) and the
    float64 zero point and step of each row.
    """
    levels = (1 << bits) - 1
    mins = lines.min(axis=1)
    maxs = lines.max(axis=1)
    steps = (maxs - mins) / levels
    # Guard float round-off: nudge each step down until the top code
    # reconstructs at or below x_max, so x_max gets the top level and the
    # one-sided error bound holds at the extremes.
    nudge = np.flatnonzero((steps > 0) & (mins + levels * steps > maxs))
    while nudge.size:
        steps[nudge] = np.nextafter(steps[nudge], 0.0)
        nudge = nudge[(steps[nudge] > 0) & (mins[nudge] + levels * steps[nudge] > maxs[nudge])]

    # Constant rows (step 0) keep all-zero codes.
    codes = np.zeros(lines.shape, dtype=np.int64)
    todo = np.flatnonzero(steps > 0)
    while todo.size:
        x = lines if todo.size == len(lines) else lines[todo]
        step = steps[todo]
        c = _floor_codes(x, mins[todo], step, bits)
        codes[todo] = c
        excess = (x - (c * step[:, None] + mins[todo, None])).max(axis=1) - step
        # excess > 0: round-off made a lattice cell wider than step (by a few
        # ulps of the levels), so some x has no code within the bound.
        # Shrinking step by the excess narrows the cells; the top level only
        # moves down, so it stays <= x_max. An excess of a whole step means
        # the row spans too few float64 values for any step to meet the
        # bound (never the case for float32 data), so that row stops there.
        shrink = (0.0 < excess) & (excess < step)
        todo, step, excess = todo[shrink], step[shrink], excess[shrink]
        steps[todo] = np.minimum(np.nextafter(step, 0.0), step - excess)
    return codes, mins, steps


def quantize_uniform(x, bits: int) -> tuple[np.ndarray, QuantParams]:
    """Quantize a 1-D vector with min-max uniform quantization.

    Returns:
        ``(codes, params)`` where codes is an int64 array with every entry
        in ``[0, 2**bits - 1]``. A constant input yields step 0 and all-zero
        codes.
    """
    if not 1 <= bits <= 8:
        raise ContractViolation(f"bits must be in [1, 8], got {bits}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ContractViolation("quantize_uniform expects a non-empty 1-D vector")
    if not np.isfinite(x).all():
        raise ContractViolation("quantize_uniform input contains NaN or Inf")
    codes, mins, steps = _quantize_lines(x[None, :], bits)
    return codes[0], QuantParams(x_min=float(mins[0]), step=float(steps[0]), bits=bits)


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
        if not 1 <= self.bits <= 8:
            raise ContractViolation(f"bits must be in [1, 8], got {self.bits}")
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

    @property
    def code_bits(self) -> int:
        """Payload bits in the fp16-equivalent memory model."""
        return self.n_tokens * self.n_channels * self.bits

    @property
    def param_bits(self) -> int:
        """Two stored values, accounted 16 bits each, per parameter line."""
        return self.steps.size * 2 * FP16_BITS

    def code_matrix(self) -> np.ndarray:
        """Unpacked integer codes, shape (n_tokens, n_channels)."""
        flat = unpack_codes(self.codes, self.bits, self.n_tokens * self.n_channels)
        return flat.reshape(self.n_tokens, self.n_channels)

    def to_matrix(self) -> np.ndarray:
        """Dequantize to a float32 (n_tokens, n_channels) matrix."""
        codes = self.code_matrix()
        if self.group_axis is GroupAxis.PER_CHANNEL:
            out = codes * self.steps[None, :] + self.mins[None, :]
        else:
            out = codes * self.steps[:, None] + self.mins[:, None]
        return out.astype(np.float32)


@dataclass
class PassthroughBlock:
    """Lossless stand-in for a quantized block.

    Stores the group verbatim and reconstructs it bit-exactly; accounted as
    16 bits per value with no parameter overhead. This exists for
    equivalence testing and fp16-style accounting, not as a compression
    mode.
    """

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)

    @property
    def n_tokens(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def code_bits(self) -> int:
        return self.n_tokens * self.n_channels * FP16_BITS

    @property
    def param_bits(self) -> int:
        return 0

    def to_matrix(self) -> np.ndarray:
        return self.data


def _quantize_group(group: np.ndarray, bits: int, axis: GroupAxis) -> QuantizedBlock:
    group = np.asarray(group, dtype=np.float64)
    if group.ndim != 2 or group.size == 0:
        raise ContractViolation("group must be a non-empty 2-D matrix")
    if not np.isfinite(group).all():
        raise ContractViolation("group contains NaN or Inf")
    if not 1 <= bits <= 8:
        raise ContractViolation(f"bits must be in [1, 8], got {bits}")

    n_tokens, n_channels = group.shape
    if axis is GroupAxis.PER_CHANNEL:
        codes, mins, steps = _quantize_lines(np.ascontiguousarray(group.T), bits)
        codes = codes.T
    else:
        codes, mins, steps = _quantize_lines(group, bits)
    return QuantizedBlock(
        codes=pack_codes(codes.reshape(-1), bits),
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
    codes fill exactly ``bits`` bytes, so each run of eight is built as one
    little-endian uint64 word of which the low ``bits`` bytes are kept.
    """
    if not 1 <= bits <= 8:
        raise ContractViolation(f"bits must be in [1, 8], got {bits}")
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 1:
        raise ContractViolation("pack_codes expects a 1-D code vector")
    if codes.size == 0:
        return b""
    if codes.min() < 0 or codes.max() >= (1 << bits):
        raise ContractViolation(f"codes overflow {bits} bits")
    words = np.zeros((-(-codes.size // 8), 8), dtype=np.uint64)
    words.reshape(-1)[: codes.size] = codes
    words = (words << _word_shifts(bits)).sum(axis=1, dtype=np.uint64)
    packed = words.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :bits]
    return packed.tobytes()[: _packed_size(codes.size, bits)]


def unpack_codes(data: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`; returns int64 codes of length ``count``."""
    if not 1 <= bits <= 8:
        raise ContractViolation(f"bits must be in [1, 8], got {bits}")
    if count < 0:
        raise ContractViolation("count must be nonnegative")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    size = _packed_size(count, bits)
    if len(data) < size:
        raise ContractViolation(
            f"need {size} bytes for {count} codes, got {len(data)}"
        )
    n_words = -(-count // 8)
    stream = bytes(data[:size]).ljust(n_words * bits, b"\0")
    word_bytes = np.zeros((n_words, 8), dtype=np.uint8)
    word_bytes[:, :bits] = np.frombuffer(stream, dtype=np.uint8).reshape(n_words, bits)
    words = word_bytes.view("<u8")
    codes = (words >> _word_shifts(bits)) & np.uint64((1 << bits) - 1)
    return codes.reshape(-1)[:count].astype(np.int64)


def _word_shifts(bits: int) -> np.ndarray:
    # Offset of each of a word's eight codes.
    return np.arange(0, 8 * bits, bits, dtype=np.uint64)
