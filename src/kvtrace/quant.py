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
exactly as ``dequantize`` computes it. Group variants quantize keys per
channel (one parameter line per column) and values per token (one line
per row).

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import enum
import math
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


def _line_params(x: np.ndarray, bits: int) -> QuantParams:
    """Quantization parameters for a 1-D float64 line."""
    x_min = float(x.min())
    x_max = float(x.max())
    levels = (1 << bits) - 1
    step = (x_max - x_min) / levels
    # Guard float round-off: nudge step down until the top code reconstructs
    # at or below x_max, so x_max gets the top level and the one-sided error
    # bound holds at the extremes.
    while step > 0 and x_min + levels * step > x_max:
        step = math.nextafter(step, 0.0)
    return QuantParams(x_min=x_min, step=step, bits=bits)


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

    params = _line_params(x, bits)
    levels = (1 << bits) - 1
    if params.step == 0.0:
        return np.zeros(x.size, dtype=np.int64), params
    step = params.step
    while True:
        # Each code is the highest level whose reconstruction, computed with
        # the float64 operations of ``dequantize``, is <= x; so the error is
        # >= 0 exactly, and lattice-aligned inputs reconstruct exactly.
        lattice = np.arange(levels + 1) * step + params.x_min
        codes = np.searchsorted(lattice, x, side="right") - 1
        excess = float((x - lattice[codes]).max()) - step
        # excess > 0: round-off made a lattice cell wider than step (by a few
        # ulps of the levels), so some x has no code within the bound.
        # Shrinking step by the excess narrows the cells; the top level only
        # moves down, so it stays <= x_max. An excess of a whole step means
        # the line spans too few float64 values for any step to meet the
        # bound (never the case for float32 data), so stop there.
        if not 0.0 < excess < step:
            return codes, QuantParams(x_min=params.x_min, step=step, bits=bits)
        step = min(math.nextafter(step, 0.0), step - excess)


def dequantize(codes, params: QuantParams) -> np.ndarray:
    """Reconstruct ``codes * step + x_min`` as float64."""
    codes = np.asarray(codes, dtype=np.int64)
    levels = (1 << params.bits) - 1
    if codes.size and (codes.min() < 0 or codes.max() > levels):
        raise ContractViolation(f"codes out of range for {params.bits}-bit params")
    return codes * params.step + params.x_min


@dataclass
class QuantizedBlock:
    """Bit-packed codes plus per-line parameters for one group of tokens.

    Codes are packed little-endian within bytes, in row-major element
    order. ``params`` holds one line per channel (PER_CHANNEL) or one per
    token row (PER_TOKEN).
    """

    codes: bytes
    group_axis: GroupAxis
    params: list[QuantParams]
    n_tokens: int
    n_channels: int
    bits: int

    def __post_init__(self):
        expected = self.n_channels if self.group_axis is GroupAxis.PER_CHANNEL else self.n_tokens
        if len(self.params) != expected:
            raise ContractViolation(
                f"expected {expected} parameter lines, got {len(self.params)}"
            )
        if len(self.codes) != _packed_size(self.n_tokens * self.n_channels, self.bits):
            raise ContractViolation("packed code length does not match block shape")

    @property
    def code_bits(self) -> int:
        """Payload bits in the fp16-equivalent memory model."""
        return self.n_tokens * self.n_channels * self.bits

    @property
    def param_bits(self) -> int:
        """Two stored values, accounted 16 bits each, per parameter line."""
        return len(self.params) * 2 * FP16_BITS

    def code_matrix(self) -> np.ndarray:
        """Unpacked integer codes, shape (n_tokens, n_channels)."""
        flat = unpack_codes(self.codes, self.bits, self.n_tokens * self.n_channels)
        return flat.reshape(self.n_tokens, self.n_channels)

    def to_matrix(self) -> np.ndarray:
        """Dequantize to a float32 (n_tokens, n_channels) matrix."""
        codes = self.code_matrix().astype(np.float64)
        steps = np.array([p.step for p in self.params])
        mins = np.array([p.x_min for p in self.params])
        if self.group_axis is GroupAxis.PER_CHANNEL:
            out = codes * steps[None, :] + mins[None, :]
        else:
            out = codes * steps[:, None] + mins[:, None]
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

    n_tokens, n_channels = group.shape
    lines = group.T if axis is GroupAxis.PER_CHANNEL else group
    codes = np.empty((lines.shape[0], lines.shape[1]), dtype=np.int64)
    params: list[QuantParams] = []
    for i, line in enumerate(lines):
        codes[i], p = quantize_uniform(line, bits)
        params.append(p)
    if axis is GroupAxis.PER_CHANNEL:
        codes = codes.T
    return QuantizedBlock(
        codes=pack_codes(codes.reshape(-1), bits),
        group_axis=axis,
        params=params,
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
    """Pack integer codes at ``bits`` bits each, little-endian within bytes."""
    if not 1 <= bits <= 8:
        raise ContractViolation(f"bits must be in [1, 8], got {bits}")
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 1:
        raise ContractViolation("pack_codes expects a 1-D code vector")
    if codes.size == 0:
        return b""
    if codes.min() < 0 or codes.max() >= (1 << bits):
        raise ContractViolation(f"codes overflow {bits} bits")
    u8 = codes.astype(np.uint8)
    # One bit column per code bit, LSB first; the flattened stream is then
    # packed so bit i of the stream lands in bit (i % 8) of byte (i // 8).
    bit_cols = (u8[:, None] >> np.arange(bits, dtype=np.uint8)) & 1
    return np.packbits(bit_cols.reshape(-1), bitorder="little").tobytes()


def unpack_codes(data: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`; returns int64 codes of length ``count``."""
    if not 1 <= bits <= 8:
        raise ContractViolation(f"bits must be in [1, 8], got {bits}")
    if count < 0:
        raise ContractViolation("count must be nonnegative")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if len(data) < _packed_size(count, bits):
        raise ContractViolation(
            f"need {_packed_size(count, bits)} bytes for {count} codes, got {len(data)}"
        )
    stream = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    bit_cols = stream[: count * bits].reshape(count, bits).astype(np.int64)
    return bit_cols @ (1 << np.arange(bits, dtype=np.int64))
