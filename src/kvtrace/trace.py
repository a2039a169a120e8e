"""Trace file I/O and the synthetic outlier-channel trace generator.

File format (magic ``KVTRACE1``): an 8-byte magic, four little-endian
uint32 header fields (n_layers, n_heads, head_dim, seq_len), then for each
layer (major) and head (minor) the Q, K, V matrices in that order, each
seq_len x head_dim of row-major little-endian float32. Round trips are
bit-exact.

The synthetic generator plants the pathology this library is built to
measure: designated key channels carry uniform values in [mu - sigma,
mu + sigma] except for ``m`` low-magnitude token rows drawn from
[eps, delta], which stretch the channel's min-max range and inflate the
quantization step for every other token. Queries carry magnitude
``q_scale`` in those channels (negative sign, so attention mass flows to
the low-magnitude tokens, the way high-weight sink tokens behave), and all
other channels are unit-scale Gaussian noise.

Generation is pure given a seed; file operations are single-threaded per
file.
"""

from __future__ import annotations

import io
import math
import os
import stat
import struct
from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractViolation, TraceFormatError, check_integer

MAGIC = b"KVTRACE1"
_HEADER = struct.Struct("<4I")
_HEADER_END = len(MAGIC) + _HEADER.size
_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class TraceHeader:
    n_layers: int
    n_heads: int
    head_dim: int
    seq_len: int

    def __post_init__(self):
        for field in fields(self):
            v = check_integer(getattr(self, field.name), field.name)
            if not 1 <= v <= 0xFFFFFFFF:
                raise ContractViolation(f"{field.name} must be in [1, 2**32), got {v}")
            # Python ints: no size or offset computed from the header can wrap.
            object.__setattr__(self, field.name, v)
        if 3 * self.seq_len * self.head_dim * 4 > np.iinfo(np.intp).max:
            raise ContractViolation(f"a 3 x {self.seq_len} x {self.head_dim} float32 block is too large to address")


def _check_block(h: TraceHeader, layer: int, head: int) -> None:
    # The one range check of a block read, for both kinds of trace.
    if not (0 <= layer < h.n_layers and 0 <= head < h.n_heads):
        raise ContractViolation(
            f"block ({layer}, {head}) out of range for {h.n_layers} layers x {h.n_heads} heads"
        )


@dataclass(frozen=True)
class TraceFile:
    """A KVTRACE1 file whose header and size are checked, read one block at a time.

    Each :meth:`block` call opens ``path`` again and reads that (layer,
    head)'s contiguous Q/K/V bytes, so the object holds no payload and no
    open file. A pipe cannot be read twice, so its bytes are kept in
    ``data`` and blocks are read from them.
    """

    header: TraceHeader
    path: object
    data: bytes | None = None

    def block(self, layer: int, head: int) -> np.ndarray:
        """A fresh (3, seq_len, head_dim) float32 array: one (layer, head)'s Q, K and V.

        A file that shrank or can no longer be opened since :func:`read_trace`
        raises :class:`TraceFormatError` at the byte offset that failed.
        """
        h = self.header
        _check_block(h, layer, head)
        out = np.empty((3, h.seq_len, h.head_dim), dtype="<f4")
        offset = _HEADER_END + (layer * h.n_heads + head) * out.nbytes
        try:
            with open(self.path, "rb") if self.data is None else io.BytesIO(self.data) as f:
                f.seek(offset)
                got = f.readinto(out)
        except OSError as exc:
            reason = exc.strerror or exc
            raise TraceFormatError(f"block ({layer}, {head}) unreadable: {reason}", offset=offset) from None
        if got != out.nbytes:
            raise TraceFormatError("truncated file: payload incomplete", offset=offset + got)
        return out


def write_trace(path, trace: TraceFile | SyntheticTrace) -> None:
    """Serialize a trace to ``path`` in the KVTRACE1 format, one block at a time."""
    h = trace.header
    f = open(path, "wb")
    try:
        with f:
            f.write(MAGIC)
            f.write(_HEADER.pack(h.n_layers, h.n_heads, h.head_dim, h.seq_len))
            for layer in range(h.n_layers):
                for head in range(h.n_heads):
                    f.write(trace.block(layer, head))
    except BaseException:
        # Leave no partial trace, but keep a link or device such as /dev/stdout.
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)
        raise


def read_trace(path) -> TraceFile:
    """Check a KVTRACE1 file's magic, header and size, reading no payload.

    Damage raises :class:`TraceFormatError` here, before any block is read.
    So does a path that cannot be opened or read, at offset 0. The returned
    :class:`TraceFile` reads blocks on demand, so a replay holds one block
    of the payload, not all of them.
    """
    try:
        with open(path, "rb") as f:
            info = os.fstat(f.fileno())
            if stat.S_ISREG(info.st_mode):
                return TraceFile(_read_header(f, info.st_size), path)
            # A pipe has no size up front and cannot be reread: keep it whole.
            data = f.read()
    except OSError as exc:
        raise TraceFormatError(f"{path} unreadable: {exc.strerror or exc}", offset=0) from None
    return TraceFile(_read_header(io.BytesIO(data), len(data)), path, data)


def _read_header(f, size: int) -> TraceHeader:
    # Reads only the magic and the four header fields from ``f``.
    prefix = f.read(_HEADER_END)
    if len(prefix) < len(MAGIC):
        raise TraceFormatError("truncated file: magic missing", offset=len(prefix))
    if prefix[: len(MAGIC)] != MAGIC:
        raise TraceFormatError("bad magic", offset=0)
    if len(prefix) < _HEADER_END:
        raise TraceFormatError("truncated file: header incomplete", offset=len(prefix))
    dims = _HEADER.unpack(prefix[len(MAGIC) :])
    for field, v in zip(fields(TraceHeader), dims):
        if v < 1:
            raise TraceFormatError(f"{field.name} must be >= 1, got {v}", offset=len(MAGIC))
    n_layers, n_heads, head_dim, seq_len = dims

    expected = _HEADER_END + n_layers * n_heads * 3 * seq_len * head_dim * 4
    if size < expected:
        raise TraceFormatError("truncated file: payload incomplete", offset=size)
    if size > expected:
        raise TraceFormatError("trailing bytes after payload", offset=expected)
    return TraceHeader(*dims)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the planted outlier-channel model.

    ``mu``/``sigma`` set the uniform band of the outlier channels, ``eps``
    and ``delta`` bound the ``m`` planted low-magnitude tokens, and
    ``q_scale`` is the query magnitude in outlier channels. Defaults are
    sized so the planted tokens are unambiguously the lowest-L1 rows while
    the rest of the channel stays well above the noise floor.
    """

    mu: float = 40.0
    sigma: float = 16.0
    eps: float = 0.01
    delta: float = 4.0
    m: int = 3
    outlier_channels: int = 1
    q_scale: float = 0.45
    seed: int = 0

    def __post_init__(self):
        # The trace is float32, so "finite" means finite in float32; a NaN
        # fails the comparison too.
        for name in ("mu", "sigma", "q_scale"):
            value = getattr(self, name)
            if not abs(value) <= _FLOAT32_MAX:
                raise ContractViolation(f"{name} must be finite in float32, got {value}")
        if self.sigma < 0:
            raise ContractViolation(f"sigma must be >= 0, got {self.sigma}")
        if not 0 < self.eps <= self.delta < self.mu - self.sigma:
            raise ContractViolation(
                "need 0 < eps <= delta < mu - sigma, got "
                f"eps={self.eps}, delta={self.delta}, mu-sigma={self.mu - self.sigma}"
            )
        if self.mu + self.sigma > _FLOAT32_MAX:
            raise ContractViolation(f"mu + sigma must be finite in float32, got {self.mu + self.sigma}")
        for name in ("m", "outlier_channels", "seed"):
            check_integer(getattr(self, name), name)
        if self.m < 0 or self.outlier_channels < 0:
            raise ContractViolation("m and outlier_channels must be >= 0")
        if self.q_scale < 0:
            raise ContractViolation("q_scale must be >= 0")
        if self.seed < 0:
            raise ContractViolation("seed must be >= 0")


def _draw_block(spec: SyntheticSpec, h: TraceHeader, layer: int, head: int) -> tuple[np.ndarray, np.ndarray]:
    # The one copy of the draw order: a (3, T, d) Q/K/V block whose ``m`` planted rows
    # are low in every outlier key channel, and those rows, from the (layer, head)'s
    # own stream SeedSequence(entropy=root seed, spawn_key=(layer, head)).
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(layer, head)))
    out = np.empty((3, h.seq_len, h.head_dim), dtype="<f4")
    # Each draw goes straight into the float32 block and is rounded once.
    q, k, v = out
    k[:] = rng.standard_normal((h.seq_len, h.head_dim))
    for c in range(spec.outlier_channels):
        k[:, c] = rng.uniform(spec.mu - spec.sigma, spec.mu + spec.sigma, h.seq_len)
    planted = np.zeros(0, dtype=np.int64)
    if spec.m > 0 and spec.outlier_channels > 0:
        planted = rng.choice(h.seq_len, size=spec.m, replace=False)
        for c in range(spec.outlier_channels):
            k[planted, c] = rng.uniform(spec.eps, spec.delta, spec.m)
    q[:] = rng.standard_normal((h.seq_len, h.head_dim))
    q[:, : spec.outlier_channels] = -spec.q_scale
    v[:] = rng.standard_normal((h.seq_len, h.head_dim))
    return out, planted


@dataclass(frozen=True)
class SyntheticTrace:
    """A synthetic trace under ``spec`` that holds no payload: :meth:`block` draws each block."""

    header: TraceHeader
    spec: SyntheticSpec

    def __post_init__(self):
        if self.spec.outlier_channels > self.header.head_dim:
            raise ContractViolation("more outlier channels than head_dim")
        if self.spec.m * 10 > self.header.seq_len:
            raise ContractViolation(f"m={self.spec.m} too large for seq_len={self.header.seq_len} (m <= seq_len/10)")

    def block(self, layer: int, head: int) -> np.ndarray:
        """A fresh (3, seq_len, head_dim) float32 array: one (layer, head)'s Q, K and V."""
        _check_block(self.header, layer, head)
        return _draw_block(self.spec, self.header, layer, head)[0]

    def planted(self, layer: int, head: int) -> np.ndarray:
        """The sorted token rows planted low in one (layer, head)'s outlier key channels."""
        _check_block(self.header, layer, head)
        return np.sort(_draw_block(self.spec, self.header, layer, head)[1])


def generate_synthetic(
    spec: SyntheticSpec,
    n_layers: int,
    n_heads: int,
    head_dim: int,
    seq_len: int,
) -> SyntheticTrace:
    """The :class:`SyntheticTrace` of this shape under ``spec``; the benchmark's set-up calls it."""
    return SyntheticTrace(TraceHeader(n_layers, n_heads, head_dim, seq_len), spec)


def decile_stats(column) -> np.ndarray:
    """Percent of values per decile of [min, max] for one channel column.

    The ten percentages sum to 100 (within float error) and the maximum
    value lands in the top decile. The quantizer's domain test applies: a
    column holding NaN or Inf, or whose range overflows float64, is
    rejected, and so is a constant column, which has no deciles.
    """
    col = np.asarray(column, dtype=np.float64)
    if col.ndim != 1 or col.size == 0:
        raise ContractViolation("decile_stats expects a non-empty 1-D column")
    # In Python floats ``hi - lo`` overflows, or meets a NaN or Inf, with no warning.
    lo, hi = float(col.min()), float(col.max())
    if not math.isfinite(hi - lo):
        raise ContractViolation("decile_stats input contains NaN or Inf, or its range overflows float64")
    if lo == hi:
        raise ContractViolation("constant column has no decile structure")
    counts, _ = np.histogram(col, bins=10, range=(lo, hi))
    return counts / col.size * 100.0
