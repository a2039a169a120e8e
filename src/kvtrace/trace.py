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
import os
import stat
import struct
from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractViolation, DegenerateColumnError, TraceFormatError

MAGIC = b"KVTRACE1"
_HEADER = struct.Struct("<4I")


@dataclass(frozen=True)
class TraceHeader:
    n_layers: int
    n_heads: int
    head_dim: int
    seq_len: int

    def __post_init__(self):
        for field in fields(self):
            v = getattr(self, field.name)
            if not 1 <= v <= 0xFFFFFFFF:
                raise ContractViolation(f"{field.name} must be in [1, 2**32), got {v}")


@dataclass
class Trace:
    """In-memory trace: Q/K/V arrays of shape (layers, heads, seq, dim)."""

    header: TraceHeader
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        h = self.header
        shape = (h.n_layers, h.n_heads, h.seq_len, h.head_dim)
        for name in ("q", "k", "v"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float32)
            if arr.shape != shape:
                raise ContractViolation(f"{name} must have shape {shape}, got {arr.shape}")
            setattr(self, name, arr)


def write_trace(path, trace: Trace) -> None:
    """Serialize a trace to ``path`` in the KVTRACE1 format."""
    h = trace.header
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(_HEADER.pack(h.n_layers, h.n_heads, h.head_dim, h.seq_len))
        for layer in range(h.n_layers):
            # One layer as (heads, 3, seq_len, head_dim): per head, Q then K then V.
            f.write(np.stack((trace.q[layer], trace.k[layer], trace.v[layer]), axis=1, dtype="<f4"))


def read_trace(path) -> Trace:
    """Parse a KVTRACE1 file, raising :class:`TraceFormatError` on damage.

    Each (layer, head) Q, K and V block of a regular file is read straight
    into its place in the trace's preallocated arrays, so reading holds
    nothing besides the trace itself: no copy of the file and no converted
    copy of the arrays.
    """
    with open(path, "rb") as f:
        info = os.fstat(f.fileno())
        if stat.S_ISREG(info.st_mode):
            return _read_blocks(f, info.st_size)
        # A pipe has no size up front: read it whole, then parse from memory.
        data = f.read()
    return _read_blocks(io.BytesIO(data), len(data))


def _read_blocks(f, size: int) -> Trace:
    header_end = len(MAGIC) + _HEADER.size
    prefix = f.read(header_end)
    if len(prefix) < len(MAGIC):
        raise TraceFormatError("truncated file: magic missing", offset=len(prefix))
    if prefix[: len(MAGIC)] != MAGIC:
        raise TraceFormatError("bad magic", offset=0)
    if len(prefix) < header_end:
        raise TraceFormatError("truncated file: header incomplete", offset=len(prefix))
    dims = _HEADER.unpack(prefix[len(MAGIC) :])
    for field, v in zip(fields(TraceHeader), dims):
        if v < 1:
            raise TraceFormatError(f"{field.name} must be >= 1, got {v}", offset=len(MAGIC))
    n_layers, n_heads, head_dim, seq_len = dims

    expected = header_end + n_layers * n_heads * 3 * seq_len * head_dim * 4
    if size < expected:
        raise TraceFormatError("truncated file: payload incomplete", offset=size)
    if size > expected:
        raise TraceFormatError("trailing bytes after payload", offset=expected)

    header = TraceHeader(*dims)
    shape = (n_layers, n_heads, seq_len, head_dim)
    q, k, v = (np.empty(shape, dtype="<f4") for _ in range(3))
    offset = header_end
    for layer in range(n_layers):
        for head in range(n_heads):
            for arr in (q, k, v):
                block = arr[layer, head]
                got = f.readinto(block)
                offset += got
                # The file can shrink after its size was taken.
                if got != block.nbytes:
                    raise TraceFormatError("truncated file: payload incomplete", offset=offset)
    return Trace(header=header, q=q, k=k, v=v)


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
        if not 0 < self.eps <= self.delta < self.mu - self.sigma:
            raise ContractViolation(
                "need 0 < eps <= delta < mu - sigma, got "
                f"eps={self.eps}, delta={self.delta}, mu-sigma={self.mu - self.sigma}"
            )
        if self.m < 0 or self.outlier_channels < 0:
            raise ContractViolation("m and outlier_channels must be >= 0")
        if self.q_scale < 0:
            raise ContractViolation("q_scale must be >= 0")
        if self.seed < 0:
            raise ContractViolation("seed must be >= 0")


def _rng_for(seed: int, layer: int, head: int) -> np.random.Generator:
    # Seed-splitting rule: one root seed, one independent stream per
    # (layer, head) via SeedSequence(entropy=root, spawn_key=(layer, head)).
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(layer, head)))


def generate_synthetic(
    spec: SyntheticSpec,
    n_layers: int,
    n_heads: int,
    head_dim: int,
    seq_len: int,
) -> Trace:
    """Build a deterministic synthetic trace under ``spec``.

    The first ``spec.outlier_channels`` key channels carry the planted
    model; the same ``m`` token rows are low in every outlier channel of a
    given (layer, head). Non-outlier channels and all values are unit
    Gaussian noise.
    """
    header = TraceHeader(n_layers, n_heads, head_dim, seq_len)
    if spec.outlier_channels > head_dim:
        raise ContractViolation("more outlier channels than head_dim")
    if spec.m * 10 > seq_len:
        raise ContractViolation(f"m={spec.m} too large for seq_len={seq_len} (m <= seq_len/10)")

    shape = (n_layers, n_heads, seq_len, head_dim)
    q = np.empty(shape, dtype=np.float32)
    k = np.empty(shape, dtype=np.float32)
    v = np.empty(shape, dtype=np.float32)
    for layer in range(n_layers):
        for head in range(n_heads):
            rng = _rng_for(spec.seed, layer, head)
            kk = rng.standard_normal((seq_len, head_dim))
            for c in range(spec.outlier_channels):
                kk[:, c] = rng.uniform(spec.mu - spec.sigma, spec.mu + spec.sigma, seq_len)
            if spec.m > 0 and spec.outlier_channels > 0:
                planted = rng.choice(seq_len, size=spec.m, replace=False)
                for c in range(spec.outlier_channels):
                    kk[planted, c] = rng.uniform(spec.eps, spec.delta, spec.m)
            qq = rng.standard_normal((seq_len, head_dim))
            qq[:, : spec.outlier_channels] = -spec.q_scale
            vv = rng.standard_normal((seq_len, head_dim))
            k[layer, head] = kk
            q[layer, head] = qq
            v[layer, head] = vv
    return Trace(header=header, q=q, k=k, v=v)


def planted_positions(spec: SyntheticSpec, layer: int, head: int, seq_len: int, head_dim: int) -> np.ndarray:
    """Recompute which token rows the generator planted for one (layer, head)."""
    if spec.m == 0 or spec.outlier_channels == 0:
        return np.zeros(0, dtype=np.int64)
    rng = _rng_for(spec.seed, layer, head)
    rng.standard_normal((seq_len, head_dim))
    for _ in range(spec.outlier_channels):
        rng.uniform(spec.mu - spec.sigma, spec.mu + spec.sigma, seq_len)
    return np.sort(rng.choice(seq_len, size=spec.m, replace=False))


def decile_stats(column) -> np.ndarray:
    """Percent of values per decile of [min, max] for one channel column.

    The ten percentages sum to 100 (within float error) and the maximum
    value lands in the top decile. A constant column has no deciles and is
    rejected.
    """
    col = np.asarray(column, dtype=np.float64)
    if col.ndim != 1 or col.size == 0:
        raise ContractViolation("decile_stats expects a non-empty 1-D column")
    if not np.isfinite(col).all():
        raise ContractViolation("decile_stats input contains NaN or Inf")
    lo, hi = float(col.min()), float(col.max())
    if lo == hi:
        raise DegenerateColumnError("constant column has no decile structure")
    counts, _ = np.histogram(col, bins=10, range=(lo, hi))
    return counts / col.size * 100.0
