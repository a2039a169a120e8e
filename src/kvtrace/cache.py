"""Per-(layer, head) tiered KV cache.

Three tiers hold every token exactly once:

  * quantized groups: consecutive groups of ``group_size`` tokens, keys
    quantized per channel and values per token, held as dequantized rows;
  * pending buffer: full-precision rows not yet quantized, covering both
    the group being filled and the ``residual`` most recent tokens;
  * outlier pool: pooled outlier tokens, ranked by ``OutlierPool``, whose
    full-precision rows the buffer keeps; the cache also keeps each
    member's shadow rows (its mean-substituted, dequantized block rows)
    until the pool evicts it.

Appending the token that brings the pending count to ``group_size +
residual`` quantizes the oldest ``group_size`` pending rows, so the newest
``residual`` tokens are always full precision. A rejected row leaves the
cache unchanged. Until its first group is quantized, a cache is lossless:
every row it was fed is pending at full precision.

Rows live in one float32 buffer each for K and V, in which row i holds
position i from construction; it starts at ``group_size + residual`` rows
and doubles as needed. Each quantization writes its block's dequantized
rows in place, restores the shadow rows of every token the pool evicted,
and writes back the exact rows of the tokens it newly pooled, so attention
reads the buffer as it stands. No quantized block outlives its write.

Each cache is single-writer; distinct (layer, head) caches are independent
and may be driven in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, check_integer
from .outlier import OutlierPool, score_tokens, substitute_means
from .quant import _check_bits, quantize_keys_channelwise, quantize_values_tokenwise

# Bits accounted per stored value in the fp16-equivalent memory model.
# Parameters are held as wider floats in memory but deployed as fp16.
FP16_BITS = 16


@dataclass(frozen=True)
class EngineConfig:
    """Quantization engine settings; the field defaults are the reference setting.

    The CLI's engine flags take their defaults from these fields, so each
    subcommand's ``--help`` shows them.
    """

    bits: int = 2
    group_size: int = 128
    residual: int = 32
    outlier_num: int = 3
    skip_layers: tuple[int, ...] = (0, 1)
    aux_capacity: int = 32
    head_dim: int = 64

    def __post_init__(self):
        _check_bits(self.bits)
        for name in ("group_size", "residual", "outlier_num", "aux_capacity", "head_dim"):
            check_integer(getattr(self, name), name)
        # A tuple of ints, like TraceHeader's fields: the frozen config stays hashable.
        skip = tuple(check_integer(layer, "skip_layers entry") for layer in self.skip_layers)
        object.__setattr__(self, "skip_layers", skip)
        if self.group_size < 1:
            raise ContractViolation("group_size must be >= 1")
        if min(self.residual, self.outlier_num, self.aux_capacity, *skip) < 0:
            raise ContractViolation("residual, outlier_num, aux_capacity and skip_layers entries must be >= 0")
        if self.head_dim < 1:
            raise ContractViolation("head_dim must be >= 1")
        # A cache's first buffers: G + R rows, and two for an appended pair.
        rows = max(2, self.group_size + self.residual)
        if rows * self.head_dim * 4 > np.iinfo(np.intp).max:
            raise ContractViolation(f"a {rows} x {self.head_dim} float32 buffer is too large to address")

    def outlier_capacity(self, layer: int) -> int:
        """Pool capacity for one layer (0 on skipped layers)."""
        return 0 if layer in self.skip_layers else self.outlier_num


@dataclass(frozen=True)
class MemoryBreakdown:
    """Cache footprint in bits under fp16-equivalent accounting.

    Quantized codes count at their code width, parameter lines at 2x16
    bits, and full-precision rows (pending buffer and outlier/aux pool) at
    16 bits per value.
    """

    quantized_bits: int
    param_bits: int
    pending_bits: int
    pool_bits: int

    @property
    def total_bits(self) -> int:
        return self.quantized_bits + self.param_bits + self.pending_bits + self.pool_bits

    @classmethod
    def of(cls, config: EngineConfig, quantized_tokens: int, pending_rows: int, pool: OutlierPool):
        """Closed form from the tier sizes: the one copy of the memory model.

        Each quantized group of G tokens has d key lines (per channel) and
        G value lines (per token); the pool is charged one row per member
        and per auxiliary position.
        """
        d = config.head_dim
        pool_rows = pool.positions.size + pool.aux_positions.size
        return cls(
            quantized_bits=2 * quantized_tokens * d * config.bits,
            param_bits=quantized_tokens // config.group_size * (d + config.group_size) * 2 * FP16_BITS,
            pending_bits=pending_rows * d * FP16_BITS * 2,
            pool_bits=pool_rows * d * FP16_BITS * 2,
        )


def _check_finite(rows: np.ndarray) -> None:
    # A float64 sum of float32 values cannot overflow, so it is finite
    # exactly when every value is: NaN and infinities carry through it.
    if not math.isfinite(np.add.reduce(rows, axis=None, dtype=np.float64)):
        raise ContractViolation("rows contain NaN or Inf")


def dequantized_group(group_k, group_v, excluded, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """A group's float32 K and V rows as attention reads them once quantized.

    The exclusion rule: mean-substitute the ``excluded`` rows (group indices), quantize
    keys per channel and values per token. An excluded row comes back as its shadow row.
    """
    group_k, group_v = substitute_means(group_k, group_v, excluded)
    return (quantize_keys_channelwise(group_k, bits).to_matrix(),
            quantize_values_tokenwise(group_v, bits).to_matrix())


def _doubled(buf: np.ndarray) -> np.ndarray:
    grown = np.empty((2 * buf.shape[0], buf.shape[1]), dtype=buf.dtype)
    grown[: buf.shape[0]] = buf
    return grown


class TieredCache:
    """Streaming KV cache for a single (layer, head) pair."""

    def __init__(self, config: EngineConfig, layer: int = 0):
        self.config = config
        self.pool = OutlierPool(config.outlier_capacity(layer), config.aux_capacity)
        self.total_tokens = 0
        self.quantized_tokens = 0
        # Pending count at which the oldest group is quantized.
        self._trigger = config.group_size + config.residual
        self._k = np.empty((self._trigger, config.head_dim), dtype=np.float32)
        self._v = np.empty((self._trigger, config.head_dim), dtype=np.float32)
        self._pair = np.empty((2, config.head_dim), dtype=np.float32)
        self._shadows: dict = {}  # pool member position -> its (K, V) shadow rows

    @property
    def pending_rows(self) -> int:
        return self.total_tokens - self.quantized_tokens

    def append(self, k_row, v_row) -> None:
        """Add one token's key/value rows, quantizing a group when due."""
        k_row = np.asarray(k_row, dtype=np.float32)
        v_row = np.asarray(v_row, dtype=np.float32)
        d = self.config.head_dim
        if k_row.shape != (d,) or v_row.shape != (d,):
            raise ContractViolation(f"rows must have shape ({d},)")
        # Side by side, one sum checks both rows: a float64 reduction
        # costs more than the two copies it saves.
        self._pair[0] = k_row
        self._pair[1] = v_row
        _check_finite(self._pair)
        row = self.total_tokens
        if row == len(self._k):
            self._k = _doubled(self._k)  # one side at a time: one old buffer alive
            self._v = _doubled(self._v)
        self._k[row] = k_row
        self._v[row] = v_row
        self.total_tokens += 1
        if self.total_tokens - self.quantized_tokens >= self._trigger:
            self.quantize_oldest_group()

    def attended_kv(self) -> tuple[np.ndarray, np.ndarray]:
        """The (total_tokens, d) keys and values attention reads.

        Quantized positions hold dequantized rows, pooled and pending
        positions the exact rows they were fed.
        The views are valid until the next append and must not be mutated.
        """
        n = self.total_tokens
        return self._k[:n], self._v[:n]

    def quantize_oldest_group(self) -> None:
        """Quantize the oldest ``group_size`` pending rows in place.

        Unless the pool is frozen (no capacity on this layer, or a full aux
        list), the group's tokens first compete for pool slots; the group is
        written with the winners excluded (``dequantized_group``), and they
        keep their exact rows; a member the pool evicts gets its shadow rows back.
        """
        g = self.config.group_size
        if self.pending_rows < g:
            raise ContractViolation(f"need {g} pending rows to quantize, have {self.pending_rows}")
        base = self.quantized_tokens
        group_k, group_v = self._k[base : base + g], self._v[base : base + g]

        selected = evicted = np.empty(0, dtype=np.int64)
        if not self.pool.frozen:
            # Positional: perfbench's tracer counts candidates as len(args[1]).
            selected, evicted = self.pool.update(score_tokens(group_k), base)

        # The winners' exact rows, before the block's rows overwrite them.
        pooled_k, pooled_v = self._k[selected], self._v[selected]
        self._k[base : base + g], self._v[base : base + g] = dequantized_group(
            group_k, group_v, selected - base, self.config.bits)
        self.quantized_tokens += g
        for position in evicted:
            self._k[position], self._v[position] = self._shadows.pop(position)
        # The winners' shadow rows are their block rows, until their exact rows go back.
        self._shadows.update(zip(selected, zip(self._k[selected], self._v[selected])))
        self._k[selected], self._v[selected] = pooled_k, pooled_v

    def memory_usage(self) -> MemoryBreakdown:
        """Current footprint under fp16-equivalent accounting (``MemoryBreakdown.of``)."""
        return MemoryBreakdown.of(self.config, self.quantized_tokens, self.pending_rows, self.pool)
