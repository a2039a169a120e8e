"""Per-(layer, head) tiered KV cache.

Three tiers hold every token exactly once:

  * quantized store: consecutive groups of ``group_size`` tokens, keys
    quantized per channel and values per token;
  * pending buffer: full-precision rows not yet quantized, covering both
    the group being filled and the ``residual`` most recent tokens;
  * outlier pool: full-precision rows of pooled outlier tokens, which are
    additionally shadowed in the quantized store by their mean-substituted
    rows (attention resolves the duplication by overwriting their rows).

Appending the token that brings the pending count to ``group_size +
residual`` quantizes the oldest ``group_size`` pending rows, so the newest
``residual`` tokens are always full precision. ``append`` adds one token;
``extend`` adds an (n, d) chunk, checked once, and copies it in slices
that end exactly where per-token appends would quantize, so a cache fed
in chunks is bit-identical to one fed token by token. A rejected row or
chunk leaves the cache unchanged. Until its first group is quantized, a
cache is lossless: every row it was fed is pending at full precision.

Rows live in one float32 buffer each for K and V. Until attention first
reads the cache, the buffer holds only the pending rows (at most
``group_size + residual``, compacted after each quantization), so a cache
that is only written keeps that small, fixed footprint. The first
``attended_kv`` call makes the buffer dense: row i holds position i, every
block is dequantized into it once, and pooled positions hold the pool's
full-precision rows. From then on each quantization writes its block's
dequantized rows in place, restores the shadow row of every token the pool
evicted, and rewrites the pool rows; the buffer grows geometrically.

Each cache is single-writer; distinct (layer, head) caches are independent
and may be driven in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .outlier import OutlierPool, score_tokens, substitute_means
from .quant import quantize_keys_channelwise, quantize_values_tokenwise

# Bits accounted per stored value in the fp16-equivalent memory model.
# Parameters are held as wider floats in memory but deployed as fp16.
FP16_BITS = 16


@dataclass(frozen=True)
class EngineConfig:
    """Quantization engine settings.

    Defaults reproduce the reference setting: 2-bit codes, groups of 128,
    a 32-token residual window, 3 pooled outlier tokens per (layer, head)
    with pooling disabled on layers 0 and 1, and a 32-entry auxiliary pool.
    """

    bits: int = 2
    group_size: int = 128
    residual: int = 32
    outlier_num: int = 3
    skip_layers: tuple[int, ...] = (0, 1)
    aux_capacity: int = 32
    head_dim: int = 64

    def __post_init__(self):
        if not 1 <= self.bits <= 8:
            raise ContractViolation(f"bits must be in [1, 8], got {self.bits}")
        if self.group_size < 1:
            raise ContractViolation("group_size must be >= 1")
        if self.residual < 0 or self.outlier_num < 0 or self.aux_capacity < 0:
            raise ContractViolation("residual, outlier_num, aux_capacity must be >= 0")
        if self.head_dim < 1:
            raise ContractViolation("head_dim must be >= 1")

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


def _check_finite(rows: np.ndarray) -> None:
    # A float64 sum of float32 values cannot overflow, so it is finite
    # exactly when every value is: NaN and infinities carry through it.
    if not math.isfinite(np.add.reduce(rows, axis=None, dtype=np.float64)):
        raise ContractViolation("rows contain NaN or Inf")


def _doubled(buf: np.ndarray) -> np.ndarray:
    grown = np.empty((2 * buf.shape[0], buf.shape[1]), dtype=buf.dtype)
    grown[: buf.shape[0]] = buf
    return grown


class TieredCache:
    """Streaming KV cache for a single (layer, head) pair."""

    def __init__(self, config: EngineConfig, layer: int = 0):
        self.config = config
        self.layer = layer
        self.pool = OutlierPool(
            capacity=config.outlier_capacity(layer),
            aux_capacity=config.aux_capacity,
            head_dim=config.head_dim,
        )
        self.quantized_k: list = []
        self.quantized_v: list = []
        self.substituted_positions: set[int] = set()
        self.total_tokens = 0
        self.quantized_tokens = 0
        # Pending count at which the oldest group is quantized.
        self._trigger = config.group_size + config.residual
        self._k = np.empty((self._trigger, config.head_dim), dtype=np.float32)
        self._v = np.empty((self._trigger, config.head_dim), dtype=np.float32)
        self._pair = np.empty((2, config.head_dim), dtype=np.float32)
        self._pending_count = 0
        self._dense = False

    @property
    def _pending_start(self) -> int:
        # Buffer row of the oldest pending token; once dense, row i holds position i.
        return self.quantized_tokens if self._dense else 0

    @property
    def pending_rows(self) -> int:
        return self._pending_count

    @property
    def pending_k(self) -> np.ndarray:
        """Full-precision pending keys (view; do not mutate)."""
        return self._k[self._pending_start : self._pending_start + self._pending_count]

    @property
    def pending_v(self) -> np.ndarray:
        return self._v[self._pending_start : self._pending_start + self._pending_count]

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
        self._store(k_row, v_row, 1)

    def extend(self, k_rows, v_rows) -> None:
        """Add an (n, d) chunk of key/value rows exactly as n appends would.

        The chunk is checked once, up front, so a bad chunk raises before
        any row is stored. Rows are copied in slices that each end where
        a per-row append would quantize a group.
        """
        k_rows = np.asarray(k_rows, dtype=np.float32)
        v_rows = np.asarray(v_rows, dtype=np.float32)
        d = self.config.head_dim
        if k_rows.ndim != 2 or k_rows.shape[1] != d or v_rows.shape != k_rows.shape:
            raise ContractViolation(f"chunks must be matching (n, {d}) matrices")
        _check_finite(k_rows)
        _check_finite(v_rows)
        done = 0
        while done < len(k_rows):
            take = min(len(k_rows) - done, self._trigger - self._pending_count)
            self._store(k_rows[done : done + take], v_rows[done : done + take], take)
            done += take

    def _store(self, k_rows, v_rows, n: int) -> None:
        # The one writer: copies n checked rows (a (d,) row when n is 1)
        # that do not run past the next trigger, then quantizes if due.
        row = self._pending_start + self._pending_count
        while row + n > len(self._k):
            self._k = _doubled(self._k)  # one side at a time: one old buffer alive
            self._v = _doubled(self._v)
        self._k[row : row + n] = k_rows
        self._v[row : row + n] = v_rows
        self._pending_count += n
        self.total_tokens += n
        if self._pending_count >= self._trigger:
            self.quantize_oldest_group()

    def attended_kv(self) -> tuple[np.ndarray, np.ndarray]:
        """The (total_tokens, d) keys and values attention reads.

        Quantized positions hold dequantized rows, pooled positions the
        pool's full-precision rows, pending positions their exact rows.
        The first call converts the buffer to the dense layout; the views
        are valid until the next append and must not be mutated.
        """
        if not self._dense:
            self._make_dense()
        n = self.total_tokens
        return self._k[:n], self._v[:n]

    def quantize_oldest_group(self) -> None:
        """Quantize the oldest ``group_size`` pending rows into the store.

        When this layer pools outliers and the pool is not frozen, the
        group's tokens first compete for pool slots; winners keep their
        full-precision rows in the pool and are mean-substituted in the
        group before quantization.
        """
        g = self.config.group_size
        if self._pending_count < g:
            raise ContractViolation(
                f"need {g} pending rows to quantize, have {self._pending_count}"
            )
        base = self.quantized_tokens
        start = self._pending_start
        group_k = self._k[start : start + g].copy()
        group_v = self._v[start : start + g].copy()

        evicted = ()
        if self.pool.capacity > 0 and not self.pool.frozen:
            # Positional: perfbench's tracer counts candidates as len(args[1]).
            selected, evicted = self.pool.update(
                np.arange(base, base + g), score_tokens(group_k), group_k, group_v
            )
            if selected.size:
                group_k, group_v = substitute_means(group_k, group_v, selected - base)
                self.substituted_positions.update(selected.tolist())

        block_k = quantize_keys_channelwise(group_k, self.config.bits)
        block_v = quantize_values_tokenwise(group_v, self.config.bits)
        self.quantized_k.append(block_k)
        self.quantized_v.append(block_v)
        self.quantized_tokens += g
        self._pending_count -= g

        if self._dense:
            self._k[base : base + g] = block_k.to_matrix()
            self._v[base : base + g] = block_v.to_matrix()
            for position in evicted:
                block, row = divmod(position, g)
                self._k[position] = self.quantized_k[block].to_matrix()[row]
                self._v[position] = self.quantized_v[block].to_matrix()[row]
            self._write_pool_rows()
        else:
            remaining = self._pending_count
            self._k[:remaining] = self._k[g : g + remaining]
            self._v[:remaining] = self._v[g : g + remaining]

    def _make_dense(self) -> None:
        g = self.config.group_size
        shape = (max(1, self.total_tokens), self.config.head_dim)
        k = np.empty(shape, dtype=np.float32)
        v = np.empty(shape, dtype=np.float32)
        for i, (block_k, block_v) in enumerate(zip(self.quantized_k, self.quantized_v)):
            k[i * g : (i + 1) * g] = block_k.to_matrix()
            v[i * g : (i + 1) * g] = block_v.to_matrix()
        k[self.quantized_tokens : self.total_tokens] = self.pending_k
        v[self.quantized_tokens : self.total_tokens] = self.pending_v
        self._k, self._v = k, v
        self._dense = True
        self._write_pool_rows()

    def _write_pool_rows(self) -> None:
        self._k[self.pool.positions] = self.pool.keys
        self._v[self.pool.positions] = self.pool.values

    def memory_usage(self) -> MemoryBreakdown:
        """Current footprint under fp16-equivalent accounting.

        Closed form from the tier sizes: each quantized group of G tokens
        has d key lines (per channel) and G value lines (per token).
        """
        d = self.config.head_dim
        groups = self.quantized_tokens // self.config.group_size
        pool_rows = self.pool.positions.size + self.pool.aux_positions.size
        return MemoryBreakdown(
            quantized_bits=2 * self.quantized_tokens * d * self.config.bits,
            param_bits=groups * (d + self.config.group_size) * 2 * FP16_BITS,
            pending_bits=self._pending_count * d * FP16_BITS * 2,
            pool_bits=pool_rows * d * FP16_BITS * 2,
        )
