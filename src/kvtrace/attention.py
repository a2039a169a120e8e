"""Decode-phase attention over the cache tiers, plus the exact oracle.

``attend_full_precision`` is the reference: softmax(q . K^T / sqrt(d)) . V
in float32. ``attend_mixed`` runs the same computation in place over the
cache's row buffer (``TieredCache.attended_kv``), where every quantized
group was dequantized once when it was written and, for every pooled
outlier token, the row at its absolute position holds the pool's
full-precision copy. Overwriting (rather than appending extra positions)
keeps exactly one logit per true token, so no softmax mass is
double-counted. ``reconstructed_kv`` builds the same matrices from scratch
by dequantizing every block; it is the slow reference for tests.

The first ``attend_mixed`` on a cache converts its buffer to the dense
layout, so that call mutates the cache and must not race a writer or
another first read; later calls only read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import TieredCache
from .errors import ContractViolation


def softmax(v) -> np.ndarray:
    """Numerically stable softmax (max-subtracted) over a 1-D vector.

    The output is a probability vector: nonnegative, summing to 1 within
    1e-6, for any finite input including large magnitudes.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ContractViolation("softmax input must be a non-empty 1-D vector")
    if not np.isfinite(v).all():
        raise ContractViolation("softmax input contains NaN or Inf")
    e = np.exp(v - v.max())
    return (e / e.sum()).astype(np.float32)


@dataclass
class AttentionResult:
    """Output row plus the per-position weights and pre-softmax logits."""

    output: np.ndarray
    weights: np.ndarray
    scores: np.ndarray


def attend_full_precision(q, keys, values) -> AttentionResult:
    """Exact single-query attention over (n, d) key/value matrices."""
    q = np.asarray(q, dtype=np.float32)
    keys = np.asarray(keys, dtype=np.float32)
    values = np.asarray(values, dtype=np.float32)
    if q.ndim != 1:
        raise ContractViolation("query must be 1-D")
    if keys.ndim != 2 or values.ndim != 2:
        raise ContractViolation("keys and values must be 2-D")
    if keys.shape[0] != values.shape[0]:
        raise ContractViolation("keys and values must cover the same tokens")
    if keys.shape[1] != q.shape[0] or values.shape[1] != q.shape[0]:
        raise ContractViolation("width mismatch between query and cache rows")
    if keys.shape[0] == 0:
        raise ContractViolation("attention needs at least one cached token")

    d = q.shape[0]
    scores = (keys @ q) / np.float32(np.sqrt(d))
    weights = softmax(scores)
    output = weights @ values
    return AttentionResult(
        output=output.astype(np.float32),
        weights=weights,
        scores=scores.astype(np.float32),
    )


def reconstructed_kv(cache: TieredCache) -> tuple[np.ndarray, np.ndarray]:
    """Materialize the cache as full (total_tokens, d) key/value matrices.

    Quantized blocks are dequantized, pending rows copied verbatim, and
    rows at pooled positions replaced with the pool's full-precision
    entries. This is the slow reference for ``TieredCache.attended_kv``,
    which holds the same values without rebuilding them.
    """
    parts_k = [b.to_matrix() for b in cache.quantized_k] + [cache.pending_k]
    parts_v = [b.to_matrix() for b in cache.quantized_v] + [cache.pending_v]
    keys = np.concatenate(parts_k, axis=0) if cache.total_tokens else np.empty((0, cache.config.head_dim), np.float32)
    values = np.concatenate(parts_v, axis=0) if cache.total_tokens else np.empty((0, cache.config.head_dim), np.float32)
    for entry in cache.pool.entries:
        keys[entry.position] = entry.key
        values[entry.position] = entry.value
    return keys, values


def attend_mixed(q, cache: TieredCache) -> AttentionResult:
    """Single-query attention over all tiers of a cache.

    The weights vector spans every token the cache has seen, sums to 1
    within 1e-6, and is independent of the shadow (mean-substituted)
    quantized rows at pooled positions.
    """
    q = np.asarray(q, dtype=np.float32)
    if q.shape != (cache.config.head_dim,):
        raise ContractViolation(f"query must have shape ({cache.config.head_dim},)")
    if cache.total_tokens == 0:
        raise ContractViolation("cannot attend over an empty cache")
    return attend_full_precision(q, *cache.attended_kv())


def l1_error(a, b) -> float:
    """Sum of absolute element differences between two equal-length vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractViolation(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum())
