"""Decode-phase attention over the cache tiers, plus the exact oracle.

``attend_full_precision`` is the reference: softmax(q . K^T / sqrt(d)) . V
in float32. ``attend_mixed`` runs the same computation in place over the
cache's row buffer (``TieredCache.attended_kv``), where every quantized
group was dequantized once when it was written and, for every pooled
outlier token, the row at its absolute position holds the exact row the
cache was fed. Overwriting (rather than appending extra positions)
keeps exactly one logit per true token, so no softmax mass is
double-counted. ``attend_mixed`` only reads the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cache import TieredCache
from .errors import ContractViolation


def softmax(v) -> np.ndarray:
    """Numerically stable softmax (max-subtracted) over a 1-D vector.

    The output is a probability vector: nonnegative, summing to 1 within
    1e-6, for any finite input including large magnitudes.
    """
    v = np.asarray(v)
    if v.ndim != 1 or v.size == 0:
        raise ContractViolation("softmax input must be a non-empty 1-D vector")
    # ``argmax``/``argmin`` pick the first NaN if there is one, and an
    # infinity is an extreme, so checking both picks checks every value.
    # Each costs about half a ufunc reduction.
    top = v.item(v.argmax())
    if not (math.isfinite(top) and math.isfinite(v.item(v.argmin()))):
        raise ContractViolation("softmax input contains NaN or Inf")
    # In place on one float64 copy; a positional ``out`` parses faster.
    e = v.astype(np.float64)
    np.subtract(e, top, e)
    np.exp(e, e)
    np.divide(e, np.add.reduce(e), e)
    return e.astype(np.float32)


@dataclass(slots=True)
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
    scores = keys @ q
    scores /= np.float32(math.sqrt(d))
    weights = softmax(scores)
    # float32 throughout: q, keys and values are float32, and so are the weights.
    return AttentionResult(output=weights @ values, weights=weights, scores=scores)


def attend_mixed(q, cache: TieredCache) -> AttentionResult:
    """Single-query attention over all tiers of a cache.

    The weights vector spans every token the cache has seen, sums to 1
    within 1e-6, and is independent of the shadow (mean-substituted)
    quantized rows at pooled positions. ``attend_full_precision`` checks ``q``.
    """
    return attend_full_precision(q, *cache.attended_kv())


def row_l1_errors(a, b) -> np.ndarray:
    """Sum of absolute element differences along the last axis of two equal-shape arrays.

    The differences are summed in float64 over a C-ordered copy, so each
    row adds up in numpy's pairwise order along a contiguous axis, and row
    i's sum is the same float whatever the inputs' layout or row count.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ContractViolation(f"length mismatch: {a.shape} vs {b.shape}")
    diff = np.subtract(a, b, dtype=np.float64, order="C")
    return np.add.reduce(np.abs(diff, out=diff), axis=-1)


def l1_error(a, b) -> float:
    """Sum of absolute element differences between two equal-length vectors."""
    return float(row_l1_errors(a, b))
