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


@dataclass(slots=True)
class AttentionResult:
    """Output row plus the per-position weights and pre-softmax logits."""

    output: np.ndarray
    weights: np.ndarray
    scores: np.ndarray


def attend_full_precision(q, keys, values) -> AttentionResult:
    """Exact single-query attention over (n, d) key/value matrices.

    Its weights are nonnegative and sum to 1 within 1e-6 for any finite logits.
    A C-contiguous ``keys`` or ``values`` goes through ``np.dot``, which makes
    matmul's BLAS call without its ufunc dispatch and gives the same bits;
    any other layout keeps ``@``, where ``np.dot`` may round differently.
    """
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

    scores = np.dot(keys, q) if keys.flags.c_contiguous else keys @ q
    scores /= np.float32(math.sqrt(q.shape[0]))
    # ``argmax``/``argmin`` pick the first NaN if there is one, and an
    # infinity is an extreme, so checking both picks checks every logit.
    top = scores.item(scores.argmax())
    if not (math.isfinite(top) and math.isfinite(scores.item(scores.argmin()))):
        raise ContractViolation("softmax input contains NaN or Inf")
    # Softmax in place on one float64 copy (a positional ``out`` parses faster), then float32.
    weights = scores.astype(np.float64)
    np.subtract(weights, top, weights)
    np.exp(weights, weights)
    np.divide(weights, np.add.reduce(weights), weights)
    weights = weights.astype(np.float32)
    output = np.dot(weights, values) if values.flags.c_contiguous else weights @ values
    return AttentionResult(output=output, weights=weights, scores=scores)


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
