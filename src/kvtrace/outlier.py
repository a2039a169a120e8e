"""Outlier-token scoring, the bounded competition pool, and mean substitution.

A token's outlier score is the L1 norm of its key row; smaller scores mark
tokens whose keys undercut the otherwise-uniform spread of high-magnitude
channels, which is exactly what inflates the quantization step for the
whole group. The pool ranks the lowest-scoring tokens of a stream, offered
a contiguous run at a time, by one stable sort on score: stream order breaks
ties to the smaller position. The cache keeps their rows at full precision.
Tokens evicted from the pool land in a bounded auxiliary list; once that
list is full the pool freezes permanently.

One pool belongs to one (layer, head) cache and has a single writer;
distinct pools may update in parallel.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, check_integer

_NO_POSITIONS = np.empty(0, dtype=np.int64)
_INT64 = np.iinfo(np.int64)


def score_tokens(keys: np.ndarray) -> np.ndarray:
    """Per-row L1 norms of a (G, d) key matrix."""
    if keys.ndim != 2 or keys.shape[0] < 1:
        raise ContractViolation("score_tokens expects a non-empty 2-D key matrix")
    return np.abs(keys).sum(axis=1, dtype=np.float64)


class OutlierPool:
    """Fixed-capacity ranking of a stream's lowest-score tokens, with an eviction ledger.

    ``positions`` (int64) and ``scores`` (float64) hold the members in rank
    order: ascending score, ties to the smaller position. The pool holds
    no rows; its cache keeps every token's row. Members that lose their
    slot move to ``aux_positions`` in the order they were evicted. A pool
    of capacity 0, or with ``aux_capacity`` positions there, is frozen: no
    update can change it, so every later update is a no-op.
    """

    def __init__(self, capacity: int, aux_capacity: int):
        capacity, aux_capacity = check_integer(capacity, "capacity"), check_integer(aux_capacity, "aux_capacity")
        if capacity < 0 or aux_capacity < 0:
            raise ContractViolation("pool capacities must be nonnegative")
        self.capacity, self.aux_capacity = capacity, aux_capacity
        self.positions = self.aux_positions = _NO_POSITIONS
        self.scores = np.empty(0, dtype=np.float64)

    @property
    def frozen(self) -> bool:
        """No update can change the pool: it has no capacity or its aux list is full."""
        return self.capacity == 0 or len(self.aux_positions) >= self.aux_capacity

    def update(self, scores, first) -> tuple[np.ndarray, np.ndarray]:
        """Let the stream's next tokens compete with the current members.

        ``scores`` (1-D, finite) are the candidates at positions ``first,
        first + 1, ...``, where ``first`` is an integer above every member's
        position and every candidate's position fits int64. Bad candidates
        raise before any change. Returns ``(selected, evicted)`` as int64
        positions: winning candidates in rank order, and members that lost
        their slot in member rank order.
        A frozen pool returns empty arrays, unchanged.
        """
        if self.frozen:
            return _NO_POSITIONS, _NO_POSITIONS
        first = check_integer(first, "first")
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 1 or not np.isfinite(scores).all():
            raise ContractViolation("candidate scores must be 1-D and finite")
        if self.positions.size and first <= self.positions.max():
            raise ContractViolation(f"first position {first} is not after every member")
        if not _INT64.min <= first <= _INT64.max - max(len(scores) - 1, 0):
            raise ContractViolation(f"candidate positions from {first} pass the int64 range")

        # Members (in rank order) precede candidates (in stream order), so a
        # stable sort by score breaks ties to the smaller position.
        all_positions = np.concatenate((self.positions, first + np.arange(len(scores), dtype=np.int64)))
        all_scores = np.concatenate((self.scores, scores))
        winners = np.argsort(all_scores, kind="stable")[: self.capacity]
        members = len(self.positions)
        lost = np.ones(members, dtype=bool)
        lost[winners[winners < members]] = False
        selected = all_positions[winners[winners >= members]]
        evicted = self.positions[lost]

        room = self.aux_capacity - len(self.aux_positions)
        self.aux_positions = np.concatenate((self.aux_positions, evicted[:room]))
        self.positions = all_positions[winners]
        self.scores = all_scores[winners]
        return selected, evicted


def substitute_means(
    group_k: np.ndarray, group_v: np.ndarray, selected
) -> tuple[np.ndarray, np.ndarray]:
    """Replace selected rows with per-channel means of the whole group.

    Means are computed over all G rows before any substitution, so the
    selected tokens stop stretching per-channel extrema without shifting
    group statistics. Inputs are not modified.
    """
    selected = sorted(set(check_integer(i, "selected row index") for i in selected))
    k = np.array(group_k, dtype=np.float32, copy=True)
    v = np.array(group_v, dtype=np.float32, copy=True)
    if k.shape[0] != v.shape[0]:
        raise ContractViolation("key and value groups must have the same row count")
    if not selected:
        return k, v
    if selected[0] < 0 or selected[-1] >= k.shape[0]:
        raise ContractViolation("selected row index out of range")
    k_mean = k.mean(axis=0, dtype=np.float64).astype(np.float32)
    v_mean = v.mean(axis=0, dtype=np.float64).astype(np.float32)
    k[selected] = k_mean
    v[selected] = v_mean
    return k, v
