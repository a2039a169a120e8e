"""Outlier-token scoring, the bounded competition pool, and mean substitution.

A token's outlier score is the L1 norm of its key row; smaller scores mark
tokens whose keys undercut the otherwise-uniform spread of high-magnitude
channels, which is exactly what inflates the quantization step for the
whole group. The pool keeps the lowest-scoring tokens seen so far at full
precision, as arrays ranked by one ``np.lexsort`` over (score, position).
Tokens evicted from the pool land in a bounded auxiliary list; once that
list is full the pool freezes permanently.

One pool belongs to one (layer, head) cache and has a single writer;
distinct pools may update in parallel.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

_NO_POSITIONS = np.empty(0, dtype=np.int64)


def score_tokens(keys: np.ndarray) -> np.ndarray:
    """Per-row L1 norms of a (G, d) key matrix."""
    if keys.ndim != 2 or keys.shape[0] < 1:
        raise ContractViolation("score_tokens expects a non-empty 2-D key matrix")
    return np.abs(keys).sum(axis=1, dtype=np.float64)


class OutlierPool:
    """Fixed-capacity pool of lowest-score tokens with an eviction ledger.

    ``positions`` (int64), ``scores`` (float64) and the full-precision
    ``keys`` and ``values`` ((n, head_dim) float32) hold the members in
    rank order: ascending score, ties to the smaller position. Members
    that lose their slot move to ``aux_positions``/``aux_keys``/
    ``aux_values`` in the order they were evicted; once ``aux_capacity``
    rows are there the pool is frozen and every later update is a no-op.
    """

    def __init__(self, capacity: int, aux_capacity: int, head_dim: int):
        if capacity < 0 or aux_capacity < 0:
            raise ContractViolation("pool capacities must be nonnegative")
        self.capacity, self.aux_capacity = capacity, aux_capacity
        self.positions = self.aux_positions = _NO_POSITIONS
        self.scores = np.empty(0, dtype=np.float64)
        self.keys = self.values = np.empty((0, head_dim), dtype=np.float32)
        self.aux_keys = self.aux_values = self.keys

    @property
    def frozen(self) -> bool:
        return len(self.aux_positions) >= self.aux_capacity

    def update(self, positions, scores, keys, values) -> tuple[np.ndarray, np.ndarray]:
        """Let candidate tokens compete with the current members.

        The candidates' positions, scores and key/value rows are given row
        for row; the pool keeps copies of the winners' rows. Returns
        ``(selected, evicted)`` as int64 positions: winning candidates in
        rank order, and members that lost their slot in member rank order.
        A frozen or zero-capacity pool returns empty arrays, unchanged.
        """
        if self.frozen or self.capacity == 0:
            return _NO_POSITIONS, _NO_POSITIONS
        positions = np.asarray(positions, dtype=np.int64)
        if not len(positions) == len(scores) == len(keys) == len(values):
            raise ContractViolation("candidate positions, scores and rows differ in length")
        seen = set(self.positions.tolist())
        for p in positions.tolist():
            if p in seen:
                raise ContractViolation(f"duplicate position {p} in pool update")
            seen.add(p)

        all_positions = np.concatenate((self.positions, positions))
        all_scores = np.concatenate((self.scores, scores), dtype=np.float64)
        winners = np.lexsort((all_positions, all_scores))[: self.capacity]
        members = len(self.positions)
        lost = np.ones(members, dtype=bool)
        lost[winners[winners < members]] = False
        selected = all_positions[winners[winners >= members]]
        evicted = self.positions[lost]

        room = self.aux_capacity - len(self.aux_positions)
        self.aux_positions = np.concatenate((self.aux_positions, evicted[:room]))
        self.aux_keys = np.concatenate((self.aux_keys, self.keys[lost][:room]))
        self.aux_values = np.concatenate((self.aux_values, self.values[lost][:room]))
        self.positions = all_positions[winners]
        self.scores = all_scores[winners]
        self.keys = np.concatenate((self.keys, keys), dtype=np.float32)[winners]
        self.values = np.concatenate((self.values, values), dtype=np.float32)[winners]
        return selected, evicted


def substitute_means(
    group_k: np.ndarray, group_v: np.ndarray, selected
) -> tuple[np.ndarray, np.ndarray]:
    """Replace selected rows with per-channel means of the whole group.

    Means are computed over all G rows before any substitution, so the
    selected tokens stop stretching per-channel extrema without shifting
    group statistics. Inputs are not modified.
    """
    selected = sorted(set(int(i) for i in selected))
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
