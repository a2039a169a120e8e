"""Outlier-token scoring, the bounded competition pool, and mean substitution.

A token's outlier score is the L1 norm of its key row; smaller scores mark
tokens whose keys undercut the otherwise-uniform spread of high-magnitude
channels, which is exactly what inflates the quantization step for the
whole group. The pool keeps the lowest-scoring tokens seen so far at full
precision. Tokens evicted from the pool land in a bounded auxiliary list;
once that list is full the pool freezes permanently.

One pool belongs to one (layer, head) cache and has a single writer;
distinct pools may update in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation


@dataclass
class OutlierEntry:
    """Full-precision key/value rows for one pooled token.

    The score is cached at insertion; key rows are immutable after
    projection so it never goes stale.
    """

    position: int
    key: np.ndarray
    value: np.ndarray
    score: float

    @classmethod
    def from_rows(cls, position: int, key, value) -> "OutlierEntry":
        key = np.asarray(key, dtype=np.float32)
        value = np.asarray(value, dtype=np.float32)
        score = float(np.abs(key).sum(dtype=np.float64))
        return cls(position=position, key=key, value=value, score=score)


def score_tokens(keys: np.ndarray) -> np.ndarray:
    """Per-row L1 norms of a (G, d) key matrix."""
    if keys.ndim != 2 or keys.shape[0] < 1:
        raise ContractViolation("score_tokens expects a non-empty 2-D key matrix")
    return np.abs(keys).sum(axis=1, dtype=np.float64)


def _rank(entry: OutlierEntry) -> tuple[float, int]:
    # Ties on score break toward the smaller sequence position.
    return (entry.score, entry.position)


@dataclass
class OutlierPool:
    """Fixed-capacity pool of lowest-score tokens with an eviction ledger.

    ``update`` keeps the pool equal to the ``capacity`` smallest-score
    tokens over everything presented so far (ties to the smaller
    position). Members that lose their slot move to ``aux``; when ``aux``
    reaches ``aux_capacity`` the pool freezes and all later updates are
    no-ops.
    """

    capacity: int
    aux_capacity: int = 32
    entries: list[OutlierEntry] = field(default_factory=list)
    aux: list[OutlierEntry] = field(default_factory=list)
    frozen: bool = False

    def __post_init__(self):
        if self.capacity < 0 or self.aux_capacity < 0:
            raise ContractViolation("pool capacities must be nonnegative")
        if len(self.aux) >= self.aux_capacity:
            self.frozen = True

    @property
    def positions(self) -> set[int]:
        return {e.position for e in self.entries}

    def update(self, candidates: list[OutlierEntry]) -> tuple[set[int], list[OutlierEntry]]:
        """Let ``candidates`` compete with the current members.

        Returns:
            ``(selected_positions, evicted)``: positions of candidates that
            won a slot, and former members that lost theirs (already
            appended to ``aux``). A frozen or zero-capacity pool returns
            empty results and stays unchanged.
        """
        if self.frozen or self.capacity == 0:
            return set(), []

        seen = {e.position for e in self.entries}
        for c in candidates:
            if c.position in seen:
                raise ContractViolation(f"duplicate position {c.position} in pool update")
            seen.add(c.position)

        ranked = sorted(self.entries + list(candidates), key=_rank)
        winners = ranked[: self.capacity]
        winner_positions = {e.position for e in winners}

        old_positions = self.positions
        selected = {
            e.position for e in winners if e.position not in old_positions
        }
        evicted = [e for e in self.entries if e.position not in winner_positions]

        self.entries = winners
        room = self.aux_capacity - len(self.aux)
        self.aux.extend(evicted[:room])
        if len(self.aux) >= self.aux_capacity:
            self.frozen = True
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
