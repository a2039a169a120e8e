"""Experiment metrics: memory estimation, compression curves, retention study.

Experiments over seeds and configurations are embarrassingly parallel;
each run owns its caches. CSV emission uses one header row, a fixed column
order, and floats at 6 significant digits.
"""

from __future__ import annotations

import csv
import enum

import numpy as np

from .attention import attend_full_precision, l1_error
from .cache import EngineConfig, MemoryBreakdown, dequantized_group
from .errors import ContractViolation, check_integer
from .outlier import OutlierPool, score_tokens


def estimate_kv_bytes(
    n_layers: int,
    n_heads: int,
    head_dim: int,
    seq_len: int,
    batch: int,
    bytes_per_value: int,
) -> int:
    """Bytes needed to hold full K and V caches for a dense decoder.

    2 (K and V) x bytes_per_value x batch x heads x head_dim x seq_len x
    layers; linear in every argument.
    """
    args = dict(
        n_layers=n_layers,
        n_heads=n_heads,
        head_dim=head_dim,
        seq_len=seq_len,
        batch=batch,
        bytes_per_value=bytes_per_value,
    )
    total = 2
    for name, v in args.items():
        v = check_integer(v, name)
        if v < 1:
            raise ContractViolation(f"{name} must be a positive integer, got {v!r}")
        total *= v
    return total


class Criterion(enum.Enum):
    """Which tokens to retain at full precision in the retention study."""

    SMALLEST_KEY = "smallest-key"
    LARGEST_KEY = "largest-key"
    RANDOM = "random"


def compare_criteria(
    block: np.ndarray,
    budget: int,
    criterion: Criterion,
    bits: int,
    *,
    group_size: int = EngineConfig.group_size,
    rng: np.random.Generator | None = None,
) -> float:
    """L1 attention-output error after retaining ``budget`` of one block's tokens.

    ``block`` is one (layer, head)'s (3, T, d) Q/K/V array, as a trace's
    ``block`` returns it.

    Retention is post-hoc over the whole sequence: the chosen tokens keep
    their exact rows and every other token is quantized as a cache
    quantizes a group (``dequantized_group``): each fixed block of
    ``group_size`` positions, the last one possibly shorter, is quantized
    with its retained tokens mean-substituted, so retaining a token
    perturbs only its own block. The final query attends over the mix.
    Returns the L1 distance to the full-precision oracle output.
    """
    if not (isinstance(block, np.ndarray) and block.ndim == 3 and block.shape[0] == 3 and block.shape[1] >= 1):
        raise ContractViolation(f"block must be a (3, T, d) array with T >= 1, got shape {np.shape(block)}")
    queries, keys, values = block
    seq_len = keys.shape[0]
    if not 0 <= check_integer(budget, "budget") < seq_len:
        raise ContractViolation(f"budget must be in [0, seq_len), got {budget}")
    if check_integer(group_size, "group_size") < 1:
        raise ContractViolation(f"group_size must be >= 1, got {group_size}")
    if not isinstance(criterion, Criterion):
        raise ContractViolation(f"unknown criterion {criterion!r}")

    if criterion is Criterion.RANDOM:
        if rng is None:
            rng = np.random.default_rng(0)
        retained = rng.choice(seq_len, size=budget, replace=False)
    else:
        scores = score_tokens(keys)
        if criterion is Criterion.LARGEST_KEY:
            scores = -scores
        retained = np.argsort(scores, kind="stable")[:budget]

    mask = np.isin(np.arange(seq_len), retained)
    k_hat, v_hat = np.empty_like(keys), np.empty_like(values)
    for start in range(0, seq_len, group_size):
        s = slice(start, start + group_size)  # the last block may be shorter
        k_hat[s], v_hat[s] = dequantized_group(keys[s], values[s], np.flatnonzero(mask[s]), bits)
    k_hat[retained], v_hat[retained] = keys[retained], values[retained]

    mixed = attend_full_precision(queries[-1], k_hat, v_hat)
    oracle = attend_full_precision(queries[-1], keys, values)
    return l1_error(mixed.output, oracle.output)


def ratio_curve(
    config: EngineConfig,
    seq_lens: list[int],
    *,
    seed: int = 0,
) -> list[MemoryBreakdown]:
    """The memory model of one cache after each of ``seq_lens`` tokens.

    Replays one representative (layer, head) cache's outlier pool, sized
    as on a layer outside ``skip_layers``, on random rows: when a cache
    would quantize a group (``group_size + residual`` rows pending), that
    group is drawn and its key scores are offered to the pool. Each
    length's bits come from ``MemoryBreakdown.of``, which reads the rows
    only through the pool's size, so nothing is drawn that cannot change
    the pool: no group once it is frozen (or has no capacity), and no row
    that is never quantized. Below ``group_size + residual`` tokens every
    row is pending, at exactly the fp16 bits ``2 * T * head_dim * 16``.
    """
    seq_lens = [check_integer(s, "seq_lens entry") for s in seq_lens]
    if not seq_lens or seq_lens != sorted(seq_lens) or seq_lens[0] < 1:
        raise ContractViolation("seq_lens must be non-empty, positive and sorted ascending")
    if check_integer(seed, "seed") < 0:
        raise ContractViolation("seed must be >= 0")
    d, g = config.head_dim, config.group_size
    pool = OutlierPool(config.outlier_num, config.aux_capacity)
    usages: list[MemoryBreakdown] = []
    rng, quantized = None, 0
    for target in seq_lens:
        # A cache quantizes its oldest group once G + R rows are pending,
        # so after ``target`` tokens it has quantized the first ``due``.
        due = g * max(0, (target - config.residual) // g)
        while quantized < due and not pool.frozen:  # a frozen pool takes no draw
            if rng is None:
                rng = np.random.default_rng(seed)
            # One (G, 2, d) draw is the same stream, in the same order, as
            # a key draw then a value draw per token; only keys are scored.
            keys = rng.standard_normal((g, 2, d))[:, 0].astype(np.float32)
            pool.update(score_tokens(keys), quantized)
            quantized += g
        quantized = due
        usages.append(MemoryBreakdown.of(config, quantized, target - quantized, pool))
    return usages


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_csv(path, header: list[str], rows: list[list]) -> None:
    """Write a CSV: the header, then each row with floats at 6 significant digits."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_value(v) for v in row])
