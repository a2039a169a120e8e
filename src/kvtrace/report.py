"""Experiment metrics: memory estimation, compression curves, retention study.

Experiments over seeds and configurations are embarrassingly parallel;
each run owns its caches. CSV emission uses one header row, a fixed column
order, and floats at 6 significant digits.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .attention import attend_full_precision, l1_error
from .cache import FP16_BITS, EngineConfig, MemoryBreakdown
from .errors import ContractViolation, check_integer
from .outlier import OutlierPool, score_tokens
from .quant import _check_bits, quantize_keys_channelwise, quantize_values_tokenwise


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
    passthrough: bool = False,
) -> float:
    """L1 attention-output error after retaining ``budget`` of one block's tokens.

    ``block`` is one (layer, head)'s (3, T, d) Q/K/V array, as a trace's
    ``block`` returns it.

    Retention is post-hoc over the whole sequence: the chosen tokens keep
    their exact rows, every other token is group-quantized (keys per
    channel, values per token), and the final query attends over the mix.
    Groups follow the sequence's fixed position blocks of ``group_size``
    tokens, minus whatever was retained, so retaining a token perturbs
    only its own group. Returns the L1 distance to the full-precision
    oracle output; with ``passthrough`` nothing is quantized, so it is 0.
    """
    if not (isinstance(block, np.ndarray) and block.ndim == 3 and block.shape[0] == 3 and block.shape[1] >= 1):
        raise ContractViolation(f"block must be a (3, T, d) array with T >= 1, got shape {np.shape(block)}")
    queries, keys, values = block
    seq_len = keys.shape[0]
    if not 0 <= check_integer(budget, "budget") < seq_len:
        raise ContractViolation(f"budget must be in [0, seq_len), got {budget}")
    if check_integer(group_size, "group_size") < 1:
        raise ContractViolation(f"group_size must be >= 1, got {group_size}")
    _check_bits(bits)
    if not isinstance(criterion, Criterion):
        raise ContractViolation(f"unknown criterion {criterion!r}")
    if passthrough:
        # The mix would be the oracle's own rows.
        return 0.0

    if criterion is Criterion.RANDOM:
        if rng is None:
            rng = np.random.default_rng(0)
        retained = rng.choice(seq_len, size=budget, replace=False)
    else:
        scores = score_tokens(keys)
        if criterion is Criterion.LARGEST_KEY:
            scores = -scores
        retained = np.argsort(scores, kind="stable")[:budget]

    mask = np.zeros(seq_len, dtype=bool)
    mask[retained] = True

    k_hat = keys.copy()
    v_hat = values.copy()
    for start in range(0, seq_len, group_size):
        group = np.arange(start, min(start + group_size, seq_len))
        idx = group[~mask[group]]
        if idx.size:
            k_hat[idx] = quantize_keys_channelwise(keys[idx], bits).to_matrix()
            v_hat[idx] = quantize_values_tokenwise(values[idx], bits).to_matrix()

    mixed = attend_full_precision(queries[-1], k_hat, v_hat)
    oracle = attend_full_precision(queries[-1], keys, values)
    return l1_error(mixed.output, oracle.output)


@dataclass(frozen=True)
class ExperimentRow:
    """One line of an experiment report.

    ``ratio_vs_fp16`` is fp16-equivalent bits divided by actual stored
    bits for the same tokens; it exceeds 1 whenever any block is quantized
    below 16 bits. ``l1_output_error`` is None for memory-only runs.
    """

    mode: str
    bits: int
    group_size: int
    residual: int
    outlier_num: int
    seq_len: int
    l1_output_error: float | None
    total_bits: int
    ratio_vs_fp16: float


CSV_COLUMNS = [f.name for f in fields(ExperimentRow)]


def ratio_curve(
    config: EngineConfig,
    seq_lens: list[int],
    *,
    passthrough: bool = False,
    seed: int = 0,
) -> list[ExperimentRow]:
    """Compression ratio against fp16 accounting at increasing lengths.

    Replays one representative (layer, head) cache's outlier pool, sized
    as on a layer outside ``skip_layers``, on random rows: when a cache
    would quantize a group (``group_size + residual`` rows pending), that
    group is drawn and its key scores are offered to the pool. Each
    length's bits come from ``MemoryBreakdown.of``, which reads the rows
    only through the pool's size, so nothing is drawn that cannot change
    the pool: no group once it is frozen (or has no capacity), and no row
    that is never quantized. Below ``group_size + residual`` tokens the
    ratio is exactly 1. The ``passthrough`` control quantizes and pools
    nothing, so it draws nothing: fp16 bits, ratio 1, ``outlier_num`` 0.
    """
    seq_lens = [check_integer(s, "seq_lens entry") for s in seq_lens]
    if not seq_lens or seq_lens != sorted(seq_lens) or seq_lens[0] < 1:
        raise ContractViolation("seq_lens must be non-empty, positive and sorted ascending")
    if check_integer(seed, "seed") < 0:
        raise ContractViolation("seed must be >= 0")
    d, g = config.head_dim, config.group_size
    pool = OutlierPool(0 if passthrough else config.outlier_num, config.aux_capacity)
    mode = "fp16" if passthrough else "ott" if pool.capacity > 0 else "baseline"
    # A cache quantizes its oldest group once G + R rows are pending.
    due = math.inf if passthrough else g + config.residual
    rows: list[ExperimentRow] = []
    rng, quantized = None, 0
    for target in seq_lens:
        while target - quantized >= due:
            if not pool.frozen:
                if rng is None:
                    rng = np.random.default_rng(seed)
                # One (G, 2, d) draw is the same stream, in the same order, as
                # a key draw then a value draw per token; only keys are scored.
                keys = rng.standard_normal((g, 2, d))[:, 0].astype(np.float32)
                pool.update(score_tokens(keys), quantized)
            quantized += g
        total = MemoryBreakdown.of(config, quantized, target - quantized, pool).total_bits
        rows.append(ExperimentRow(
            mode=mode,
            bits=config.bits,
            group_size=g,
            residual=config.residual,
            outlier_num=pool.capacity,
            seq_len=target,
            l1_output_error=None,
            total_bits=total,
            ratio_vs_fp16=2 * target * d * FP16_BITS / total,
        ))
    return rows


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_rows(path, rows: list[ExperimentRow]) -> None:
    """Write experiment rows as CSV with the fixed column order."""
    write_csv(path, CSV_COLUMNS, [[getattr(row, col) for col in CSV_COLUMNS] for row in rows])


def write_csv(path, header: list[str], rows: list[list]) -> None:
    """Write a generic CSV with floats at 6 significant digits."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_value(v) for v in row])
