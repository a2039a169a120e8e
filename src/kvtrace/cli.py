"""Command-line entry point for reproducible trace experiments.

Subcommands::

    gen-synthetic     write a synthetic trace file
    simulate          replay a trace through tiered caches, report L1 error
    compare-criteria  retention-criteria study on one trace or seeded set
    ratio-curve       compression ratio vs fp16 at several lengths
    mem-estimate      closed-form full-precision KV memory footprint
    decile-stats      decile histogram of one key channel

Engine flag defaults reproduce the reference setting, ``EngineConfig``'s
defaults; each subcommand's ``--help`` shows them.
Outputs are deterministic given ``--seed``. A synthetic trace draws each
(layer, head) block from SeedSequence(seed, (layer, head)); trial i of
``compare-criteria`` studies seed + i's trace and draws the random
criterion's tokens from SeedSequence(seed + i, (layer, head, 1));
``ratio-curve`` draws its rows from default_rng(seed). ``simulate`` sums the errors and memory of the caches that
``kvtrace/replay.py`` replays one at a time, holding one (layer, head)
block of the trace plus one cache: a synthetic block is drawn, a file's
is read once its header and size are checked, and fp16 mode needs none.

Exit codes: 0 on success, 1 on bad flags or values (including an
unwritable ``--out``), 2 on a trace file that cannot be opened, read or parsed.
"""

from __future__ import annotations

import argparse
import functools
import shutil
import sys

import numpy as np

from .attention import attend_full_precision  # noqa: F401  unused; pinned by perfbench's tracer test (ROADMAP item 1)
from .cache import FP16_BITS, EngineConfig
from .errors import ContractViolation, TraceFormatError
from .report import (
    Criterion,
    compare_criteria,
    estimate_kv_bytes,
    ratio_curve,
    write_csv,
)
from .replay import replay_caches
from .trace import (
    SyntheticSpec,
    SyntheticTrace,
    TraceFile,
    TraceHeader,
    decile_stats,
    read_trace,
    write_trace,
)

# Memory fields ``simulate`` sums over its caches and prints, in this order.
_USAGE_KEYS = ("quantized_bits", "param_bits", "pending_bits", "pool_bits", "total_bits")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ContractViolation(message)


def _add_quant_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bits", type=int, default=EngineConfig.bits, help="code width in bits (default %(default)s)")
    p.add_argument("--group-size", type=int, default=EngineConfig.group_size, help="tokens per quantized group (default %(default)s)")


def _add_engine_flags(p: argparse.ArgumentParser,
                      skip_help: str = "comma-separated layers with outlier pooling disabled") -> None:
    _add_quant_flags(p)
    p.add_argument("--residual", type=int, default=EngineConfig.residual, help="recent tokens kept full precision (default %(default)s)")
    p.add_argument("--outlier-num", type=int, default=EngineConfig.outlier_num,
                   help="outlier pool capacity per (layer, head) (default %(default)s)")
    p.add_argument(
        "--skip-layers",
        default=",".join(map(str, EngineConfig.skip_layers)),
        help=f"{skip_help} (default '%(default)s')",
    )
    p.add_argument("--aux-capacity", type=int, default=EngineConfig.aux_capacity, help="auxiliary pool capacity; 0 freezes the pool at construction, so nothing is pooled (default %(default)s)")


# A synthetic trace's shape flags with their defaults (in TraceHeader's field
# order) and its spec flags with the SyntheticSpec fields they set. These
# flags default to absent, so that one given with --trace is an error.
_SHAPE_DEFAULTS = {"layers": 3, "heads": 1, "head_dim": 16, "seq_len": 1024}
_SPEC_FIELDS = {"mu": "mu", "sigma": "sigma", "eps": "eps", "delta": "delta", "outlier_tokens": "m",
                "outlier_channels": "outlier_channels", "q_scale": "q_scale"}


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    add = functools.partial(p.add_argument, default=argparse.SUPPRESS)
    add("--layers", type=int, help="trace layers (default 3)")
    add("--heads", type=int, help="heads per layer")
    add("--head-dim", type=int, help="channels per head")
    add("--seq-len", type=int, help="tokens per sequence")
    add("--mu", type=float, help="outlier-channel center")
    add("--sigma", type=float, help="outlier-channel half-width")
    add("--eps", type=float, help="low-magnitude floor")
    add("--delta", type=float, help="low-magnitude ceiling")
    add("--outlier-tokens", type=int, help="planted low-magnitude tokens")
    add("--outlier-channels", type=int, help="planted channels")
    add("--q-scale", type=float, help="query magnitude in outlier channels")


def build_parser() -> _Parser:
    # argparse makes a formatter per added argument, and each asks the
    # terminal for its width unless given it; ask once (argparse's width).
    width = shutil.get_terminal_size().columns - 2
    raw = functools.partial(argparse.RawDescriptionHelpFormatter, width=width)
    parser = _Parser(prog="kvtrace", description=__doc__, formatter_class=raw)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    plain = functools.partial(argparse.HelpFormatter, width=width)
    add_parser = functools.partial(sub.add_parser, formatter_class=plain)

    p = add_parser("gen-synthetic", help="write a synthetic trace file")
    _add_generator_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output trace path")

    p = add_parser("simulate", help="replay a trace and measure per-step L1 error")
    _add_engine_flags(p)
    p.add_argument("--mode", choices=("fp16", "baseline", "ott"), default="ott", help="fp16, baseline (no pool), or ott")
    _add_generator_flags(p)
    p.add_argument("--trace", help="trace file; omitted = synthetic from generator flags")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="per-step CSV path (default: no file, summary only)")

    p = add_parser("compare-criteria", help="retention-criteria error comparison")
    _add_quant_flags(p)
    _add_generator_flags(p)
    p.add_argument("--trace", help="trace file; omitted = synthetic from generator flags")
    p.add_argument("--budget", type=int, default=3, help="retained tokens per criterion")
    p.add_argument("--trials", type=int, default=1, help="synthetic seeds to average over")
    p.add_argument("--layer", type=int, default=None, help="layer to study (default: last)")
    p.add_argument("--head", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV path (default: print)")

    p = add_parser("ratio-curve", help="compression ratio vs fp16 accounting")
    _add_engine_flags(p, "comma-separated layers; parsed, but no effect here: ratio-curve models "
                         "one cache of a layer with pooling on")
    p.add_argument("--mode", choices=("baseline", "ott"), default="ott", help="baseline (no pool) or ott")
    p.add_argument("--head-dim", type=int, default=EngineConfig.head_dim, help="channels per head (default %(default)s)")
    p.add_argument(
        "--seq-lens",
        default="128,1024,8192,65536",
        help="comma-separated ascending lengths",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV path (default: print)")

    p = add_parser("mem-estimate", help="full-precision KV cache footprint")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--heads", type=int, required=True)
    p.add_argument("--head-dim", type=int, required=True)
    p.add_argument("--seq-len", type=int, required=True)
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--bytes-per-value", type=int, default=2, help="2 for fp16 (default)")

    p = add_parser("decile-stats", help="decile histogram of one key channel")
    _add_generator_flags(p)
    p.add_argument("--trace", help="trace file; omitted = synthetic from generator flags")
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--head", type=int, default=0)
    p.add_argument("--channel", type=int, default=None, help="default: channel with largest mean |K|")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV path (default: print)")

    return parser


def _int_list(flag: str, text: str) -> list[int]:
    """Parse a comma-separated integer flag value; empty items are skipped."""
    try:
        return [int(s) for s in str(text).split(",") if s.strip() != ""]
    except ValueError:
        raise ContractViolation(f"{flag} expects comma-separated integers, got {text!r}") from None


def _check_index(flag: str, value: int, size: int) -> None:
    if not 0 <= value < size:
        raise ContractViolation(f"{flag} {value} out of range [0, {size})")


def _load_trace(args, seed: int) -> TraceFile | SyntheticTrace:
    given = {k: v for k, v in vars(args).items() if k in _SHAPE_DEFAULTS or k in _SPEC_FIELDS}
    if getattr(args, "trace", None):
        if given:
            flag = "--" + next(iter(given)).replace("_", "-")
            raise ContractViolation(f"{flag} applies only to synthetic traces (omit --trace)")
        return read_trace(args.trace)
    shape = {**_SHAPE_DEFAULTS, **given}
    spec = SyntheticSpec(seed=seed, **{field: given[k] for k, field in _SPEC_FIELDS.items() if k in given})
    return SyntheticTrace(TraceHeader(*(shape[k] for k in _SHAPE_DEFAULTS)), spec)


def _config_from_args(args, head_dim: int) -> EngineConfig:
    return EngineConfig(
        bits=args.bits,
        group_size=args.group_size,
        residual=args.residual,
        outlier_num=args.outlier_num if args.mode == "ott" else 0,
        skip_layers=tuple(_int_list("--skip-layers", args.skip_layers)),
        aux_capacity=args.aux_capacity,
        head_dim=head_dim,
    )


def _cmd_gen_synthetic(args) -> int:
    trace = _load_trace(args, args.seed)
    write_trace(args.out, trace)
    h = trace.header
    print(f"wrote {args.out}: layers={h.n_layers} heads={h.n_heads} "
          f"head_dim={h.head_dim} seq_len={h.seq_len}")
    return 0


def _cmd_simulate(args) -> int:
    trace = _load_trace(args, args.seed)
    h = trace.header
    config = _config_from_args(args, h.head_dim)
    steps = h.seq_len
    fp16_bits = h.n_layers * h.n_heads * 2 * steps * h.head_dim * FP16_BITS
    step_errors = np.zeros(steps)
    usage = dict.fromkeys(_USAGE_KEYS, 0)
    if args.mode == "fp16":  # mixed attention is the oracle itself: every error is 0
        usage["pending_bits"] = usage["total_bits"] = fp16_bits
    else:
        for _layer, _head, cache, errors in replay_caches(trace, config):
            step_errors += errors
            breakdown = cache.memory_usage()
            for key in _USAGE_KEYS:
                usage[key] += getattr(breakdown, key)
            del cache  # so only the next cache is alive while it replays
        step_errors /= h.n_layers * h.n_heads

    if args.out:
        write_csv(args.out, ["step", "l1_error"],
                  [[t, float(step_errors[t])] for t in range(steps)])
    print(f"mode={args.mode} steps={steps} aggregate_l1_error={step_errors.mean():.6g}")
    for key in _USAGE_KEYS:
        print(f"{key}={usage[key]}")
    print(f"ratio_vs_fp16={fp16_bits / usage['total_bits']:.6g}")
    return 0


def _cmd_compare_criteria(args) -> int:
    if args.trials < 1:
        raise ContractViolation(f"--trials must be >= 1, got {args.trials}")
    if args.trace and args.trials != 1:
        raise ContractViolation("--trials requires synthetic traces (omit --trace)")
    results = {c: [] for c in Criterion}
    for trial in range(args.trials):
        trace = _load_trace(args, args.seed + trial)
        h = trace.header
        layer = args.layer if args.layer is not None else h.n_layers - 1
        block = trace.block(layer, args.head)  # every criterion studies this one block
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=args.seed + trial, spawn_key=(layer, args.head, 1))
        )
        for criterion in Criterion:
            err = compare_criteria(
                block,
                args.budget,
                criterion,
                args.bits,
                group_size=args.group_size,
                rng=rng,
            )
            results[criterion].append(err)
    rows = [
        [c.value, args.budget, args.trials, float(np.mean(results[c]))]
        for c in Criterion
    ]
    if args.out:
        write_csv(args.out, ["criterion", "budget", "trials", "mean_l1_error"], rows)
    for row in rows:
        print(f"criterion={row[0]} budget={row[1]} trials={row[2]} mean_l1_error={row[3]:.6g}")
    return 0


def _cmd_ratio_curve(args) -> int:
    seq_lens = _int_list("--seq-lens", args.seq_lens)
    config = _config_from_args(args, args.head_dim)
    rows = [
        [args.mode, config.bits, config.group_size, config.residual, config.outlier_num, t,
         usage.total_bits, 2 * t * config.head_dim * FP16_BITS / usage.total_bits]
        for t, usage in zip(seq_lens, ratio_curve(config, seq_lens, seed=args.seed))
    ]
    if args.out:
        write_csv(args.out, ["mode", "bits", "group_size", "residual", "outlier_num", "seq_len",
                             "total_bits", "ratio_vs_fp16"], rows)
    for row in rows:
        print(f"seq_len={row[5]} total_bits={row[6]} ratio_vs_fp16={row[7]:.6g}")
    return 0


def _cmd_mem_estimate(args) -> int:
    total = estimate_kv_bytes(
        n_layers=args.layers,
        n_heads=args.heads,
        head_dim=args.head_dim,
        seq_len=args.seq_len,
        batch=args.batch,
        bytes_per_value=args.bytes_per_value,
    )
    print(f"{total} bytes ({total / 2**30:.6g} GiB)")
    return 0


def _cmd_decile_stats(args) -> int:
    trace = _load_trace(args, args.seed)
    if args.channel is not None:  # before the block is drawn or read; the default is in range
        _check_index("--channel", args.channel, trace.header.head_dim)
    keys = trace.block(args.layer, args.head)[1]
    channel = int(np.abs(keys).mean(axis=0).argmax()) if args.channel is None else args.channel
    stats = decile_stats(keys[:, channel])
    if args.out:
        write_csv(
            args.out,
            [f"decile_{i + 1}" for i in range(10)],
            [[float(x) for x in stats]],
        )
    print(f"layer={args.layer} head={args.head} channel={channel}")
    print("deciles_pct=" + ",".join(f"{x:.6g}" for x in stats))
    return 0


_COMMANDS = {
    "gen-synthetic": _cmd_gen_synthetic,
    "simulate": _cmd_simulate,
    "compare-criteria": _cmd_compare_criteria,
    "ratio-curve": _cmd_ratio_curve,
    "mem-estimate": _cmd_mem_estimate,
    "decile-stats": _cmd_decile_stats,
}


def run(argv=None) -> int:
    """Parse ``argv`` and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # every subcommand's --seed, read or not
            raise ContractViolation("seed must be >= 0")
        # Explicit checks report non-finite values in one error line;
        # numpy's overflow warnings would only add lines before it.
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.subcommand](args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except TraceFormatError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    except (ContractViolation, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
