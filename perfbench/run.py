"""kvtrace benchmark: replay workloads through ``kvtrace.cli.run``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload decode-long --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, seed 0

Each repetition runs two fresh processes, one after the other: a set-up
process that imports kvtrace and writes the workload's input traces
(``setup_s``), and a run process that times one ``cli.run`` call between
two timings of a fixed reference loop (``wall_ref`` is their ratio) and
reports its peak RSS. Repetitions continue until ``--seconds`` have passed
(at least ``MIN_REPS``); end-to-end metrics are medians over them.
With ``--trace 1`` one more repetition runs under the span tracer and the
per-layer metrics come from it. Every summary is checked (see checks.py);
the last stdout line is the JSON result. Results and spans are written
under ``.perfbench_out/``; inputs live in ``.perfbench_work/`` only while
a repetition runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MIN_REPS = 3
MAX_REPS = 200
BLAS_THREADS = 1
REFERENCE_SEED = 0

# Reference engine: the CLI defaults, passed explicitly so the closed-form
# checks and the command agree even if a default changes.
ENGINE = {
    "mode": "ott", "bits": 2, "group_size": 128, "residual": 32,
    "outlier_num": 3, "skip_layers": (0, 1), "aux_capacity": 32,
}
ENGINE_FLAGS = [
    "--mode", ENGINE["mode"], "--bits", str(ENGINE["bits"]),
    "--group-size", str(ENGINE["group_size"]), "--residual", str(ENGINE["residual"]),
    "--outlier-num", str(ENGINE["outlier_num"]),
    "--skip-layers", ",".join(map(str, ENGINE["skip_layers"])),
    "--aux-capacity", str(ENGINE["aux_capacity"]),
]

# decode-*: simulate on a generated trace; shape is layers x heads x head_dim, T.
# append-stream: ratio-curve on one cache (writes only); it has no attention,
# so its l1_error comes from an untimed, untraced simulate of the probe shape.
# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "decode-long": {
        "command": "simulate",
        "shape": {"layers": 3, "heads": 1, "head_dim": 16, "seq_len": 1024},
    },
    "decode-wide": {
        "command": "simulate",
        "shape": {"layers": 4, "heads": 8, "head_dim": 64, "seq_len": 192},
    },
    "append-stream": {
        "command": "ratio-curve",
        "shape": {"layers": 1, "heads": 1, "head_dim": 64, "seq_len": 16384},
        "probe": {"layers": 3, "heads": 1, "head_dim": 64, "seq_len": 512},
    },
}

SPANS = (
    "cli.run",
    "trace.read_trace",
    "trace.generate_synthetic",
    "trace.write_trace",
    "cache.append",
    "cache.quantize_oldest_group",
    "cache.memory_usage",
    "quant.quantize_keys_channelwise",
    "quant.quantize_values_tokenwise",
    "quant.quantize_uniform",
    "quant.pack_codes",
    "quant.to_matrix",
    "outlier.score_tokens",
    "outlier.pool_update",
    "outlier.substitute_means",
    "attention.attend_mixed",
    "attention.reconstructed_kv",
    "attention.exact",
    "attention.oracle",
    "tensor.softmax",
    "tensor.row_l1_norm",
    "report.ratio_curve",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "tokens_per_ref": "rows/ref",
    "peak_rss_mb": "MB",
    "l1_error": "l1",
    "compression_ratio": "x",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPANS:
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    units.update({
        "trace.read_trace.mb_per_s": "MB/s",
        "quant.to_matrix.rows": "rows",
        "outlier.pool_update.admitted": "count",
        "outlier.pool_update.evicted": "count",
        "attention.reconstructed_kv.mb": "MB",
        "quant.dequant_rows_per_quantized_row": "ratio",
        "outlier.admit_frac": "ratio",
        "trace_overhead_s": "s",
    })
    return units


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def environment(seed: int, numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "machine": platform.machine(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def worker(job: dict) -> dict:
    """Run one worker phase to completion and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, timeout=170, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {job['phase']} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def one_rep(name: str, seed: int, rep: int, spans_out: str | None = None) -> dict:
    """Set up and run one repetition of workload ``name``; returns its raw figures.

    The quality probe, if the workload has one, runs in repetition 0 only:
    its summary depends on the seed alone.
    """
    spec = WORKLOADS[name]
    tag = f"{name}-{rep}"
    inputs, argv, probe_argv = [], None, None
    if spec["command"] == "simulate":
        path = os.path.join(WORK_DIR, f"{tag}.kvt")
        inputs.append({"path": path, "seed": seed, **spec["shape"]})
        argv = ["simulate", "--trace", path, *ENGINE_FLAGS]
    else:
        argv = ["ratio-curve", "--head-dim", str(spec["shape"]["head_dim"]),
                "--seq-lens", str(spec["shape"]["seq_len"]), "--seed", str(seed), *ENGINE_FLAGS]
    if "probe" in spec:
        path = os.path.join(WORK_DIR, f"{tag}-probe.kvt")
        inputs.append({"path": path, "seed": seed, **spec["probe"]})
        if rep == 0:
            probe_argv = ["simulate", "--trace", path, *ENGINE_FLAGS]
    try:
        setup = worker({"phase": "setup", "inputs": inputs})
        result = worker({"phase": "run", "argv": argv, "probe_argv": probe_argv,
                         "spans_out": spans_out, "expected_spans": SPANS})
    finally:
        for item in inputs:
            if os.path.exists(item["path"]):
                os.remove(item["path"])
    result["setup_s"] = setup["setup_s"]
    return result


def rep_checks(name: str, seed: int, rep: dict, reference: dict) -> list:
    """Correctness checks on one repetition's summaries."""
    spec = WORKLOADS[name]
    ref = reference["workloads"][name] if seed == reference["seed"] else None
    if spec["command"] == "simulate":
        out = checks.check_simulate(rep["rc"], rep["stdout"], spec["shape"], ENGINE,
                                    ref and ref["summary"])
    else:
        out = checks.check_ratio_curve(rep["rc"], rep["stdout"], spec["shape"], ENGINE,
                                       ref and ref["summary"])
    if rep.get("probe_stdout") is not None:
        out += [("probe." + n, ok, why) for n, ok, why in checks.check_simulate(
            rep["probe_rc"], rep["probe_stdout"], spec["probe"], ENGINE, ref and ref["probe"])]
    return out


def end_to_end(name: str, reps: list) -> dict:
    spec = WORKLOADS[name]
    shape = spec["shape"]
    tokens = shape["layers"] * shape["heads"] * shape["seq_len"]
    quality = checks.parse_summary(reps[0].get("probe_stdout") or reps[0]["stdout"])
    summary = checks.parse_summary(reps[0]["stdout"])
    wall_ref = statistics.median(r["wall_s"] / r["ref_s"] for r in reps)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_ref": wall_ref,
        "tokens_per_ref": tokens / wall_ref,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "l1_error": float(quality.get("aggregate_l1_error", "nan")),
        "compression_ratio": float(summary.get("ratio_vs_fp16", "nan")),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(traced: dict, wall_ref: float) -> dict:
    layers, counters = traced["layers"], traced["counters"]
    values = {}
    for name in SPANS:
        row = layers.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        values.update({f"{name}.calls": row["calls"], f"{name}.s": row["s"],
                       f"{name}.self_s": row["self_s"]})

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    read_s = values["trace.read_trace.s"]
    values.update({
        "trace.read_trace.mb_per_s": ratio(counters.get("trace.read_trace.bytes", 0) / 1e6, read_s),
        "quant.to_matrix.rows": counters.get("quant.to_matrix.rows", 0),
        "outlier.pool_update.admitted": counters.get("outlier.pool_update.admitted", 0),
        "outlier.pool_update.evicted": counters.get("outlier.pool_update.evicted", 0),
        "attention.reconstructed_kv.mb": counters.get("attention.reconstructed_kv.bytes", 0) / 1e6,
        "quant.dequant_rows_per_quantized_row": ratio(
            counters.get("quant.to_matrix.rows", 0), counters.get("quant.rows_quantized", 0)),
        "outlier.admit_frac": ratio(counters.get("outlier.pool_update.admitted", 0),
                                    counters.get("outlier.pool_update.candidates", 0)),
        # Untraced time expected at the traced repetition's machine speed.
        "trace_overhead_s": traced["wall_s"] - wall_ref * traced["ref_s"],
    })
    units = per_layer_units()
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def run_workload(name: str, seed: int, seconds: float, traced: bool, reference: dict) -> dict:
    """Repeat workload ``name`` for ``seconds``; returns metrics, checks and raw figures."""
    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or (time.perf_counter() - start < seconds and len(reps) < MAX_REPS):
        reps.append(one_rep(name, seed, len(reps)))
    results = [c for rep in reps for c in rep_checks(name, seed, rep, reference)]
    # Same seed, same inputs: every repetition must print the same summary.
    results.append(("deterministic", len({r["stdout"] for r in reps}) == 1,
                    "summaries differ between repetitions"))
    metrics = end_to_end(name, reps)
    trace_rep = None
    if traced:
        spans_out = os.path.join(OUT_DIR, f"spans-{name}.json")
        trace_rep = one_rep(name, seed, len(reps), spans_out=spans_out)
        results += rep_checks(name, seed, trace_rep, reference)
        results.append(("traced_output_identical", trace_rep["stdout"] == reps[0]["stdout"],
                        "tracing changed the summary"))
        metrics = per_layer(trace_rep, metrics["wall_ref"]["value"])
    return {"workload": name, "reps": reps, "trace_rep": trace_rep, "checks": results,
            "metrics": metrics, "env": environment(seed, reps[0]["numpy"]),
            "wall_s": {"median": statistics.median(r["wall_s"] for r in reps),
                       "min": min(r["wall_s"] for r in reps)}}


def report(result: dict) -> None:
    """Print the human-readable lines for one workload."""
    name = result["workload"]
    failed = [c for c in result["checks"] if not c[1]]
    wall = result["wall_s"]
    print(f"# {name}: {len(result['reps'])} repetitions; cli.run wall time median {wall['median']:.4g} s, "
          f"min {wall['min']:.4g} s; env {json.dumps(result['env'])}")
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    print(f"{name} failed_frac {len(failed) / len(result['checks']):.6g} "
          f"({len(failed)} of {len(result['checks'])} checks failed)")
    for check, _ok, why in failed:
        print(f"{name} FAILED {check}: {why}")
    if result["trace_rep"] and result["trace_rep"]["absent"]:
        print(f"{name} absent spans: {' '.join(result['trace_rep']['absent'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "kvtrace", "cli.py")):
        print(f"error: no kvtrace sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    reference = load_reference()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), reference) for n in names]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(WORK_DIR))

    for result in results:
        report(result)
        out = os.path.join(OUT_DIR, f"result-{result['workload']}-seed{args.seed}-trace{args.trace}.json")
        with open(out, "w") as f:
            json.dump({k: result[k] for k in ("workload", "env", "metrics", "wall_s", "checks")} | {
                "reps": [{k: r[k] for k in ("setup_s", "wall_s", "ref_s", "peak_rss_mb")} for r in result["reps"]]},
                f, indent=1)
    metrics = results[0]["metrics"] if len(results) == 1 else {
        f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(len(r["checks"]) for r in results)
    failed = sum(1 for r in results for c in r["checks"] if not c[1])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
