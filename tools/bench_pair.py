"""Paired benchmark runs: the working tree against a base revision.

Usage (from the repository root)::

    python3 tools/bench_pair.py HEAD~1 --label mychange --rounds 10
    python3 tools/bench_pair.py HEAD --current HEAD --label noise --rounds 10
    python3 tools/bench_pair.py HEAD --current HEAD --label tier1_noise --tier1

Each side is exported into its own temporary directory, removed at exit on
success or failure: the base with ``git archive BASE_REV``, the current side
as the working tree's tracked and untracked, not ignored files (or
``git archive`` of ``--current REV``). Each round runs each side's own
``perfbench/run.py --workload W --seconds S --trace 0``, alternating which
side goes first, with ``PYTHONDONTWRITEBYTECODE=1`` and no
``src/kvtrace/__pycache__``, since bytecode moves ``setup_s`` and
``peak_rss_mb``. After every round ``BENCH_<label>.json`` is rewritten in the
repository root with the environment, each side's ``correct`` per round and,
per workload and end-to-end metric of ``BENCHMARK.json``, each side's values,
median, quartiles and minimum, and the pairs each side won (ties count for
neither; ``better`` gives the direction).

With ``--tier1`` each round instead runs the Tier-1 suite, ``python -m pytest
-q -p no:cacheprovider``, in each tree, with ``PYTHONPATH=src``,
``PYTHONDONTWRITEBYTECODE=1`` and no ``.hypothesis/`` example database; the
record's one workload, ``tier1``, holds each side's wall seconds (``wall_s``)
and passed count (``passed``), and ``correct`` is pytest's exit status 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "current")
TIER1_COMMAND = ("-m", "pytest", "-q", "-p", "no:cacheprovider")
TIER1_BETTER = {"wall_s": "lower", "passed": "higher"}


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, stdout=subprocess.PIPE, **kwargs)


def export(rev: str | None, dest: str) -> None:
    """Write ``rev``'s files, or the working tree's if ``rev`` is None, into ``dest``."""
    if rev is not None:
        subprocess.run(["tar", "-x", "-C", dest], input=git("archive", "--format=tar", rev).stdout, check=True)
        return
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout.decode().split("\0")
    for name in filter(None, names):
        src = os.path.join(ROOT, name)
        if os.path.isfile(src):  # a tracked file deleted in the working tree is skipped
            os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def run_side(tree: str, workload: str, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; returns ``correct`` and {workload: {metric: value}}."""
    shutil.rmtree(os.path.join(tree, "src", "kvtrace", "__pycache__"), ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return parse_result(json.loads(proc.stdout.strip().splitlines()[-1]), workload)


def run_tier1(tree: str) -> dict:
    """One Tier-1 run in ``tree``; returns ``correct`` and {"tier1": {"wall_s", "passed"}}."""
    shutil.rmtree(os.path.join(tree, ".hypothesis"), ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1_COMMAND], cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    wall_s = time.perf_counter() - start
    return {"correct": proc.returncode == 0,
            "metrics": {"tier1": {"wall_s": wall_s, "passed": passed_count(proc.stdout)}}}


def passed_count(stdout: str) -> int:
    """The passed count on the last line of ``pytest -q``'s output, 0 if it names none."""
    lines = stdout.strip().splitlines() or [""]
    found = re.search(r"\b(\d+) passed\b", lines[-1])
    return int(found.group(1)) if found else 0


def parse_result(result: dict, workload: str) -> dict:
    """Split run.py's last line into ``correct`` and per-workload metric values.

    With one workload its metrics are named ``metric``; with ``all``,
    ``workload.metric``.
    """
    metrics: dict[str, dict[str, float]] = {}
    for name, m in result["metrics"].items():
        wl, metric = name.split(".", 1) if workload == "all" else (workload, name)
        metrics.setdefault(wl, {})[metric] = m["value"]
    return {"correct": result["correct"], "metrics": metrics}


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method, as numpy's default percentile) and minimum."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3, "min": min(values)}


def summarize(rounds: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric in ``better``: each side's spread and the pairs each side won.

    ``rounds`` holds one ``{"base": metrics, "current": metrics}`` per round,
    metrics as ``parse_result`` returns them; ``better`` maps each metric to
    ``"lower"`` or ``"higher"``.
    """
    out = {}
    for wl in rounds[0]["current"]:
        out[wl] = {}
        for metric, direction in better.items():
            pairs = [(r["base"][wl][metric], r["current"][wl][metric]) for r in rounds]
            sign = 1 if direction == "lower" else -1
            out[wl][metric] = {
                "better": direction,
                "base": spread([b for b, _ in pairs]),
                "current": spread([c for _, c in pairs]),
                "current_won": sum(1 for b, c in pairs if sign * (c - b) < 0),
                "base_won": sum(1 for b, c in pairs if sign * (b - c) < 0),
                "ties": sum(1 for b, c in pairs if b == c),
            }
    return out


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev", metavar="BASE_REV")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--current", metavar="REV", help="benchmark REV instead of the working tree")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--tier1", action="store_true", help="time the Tier-1 suite instead of perfbench")
    parser.add_argument("--workload", choices=[*(w["name"] for w in benchmark["workloads"]), "all"],
                        help="perfbench workload (default all)")
    parser.add_argument("--seconds", type=float, help="perfbench seconds per workload (default 10)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.tier1:
        if args.workload is not None or args.seconds is not None:
            parser.error("--workload and --seconds set perfbench runs, not --tier1 runs")
        better, measure = TIER1_BETTER, run_tier1
        settings = {"tier1": " ".join(["python", *TIER1_COMMAND]), "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    else:
        workload = "all" if args.workload is None else args.workload
        seconds = 10.0 if args.seconds is None else args.seconds
        better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
        measure = functools.partial(run_side, workload=workload, seconds=seconds)
        settings = {"workload": workload, "seconds": seconds, "trace": 0, "PYTHONDONTWRITEBYTECODE": "1"}
    out_path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    record = {
        "base_rev": args.base_rev,
        "base_commit": git("rev-parse", args.base_rev).stdout.decode().strip(),
        "current": args.current or "working tree",
        "current_uncommitted_changes": args.current is None and bool(git("status", "--porcelain").stdout),
        "current_commit": git("rev-parse", args.current or "HEAD").stdout.decode().strip(),
        "environment": environment(),
        "settings": settings,
    }
    rounds, first, correct = [], [], {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        for side, rev in (("base", args.base_rev), ("current", args.current)):
            os.mkdir(trees[side])
            export(rev, trees[side])
        for i in range(args.rounds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            results = {side: measure(trees[side]) for side in order}
            first.append(order[0])
            for side in SIDES:
                correct[side].append(results[side]["correct"])
            rounds.append({side: results[side]["metrics"] for side in SIDES})
            record.update(rounds=len(rounds), first=first, correct=correct, workloads=summarize(rounds, better))
            with open(out_path, "w") as f:
                json.dump(record, f, indent=1)
                f.write("\n")
            print(f"round {i + 1}/{args.rounds} done; wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
