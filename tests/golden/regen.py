#!/usr/bin/env python3
"""Record or check the golden outputs of a fixed command matrix.

Each case keeps its outputs in ``tests/golden/<case>/``: ``exit_code``,
``stdout`` and ``stderr``, plus ``out.csv`` or ``out.kvt`` when the
command writes a CSV or a trace file.
CLI cases run in this process through ``kvtrace.cli.run``; demo cases run
each script in a fresh interpreter, with ``src`` on ``PYTHONPATH``.

Usage::

    python tests/golden/regen.py            # record files that do not exist yet
    python tests/golden/regen.py --check    # compare byte for byte; exit 1 on any difference
    python tests/golden/regen.py --accept   # also overwrite files whose bytes changed

Without ``--accept`` an existing file is never overwritten: a changed
output is reported, with its first differing line (or, for a trace file,
byte offset), and the exit code is 1. A directory here that names no
case, such as one a renamed case left behind, is reported in every mode
and never removed. Give the reason for every accepted change in
CHANGES.md. ``tests/test_golden.py`` checks the CLI cases in Tier-1, with
printed L1 errors compared within a tolerance.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parent.parent

# ``{out}`` stands for the CSV a case writes, ``{out_trace}`` for the trace
# file it writes and ``{trace}`` for the trace file it reads (see
# TRACE_INPUTS); recorded stdout and stderr show these placeholders, not
# the paths. A case that prints an L1 error sets the L1 tolerance of
# ``tests/test_golden.py`` by its ``--head-dim`` or, if it reads ``{trace}``,
# by the head_dim of TRACE_INPUT.
OUTPUTS = {"{out}": "out.csv", "{out_trace}": "out.kvt"}
_DECODE_LONG = ["--layers", "3", "--heads", "1", "--head-dim", "16", "--seq-len", "1024", "--seed", "0"]
CLI_CASES = {
    "simulate-ott": ["simulate", *_DECODE_LONG, "--mode", "ott", "--out", "{out}"],
    "simulate-baseline": ["simulate", *_DECODE_LONG, "--mode", "baseline", "--out", "{out}"],
    "simulate-fp16": ["simulate", *_DECODE_LONG, "--mode", "fp16", "--out", "{out}"],
    "simulate-wide": ["simulate", "--layers", "4", "--heads", "8", "--head-dim", "64",
                      "--seq-len", "192", "--seed", "1", "--out", "{out}"],
    # Pools on layer 2 fill their 2-slot auxiliary pools, so tokens are evicted.
    "simulate-evicting": ["simulate", "--layers", "3", "--heads", "2", "--head-dim", "8",
                          "--seq-len", "512", "--seed", "2", "--group-size", "16",
                          "--residual", "3", "--aux-capacity", "2", "--out", "{out}"],
    "ratio-curve-ott": ["ratio-curve", "--head-dim", "64", "--out", "{out}"],
    "ratio-curve-fp16": ["ratio-curve", "--head-dim", "64", "--mode", "fp16", "--out", "{out}"],
    "ratio-curve-baseline-bits4": ["ratio-curve", "--head-dim", "64", "--mode", "baseline",
                                   "--bits", "4", "--out", "{out}"],
    "compare-criteria-ott": ["compare-criteria", "--layers", "1", "--head-dim", "16",
                             "--seq-len", "512", "--trials", "3", "--out", "{out}"],
    "compare-criteria-fp16": ["compare-criteria", "--layers", "1", "--head-dim", "16",
                              "--seq-len", "512", "--trials", "3", "--mode", "fp16",
                              "--out", "{out}"],
    "decile-stats": ["decile-stats", "--layers", "1", "--head-dim", "16", "--seq-len", "256",
                     "--out", "{out}"],
    "gen-synthetic": ["gen-synthetic", "--layers", "1", "--heads", "2", "--head-dim", "4",
                      "--seq-len", "40", "--seed", "3", "--out", "{out_trace}"],
    # Two cases that draw blocks other than (0, 0) of a synthetic trace.
    "decile-stats-last-block": ["decile-stats", "--layers", "3", "--heads", "2", "--layer", "2",
                                "--head", "1", "--seed", "4", "--out", "{out}"],
    "gen-synthetic-2x2": ["gen-synthetic", "--layers", "2", "--heads", "2", "--head-dim", "4",
                          "--seq-len", "40", "--outlier-channels", "2", "--seed", "5",
                          "--out", "{out_trace}"],
}
# Code widths other than the default 2, with pooling on layer 1.
for _bits in (1, 3, 4, 8):
    CLI_CASES[f"simulate-bits{_bits}"] = [
        "simulate", "--layers", "2", "--heads", "1", "--head-dim", "8", "--seq-len", "300",
        "--skip-layers", "0", "--bits", str(_bits), "--out", "{out}"]

# Each damage turns a small valid trace's bytes into a file ``simulate``
# must reject with exit code 2 and one ``trace error:`` line.
DAMAGES = {
    "magic_missing": lambda data: data[:5],
    "magic": lambda data: b"X" + data[1:],
    "header": lambda data: data[:15],
    "zero_dim": lambda data: data[:12] + bytes(4) + data[16:],
    "payload": lambda data: data[:-7],
    "trailing": lambda data: data + b"xx",
}
# The seed and (layers, heads, head_dim, seq_len) of the synthetic trace
# written for ``{trace}`` before TRACE_INPUTS[case] turns its bytes into the input.
TRACE_INPUT = {"seed": 7, "shape": (1, 2, 8, 40)}
TRACE_INPUTS = {f"simulate-damaged-{name}": damage for name, damage in DAMAGES.items()}
for _name in TRACE_INPUTS:
    CLI_CASES[_name] = ["simulate", "--trace", "{trace}"]
# Cases that read blocks of the undamaged trace from its file.
_FILE_CASES = {
    "simulate-trace-file": ["simulate", "--trace", "{trace}", "--group-size", "16", "--residual", "3"],
    "compare-criteria-trace-file": ["compare-criteria", "--trace", "{trace}", "--head", "1",
                                    "--group-size", "16"],
    "decile-stats-trace-file": ["decile-stats", "--trace", "{trace}", "--head", "1"],
}
for _name, _argv in _FILE_CASES.items():
    TRACE_INPUTS[_name] = lambda data: data
    CLI_CASES[_name] = _argv
DEMO_CASES = {f"demo-{p.stem}": p for p in sorted((ROOT / "demos").glob("*.py"))}


def run_cli_case(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one CLI case in this process; returns its output files by name."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from kvtrace import SyntheticSpec, cli, generate_synthetic, write_trace

    paths = {key: str(workdir / fname) for key, fname in OUTPUTS.items()}
    if name in TRACE_INPUTS:
        paths["{trace}"] = trace = str(workdir / "in.kvt")
        spec = SyntheticSpec(seed=TRACE_INPUT["seed"])
        write_trace(trace, generate_synthetic(spec, *TRACE_INPUT["shape"]))
        Path(trace).write_bytes(TRACE_INPUTS[name](Path(trace).read_bytes()))
    argv = CLI_CASES[name]
    for key, path in paths.items():
        argv = [a.replace(key, path) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv)
    files = {"exit_code": f"{code}\n".encode(), "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    for stream in ("stdout", "stderr"):
        for key, path in paths.items():
            files[stream] = files[stream].replace(path, key)
        files[stream] = files[stream].encode()
    for fname in OUTPUTS.values():
        if (workdir / fname).exists():
            files[fname] = (workdir / fname).read_bytes()
    return files


def run_demo_case(script: Path, workdir: Path) -> dict[str, bytes]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(script)], cwd=workdir, env=env,
                          capture_output=True, timeout=300)
    return {"exit_code": f"{done.returncode}\n".encode(), "stdout": done.stdout, "stderr": done.stderr}


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    if name in CLI_CASES:
        return run_cli_case(name, workdir)
    return run_demo_case(DEMO_CASES[name], workdir)


def recorded(name: str) -> dict[str, bytes]:
    case_dir = GOLDEN / name
    return {p.name: p.read_bytes() for p in sorted(case_dir.iterdir())} if case_dir.is_dir() else {}


def _first_mismatch(a, b) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def first_difference(fname: str, old: bytes, new: bytes) -> list[str]:
    """Where a recorded file and its new bytes first differ, as lines to print.

    A trace file gives the first differing byte offset; a text file gives
    the first differing line's number, then both lines cut to 120 characters.
    """
    if fname == "out.kvt":
        return [f"  first differing byte at offset {_first_mismatch(old, new)}"]
    old_lines, new_lines = (b.decode(errors="replace").splitlines(keepends=True) for b in (old, new))
    i = _first_mismatch(old_lines, new_lines)

    def shown(lines):
        return lines[i].rstrip("\r\n")[:120] if i < len(lines) else "<end of file>"

    return [f"  line {i + 1}", f"  recorded: {shown(old_lines)}", f"  new:      {shown(new_lines)}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="compare only; write nothing")
    mode.add_argument("--accept", action="store_true", help="overwrite files whose bytes changed")
    args = parser.parse_args(argv)

    problems = 0
    for name in [*CLI_CASES, *DEMO_CASES]:
        with tempfile.TemporaryDirectory() as tmp:
            got = run_case(name, Path(tmp))
        want = recorded(name)
        for fname in sorted(set(got) | set(want)):
            if got.get(fname) == want.get(fname):
                continue
            path = GOLDEN / name / fname
            what = "differs" if fname in got and fname in want else (
                "not recorded" if fname in got else "recorded but no longer written")
            if args.check or (fname in want and not args.accept):
                problems += 1
                print(f"{name}/{fname}: {what}")
                if what == "differs":
                    print("\n".join(first_difference(fname, want[fname], got[fname])))
            elif fname in got:
                path.parent.mkdir(exist_ok=True)
                path.write_bytes(got[fname])
                print(f"{name}/{fname}: {what}; written")
            else:
                path.unlink()
                print(f"{name}/{fname}: {what}; deleted")
    known = {*CLI_CASES, *DEMO_CASES, "__pycache__"}
    for path in sorted(GOLDEN.iterdir()):
        if path.is_dir() and path.name not in known:
            problems += 1
            print(f"{path.name}/: no such case")
    cases = len(CLI_CASES) + len(DEMO_CASES)
    print(f"{cases} cases, {problems} difference(s)" if problems else f"{cases} cases, all identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
