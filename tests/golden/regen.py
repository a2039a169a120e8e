#!/usr/bin/env python3
"""Record or check the golden outputs of a fixed command matrix.

Each case keeps its outputs in ``tests/golden/<case>/``: ``exit_code``,
``stdout`` and ``stderr``, plus ``out.csv`` when the command writes one.
CLI cases run in this process through ``kvtrace.cli.run``; demo cases run
each script in a fresh interpreter, with ``src`` on ``PYTHONPATH``.

Usage::

    python tests/golden/regen.py            # record files that do not exist yet
    python tests/golden/regen.py --check    # compare byte for byte; exit 1 on any difference
    python tests/golden/regen.py --accept   # also overwrite files whose bytes changed

Without ``--accept`` an existing file is never overwritten: a changed
output is reported and the exit code is 1. Give the reason for every
accepted change in CHANGES.md. ``tests/test_golden.py`` checks the CLI
cases in Tier-1, with printed L1 errors compared within a tolerance.
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

# ``{out}`` stands for the case's CSV path. Every case gives ``--head-dim``,
# which sets the L1 tolerance of ``tests/test_golden.py``.
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
}
DEMO_CASES = {f"demo-{p.stem}": p for p in sorted((ROOT / "demos").glob("*.py"))}


def run_cli_case(argv: list[str], workdir: Path) -> dict[str, bytes]:
    """Run one CLI case in this process; returns its output files by name."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from kvtrace import cli

    out = workdir / "out.csv"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run([a.replace("{out}", str(out)) for a in argv])
    files = {
        "exit_code": f"{code}\n".encode(),
        "stdout": stdout.getvalue().encode(),
        "stderr": stderr.getvalue().encode(),
    }
    if out.exists():
        files["out.csv"] = out.read_bytes()
    return files


def run_demo_case(script: Path, workdir: Path) -> dict[str, bytes]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(script)], cwd=workdir, env=env,
                          capture_output=True, timeout=300)
    return {"exit_code": f"{done.returncode}\n".encode(), "stdout": done.stdout, "stderr": done.stderr}


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    if name in CLI_CASES:
        return run_cli_case(CLI_CASES[name], workdir)
    return run_demo_case(DEMO_CASES[name], workdir)


def recorded(name: str) -> dict[str, bytes]:
    case_dir = GOLDEN / name
    return {p.name: p.read_bytes() for p in sorted(case_dir.iterdir())} if case_dir.is_dir() else {}


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
            elif fname in got:
                path.parent.mkdir(exist_ok=True)
                path.write_bytes(got[fname])
                print(f"{name}/{fname}: {what}; written")
            else:
                path.unlink()
                print(f"{name}/{fname}: {what}; deleted")
    cases = len(CLI_CASES) + len(DEMO_CASES)
    print(f"{cases} cases, {problems} difference(s)" if problems else f"{cases} cases, all identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
