"""One phase of one benchmark repetition, in a fresh process.

Usage: ``python3 perfbench/worker.py '<job json>'``. The job's ``phase``:

* ``setup``: import kvtrace, then generate and write each input trace.
  Reports ``setup_s``, the time from before the import to the last write.
* ``run``: import kvtrace, then time ``kvtrace.cli.run(argv)`` with its
  stdout captured, optionally under the tracer, between two timings of
  ``reference_loop``. Reports the wall time, the reference time, the
  process's peak RSS, and the captured summary. An optional ``probe_argv``
  runs afterwards, untimed and untraced.

The result is printed as one JSON line on stdout.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def setup(job: dict) -> dict:
    t0 = time.perf_counter()
    from kvtrace.trace import SyntheticSpec, generate_synthetic, write_trace

    for item in job["inputs"]:
        trace = generate_synthetic(
            SyntheticSpec(seed=item["seed"]),
            item["layers"], item["heads"], item["head_dim"], item["seq_len"],
        )
        write_trace(item["path"], trace)
    return {"setup_s": time.perf_counter() - t0}


def reference_loop(rounds: int = 2000) -> float:
    """Seconds for a fixed mix of block copies and small numpy calls.

    It resembles a decode step (concatenate blocks, score, softmax,
    weighted sum) but runs no kvtrace code, so a change to kvtrace cannot
    move it: dividing a call's time by it cancels how fast the shared
    machine happens to be. It uses no ``np.random``, which would add to the
    process's peak RSS.
    """
    import numpy as np

    blocks = [np.sin(np.arange(128 * 16, dtype=np.float32) + i).reshape(128, 16) for i in range(8)]
    q = np.cos(np.arange(16, dtype=np.float32))
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(rounds):
        keys = np.concatenate(blocks[: 1 + i % 8])
        s = keys @ q
        e = np.exp(s - s.max())
        acc += float(np.abs((e / e.sum()) @ keys).sum(dtype=np.float64))
    return time.perf_counter() - t0


def _call_cli(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    return rc, buf.getvalue()


def run(job: dict) -> dict:
    import numpy as np
    from kvtrace import cli
    from tracer import Tracer

    tracer = Tracer() if job.get("spans_out") else None
    ref_before = reference_loop()
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        rc, stdout = _call_cli(cli, job["argv"])
        wall = time.perf_counter() - t0
    out = {
        "rc": rc,
        "stdout": stdout,
        "wall_s": wall,
        "ref_s": (ref_before + reference_loop()) / 2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "numpy": np.__version__,
    }
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["counters"] = dict(tracer.counters)
        out["absent"] = tracer.absent(job["expected_spans"])
        tracer.write(job["spans_out"], {"argv": job["argv"], "wall_s": wall, "absent": out["absent"]})
    if job.get("probe_argv"):
        out["probe_rc"], out["probe_stdout"] = _call_cli(cli, job["probe_argv"])
    return out


def main() -> int:
    job = json.loads(sys.argv[1])
    result = setup(job) if job["phase"] == "setup" else run(job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
