"""Tests of the benchmark's tracer, checks and result contract.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run as bench  # noqa: E402
import kvtrace  # noqa: E402
from kvtrace import cli, quant  # noqa: E402
from kvtrace.trace import SyntheticSpec, generate_synthetic, write_trace  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {"layers": 3, "heads": 2, "head_dim": 8, "seq_len": 200}


@pytest.fixture
def tiny_trace(tmp_path):
    path = str(tmp_path / "tiny.kvt")
    write_trace(path, generate_synthetic(SyntheticSpec(seed=3), *TINY.values()))
    return path


def simulate(path):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.run(["simulate", "--trace", path, *bench.ENGINE_FLAGS])
    return rc, buf.getvalue()


class TestTracer:
    def test_wrapped_results_bit_identical(self, tiny_trace):
        group = np.random.default_rng(0).standard_normal((128, 16)).astype(np.float32)
        plain_block = quant.quantize_keys_channelwise(group, 2)
        plain_cli = simulate(tiny_trace)
        with Tracer() as tracer:
            traced_block = quant.quantize_keys_channelwise(group, 2)
            traced_cli = simulate(tiny_trace)
        assert tracer.summary()["quant.quantize_keys_channelwise"]["calls"] >= 2
        assert traced_block.codes == plain_block.codes
        assert traced_block.params == plain_block.params
        assert np.array_equal(traced_block.to_matrix(), plain_block.to_matrix())
        assert traced_cli == plain_cli

    def test_patches_every_binding_and_restores(self):
        original = kvtrace.attention.attend_full_precision
        original_append = kvtrace.TieredCache.append
        with Tracer():
            for ns in (kvtrace, kvtrace.cli, kvtrace.report, kvtrace.attention):
                assert ns.attend_full_precision is not original
            assert kvtrace.TieredCache.append is not original_append
        for ns in (kvtrace, kvtrace.cli, kvtrace.report, kvtrace.attention):
            assert ns.attend_full_precision is original
        assert kvtrace.TieredCache.append is original_append

    def test_spans_nest_and_self_time_adds_up(self, tiny_trace):
        with Tracer() as tracer:
            assert simulate(tiny_trace)[0] == 0
        spans = tracer.spans
        for parent, _name, start, end in spans:
            assert start <= end
            if parent >= 0:
                assert spans[parent][2] <= start and end <= spans[parent][3]
        names = [s[1] for s in spans]
        for i, (parent, name, _s, _e) in enumerate(spans):
            if name == "attention.reconstructed_kv" or name == "attention.exact":
                assert names[parent] == "attention.attend_mixed"
            if name == "attention.oracle":
                assert names[parent] == "cli.run"
        summary = tracer.summary()
        for row in summary.values():
            assert 0 <= row["self_s"] <= row["s"] + 1e-12
        # Every span sits under the one cli.run span, so self times partition it.
        roots = [s for s in spans if s[0] < 0]
        assert [s[1] for s in roots] == ["cli.run"]
        total_self = sum(row["self_s"] for row in summary.values())
        assert total_self == pytest.approx(summary["cli.run"]["s"], rel=1e-9)
        steps = TINY["layers"] * TINY["heads"] * TINY["seq_len"]
        for name in ("attention.attend_mixed", "attention.exact", "attention.oracle", "cache.append"):
            assert summary[name]["calls"] == steps

    def test_counters(self, tiny_trace):
        with Tracer() as tracer:
            simulate(tiny_trace)
        c = tracer.counters
        assert c["trace.read_trace.bytes"] == os.path.getsize(tiny_trace)
        caches = TINY["layers"] * TINY["heads"]
        assert c["quant.rows_quantized"] == caches * 2 * 128  # one K and one V group each
        assert c["outlier.pool_update.candidates"] == TINY["heads"] * 128  # pooling on layer 2 only
        assert 0 < c["outlier.pool_update.admitted"] <= c["outlier.pool_update.candidates"]

    def test_missing_function_reported_absent(self, monkeypatch):
        monkeypatch.delattr(kvtrace.quant, "pack_codes")
        with Tracer() as tracer:
            pass
        assert tracer.absent(["quant.pack_codes", "quant.quantize_uniform"]) == ["quant.pack_codes"]
        metrics = bench.per_layer({"layers": tracer.summary(), "counters": {}, "wall_s": 1.0, "ref_s": 1.0}, 1.0)
        assert metrics["quant.pack_codes.calls"]["value"] == 0


class TestChecks:
    @pytest.fixture
    def summary(self, tiny_trace):
        rc, text = simulate(tiny_trace)
        assert rc == 0
        return text

    def run_checks(self, text, rc=0, reference=None):
        return checks.check_simulate(rc, text, TINY, bench.ENGINE, reference)

    def failed(self, results):
        return [name for name, ok, _why in results if not ok]

    def test_real_summary_passes(self, summary):
        assert self.failed(self.run_checks(summary)) == []

    @pytest.mark.parametrize("field,value,check", [
        ("quantized_bits", "+2", "closed_form.quantized_bits"),
        ("param_bits", "-32", "closed_form.param_bits"),
        ("pending_bits", "+16", "closed_form.pending_bits"),
        ("total_bits", "+1", "total_bits"),
        ("pool_bits", "+100000000", "pool_bound"),
        ("ratio_vs_fp16", "*1.01", "ratio_vs_fp16"),
        ("aggregate_l1_error", "=nan", "fields_parse"),
        ("steps", "+1", "mode_and_steps"),
    ])
    def test_tampered_summary_rejected(self, summary, field, value, check):
        fields = checks.parse_summary(summary)
        old = fields[field]
        if value.startswith("="):
            new = value[1:]
        elif value.startswith("*"):
            new = f"{float(old) * float(value[1:]):.6g}"
        else:
            new = str(int(old) + int(value))
        tampered = summary.replace(f"{field}={old}", f"{field}={new}")
        assert tampered != summary
        assert check in self.failed(self.run_checks(tampered))

    def test_nonzero_exit_rejected(self, summary):
        assert "exit_code" in self.failed(self.run_checks(summary, rc=1))

    def test_reference_tolerance(self, summary):
        fields = checks.parse_summary(summary)
        ref = {k: int(fields[k]) for k in checks.BIT_FIELDS}
        l1 = float(fields["aggregate_l1_error"])
        tol = checks.L1_ABS_TOL_PER_ELEMENT * TINY["head_dim"]
        assert self.failed(self.run_checks(summary, reference={**ref, "aggregate_l1_error": l1 + 0.5 * tol})) == []
        bad = self.failed(self.run_checks(summary, reference={**ref, "aggregate_l1_error": l1 + 10 * tol}))
        assert bad == ["reference.aggregate_l1_error"]
        bad = self.failed(self.run_checks(summary, reference={**ref, "pool_bits": ref["pool_bits"] + 256}))
        assert bad == ["reference.pool_bits"]


class TestContract:
    def test_benchmark_json_matches_reported_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()

    def test_reference_covers_every_workload(self):
        reference = bench.load_reference()
        assert reference["seed"] == bench.REFERENCE_SEED
        assert set(reference["workloads"]) == set(bench.WORKLOADS)

    def test_fails_without_sources(self, tmp_path):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
        shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "decode-long", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
