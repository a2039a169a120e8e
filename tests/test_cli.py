import argparse
import csv
import os
import shutil
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from kvtrace import (
    EngineConfig,
    SyntheticSpec,
    TieredCache,
    Trace,
    TraceFormatError,
    TraceHeader,
    attend_full_precision,
    attend_mixed,
    cli,
    generate_synthetic,
    l1_error,
    read_trace,
    replay_caches,
    write_trace,
)
import kvtrace.replay as replay_module
from kvtrace.cli import run
from kvtrace.report import CSV_COLUMNS, write_csv

USAGE_KEYS = ("quantized_bits", "param_bits", "pending_bits", "pool_bits", "total_bits")


def out_lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


class TestExitCodes:
    def test_bad_flag_returns_one(self, capsys):
        assert run(["simulate", "--no-such-flag"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_value_returns_one(self, capsys):
        assert run(["gen-synthetic", "--eps", "0", "--out", "/tmp/x.kvt"]) == 1

    def test_parse_error_returns_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.kvt"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        assert run(["simulate", "--trace", str(bad)]) == 2
        assert "trace error" in capsys.readouterr().err

    def test_help_returns_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "subcommand" in capsys.readouterr().out or True


class TestParser:
    def test_one_terminal_query_per_build(self, monkeypatch):
        calls = []
        real = shutil.get_terminal_size

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(shutil, "get_terminal_size", counting)
        cli.build_parser()
        assert len(calls) <= 1

    @pytest.mark.parametrize("columns", ["40", "80", "132"])
    def test_help_text_as_argparse_formats_it(self, monkeypatch, capsys, columns):
        # The reference: argparse's own formatters, each asking the terminal.
        monkeypatch.setenv("COLUMNS", columns)
        parser = cli.build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        cases = [([], parser, argparse.RawDescriptionHelpFormatter)]
        cases += [([name], p, argparse.HelpFormatter) for name, p in subparsers.choices.items()]
        assert len(cases) == 7
        for argv, p, reference_formatter in cases:
            assert run(argv + ["--help"]) == 0
            got = capsys.readouterr().out
            p.formatter_class = reference_formatter
            assert got == p.format_help()


class TestMemEstimate:
    def test_reference_footprint(self, capsys):
        code = run(
            [
                "mem-estimate",
                "--layers", "32", "--heads", "8", "--head-dim", "512",
                "--seq-len", "8192", "--batch", "64", "--bytes-per-value", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "274877906944 bytes" in out
        assert "256 GiB" in out

    def test_zero_batch_rejected(self, capsys):
        assert run(["mem-estimate", "--layers", "1", "--heads", "1",
                    "--head-dim", "1", "--seq-len", "1", "--batch", "0"]) == 1


class TestGenSynthetic:
    def test_writes_readable_trace(self, tmp_path, capsys):
        out = tmp_path / "t.kvt"
        code = run(["gen-synthetic", "--layers", "1", "--heads", "1",
                    "--head-dim", "8", "--seq-len", "64", "--seed", "5",
                    "--out", str(out)])
        assert code == 0
        trace = read_trace(out)
        assert trace.header.seq_len == 64

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.kvt", tmp_path / "b.kvt"
        argv = ["gen-synthetic", "--layers", "1", "--heads", "2", "--head-dim", "8",
                "--seq-len", "64", "--seed", "9"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSimulate:
    def test_fp16_mode_is_exact(self, tmp_path, capsys):
        out = tmp_path / "steps.csv"
        code = run(["simulate", "--mode", "fp16", "--layers", "1", "--heads", "1",
                    "--head-dim", "8", "--seq-len", "32", "--out", str(out)])
        assert code == 0
        assert "aggregate_l1_error=0" in capsys.readouterr().out
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "step,l1_error"
        assert len(rows) == 33
        assert all(line.endswith(",0") for line in rows[1:])

    def test_outlier_mode_beats_baseline(self, capsys):
        base = ["--layers", "1", "--heads", "1", "--head-dim", "16",
                "--seq-len", "1024", "--skip-layers", "", "--seed", "0"]
        assert run(["simulate", "--mode", "baseline"] + base) == 0
        base_out = out_lines(capsys)[0]
        assert run(["simulate", "--mode", "ott"] + base) == 0
        ott_out = out_lines(capsys)[0]
        err = lambda line: float(line.split("aggregate_l1_error=")[1])
        assert err(ott_out) < err(base_out)

    def test_deterministic_csv(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--layers", "1", "--heads", "1", "--head-dim", "8",
                "--seq-len", "64", "--seed", "3"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def step_major_replay(trace, config):
    """Slow reference for ``simulate``: every cache alive, each step visits them all.

    Returns the per-step mean errors, the summed memory fields, the caches
    and each cache's per-step errors, all keyed by (layer, head).
    """
    h = trace.header
    caches = {
        (layer, head): TieredCache(config, layer=layer)
        for layer in range(h.n_layers)
        for head in range(h.n_heads)
    }
    cache_errors = {key: np.zeros(h.seq_len) for key in caches}
    step_errors = np.zeros(h.seq_len)
    for t in range(h.seq_len):
        total = 0.0
        for (layer, head), cache in caches.items():
            cache.append(trace.k[layer, head, t], trace.v[layer, head, t])
            q = trace.q[layer, head, t]
            mixed = attend_mixed(q, cache)
            oracle = attend_full_precision(
                q, trace.k[layer, head, : t + 1], trace.v[layer, head, : t + 1]
            )
            cache_errors[layer, head][t] = l1_error(mixed.output, oracle.output)
            total += cache_errors[layer, head][t]
        step_errors[t] = total / len(caches)
    breakdowns = [c.memory_usage() for c in caches.values()]
    usage = {key: sum(getattr(b, key) for b in breakdowns) for key in USAGE_KEYS}
    return step_errors, usage, caches, cache_errors


def engine_flags(cfg):
    return ["--bits", str(cfg.bits), "--group-size", str(cfg.group_size),
            "--residual", str(cfg.residual), "--outlier-num", str(cfg.outlier_num),
            "--skip-layers", ",".join(map(str, cfg.skip_layers)),
            "--aux-capacity", str(cfg.aux_capacity)]


# name: ((layers, heads, head_dim, seq_len), engine settings)
REPLAY_CASES = {
    "pooled": ((3, 2, 8, 300), EngineConfig(group_size=16, residual=3, skip_layers=(0,))),
    # Pools on layer 2 evict until the 2-slot auxiliary pool fills, then freeze.
    "evicting": ((3, 2, 8, 2048), EngineConfig(group_size=16, residual=3, aux_capacity=2)),
    "four_bit": ((2, 2, 8, 300), EngineConfig(bits=4, group_size=16, residual=3, outlier_num=2,
                                             aux_capacity=2, skip_layers=())),
}


class TestLayerByLayerReplay:
    """``simulate`` replays one cache at a time; the step-major loop is the reference."""

    @pytest.mark.parametrize("mode", ["ott", "baseline"])
    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    def test_bit_identical_to_step_major_reference(self, tmp_path, monkeypatch, capsys, case, mode):
        (layers, heads, head_dim, seq_len), cfg = REPLAY_CASES[case]
        trace = generate_synthetic(SyntheticSpec(seed=2), layers, heads, head_dim, seq_len)
        path = tmp_path / "t.kvt"
        write_trace(path, trace)
        recorded = []

        def recording_write_csv(out, header, rows):
            recorded.append(rows)
            write_csv(out, header, rows)

        yielded = []

        def recording_replay(trace, config):
            for layer, head, cache, errors in replay_caches(trace, config):
                yielded.append((layer, head, errors, cache.memory_usage()))
                yield layer, head, cache, errors

        monkeypatch.setattr(cli, "write_csv", recording_write_csv)
        monkeypatch.setattr(cli, "replay_caches", recording_replay)
        got_csv = tmp_path / "got.csv"
        argv = ["simulate", "--trace", str(path), "--mode", mode, *engine_flags(cfg), "--out", str(got_csv)]
        assert run(argv) == 0
        got_lines = out_lines(capsys)

        outlier_num = cfg.outlier_num if mode == "ott" else 0
        config = replace(cfg, outlier_num=outlier_num, head_dim=head_dim)
        want, usage, caches, cache_errors = step_major_replay(trace, config)
        got = np.array([row[1] for row in recorded[0]])
        assert got.tobytes() == want.tobytes()
        want_csv = tmp_path / "want.csv"
        write_csv(want_csv, ["step", "l1_error"], [[t, float(e)] for t, e in enumerate(want)])
        assert got_csv.read_bytes() == want_csv.read_bytes()
        fp16_bits = layers * heads * 2 * seq_len * head_dim * 16
        assert got_lines == [
            f"mode={mode} steps={seq_len} aggregate_l1_error={want.mean():.6g}",
            *(f"{key}={usage[key]}" for key in USAGE_KEYS),
            f"ratio_vs_fp16={fp16_bits / usage['total_bits']:.6g}",
        ]
        # The generator yields each cache, layer-major, exactly as the reference
        # leaves it, and simulate prints the sums of the yielded memory fields.
        assert [(layer, head) for layer, head, _, _ in yielded] == list(caches)
        for layer, head, errors, breakdown in yielded:
            assert errors.tobytes() == cache_errors[layer, head].tobytes()
            assert breakdown == caches[layer, head].memory_usage()
        summed = {key: sum(getattr(b, key) for *_, b in yielded) for key in USAGE_KEYS}
        assert got_lines[1:6] == [f"{key}={summed[key]}" for key in USAGE_KEYS]
        if case == "evicting" and mode == "ott":
            pooled = [c.pool for c in caches.values() if c.pool.capacity]
            assert pooled and all(p.frozen and p.aux_positions.size == 2 for p in pooled)

    def test_memory_above_trace_does_not_grow_with_caches(self, tmp_path, capsys):
        head_dim, seq_len = 32, 512
        flags = ["--group-size", "16", "--residual", "3", "--skip-layers", ""]
        extra = {}
        # The first run only warms imports and numpy's caches.
        for layers, heads in [(1, 1), (1, 1), (2, 3)]:
            path = tmp_path / f"t{layers}x{heads}.kvt"
            write_trace(path, generate_synthetic(SyntheticSpec(seed=4), layers, heads, head_dim, seq_len))
            tracemalloc.start()
            try:
                assert run(["simulate", "--trace", str(path), *flags]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            extra[layers * heads] = peak - 3 * layers * heads * seq_len * head_dim * 4
        # One cache's dense K and V buffers alone take 128 KiB here.
        assert extra[6] <= extra[1] + 64 * 1024


class TestReplayCaches:
    """The library generator, called directly rather than through ``simulate``."""

    def test_bit_identical_to_step_major_reference(self):
        (layers, heads, head_dim, seq_len), cfg = REPLAY_CASES["pooled"]
        trace = generate_synthetic(SyntheticSpec(seed=3), layers, heads, head_dim, seq_len)
        config = replace(cfg, head_dim=head_dim)
        _, _, caches, cache_errors = step_major_replay(trace, config)
        got = list(replay_caches(trace, config))
        assert [(layer, head) for layer, head, _, _ in got] == list(caches)
        for layer, head, cache, errors in got:
            assert errors.dtype == np.float64 and errors.shape == (seq_len,)
            assert errors.tobytes() == cache_errors[layer, head].tobytes()
            assert cache.memory_usage() == caches[layer, head].memory_usage()
            assert cache.total_tokens == seq_len

    def test_drops_each_cache_before_building_the_next(self, monkeypatch):
        built = []

        def tracked_cache(*args, **kwargs):
            assert all(ref() is None for ref in built)
            cache = TieredCache(*args, **kwargs)
            built.append(weakref.ref(cache))
            return cache

        monkeypatch.setattr(replay_module, "TieredCache", tracked_cache)
        trace = generate_synthetic(SyntheticSpec(seed=4), 2, 2, 4, 40)
        for _, _, cache, _ in replay_caches(trace, EngineConfig(group_size=8, residual=2, head_dim=4)):
            del cache  # the caller's reference; the generator must drop its own
        assert len(built) == 4


class TestFp16SimulateReadsOnlyTheHeader:
    """fp16 errors are 0 and its bits follow from the shape: no payload is read."""

    def test_peak_far_below_payload(self, tmp_path, capsys):
        path = tmp_path / "big.kvt"
        trace = generate_synthetic(SyntheticSpec(seed=6), 2, 4, 64, 1024)
        write_trace(path, trace)
        payload = 3 * trace.q.nbytes  # 6 MiB
        del trace
        argv = ["simulate", "--trace", str(path), "--mode", "fp16"]
        assert run(argv) == 0  # warms imports and argparse
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert run(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < payload / 20
        fp16_bits = 2 * 4 * 2 * 1024 * 64 * 16
        assert out_lines(capsys) == [
            "mode=fp16 steps=1024 aggregate_l1_error=0",
            "quantized_bits=0",
            "param_bits=0",
            f"pending_bits={fp16_bits}",
            "pool_bits=0",
            f"total_bits={fp16_bits}",
            "ratio_vs_fp16=1",
        ]

    @pytest.mark.parametrize(
        "damage", ["magic_missing", "magic", "header", "zero_dim", "payload", "trailing"]
    )
    def test_damaged_file_fails_as_a_full_read_does(self, tmp_path, capsys, damage):
        path = tmp_path / "t.kvt"
        write_trace(path, generate_synthetic(SyntheticSpec(seed=7), 1, 2, 8, 40))
        data = path.read_bytes()
        path.write_bytes({
            "magic_missing": data[:5],
            "magic": b"X" + data[1:],
            "header": data[:15],
            "zero_dim": data[:12] + bytes(4) + data[16:],
            "payload": data[:-7],
            "trailing": data + b"xx",
        }[damage])
        with pytest.raises(TraceFormatError) as exc:
            read_trace(path)
        for mode in ("fp16", "ott"):
            assert run(["simulate", "--trace", str(path), "--mode", mode]) == 2
            assert capsys.readouterr().err == f"trace error: {exc.value}\n"

    @pytest.mark.parametrize("damage", ["none", "payload", "trailing"])
    def test_pipe_is_read_whole(self, tmp_path, capsys, damage):
        path = tmp_path / "t.kvt"
        write_trace(path, generate_synthetic(SyntheticSpec(seed=8), 1, 2, 4, 40))
        data = path.read_bytes()
        data = {"none": data, "payload": data[:-7], "trailing": data + b"xx"}[damage]
        path.write_bytes(data)

        def simulate(source):
            code = run(["simulate", "--trace", source, "--mode", "fp16"])
            return code, capsys.readouterr()

        r, w = os.pipe()
        os.write(w, data)  # well under a pipe's buffer
        os.close(w)
        try:
            from_pipe = simulate(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert from_pipe == simulate(str(path))
        assert from_pipe[0] == (0 if damage == "none" else 2)


class TestCompareCriteriaCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "crit.csv"
        code = run(["compare-criteria", "--layers", "1", "--heads", "1",
                    "--head-dim", "16", "--seq-len", "256", "--budget", "3",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "criterion,budget,trials,mean_l1_error"
        assert len(lines) == 4

    def test_trials_require_synthetic(self, tmp_path, capsys):
        t = tmp_path / "t.kvt"
        run(["gen-synthetic", "--layers", "1", "--heads", "1", "--head-dim", "8",
             "--seq-len", "64", "--out", str(t)])
        capsys.readouterr()
        assert run(["compare-criteria", "--trace", str(t), "--trials", "2"]) == 1


def csv_records(path) -> list[dict]:
    """The rows of a ``ratio-curve`` CSV, after checking its header."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        assert reader.fieldnames == CSV_COLUMNS
        return list(reader)


class TestRatioCurveCommand:
    def test_short_sequence_ratio_is_one(self, tmp_path, capsys):
        out = tmp_path / "ratio.csv"
        code = run(["ratio-curve", "--seq-lens", "159", "--out", str(out)])
        assert code == 0
        rows = csv_records(out)
        assert float(rows[0]["ratio_vs_fp16"]) == 1.0

    def test_fp16_mode_is_exactly_lossless(self, tmp_path, capsys):
        # The fp16 control stores every row at 16 bits and pools nothing.
        out = tmp_path / "ratio.csv"
        assert run(["ratio-curve", "--seq-lens", "128,1024,8192", "--mode", "fp16",
                    "--out", str(out)]) == 0
        rows = csv_records(out)
        assert [int(r["seq_len"]) for r in rows] == [128, 1024, 8192]
        assert all(float(r["ratio_vs_fp16"]) == 1.0 and r["outlier_num"] == "0" for r in rows)
        assert all(line.endswith("ratio_vs_fp16=1") for line in out_lines(capsys))

    def test_prints_rows(self, capsys):
        assert run(["ratio-curve", "--seq-lens", "128,1024", "--head-dim", "16"]) == 0
        lines = out_lines(capsys)
        assert len(lines) == 2
        assert lines[0].startswith("seq_len=128")


class TestDecileStatsCommand:
    def test_auto_channel_and_sum(self, capsys):
        code = run(["decile-stats", "--layers", "1", "--heads", "1",
                    "--head-dim", "8", "--seq-len", "512"])
        assert code == 0
        lines = out_lines(capsys)
        assert lines[0] == "layer=0 head=0 channel=0"  # planted channel dominates
        pcts = [float(x) for x in lines[1].split("=")[1].split(",")]
        # printed at 6 significant digits, so the parsed sum carries rounding
        assert abs(sum(pcts) - 100.0) < 1e-3

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "dec.csv"
        assert run(["decile-stats", "--layers", "1", "--heads", "1", "--head-dim", "8",
                    "--seq-len", "512", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("decile_1,")
        assert len(lines) == 2


SMALL = ["--layers", "2", "--heads", "1", "--head-dim", "8", "--seq-len", "64"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["decile-stats", *SMALL, "--layer", "-1"], 1),
        (["decile-stats", *SMALL, "--layer", "2"], 1),
        (["decile-stats", *SMALL, "--head", "1"], 1),
        (["decile-stats", *SMALL, "--head", "-1"], 1),
        (["decile-stats", *SMALL, "--channel", "8"], 1),
        (["decile-stats", *SMALL, "--channel", "-1"], 1),
        (["compare-criteria", *SMALL, "--layer", "-1"], 1),
        (["compare-criteria", *SMALL, "--layer", "2"], 1),
        (["compare-criteria", *SMALL, "--head", "1"], 1),
        (["simulate", *SMALL, "--skip-layers", "0,x"], 1),
        (["ratio-curve", "--seq-lens", "128", "--skip-layers", "1;2"], 1),
        (["ratio-curve", "--seq-lens", "12a"], 1),
        (["simulate", "--trace", "{tmp}/missing.kvt"], 2),
        (["decile-stats", "--trace", "{tmp}/missing.kvt"], 2),
        (["simulate", *SMALL, "--out", "{tmp}/no-such-dir/steps.csv"], 1),
        (["decile-stats", "--trace", "{tmp}/constant.kvt"], 1),
        (["compare-criteria", *SMALL, "--group-size", "0"], 1),
        (["compare-criteria", *SMALL, "--group-size", "-5"], 1),
        (["compare-criteria", *SMALL, "--trials", "0"], 1),
        (["compare-criteria", *SMALL, "--trials", "-1"], 1),
        (["compare-criteria", *SMALL, "--residual", "7"], 1),
        (["compare-criteria", *SMALL, "--outlier-num", "5"], 1),
        (["compare-criteria", *SMALL, "--skip-layers", "1"], 1),
        (["compare-criteria", *SMALL, "--aux-capacity", "0"], 1),
        (["compare-criteria", *SMALL, "--mode", "baseline"], 1),
        (["compare-criteria", *SMALL, "--bits", "9", "--mode", "fp16"], 1),
        (["simulate", *SMALL, "--sigma", "-1"], 1),
        (["gen-synthetic", *SMALL, "--mu", "inf", "--out", "{tmp}/inf.kvt"], 1),
        (["gen-synthetic", *SMALL, "--q-scale", "nan", "--out", "{tmp}/nan.kvt"], 1),
        (["gen-synthetic", *SMALL, "--mu", "1e39", "--out", "{tmp}/big.kvt"], 1),
        (["simulate", *SMALL, "--q-scale", "3e38"], 1),
    ],
)
# Pytest would capture a numpy warning away from capsys; turned into an
# error here, it fails the test as it would add a line to stderr.
@pytest.mark.filterwarnings("error")
def test_bad_input_exits_with_one_line_error(argv, code, tmp_path, capsys):
    zeros = np.zeros((1, 1, 8, 2), dtype=np.float32)
    write_trace(tmp_path / "constant.kvt", Trace(TraceHeader(1, 1, 2, 8), zeros, zeros, zeros))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert run(argv) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("trace error:" if code == 2 else "error:")
