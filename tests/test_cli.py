import argparse
import csv
import math
import os
import shutil
import struct
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from kvtrace import (
    ContractViolation,
    EngineConfig,
    SyntheticSpec,
    TieredCache,
    TraceFile,
    TraceFormatError,
    cli,
    generate_synthetic,
    read_trace,
    replay_caches,
    write_trace,
)
import kvtrace.replay as replay_module
import kvtrace.trace as trace_module
from kvtrace.cli import run
from kvtrace.report import write_csv

from spec import USAGE_KEYS, closed_form_bits, spec_replay


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
        out = capsys.readouterr().out
        for command in ("gen-synthetic", "simulate", "compare-criteria", "ratio-curve",
                        "mem-estimate", "decile-stats"):
            assert command in out


class TestNonFiniteTraceValues:
    """A trace file holding a non-finite value, or a key whose logit overflows, ends in one ``error:`` line."""

    LAYERS, HEADS, D, T = 2, 1, 8, 300

    def patched_trace(self, tmp_path, side, channel, value):
        """A generated trace with ``value`` at token 0, ``channel`` of layer 0's K (side 1) or V (side 2)."""
        path = tmp_path / "t.kvt"
        assert run(["gen-synthetic", "--layers", str(self.LAYERS), "--heads", str(self.HEADS),
                    "--head-dim", str(self.D), "--seq-len", str(self.T), "--out", str(path)]) == 0
        data = bytearray(path.read_bytes())
        # The payload follows the 24-byte header: per (layer, head), Q, K, then V as (T, d) float32.
        struct.pack_into("<f", data, 24 + (side * self.T * self.D + channel) * 4, value)
        path.write_bytes(bytes(data))
        return path

    @pytest.mark.parametrize("mode", ["ott", "baseline"])
    @pytest.mark.parametrize(
        "side, channel, value, message",
        [
            (1, 0, math.nan, "softmax input contains NaN or Inf"),
            # Finite, but its logit overflows float32 for any query with |q_1| > 1.14.
            (1, 1, -3e38, "softmax input contains NaN or Inf"),
            (2, 0, math.inf, "rows contain NaN or Inf"),
        ],
        ids=["nan-key", "overflowing-key", "inf-value"],
    )
    def test_one_error_line(self, tmp_path, capsys, mode, side, channel, value, message):
        path = self.patched_trace(tmp_path, side, channel, value)
        capsys.readouterr()
        assert run(["simulate", "--trace", str(path), "--mode", mode]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"


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

    # Each subcommand's flags that set the EngineConfig field of the same name.
    ENGINE = ("bits", "group_size", "residual", "outlier_num", "skip_layers", "aux_capacity")
    ENGINE_FLAGS = {"simulate": ENGINE, "ratio-curve": ENGINE + ("head_dim",),
                    "compare-criteria": ("bits", "group_size")}

    @pytest.mark.parametrize("name", ENGINE_FLAGS)
    def test_engine_flags_default_to_engine_config(self, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "200")
        (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        p = subparsers.choices[name]
        actions = {a.dest: a for a in p._actions}
        text = " ".join(p.format_help().split())
        for dest in self.ENGINE_FLAGS[name]:
            action, want = actions[dest], getattr(EngineConfig, dest)
            if dest == "skip_layers":
                assert tuple(cli._int_list("--skip-layers", action.default)) == want
                shown = "'" + ",".join(map(str, want)) + "'"
            else:
                assert action.default == want
                shown = str(want)
            flag_help = text.split(f"{action.option_strings[0]} {dest.upper()} ", 1)[1].split(" --", 1)[0]
            assert flag_help.endswith(f"(default {shown})"), (dest, flag_help)


class TestMemEstimate:
    def test_reference_footprint(self, capsys):
        code = run(
            [
                "mem-estimate",
                "--layers", "32", "--heads", "8", "--head-dim", "512",
                "--seq-len", "8192", "--batch", "64",
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

    def test_defaults_are_the_reference_trace(self, tmp_path, capsys):
        a, b = tmp_path / "a.kvt", tmp_path / "b.kvt"
        assert run(["gen-synthetic", "--out", str(a)]) == 0
        assert run(["gen-synthetic", "--layers", "3", "--heads", "1", "--head-dim", "16",
                    "--seq-len", "1024", "--mu", "40", "--sigma", "16", "--eps", "0.01",
                    "--delta", "4", "--outlier-tokens", "3", "--outlier-channels", "1",
                    "--q-scale", "0.45", "--out", str(b)]) == 0
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


def usage_fields(breakdown):
    """A ``MemoryBreakdown``'s fields, keyed as ``spec.closed_form_bits`` keys them."""
    return {key: getattr(breakdown, key) for key in USAGE_KEYS}


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
    """``simulate`` replays one cache at a time; the spec's replay (``spec.spec_replay``) is the reference."""

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
                pool = cache.pool
                yielded.append((layer, head, errors.tobytes(), pool.positions.tolist(),
                                pool.aux_positions.tolist(), usage_fields(cache.memory_usage())))
                yield layer, head, cache, errors

        monkeypatch.setattr(cli, "write_csv", recording_write_csv)
        monkeypatch.setattr(cli, "replay_caches", recording_replay)
        got_csv = tmp_path / "got.csv"
        argv = ["simulate", "--trace", str(path), "--mode", mode, *engine_flags(cfg), "--out", str(got_csv)]
        assert run(argv) == 0
        got_lines = out_lines(capsys)

        outlier_num = cfg.outlier_num if mode == "ott" else 0
        config = replace(cfg, outlier_num=outlier_num, head_dim=head_dim)
        spec = list(spec_replay(trace, config))
        want = np.zeros(seq_len)
        for _, _, errors, _, _ in spec:  # layer-major, as simulate sums the caches' errors
            want += errors
        want /= layers * heads
        got = np.array([row[1] for row in recorded[0]])
        assert got.tobytes() == want.tobytes()
        want_csv = tmp_path / "want.csv"
        write_csv(want_csv, ["step", "l1_error"], [[t, float(e)] for t, e in enumerate(want)])
        assert got_csv.read_bytes() == want_csv.read_bytes()
        bits = [closed_form_bits(config, seq_len, len(positions) + len(aux)) for *_, positions, aux in spec]
        usage = {key: sum(b[key] for b in bits) for key in USAGE_KEYS}
        fp16_bits = layers * heads * 2 * seq_len * head_dim * 16
        assert got_lines == [
            f"mode={mode} steps={seq_len} aggregate_l1_error={want.mean():.6g}",
            *(f"{key}={usage[key]}" for key in USAGE_KEYS),
            f"ratio_vs_fp16={fp16_bits / usage['total_bits']:.6g}",
        ]
        # The generator yields each cache, layer-major, with the spec's errors,
        # pool and aux positions, and the memory of the spec's pool size.
        assert yielded == [(layer, head, errors.tobytes(), positions, aux, b)
                           for (layer, head, errors, positions, aux), b in zip(spec, bits)]
        if case == "evicting" and mode == "ott":
            pooled = [aux for layer, *_, aux in spec if layer not in config.skip_layers]
            assert pooled and all(len(aux) == 2 for aux in pooled)

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
            # A trace file holds no payload, so the whole peak is above it:
            # one block, one cache and the run's own allocations.
            extra[layers * heads] = peak
        # One cache's dense K and V buffers alone take 128 KiB here.
        assert extra[6] <= extra[1] + 64 * 1024


class TestReplayCaches:
    """The library generator, called directly rather than through ``simulate``."""

    def test_bit_identical_to_step_major_reference(self):
        (layers, heads, head_dim, seq_len), cfg = REPLAY_CASES["pooled"]
        trace = generate_synthetic(SyntheticSpec(seed=3), layers, heads, head_dim, seq_len)
        config = replace(cfg, head_dim=head_dim)
        got, want = replay_caches(trace, config), spec_replay(trace, config)
        for (layer, head, cache, errors), (*key, spec_errors, positions, aux_positions) in zip(got, want, strict=True):
            assert [layer, head] == key
            assert errors.dtype == np.float64 and errors.shape == (seq_len,)
            assert errors.tobytes() == spec_errors.tobytes()
            assert cache.pool.positions.tolist() == positions
            assert cache.pool.aux_positions.tolist() == aux_positions
            pool_rows = len(positions) + len(aux_positions)
            assert usage_fields(cache.memory_usage()) == closed_form_bits(config, seq_len, pool_rows)
            assert cache.total_tokens == seq_len

    # decode-long with the default engine, and the evicting golden case.
    @pytest.mark.parametrize("shape, seed, cfg", [
        ((3, 1, 16, 1024), 0, EngineConfig()),
        ((3, 2, 8, 512), 2, EngineConfig(group_size=16, residual=3, aux_capacity=2)),
    ])
    def test_exact_until_the_first_group(self, shape, seed, cfg):
        # Nothing is quantized before step G + R - 1, so every cache reads
        # the oracle's exact rows; the first group brings the first error.
        trace = generate_synthetic(SyntheticSpec(seed=seed), *shape)
        first = cfg.group_size + cfg.residual - 1
        for _, _, _, errors in replay_caches(trace, replace(cfg, head_dim=shape[2])):
            assert (errors[:first] == 0.0).all()
            assert errors[first] > 0

    def test_several_configs_equal_one_config_replays(self):
        # One shared oracle per (layer, head): each config's yields are, byte
        # for byte, those of its own replay.
        trace = generate_synthetic(SyntheticSpec(seed=5), 3, 2, 8, 512)
        evicting, four_bit = (replace(REPLAY_CASES[case][1], head_dim=8) for case in ("evicting", "four_bit"))
        configs = [evicting, four_bit, replace(evicting, outlier_num=0)]

        def yields(*configs):
            return [(layer, head, errors.tobytes(), cache.pool.positions.tolist(),
                     cache.pool.aux_positions.tolist(), cache.memory_usage())
                    for layer, head, cache, errors in replay_caches(trace, *configs)]

        alone = [yields(config) for config in configs]
        assert any(aux for *_, aux, _ in alone[0])  # the evicting config fills aux lists
        for n in (2, 3):
            together = yields(*configs[:n])
            for i in range(n):
                assert together[i::n] == alone[i]

    def test_no_config_rejected(self):
        trace = generate_synthetic(SyntheticSpec(seed=4), 1, 1, 4, 40)
        with pytest.raises(ContractViolation, match="at least one config"):
            next(replay_caches(trace))

    def test_drops_each_cache_before_building_the_next(self, monkeypatch):
        built = []

        def tracked_cache(*args, **kwargs):
            assert all(ref() is None for ref in built)
            cache = TieredCache(*args, **kwargs)
            built.append(weakref.ref(cache))
            return cache

        monkeypatch.setattr(replay_module, "TieredCache", tracked_cache)
        trace = generate_synthetic(SyntheticSpec(seed=4), 2, 2, 4, 40)
        configs = [EngineConfig(group_size=8, residual=2, head_dim=4, outlier_num=n) for n in (2, 0)]
        for _, _, cache, _ in replay_caches(trace, *configs):
            del cache  # the caller's reference; the generator must drop its own
        assert len(built) == 8


class TestFp16SimulateReadsOnlyTheHeader:
    """fp16 errors are 0 and its bits follow from the shape: no payload is read."""

    def test_peak_far_below_payload(self, tmp_path, capsys):
        path = tmp_path / "big.kvt"
        write_trace(path, generate_synthetic(SyntheticSpec(seed=6), 2, 4, 64, 1024))
        payload = 3 * 2 * 4 * 1024 * 64 * 4  # 6 MiB
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


class TestTraceFileReadBlockByBlock:
    """A trace file is read one (layer, head) block at a time, after its header and size check."""

    def test_simulate_peak_well_below_payload(self, tmp_path, capsys):
        # Many small heads: the payload dwarfs one block plus one cache.
        path = tmp_path / "wide.kvt"
        write_trace(path, generate_synthetic(SyntheticSpec(seed=10), 2, 16, 16, 128))
        payload = 3 * 2 * 16 * 128 * 16 * 4
        argv = ["simulate", "--trace", str(path), "--group-size", "32", "--residual", "8"]
        assert run(argv) == 0  # warms imports and argparse
        want = capsys.readouterr().out
        tracemalloc.start()
        try:
            assert run(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out == want
        assert peak < payload / 3

    @pytest.mark.parametrize("command", ["compare-criteria", "decile-stats"])
    def test_one_study_reads_one_block(self, tmp_path, capsys, monkeypatch, command):
        path = tmp_path / "t.kvt"
        write_trace(path, generate_synthetic(SyntheticSpec(seed=11), 2, 3, 8, 64))
        read = []
        block = TraceFile.block

        def spy(self, layer, head):
            read.append((layer, head))
            return block(self, layer, head)

        monkeypatch.setattr(TraceFile, "block", spy)
        assert run([command, "--trace", str(path), "--layer", "1", "--head", "2"]) == 0
        assert read == [(1, 2)]

    @pytest.mark.parametrize("change", ["vanished", "shrunk"])
    def test_block_read_failure_exits_two(self, tmp_path, capsys, monkeypatch, change):
        # The file changes after read_trace checked it: the block read that
        # notices fails the run with one trace error line, as damage at load does.
        path = tmp_path / "t.kvt"
        write_trace(path, generate_synthetic(SyntheticSpec(seed=12), 2, 2, 8, 40))
        size = path.stat().st_size

        def read_then_change(source):
            trace = read_trace(source)
            if change == "vanished":
                os.unlink(source)
            else:
                os.truncate(source, size - 7)
            return trace

        monkeypatch.setattr(cli, "read_trace", read_then_change)
        assert run(["simulate", "--trace", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        block = 3 * 40 * 8 * 4
        assert err == {
            "vanished": "trace error: block (0, 0) unreadable: No such file or directory (byte offset 24)\n",
            "shrunk": f"trace error: truncated file: payload incomplete (byte offset {24 + 4 * block - 7})\n",
        }[change]


class TestSyntheticTraceDrawnBlockByBlock:
    """Without ``--trace`` a command draws only the synthetic blocks it reads."""

    @pytest.fixture
    def draws(self, monkeypatch):
        drawn = []
        draw = trace_module._draw_block

        def spy(spec, header, layer, head):
            drawn.append((spec.seed, layer, head))
            return draw(spec, header, layer, head)

        monkeypatch.setattr(trace_module, "_draw_block", spy)
        return drawn

    SHAPE = ["--layers", "3", "--heads", "2", "--head-dim", "8", "--seq-len", "64"]

    def test_decile_stats_draws_one_block(self, draws, capsys):
        assert run(["decile-stats", *self.SHAPE, "--layer", "2", "--head", "1", "--seed", "4"]) == 0
        assert draws == [(4, 2, 1)]

    def test_decile_stats_bad_channel_draws_nothing(self, draws, capsys):
        assert run(["decile-stats", *self.SHAPE, "--channel", "8"]) == 1
        assert capsys.readouterr().err == "error: --channel 8 out of range [0, 8)\n"
        assert draws == []

    def test_compare_criteria_draws_one_block_per_trial(self, draws, capsys):
        argv = ["compare-criteria", *self.SHAPE, "--head", "1", "--trials", "3", "--seed", "5"]
        assert run(argv) == 0
        assert draws == [(5, 2, 1), (6, 2, 1), (7, 2, 1)]

    def test_fp16_simulate_draws_nothing(self, draws, capsys):
        assert run(["simulate", *self.SHAPE, "--mode", "fp16"]) == 0
        assert draws == []

    def test_simulate_draws_each_block_once(self, draws, capsys):
        assert run(["simulate", *self.SHAPE, "--group-size", "16", "--residual", "4", "--seed", "6"]) == 0
        assert draws == [(6, layer, head) for layer in range(3) for head in range(2)]

    def test_decile_stats_peak_far_below_trace(self, capsys):
        argv = ["decile-stats", "--layers", "16", "--heads", "8", "--head-dim", "16",
                "--seq-len", "1024", "--layer", "15", "--head", "7"]
        trace_bytes = 3 * 16 * 8 * 1024 * 16 * 4  # 25.2 MB, were it built whole
        assert run(argv) == 0  # warms imports and argparse
        want = capsys.readouterr().out
        tracemalloc.start()
        try:
            assert run(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out == want
        assert peak < trace_bytes / 20


class TestOutOfMemory:
    """A shape too large to allocate ends in one ``error:`` line and exit code 1.

    ``simulate --layers 1 --heads 1 --head-dim 100000 --seq-len 4000000``
    asks for a 4.4 TiB block. The draw is made to raise here instead, since
    an operating system that overcommits memory might grant the request.
    """

    @pytest.fixture
    def fail_draw(self, monkeypatch):
        draw = trace_module._draw_block

        def fail_from(first_failing):
            def maybe_fail(spec, header, layer, head):
                if layer * header.n_heads + head >= first_failing:
                    raise MemoryError(f"Unable to allocate block ({layer}, {head})")
                return draw(spec, header, layer, head)

            monkeypatch.setattr(trace_module, "_draw_block", maybe_fail)

        return fail_from

    # compare-criteria studies the last layer by default.
    @pytest.mark.parametrize("command, layer", [("simulate", 0), ("decile-stats", 0), ("compare-criteria", 1)])
    def test_one_error_line(self, fail_draw, command, layer, capsys):
        fail_draw(0)
        assert run([command, "--layers", "2", "--heads", "1", "--head-dim", "8", "--seq-len", "64"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: Unable to allocate block ({layer}, 0)\n"

    def test_message_of_a_bare_memory_error(self, monkeypatch, capsys):
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(trace_module, "_draw_block", no_memory)
        assert run(["decile-stats", "--layers", "1", "--seq-len", "64"]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"

    @pytest.mark.parametrize("first_failing", [0, 1, 3])
    def test_gen_synthetic_leaves_no_partial_file(self, tmp_path, fail_draw, capsys, first_failing):
        out = tmp_path / "t.kvt"
        fail_draw(first_failing)
        argv = ["gen-synthetic", "--layers", "2", "--heads", "2", "--head-dim", "4",
                "--seq-len", "40", "--out", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate block")
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []


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


class TestGeneratorFlagsWithTrace:
    """A trace file sets its own shape and values: a generator flag given with it is an error."""

    FLAGS = [("--layers", "2"), ("--heads", "2"), ("--head-dim", "99"), ("--seq-len", "5"),
             ("--mu", "30"), ("--sigma", "1"), ("--eps", "0.1"), ("--delta", "1"),
             ("--outlier-tokens", "1"), ("--outlier-channels", "2"), ("--q-scale", "1")]

    @pytest.mark.parametrize("command", ["simulate", "decile-stats", "compare-criteria"])
    def test_every_flag_rejected(self, tmp_path, capsys, command):
        path = tmp_path / "t.kvt"
        write_trace(path, generate_synthetic(SyntheticSpec(), 1, 1, 4, 40))
        assert run([command, "--trace", str(path)]) == 0
        capsys.readouterr()
        for flag, value in self.FLAGS:
            assert run([command, "--trace", str(path), flag, value]) == 1
            assert capsys.readouterr() == ("", f"error: {flag} applies only to synthetic traces (omit --trace)\n")


RATIO_COLUMNS = ["mode", "bits", "group_size", "residual", "outlier_num", "seq_len", "total_bits", "ratio_vs_fp16"]


def csv_records(path) -> list[dict]:
    """The rows of a ``ratio-curve`` CSV, after checking its header."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        assert reader.fieldnames == RATIO_COLUMNS
        return list(reader)


class TestRatioCurveCommand:
    def test_short_sequence_ratio_is_one(self, tmp_path, capsys):
        out = tmp_path / "ratio.csv"
        code = run(["ratio-curve", "--seq-lens", "159", "--out", str(out)])
        assert code == 0
        # csv_records checks the header: a memory-only run has no error column.
        rows = csv_records(out)
        assert float(rows[0]["ratio_vs_fp16"]) == 1.0

    def test_prints_rows(self, capsys):
        assert run(["ratio-curve", "--seq-lens", "128,1024", "--head-dim", "16"]) == 0
        lines = out_lines(capsys)
        assert len(lines) == 2
        assert lines[0].startswith("seq_len=128")

    def test_ott_row_labels(self, tmp_path):
        out = tmp_path / "ratio.csv"
        assert run(["ratio-curve", "--group-size", "8", "--residual", "0", "--outlier-num", "2",
                    "--head-dim", "4", "--seq-lens", "64", "--out", str(out)]) == 0
        [row] = csv_records(out)
        assert (row["mode"], row["outlier_num"]) == ("ott", "2")

    def test_mode_label_follows_the_flag(self, tmp_path, capsys):
        # An ott run with no pool slots is still labelled ott, as simulate prints it.
        out = tmp_path / "ratio.csv"
        assert run(["ratio-curve", "--mode", "ott", "--outlier-num", "0", "--seq-lens", "256",
                    "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "ott,2,128,32,0,256,301056,1.7415"
        capsys.readouterr()
        assert run(["simulate", *SMALL, "--outlier-num", "0"]) == 0
        assert out_lines(capsys)[0].startswith("mode=ott ")

    @pytest.mark.parametrize("mode, outlier_num, pooled", [("baseline", 0, 0), ("ott", 3, 3 + 32)])
    def test_longest_length_row(self, tmp_path, capsys, mode, outlier_num, pooled):
        # The pool freezes, so 2**63 - 1 tokens are counted at once.
        t, out = 2**63 - 1, tmp_path / "ratio.csv"
        assert run(["ratio-curve", "--mode", mode, "--seq-lens", str(t), "--out", str(out)]) == 0
        [row] = csv_records(out)
        want = closed_form_bits(EngineConfig(outlier_num=outlier_num), t, pooled)["total_bits"]
        assert (row["mode"], row["seq_len"], row["outlier_num"]) == (mode, str(t), str(outlier_num))
        assert row["total_bits"] == str(want)
        ratio = f"{2 * t * EngineConfig.head_dim * 16 / want:.6g}"
        assert row["ratio_vs_fp16"] == ratio
        assert out_lines(capsys) == [f"seq_len={t} total_bits={want} ratio_vs_fp16={ratio}"]


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
# 2**62: any buffer of this many rows or channels has more bytes than an array may.
UNADDRESSABLE = str(2**62)
# A block of 3 x (2**32 - 1)**2 float32 values.
HUGE_BLOCK = ["--layers", "1", "--seq-len", "4294967295", "--head-dim", "4294967295"]


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
        (["compare-criteria", *SMALL, "--mode", "fp16"], 1),
        (["simulate", *SMALL, "--sigma", "-1"], 1),
        (["gen-synthetic", *SMALL, "--mu", "inf", "--out", "{tmp}/inf.kvt"], 1),
        (["gen-synthetic", *SMALL, "--q-scale", "nan", "--out", "{tmp}/nan.kvt"], 1),
        (["gen-synthetic", *SMALL, "--mu", "1e39", "--out", "{tmp}/big.kvt"], 1),
        (["simulate", *SMALL, "--q-scale", "3e38"], 1),
        (["ratio-curve", "--seq-lens", ""], 1),
        (["ratio-curve", "--seq-lens", ","], 1),
        # A synthetic trace's shape and spec flags given with --trace.
        (["simulate", "--trace", "{tmp}/valid.kvt", "--head-dim", "99", "--seq-len", "5"], 1),
        (["simulate", "--trace", "{tmp}/valid.kvt", "--mu", "30"], 1),
        (["decile-stats", "--trace", "{tmp}/valid.kvt", "--layers", "2"], 1),
        (["decile-stats", "--trace", "{tmp}/valid.kvt", "--outlier-tokens", "1"], 1),
        (["compare-criteria", "--trace", "{tmp}/valid.kvt", "--heads", "2"], 1),
        (["compare-criteria", "--trace", "{tmp}/valid.kvt", "--q-scale", "1"], 1),
        # A negative seed, whether the command reads it or not.
        (["ratio-curve", "--seed", "-1"], 1),
        (["compare-criteria", "--trace", "{tmp}/valid.kvt", "--seed", "-1"], 1),
        # Shapes whose byte size overflows an array's size.
        (["simulate", "--group-size", UNADDRESSABLE], 1),
        (["simulate", "--residual", UNADDRESSABLE], 1),
        (["ratio-curve", "--group-size", UNADDRESSABLE, "--seq-lens", "10"], 1),
        (["ratio-curve", "--head-dim", UNADDRESSABLE, "--seq-lens", "1"], 1),
        (["decile-stats", *HUGE_BLOCK], 1),
        (["compare-criteria", *HUGE_BLOCK], 1),
        (["gen-synthetic", *HUGE_BLOCK, "--out", "{tmp}/huge.kvt"], 1),
        # A directory is not a trace file.
        (["simulate", "--trace", "{tmp}"], 2),
        # simulate's fp16 control is the only one.
        (["ratio-curve", "--mode", "fp16"], 1),
        # A negative layer index, which no layer matches.
        (["simulate", *SMALL, "--skip-layers", "-1"], 1),
        (["ratio-curve", "--skip-layers", "0,-1"], 1),
        # compare_criteria's budget bound: SMALL has 64 tokens.
        (["compare-criteria", *SMALL, "--budget", "64"], 1),
        # The width is fp16's, that of every ratio's baseline.
        (["mem-estimate", "--layers", "1", "--heads", "1", "--head-dim", "1", "--seq-len", "1",
          "--batch", "1", "--bytes-per-value", "2"], 1),
    ],
)
# Pytest would capture a numpy warning away from capsys; turned into an
# error here, it fails the test as it would add a line to stderr.
@pytest.mark.filterwarnings("error")
def test_bad_input_exits_with_one_line_error(argv, code, tmp_path, capsys):
    # A 1x1 trace of 8 tokens x 2 channels, all zeros.
    (tmp_path / "constant.kvt").write_bytes(b"KVTRACE1" + struct.pack("<4I", 1, 1, 2, 8) + bytes(3 * 8 * 2 * 4))
    write_trace(tmp_path / "valid.kvt", generate_synthetic(SyntheticSpec(), 1, 1, 4, 40))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert run(argv) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("trace error:" if code == 2 else "error:")


def test_unaddressable_shape_writes_no_file(tmp_path, capsys):
    assert run(["gen-synthetic", *HUGE_BLOCK, "--out", str(tmp_path / "huge.kvt")]) == 1
    assert capsys.readouterr().err.startswith("error: a 3 x 4294967295 x 4294967295 float32 block")
    assert list(tmp_path.iterdir()) == []


# Per subcommand, argv that runs to completion on a small synthetic shape.
SWEEP_BASE = {
    "gen-synthetic": [*SMALL, "--out", "{tmp}/sweep.kvt"],
    "simulate": SMALL,
    "compare-criteria": SMALL,
    "ratio-curve": ["--head-dim", "8", "--seq-lens", "200"],
    "mem-estimate": ["--layers", "1", "--heads", "1", "--head-dim", "1", "--seq-len", "1", "--batch", "1"],
    "decile-stats": SMALL,
}


def _sweep_cases():
    """(subcommand, base argv, flag) for every ``type=int`` flag of every subcommand."""
    [subparsers] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for command, parser in subparsers.choices.items():
        flags = [a.option_strings[0] for a in parser._actions if a.type is int]
        sources = {"synthetic": SWEEP_BASE.get(command, [])}
        if any("--trace" in a.option_strings for a in parser._actions):
            sources["trace"] = ["--trace", "{tmp}/valid.kvt"]
        for source, base in sources.items():
            yield pytest.param(command, base, None, id=f"{command}-{source}")
            for flag in flags:
                yield pytest.param(command, base, flag, id=f"{command}-{source}-{flag}")


@pytest.mark.parametrize("command, base, flag", _sweep_cases())
@pytest.mark.filterwarnings("error")
def test_every_integer_flag_rejects_minus_one(command, base, flag, tmp_path, capsys):
    # flag None: the base argv itself runs cleanly, so a failure below is the flag's.
    assert command in SWEEP_BASE
    write_trace(tmp_path / "valid.kvt", generate_synthetic(SyntheticSpec(), 1, 1, 4, 40))
    argv = [command, *(a.replace("{tmp}", str(tmp_path)) for a in base)]
    if flag is None:
        assert run(argv) == 0
        assert capsys.readouterr().err == ""
        return
    assert run([*argv, flag, "-1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
