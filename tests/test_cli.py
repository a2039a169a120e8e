import numpy as np
import pytest

from kvtrace import Trace, TraceHeader, read_rows, read_trace, write_trace
from kvtrace.cli import run


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
        csv = tmp_path / "steps.csv"
        code = run(["simulate", "--mode", "fp16", "--layers", "1", "--heads", "1",
                    "--head-dim", "8", "--seq-len", "32", "--out", str(csv)])
        assert code == 0
        assert "aggregate_l1_error=0" in capsys.readouterr().out
        rows = csv.read_text().strip().splitlines()
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


class TestCompareCriteriaCommand:
    def test_writes_csv(self, tmp_path, capsys):
        csv = tmp_path / "crit.csv"
        code = run(["compare-criteria", "--layers", "1", "--heads", "1",
                    "--head-dim", "16", "--seq-len", "256", "--budget", "3",
                    "--out", str(csv)])
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "criterion,budget,trials,mean_l1_error"
        assert len(lines) == 4

    def test_trials_require_synthetic(self, tmp_path, capsys):
        t = tmp_path / "t.kvt"
        run(["gen-synthetic", "--layers", "1", "--heads", "1", "--head-dim", "8",
             "--seq-len", "64", "--out", str(t)])
        capsys.readouterr()
        assert run(["compare-criteria", "--trace", str(t), "--trials", "2"]) == 1


class TestRatioCurveCommand:
    def test_short_sequence_ratio_is_one(self, tmp_path, capsys):
        csv = tmp_path / "ratio.csv"
        code = run(["ratio-curve", "--seq-lens", "159", "--out", str(csv)])
        assert code == 0
        rows = read_rows(csv)
        assert rows[0].ratio_vs_fp16 == 1.0

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
        csv = tmp_path / "dec.csv"
        assert run(["decile-stats", "--layers", "1", "--heads", "1", "--head-dim", "8",
                    "--seq-len", "512", "--out", str(csv)]) == 0
        lines = csv.read_text().strip().splitlines()
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
    ],
)
def test_bad_input_exits_with_one_line_error(argv, code, tmp_path, capsys):
    zeros = np.zeros((1, 1, 8, 2), dtype=np.float32)
    write_trace(tmp_path / "constant.kvt", Trace(TraceHeader(1, 1, 2, 8), zeros, zeros, zeros))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert run(argv) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("trace error:" if code == 2 else "error:")
