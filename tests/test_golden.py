"""The CLI cases of ``tests/golden`` still give their recorded outputs.

Exit codes, stderr, bit counts, ratios and every other byte must match
exactly. Printed L1 errors depend on the BLAS build, so they match within
perfbench's tolerance: 1e-6 per output element (d * 1e-6 on a per-row L1
sum), plus the 6-significant-digit rounding of a value printed to stdout.
``python tests/golden/regen.py --check`` compares every byte exactly.
"""

import csv
import importlib.util
import io
import re
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

L1_ABS_TOL_PER_ELEMENT = 1e-6
PRINT_REL_TOL = 1e-5
_L1_TOKEN = re.compile(r"(\b\w*l1_\w*=)(\S+)")


def close(got: str, want: str, tol: float) -> bool:
    if got == want:
        return True
    try:
        return abs(float(got) - float(want)) <= tol
    except ValueError:
        return False


def assert_stdout_matches(got: str, want: str, d: int) -> None:
    # Every byte but the L1 values, then each L1 value within tolerance.
    assert _L1_TOKEN.sub(r"\1#", got) == _L1_TOKEN.sub(r"\1#", want)
    for (_, g), (_, w) in zip(_L1_TOKEN.findall(got), _L1_TOKEN.findall(want)):
        tol = L1_ABS_TOL_PER_ELEMENT * d + PRINT_REL_TOL * abs(float(w))
        assert close(g, w, tol), (g, w)


def assert_csv_matches(got: str, want: str, d: int) -> None:
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    assert got_rows[0] == want_rows[0] and len(got_rows) == len(want_rows)
    l1_columns = {i for i, name in enumerate(want_rows[0]) if "l1_" in name}
    for g_row, w_row in zip(got_rows[1:], want_rows[1:]):
        assert len(g_row) == len(w_row)
        for i, (g, w) in enumerate(zip(g_row, w_row)):
            if i in l1_columns:
                assert close(g, w, L1_ABS_TOL_PER_ELEMENT * d), (i, g, w)
            else:
                assert g == w, (i, g, w)


def test_every_golden_directory_names_a_case():
    # A directory no case writes would never be checked.
    dirs = {p.name for p in regen.GOLDEN.iterdir() if p.is_dir()} - {"__pycache__"}
    assert dirs <= {*regen.CLI_CASES, *regen.DEMO_CASES}


@pytest.mark.parametrize("name", sorted(regen.CLI_CASES))
def test_cli_case_matches_golden(name, tmp_path):
    argv = regen.CLI_CASES[name]
    got = regen.run_cli_case(name, tmp_path)
    want = regen.recorded(name)
    assert sorted(got) == sorted(want)
    # A case that neither reads a trace file nor gives --head-dim prints no L1 error.
    if name in regen.TRACE_INPUTS:
        d = regen.TRACE_INPUT["shape"][2]
    else:
        d = int(argv[argv.index("--head-dim") + 1]) if "--head-dim" in argv else 0
    assert got["exit_code"] == want["exit_code"]
    assert got["stderr"] == want["stderr"]
    assert_stdout_matches(got["stdout"].decode(), want["stdout"].decode(), d)
    if "out.csv" in want:
        assert_csv_matches(got["out.csv"].decode(), want["out.csv"].decode(), d)
    if "out.kvt" in want:
        assert got["out.kvt"] == want["out.kvt"]


class TestComparison:
    """The tolerant comparison accepts L1 drift within tolerance and nothing else."""

    def test_l1_drift_within_tolerance_accepted(self):
        assert_stdout_matches("mode=ott aggregate_l1_error=5.74056\n",
                              "mode=ott aggregate_l1_error=5.74055\n", d=16)
        assert_csv_matches("step,l1_error\n0,1.0000001\n", "step,l1_error\n0,1.0\n", d=16)

    @pytest.mark.parametrize(
        "got, want",
        [
            ("mode=ott aggregate_l1_error=5.8\n", "mode=ott aggregate_l1_error=5.74055\n"),
            ("mode=ott aggregate_l1_error=5.74055\ntotal_bits=2\n",
             "mode=ott aggregate_l1_error=5.74055\ntotal_bits=1\n"),
        ],
    )
    def test_other_stdout_change_rejected(self, got, want):
        with pytest.raises(AssertionError):
            assert_stdout_matches(got, want, d=16)

    @pytest.mark.parametrize(
        "got",
        ["step,l1_error\n0,1.001\n", "step,l1_error\n1,1.0\n", "step,l1_error\n0,1.0\n1,0\n"],
    )
    def test_other_csv_change_rejected(self, got):
        with pytest.raises(AssertionError):
            assert_csv_matches(got, "step,l1_error\n0,1.0\n", d=16)

    def test_empty_l1_cells_compare_equal(self):
        header = "seq_len,l1_output_error,total_bits\n"
        assert_csv_matches(header + "128,,262144\n", header + "128,,262144\n", d=64)


class TestRegenScript:
    """``regen.py`` records new files, overwrites only with --accept, and --check writes nothing."""

    @pytest.fixture
    def case_dir(self, tmp_path, monkeypatch):
        argv = ["mem-estimate", "--layers", "1", "--heads", "1", "--head-dim", "2",
                "--seq-len", "3", "--batch", "1"]
        monkeypatch.setattr(regen, "GOLDEN", tmp_path)
        monkeypatch.setattr(regen, "CLI_CASES", {"mem": argv})
        monkeypatch.setattr(regen, "DEMO_CASES", {})
        return tmp_path / "mem"

    def test_check_records_nothing(self, case_dir, capsys):
        assert regen.main(["--check"]) == 1
        assert not case_dir.exists()

    def test_overwrites_only_with_accept(self, case_dir, capsys):
        assert regen.main([]) == 0
        assert sorted(p.name for p in case_dir.iterdir()) == ["exit_code", "stderr", "stdout"]
        stdout = (case_dir / "stdout").read_bytes()
        assert stdout.startswith(b"24 bytes")
        (case_dir / "stdout").write_bytes(b"changed\n")
        (case_dir / "out.csv").write_bytes(b"stale\n")
        assert regen.main(["--check"]) == 1
        assert regen.main([]) == 1
        assert (case_dir / "stdout").read_bytes() == b"changed\n"
        assert (case_dir / "out.csv").exists()
        assert regen.main(["--accept"]) == 0
        assert (case_dir / "stdout").read_bytes() == stdout
        assert not (case_dir / "out.csv").exists()
        assert regen.main(["--check"]) == 0

    def test_check_prints_the_first_differing_line(self, case_dir, capsys):
        assert regen.main([]) == 0
        stdout = (case_dir / "stdout").read_bytes()
        (case_dir / "stdout").write_bytes(b"x" * 200 + b"\n" + stdout)
        capsys.readouterr()
        assert regen.main(["--check"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "mem/stdout: differs",
            "  line 1",
            "  recorded: " + "x" * 120,
            "  new:      24 bytes (2.23517e-08 GiB)",
            "1 cases, 1 difference(s)",
        ]

    def test_trace_file_difference_is_a_byte_offset(self):
        assert regen.first_difference("out.kvt", b"KVT1abc", b"KVT1aXc") == [
            "  first differing byte at offset 5"]
        assert regen.first_difference("out.kvt", b"KVT1", b"KVT1abc") == [
            "  first differing byte at offset 4"]

    @pytest.mark.parametrize("mode", [["--check"], [], ["--accept"]])
    def test_stale_directory_reported_and_kept(self, case_dir, capsys, mode):
        assert regen.main([]) == 0
        stale = case_dir.parent / "renamed-case"
        stale.mkdir()
        (stale / "stdout").write_bytes(b"old\n")
        (case_dir.parent / "__pycache__").mkdir()
        capsys.readouterr()
        assert regen.main(mode) == 1
        assert capsys.readouterr().out.splitlines() == [
            "renamed-case/: no such case", "1 cases, 1 difference(s)"]
        assert (stale / "stdout").read_bytes() == b"old\n"
