"""``tools/bench_pair.py``'s summary on hand-made rounds; no benchmark runs."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)


def rounds_of(pairs, metric="wall_ref", workload="decode-long"):
    return [{"base": {workload: {metric: b}}, "current": {workload: {metric: c}}} for b, c in pairs]


def test_spread_median_quartiles_and_minimum():
    got = bench_pair.spread([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (got["median"], got["q1"], got["q3"], got["min"]) == (3.0, 2.0, 4.0, 1.0)
    # Between samples the quartiles interpolate linearly, as numpy's default percentile does.
    got = bench_pair.spread([1.0, 2.0, 3.0, 4.0])
    assert (got["median"], got["q1"], got["q3"]) == (2.5, 1.75, 3.25)
    got = bench_pair.spread([7.0])
    assert (got["median"], got["q1"], got["q3"], got["min"]) == (7.0, 7.0, 7.0, 7.0)


@pytest.mark.parametrize(
    "better, current_won, base_won",
    [("lower", 2, 1), ("higher", 1, 2)],
)
def test_pairs_won_follow_the_direction_and_ties_count_for_neither(better, current_won, base_won):
    pairs = [(1.0, 0.9), (1.0, 0.8), (1.0, 1.1), (1.0, 1.0)]
    got = bench_pair.summarize(rounds_of(pairs), {"wall_ref": better})["decode-long"]["wall_ref"]
    assert (got["current_won"], got["base_won"], got["ties"]) == (current_won, base_won, 1)
    assert got["better"] == better
    assert got["base"]["values"] == [1.0] * 4
    assert got["current"]["values"] == [0.9, 0.8, 1.1, 1.0]
    assert got["current"]["median"] == pytest.approx(0.95)
    assert got["current"]["min"] == 0.8


def test_every_workload_and_metric_summarized():
    rounds = [
        {side: {wl: {"wall_ref": 1.0, "l1_error": 5.7} for wl in ("decode-long", "append-stream")}
         for side in ("base", "current")}
    ] * 3
    got = bench_pair.summarize(rounds, {"wall_ref": "lower", "l1_error": "lower"})
    assert set(got) == {"decode-long", "append-stream"}
    for wl in got.values():
        assert set(wl) == {"wall_ref", "l1_error"}
        assert all(m["ties"] == 3 and m["current_won"] == m["base_won"] == 0 for m in wl.values())


@pytest.mark.parametrize("workload", ["all", "decode-long"])
def test_parse_result_names_each_workload(workload):
    value = {"value": 4.0, "unit": "ref"}
    metrics = {"decode-long.wall_ref": value} if workload == "all" else {"wall_ref": value}
    got = bench_pair.parse_result({"correct": True, "metrics": metrics}, workload)
    assert got == {"correct": True, "metrics": {"decode-long": {"wall_ref": 4.0}}}


@pytest.mark.parametrize(
    "stdout, passed",
    [
        ("....\n1206 passed in 31.73s\n", 1206),
        ("..F.\nFAILED tests/test_x.py::test_y - 3 passed\n2 failed, 1204 passed, 3 warnings in 33.10s\n", 1204),
        ("12 passed, 1 xpassed in 0.50s", 12),
        ("E   ModuleNotFoundError: No module named 'kvtrace'\n1 error in 1.14s\n", 0),
        ("", 0),
    ],
)
def test_passed_count_reads_pytests_last_line(stdout, passed):
    assert bench_pair.passed_count(stdout) == passed


def test_tier1_rounds_summarized_as_one_workload():
    # Wall seconds: lower wins; passed count: higher wins.
    rounds = [{"base": {"tier1": {"wall_s": b, "passed": 1206}},
               "current": {"tier1": {"wall_s": c, "passed": p}}}
              for b, c, p in [(32.0, 31.0, 1206), (31.5, 31.8, 1207), (33.0, 30.0, 1207)]]
    got = bench_pair.summarize(rounds, bench_pair.TIER1_BETTER)
    assert set(got) == {"tier1"}
    wall, passed = got["tier1"]["wall_s"], got["tier1"]["passed"]
    assert (wall["current_won"], wall["base_won"], wall["ties"]) == (2, 1, 0)
    assert (wall["base"]["median"], wall["current"]["median"], wall["current"]["min"]) == (32.0, 31.0, 30.0)
    assert (passed["current_won"], passed["base_won"], passed["ties"]) == (2, 0, 1)
    assert passed["better"] == "higher" and passed["current"]["values"] == [1206, 1207, 1207]


@pytest.mark.parametrize("returncode, correct", [(0, True), (1, False)])
def test_run_tier1_command_environment_and_result(tmp_path, monkeypatch, returncode, correct):
    # subprocess.run is replaced: the call is recorded and no suite runs.
    (tmp_path / ".hypothesis" / "examples").mkdir(parents=True)
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append((cmd, kwargs))
        return bench_pair.subprocess.CompletedProcess(cmd, returncode, stdout="...\n3 passed in 0.01s\n")

    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    monkeypatch.setattr(bench_pair.subprocess, "run", fake_run)
    got = bench_pair.run_tier1(str(tmp_path))
    assert got["correct"] is correct
    assert set(got["metrics"]) == {"tier1"} and got["metrics"]["tier1"]["passed"] == 3
    assert got["metrics"]["tier1"]["wall_s"] >= 0
    assert not (tmp_path / ".hypothesis").exists()
    (cmd, kwargs), = calls
    assert cmd == [bench_pair.sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    assert kwargs["cwd"] == str(tmp_path)
    assert kwargs["env"]["PYTHONPATH"] == "src" and kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"


@pytest.mark.parametrize("extra", [["--seconds", "1"], ["--workload", "decode-long"]])
def test_tier1_refuses_perfbench_settings(extra, capsys):
    with pytest.raises(SystemExit) as exit_:
        bench_pair.main(["HEAD", "--label", "x", "--tier1", *extra])
    assert exit_.value.code == 2
    assert "not --tier1 runs" in capsys.readouterr().err
