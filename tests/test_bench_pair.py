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
