"""The summary of tools/bench_pairs.py, on synthetic runs and digests (no benchmark runs)."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [("ops_per_s", "higher", 0.25), ("latency_p50_s", "lower", 0.25)]


def _run(workload, pair, side, ops, p50, failed=0):
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"},
               "latency_p50_s": {"value": p50, "unit": "s"}}
    return {"workload": workload, "pair": pair, "side": side,
            "result": {"correct": failed == 0, "failed": failed, "metrics": metrics}}


def test_summary_quartiles_and_pair_wins():
    parent_ops = [100.0, 110.0, 90.0, 120.0, 105.0]
    change_ops = [101.0, 109.0, 95.0, 130.0, 105.0]
    runs = []
    for i, (a, c) in enumerate(zip(parent_ops, change_ops)):
        runs += [_run("w", i, "parent", a, 1.0 / a), _run("w", i, "change", c, 1.0 / c)]
    s = bench_pairs.summarize(runs, METRICS)["w"]
    assert s["ops_per_s"]["parent"] == {"median": 105.0, "q1": 100.0, "q3": 110.0}
    assert s["ops_per_s"]["change"] == {"median": 105.0, "q1": 101.0, "q3": 109.0}
    # a tie is not a win; a lower latency is
    assert s["ops_per_s"]["change_wins"] == 3
    assert s["latency_p50_s"]["change_wins"] == 3
    assert s["ops_per_s"]["pairs"] == 5
    assert s["failed_ops"] == {"parent": 0, "change": 0}
    assert s["runs_not_correct"] == {"parent": 0, "change": 0}


def test_summary_drops_a_pair_with_a_failed_run():
    runs = [_run("w", 0, "parent", 10.0, 0.1), _run("w", 0, "change", 20.0, 0.05, failed=3),
            _run("w", 1, "change", 30.0, 0.03),
            {"workload": "w", "pair": 1, "side": "parent",
             "result": {"correct": False, "returncode": 1, "stderr": "boom"}},
            _run("v", 0, "parent", 1.0, 1.0), _run("v", 0, "change", 2.0, 0.5)]
    out = bench_pairs.summarize(runs, METRICS)
    assert list(out) == ["w", "v"]
    assert out["w"]["ops_per_s"]["pairs"] == 1
    assert out["w"]["ops_per_s"]["change"]["median"] == 20.0
    assert out["w"]["failed_ops"] == {"parent": 0, "change": 3}
    assert out["w"]["runs_not_correct"] == {"parent": 1, "change": 1}
    assert out["v"]["ops_per_s"]["change_wins"] == 1


@pytest.mark.parametrize("ops, p50, ops_within, p50_within", [
    (76.0, 0.0126, True, False),  # 24% fewer ops/s, 26% more latency
    (74.0, 0.0124, False, True),  # 26% fewer ops/s, 24% more latency
    (200.0, 0.005, True, True)])  # better on both
def test_within_bound_is_the_relative_bound_on_the_medians(ops, p50, ops_within, p50_within):
    # the parent's medians are 100 ops/s and 10 ms, and both bounds are 25%
    runs = []
    for i, (a, c) in enumerate(zip([90.0, 100.0, 110.0], [ops - 10.0, ops, ops + 10.0])):
        runs += [_run("w", i, "parent", a, 0.01), _run("w", i, "change", c, p50)]
    s = bench_pairs.summarize(runs, METRICS)["w"]
    assert s["ops_per_s"]["within_bound"] is ops_within
    assert s["latency_p50_s"]["within_bound"] is p50_within


@pytest.mark.parametrize("pair, first", [(0, "parent"), (1, "change"), (6, "parent")])
def test_parent_runs_first_in_even_pairs(pair, first):
    assert bench_pairs.order(pair)[0] == first


@pytest.mark.parametrize("parent, change, want", [
    # 10 of 10 pairs won, and the medians 47.5 apart against a spread of 5
    ([100.0, 105.0, 110.0, 95.0] * 2 + [100.0, 105.0], [150.0] * 10, "gain"),
    # 10 of 10 pairs won, but the medians only 3 apart against a spread of 5
    ([100.0, 105.0, 110.0, 95.0] * 2 + [100.0, 105.0],
     [103.0, 108.0, 113.0, 98.0] * 2 + [103.0, 108.0], "within_bound"),
    # 20% worse, against a bound of 25%
    ([100.0] * 10, [80.0] * 10, "within_bound"),
    # 30% worse
    ([100.0] * 10, [70.0] * 10, "regressed"),
    # the parent's spread (60) is wider than the bound, and the runs overlap
    ([40.0, 160.0, 100.0, 70.0, 130.0] * 2, [90.0] * 10, "unresolved"),
    # a spread of 45, but every change run beats every parent run
    ([40.0] * 3 + [100.0] * 7, [101.0] * 10, "within_bound"),
], ids=["gain", "won-inside-the-spread", "worse-inside-the-bound", "regressed", "unresolved",
        "beats-every-run"])
def test_verdict(parent, change, want):
    wins = sum(c > a for a, c in zip(parent, change))
    assert bench_pairs.verdict(parent, change, wins, 1.0, 0.25) == want
    # the same runs of a metric where lower is better
    assert bench_pairs.verdict([-v for v in parent], [-v for v in change], wins, -1.0,
                               0.25) == want


def test_summary_carries_the_verdict():
    runs = []
    for i in range(10):
        runs += [_run("w", i, "parent", 100.0 + i % 3, 0.010), _run("w", i, "change", 150.0, 0.013)]
    s = bench_pairs.summarize(runs, METRICS)["w"]
    assert s["ops_per_s"]["verdict"] == "gain"
    assert s["latency_p50_s"]["verdict"] == "regressed"


def _write_digest(root, workload, seed, values, counts, source="0123abcd"):
    out = root / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"digest-{workload}-{seed}-{source}.json"
    path.write_text(json.dumps({"values": values, "counts": counts}))


def test_digests_compare_values_and_counts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    counts = {"evals.optim.maximize_over_ball": 120}
    _write_digest(parent, "chain", 7, ["a1", "b2"], counts)
    # the sources differ, so the change's digest has another name
    _write_digest(change, "chain", 7, ["a1", "b2"], counts, source="4567ef01")
    _write_digest(parent, "chain", 8, ["a1", "b2"], counts)
    _write_digest(change, "chain", 8, ["a1", "b3"], counts)
    _write_digest(parent, "chain", 9, ["a1"], counts)
    _write_digest(change, "chain", 9, ["a1"], {"evals.optim.maximize_over_ball": 121})
    same = [bench_pairs.same_digests(bench_pairs.digest(str(parent), "chain", s),
                                     bench_pairs.digest(str(change), "chain", s))
            for s in (7, 8, 9, 10)]
    # equal; a value differs; a count differs; no digest at all
    assert same == [True, False, False, False]
    assert bench_pairs.digest(str(parent), "scalar", 7) is None


def test_summary_records_values_identical_per_workload():
    runs = []
    for i in range(2):
        runs += [_run("w", i, "parent", 10.0, 0.1), _run("w", i, "change", 11.0, 0.1),
                 _run("v", i, "parent", 10.0, 0.1), _run("v", i, "change", 11.0, 0.1)]
    out = bench_pairs.summarize(runs, METRICS, {"w": [True, True], "v": [True, False]})
    assert out["w"]["values_identical"] is True
    assert out["v"]["values_identical"] is False
    # a workload with no comparison is not identical
    assert bench_pairs.summarize(runs, METRICS, {"w": [True]})["v"]["values_identical"] is False
    assert "values_identical" not in bench_pairs.summarize(runs, METRICS)["w"]


def test_each_side_runs_from_the_shared_path(tmp_path, monkeypatch):
    seen = []

    def fake_run_once(root, workload, seed):
        seen.append((root, sorted(os.listdir(tmp_path))))
        if seed == 2:
            raise RuntimeError("run failed")
        return {"correct": True}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    assert bench_pairs.run_side(str(tmp_path), "change", "chain", 1) == {"correct": True}
    with pytest.raises(RuntimeError):
        bench_pairs.run_side(str(tmp_path), "parent", "chain", 2)
    shared = str(tmp_path / "tree")
    assert seen == [(shared, ["parent", "tree"]), (shared, ["change", "tree"])]
    # each tree is back in its own place, after a failed run too
    assert sorted(os.listdir(tmp_path)) == ["change", "parent"]


def test_digest_diff_counts_the_ops_and_names_the_counters():
    parent = {"values": ["a1", "b2", "c3"], "counts": {"evals": 120, "ticks": 9, "gone": 1}}
    change = {"values": ["a1", "bX", "cX", "d4"], "counts": {"evals": 118, "ticks": 9,
                                                           "new": 2}}
    # two fingerprints differ, and the change made one op more
    assert bench_pairs.digest_diff(parent, change) == {
        "ops_differing": 3, "ops": 4,
        "counters": {"evals": [120, 118], "gone": [1, None], "new": [None, 2]}}
    assert bench_pairs.digest_diff(parent, parent) == {"ops_differing": 0, "ops": 3,
                                                       "counters": {}}
    assert bench_pairs.digest_diff(None, change) is None
    assert bench_pairs.digest_diff(parent, None) is None


def test_summary_records_the_digest_diff_per_workload():
    runs = [_run("w", 0, "parent", 10.0, 0.1), _run("w", 0, "change", 11.0, 0.1)]
    diff = {"seed": 7, "ops_differing": 1, "ops": 3, "counters": {"evals": [5, 4]}}
    out = bench_pairs.summarize(runs, METRICS, {"w": [False]}, {"w": [diff]})
    assert out["w"]["digest_diff"] == [diff]
    assert "digest_diff" not in bench_pairs.summarize(runs, METRICS, {"w": [False]})["w"]
