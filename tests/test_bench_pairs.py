"""tools/bench_pairs.py: the summary of a BENCH_*.json file, its verdict
per end-to-end metric, the seed ranges it runs, and its refusal to compare
checkouts whose benchmark code differs. No benchmark is run here."""
import json
import os
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools")
if TOOLS not in sys.path:
    sys.path.append(TOOLS)

import bench_pairs  # noqa: E402


def _run(wall, failed=0, attempted=2, correct=True):
    return {"metrics": {"wall_s": {"value": wall, "unit": "s"}},
            "failed": failed, "attempted": attempted, "correct": correct}


def _pairs(parent, change, **kw):
    return [{"seed": i, "parent": _run(p), "change": _run(c, **kw)}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_summary_reads_medians_and_inclusive_quartiles():
    # linear interpolation between order statistics at (n - 1) q:
    # 1, 2, 3, 10 has q1 = 1.75, median 2.5 and q3 = 4.75
    row = bench_pairs.summary(_pairs([1.0, 2.0, 3.0, 10.0], [4.0, 3.0, 2.0, 1.0]))["wall_s"]
    assert row["parent"] == {"median": 2.5, "q1": 1.75, "q3": 4.75}
    assert row["change"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert row["pairs"] == 4


def test_summary_counts_a_tie_as_lower_for_neither_side():
    row = bench_pairs.summary(_pairs([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 4.0]))["wall_s"]
    assert row["change_lower"] == 1


def test_summary_sums_the_failed_and_attempted_operations():
    pairs = _pairs([1.0, 2.0], [1.0, 2.0])
    pairs[0]["change"] = _run(1.0, failed=1, attempted=3, correct=False)
    out = bench_pairs.summary(pairs)
    assert (out["parent_failed"], out["parent_attempted"]) == (0, 4)
    assert (out["change_failed"], out["change_attempted"]) == (1, 5)
    assert out["parent_all_correct"] is True and out["change_all_correct"] is False


@pytest.mark.parametrize("text, want", [("3101-3110", list(range(3101, 3111))),
                                        ("7", [7])], ids=["range", "single"])
def test_seeds_reads_a_range_or_one_seed(text, want):
    assert bench_pairs.seeds(text) == want


def _identity(bench_tree="b1", bench_clean=True):
    return {"commit": "c", "src_tree": "s", "bench_tree": bench_tree,
            "clean": bench_clean, "bench_clean": bench_clean}


def test_same_committed_bench_trees_may_be_compared():
    assert bench_pairs.bench_mismatch({"parent": _identity(), "change": _identity()}) is None


@pytest.mark.parametrize("parent, change, reason", [
    (_identity("b1"), _identity("b2"), "the benchmark code differs"),
    (_identity(bench_clean=False), _identity(), "in the parent checkout"),
    (_identity(), _identity(bench_clean=False), "in the change checkout"),
    (_identity(bench_clean=False), _identity(bench_clean=False),
     "in the parent and change checkout")],
    ids=["trees-differ", "parent-dirty", "change-dirty", "both-dirty"])
def test_different_or_uncommitted_bench_trees_are_refused(parent, change, reason):
    message = bench_pairs.bench_mismatch({"parent": parent, "change": change})
    assert reason in message
    assert (f"parent bench/ tree {parent['bench_tree']}" in message
            and f"change bench/ tree {change['bench_tree']}" in message)


def test_main_exits_before_any_run_when_the_benchmarks_differ(monkeypatch, tmp_path):
    trees = {"p": "b1", "c": "b2"}
    monkeypatch.setattr(bench_pairs, "identity",
                        lambda d: _identity(trees[os.path.basename(d)]))
    runs = []
    monkeypatch.setattr(bench_pairs, "run", lambda *args: runs.append(args))
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path / "p"), "--change", str(tmp_path / "c"),
                          "--out", str(out), "--workload", "annulus", "--seeds", "1-2"])
    assert "parent bench/ tree b1, change bench/ tree b2" in str(exc.value.code)
    assert runs == [] and not out.exists()


def _row(parent, change):
    return bench_pairs.summary(_pairs(parent, change))["wall_s"]


def test_verdict_reads_the_median_change_against_the_bound():
    # medians 2.0 -> 2.4 (+20 %): within a bound of 0.24, not of 0.1
    row = _row([1.0, 2.0, 3.0], [1.2, 2.4, 3.6])
    within = bench_pairs.verdict(row, "lower", 0.24)
    assert within["relative_change"] == pytest.approx(0.2)
    assert within["within_bound"] is True and within["bound"] == 0.24
    assert within["parent_quartile_distance"] == 1.0
    assert bench_pairs.verdict(row, "lower", 0.1)["within_bound"] is False
    # a metric better higher gains what a lower one loses
    assert bench_pairs.verdict(row, "higher", 0.1)["within_bound"] is True


PARENT = [0.91 + 0.02 * i for i in range(10)]    # median 1.0, quartiles 0.955, 1.045


@pytest.mark.parametrize("change, gain", [
    ([0.8] * 9 + [1.5], True),                 # 9 of 10 lower, medians 1.0 -> 0.8
    ([0.8] * 8 + [1.5] * 2, False),            # 8 of 10 lower
    ([p - 0.05 for p in PARENT], False),       # 10 of 10, medians within the spread
], ids=["nine-of-ten", "eight-of-ten", "inside-the-spread"])
def test_gain_needs_nine_of_ten_pairs_and_medians_apart_beyond_the_spread(change, gain):
    row = _row(PARENT, change)
    verdict = bench_pairs.verdict(row, "lower", 0.24)
    assert verdict["parent_quartile_distance"] == pytest.approx(0.09)
    assert verdict["gain"] is gain
    assert bench_pairs.verdict(row, "higher", 0.24)["gain"] is False


def test_main_writes_a_verdict_per_end_to_end_metric_and_leaves_benchmark_json(
        monkeypatch, tmp_path):
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                            "bound": 0.24}],
            "per_layer": [{"name": "cli.self_s", "unit": "s", "better": "lower"}]}
    for side in ("p", "c"):
        (tmp_path / side).mkdir()
    text = json.dumps(spec)
    (tmp_path / "c" / "BENCHMARK.json").write_text(text)
    monkeypatch.setattr(bench_pairs, "identity", lambda d: _identity())
    walls = iter([1.0, 0.5, 0.5, 1.0])   # parent first, then change first

    def run(checkout, workload, seed, seconds, trace):
        result = _run(next(walls))
        result["metrics"]["cli.self_s"] = {"value": 0.1, "unit": "s"}
        return result

    monkeypatch.setattr(bench_pairs, "run", run)
    out = tmp_path / "out.json"
    bench_pairs.main(["--parent", str(tmp_path / "p"), "--change", str(tmp_path / "c"),
                      "--out", str(out), "--workload", "drums", "--seeds", "1-2"])
    verdict = json.loads(out.read_text())["workloads"]["drums"]["verdict"]
    assert list(verdict) == ["wall_s"]
    assert verdict["wall_s"]["relative_change"] == -0.5
    assert verdict["wall_s"]["within_bound"] is True and verdict["wall_s"]["gain"] is True
    assert (tmp_path / "c" / "BENCHMARK.json").read_text() == text
