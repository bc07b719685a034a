"""tools/bench_pairs.py: the summary of a BENCH_*.json file and the seed
ranges it runs. No benchmark is run here."""
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
