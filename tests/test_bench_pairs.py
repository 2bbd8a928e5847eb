"""The summary step of tools/bench_pairs.py, on canned perfbench result lines."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
]


def _line(p50, rate, correct=True, failed=0, attempted=100):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"op_p50_ms": {"value": p50, "unit": "ms"},
                        "ops_per_s": {"value": rate, "unit": "ops/s"}}}


def _pairs(parents, changes):
    return [{"seed": seed, "first": "parent" if seed % 2 else "change",
             "parent": parent, "change": change}
            for seed, (parent, change) in enumerate(zip(parents, changes), start=1)]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("7-16") == list(range(7, 17))
    assert bench_pairs.parse_seeds("1,3,5") == [1, 3, 5]
    assert bench_pairs.parse_seeds("4") == [4]


def test_summary_counts_wins_by_the_better_direction():
    parents = [_line(2.0, 100.0), _line(1.0, 100.0), _line(3.0, 100.0), _line(4.0, 100.0)]
    changes = [_line(1.0, 50.0), _line(1.5, 50.0), _line(2.0, 50.0), _line(3.0, 200.0)]
    summary = bench_pairs.summarize(_pairs(parents, changes), END_TO_END)
    assert summary["correct"] and summary["failed_share"] == {"parent": 0.0, "change": 0.0}
    p50 = summary["metrics"]["op_p50_ms"]
    assert p50["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert p50["change"] == {"median": 1.75, "q1": 1.375, "q3": 2.25}
    assert p50["deltas"] == [-0.5, 0.5, pytest.approx(-1 / 3), -0.25]
    assert p50["wins"] == 3 and p50["pairs"] == 4
    assert p50["median_delta"] == -0.3
    assert not p50["worse_beyond_bound"]
    assert not p50["gain_beyond_parent_iqr"]  # a gain of 0.75 against an IQR of 1.5
    rate = summary["metrics"]["ops_per_s"]
    assert rate["wins"] == 1 and rate["median_delta"] == -0.5
    assert rate["worse_beyond_bound"]  # higher is better, and the median fell by half
    assert rate["unit"] == "ops/s" and rate["bound"] == 0.25


def test_summary_flags_a_gain_beyond_the_parent_spread():
    parents = [_line(2.0 + i / 100, 100.0) for i in range(10)]
    changes = [_line(1.8 + i / 100, 124.0) for i in range(10)]
    summary = bench_pairs.summarize(_pairs(parents, changes), END_TO_END)
    assert summary["metrics"]["op_p50_ms"]["gain_beyond_parent_iqr"]
    assert summary["metrics"]["op_p50_ms"]["wins"] == 10
    assert not summary["metrics"]["ops_per_s"]["worse_beyond_bound"]


def test_summary_reports_wrong_answers_and_failed_shares():
    parents = [_line(1.0, 1.0, failed=2), _line(1.0, 1.0)]
    changes = [_line(1.0, 1.0, correct=False), _line(1.0, 1.0, failed=1, attempted=300)]
    summary = bench_pairs.summarize(_pairs(parents, changes), END_TO_END)
    assert not summary["correct"]
    assert summary["failed_share"] == {"parent": 0.01, "change": 0.0025}
    one = bench_pairs.summarize(_pairs(parents[:1], parents[:1]), END_TO_END)
    assert one["correct"] and one["metrics"]["op_p50_ms"]["parent"]["q1"] == 1.0
