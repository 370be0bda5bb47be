"""The benchmark recorder's summary and paired comparison, on fixed numbers."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = sys.modules["bench_record"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)  # a dataclass reads its module from sys.modules


def test_summary_has_the_inclusive_quartiles():
    assert bench_record.summarize([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "values": [5.0, 1.0, 3.0, 2.0, 4.0], "median": 3.0, "q1": 2.0, "q3": 4.0}
    # one run, as in CI, is its own median and quartiles
    assert bench_record.summarize([0.5]) == {"values": [0.5], "median": 0.5, "q1": 0.5, "q3": 0.5}


def test_a_lower_is_better_gain_meets_the_claim_rule():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    change = [0.5, 0.6, 0.7, 0.8, 0.9, 0.5, 0.6, 0.7, 0.8, 1.4]  # the last round ties
    got = bench_record.compare(change, parent, "lower", 0.24)
    assert (got["wins"], got["losses"], got["ties"]) == (9, 0, 1)
    assert got["ratios"][0] == 0.5 and got["ratios"][-1] == 1.0
    # medians 0.7 and 1.2 differ by more than the parent's IQR, 0.2
    assert got["claim_holds"] and got["within_bound"]
    assert got["worse_by"] == pytest.approx(-0.5 / 1.2)


def test_the_claim_rule_needs_nine_tenths_of_the_rounds():
    parent = [10.0] * 10
    change = [11.0] * 8 + [9.0] * 2  # a higher-is-better metric: 8 wins, 2 losses
    got = bench_record.compare(change, parent, "higher", 0.24)
    assert (got["wins"], got["losses"], got["ties"]) == (8, 2, 0)
    assert not got["claim_holds"] and got["within_bound"]


def test_the_claim_rule_needs_a_gap_wider_than_the_parents_iqr():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0] * 2
    change = [x - 0.5 for x in parent]  # wins every round, but the medians differ by 0.5 < IQR 2
    got = bench_record.compare(change, parent, "lower", 0.24)
    assert got["wins"] == 10 and not got["claim_holds"]


def test_the_claim_rule_needs_ten_rounds():
    got = bench_record.compare([0.5] * 9, [1.0] * 9, "lower", 0.24)
    assert got["wins"] == 9 and not got["claim_holds"]
    assert bench_record.compare([0.5] * 10, [1.0] * 10, "lower", 0.24)["claim_holds"]


def test_a_regression_past_the_bound_is_flagged():
    got = bench_record.compare([1.3] * 3, [1.0] * 3, "lower", 0.24)
    assert got["losses"] == 3 and got["worse_by"] == pytest.approx(0.3) and not got["within_bound"]
    got = bench_record.compare([70.0] * 3, [100.0] * 3, "higher", 0.24)
    assert got["worse_by"] == pytest.approx(0.3) and not got["within_bound"]


def test_a_zero_parent_median_is_compared_without_dividing_by_it():
    # a run in which every op fails the gate counts no pairs: its pairs_per_s is 0
    got = bench_record.compare([1.0] * 10, [0.0] * 10, "higher", 0.24)
    assert got["ratios"] == [None] * 10 and got["worse_by"] is None
    assert got["wins"] == 10 and got["within_bound"] and got["claim_holds"]
    got = bench_record.compare([1.0] * 3, [0.0] * 3, "lower", 0.24)
    assert got["losses"] == 3 and got["worse_by"] is None and not got["within_bound"]


def test_both_medians_zero_is_no_change():
    got = bench_record.compare([0.0] * 3, [0.0] * 3, "higher", 0.24)
    assert got["ratios"] == [1.0] * 3 and got["worse_by"] == 0.0
    assert got["ties"] == 3 and got["within_bound"] and not got["claim_holds"]
    # a zero change against a nonzero parent is an ordinary ratio
    got = bench_record.compare([0.0] * 3, [2.0] * 3, "higher", 0.24)
    assert got["ratios"] == [0.0] * 3 and got["worse_by"] == 1.0 and not got["within_bound"]


def test_rounds_must_pair_up():
    with pytest.raises(ValueError):
        bench_record.compare([1.0] * 3, [1.0] * 2, "lower", 0.24)
