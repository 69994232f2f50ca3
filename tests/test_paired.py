"""The paired-run tool's pairing, win, median and IQR logic, on fixture records."""

import importlib.util
import json
from pathlib import Path

import pytest

PAIRED = Path(__file__).resolve().parents[1] / "tools" / "paired.py"
_spec = importlib.util.spec_from_file_location("paired", PAIRED)
paired = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired)

METRICS = [
    {"name": "op_s.p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "units_per_s", "unit": "units/s", "better": "higher", "bound": 0.25},
]


def fixture_pairs(parent_ops, change_ops, parent_rate, change_rate):
    return [{"parent": {"op_s.p50": a, "units_per_s": ar},
             "change": {"op_s.p50": c, "units_per_s": cr}}
            for a, c, ar, cr in zip(parent_ops, change_ops, parent_rate, change_rate)]


def test_last_json_reads_the_final_line():
    out = 'bb84-lossless seed=1\ncpu=x\n{"correct": true, "metrics": {}}\n\n'
    assert paired.last_json(out) == {"correct": True, "metrics": {}}
    with pytest.raises(ValueError):
        paired.last_json(" \n")


@pytest.mark.parametrize("values, expect", [
    ([5.0], (5.0, 5.0, 5.0)),
    ([1.0, 3.0], (1.5, 2.0, 2.5)),
    ([4.0, 1.0, 3.0, 2.0, 5.0], (2.0, 3.0, 4.0)),
    ([1.0, 2.0, 3.0, 4.0], (1.75, 2.5, 3.25)),
])
def test_quartiles_lie_within_the_data(values, expect):
    assert paired.quartiles(values) == pytest.approx(expect)


def test_summary_counts_wins_in_the_better_direction():
    pairs = fixture_pairs(
        parent_ops=[0.044, 0.045, 0.043, 0.044, 0.046],
        change_ops=[0.040, 0.039, 0.043, 0.041, 0.047],  # a tie and a loss
        parent_rate=[100.0, 101.0, 99.0, 100.0, 98.0],
        change_rate=[110.0, 100.0, 112.0, 111.0, 109.0])
    s = paired.summarize(pairs, METRICS)
    ops, rate = s["op_s.p50"], s["units_per_s"]
    assert (ops["wins"], ops["losses"], ops["pairs"]) == (3, 1, 5)
    assert (rate["wins"], rate["losses"]) == (4, 1)
    assert ops["parent_median"] == pytest.approx(0.044)
    assert ops["change_median"] == pytest.approx(0.041)
    assert ops["parent_iqr"] == pytest.approx(0.045 - 0.044)
    # both medians move past the parent's IQR, but 3 and 4 wins of 5 fall
    # short of 9 in 10 pairs
    assert not ops["resolved"] and not rate["resolved"]
    assert ops["relative"] == pytest.approx(0.041 / 0.044 - 1)
    assert json.loads(json.dumps(s)) == s  # plain values only


def test_medians_within_the_parent_iqr_are_not_resolved():
    pairs = fixture_pairs([1.0, 2.0, 3.0, 4.0, 5.0], [1.5, 2.5, 2.5, 3.5, 4.5],
                          [1.0] * 5, [1.0] * 5)
    s = paired.summarize(pairs, METRICS)
    assert s["op_s.p50"]["wins"] == 3 and not s["op_s.p50"]["resolved"]
    assert s["units_per_s"]["wins"] == 0 and not s["units_per_s"]["resolved"]


def test_a_median_gap_won_in_2_of_10_pairs_is_not_resolved():
    # two trees within noise: the change's median sits past the parent's IQR
    # (+0.66%), yet the change wins 2 pairs and loses 8, short of 9 in 10
    parent = [0.0300, 0.0301, 0.0299, 0.0300, 0.0302, 0.0300, 0.0301, 0.0299, 0.0300, 0.0300]
    change = [0.0302, 0.0303, 0.0298, 0.0302, 0.0301, 0.0302, 0.0303, 0.0301, 0.0302, 0.0302]
    s = paired.summarize(fixture_pairs(parent, change, [1.0] * 10, [1.0] * 10), METRICS)
    ops = s["op_s.p50"]
    assert (ops["wins"], ops["losses"], ops["pairs"]) == (2, 8, 10)
    assert abs(ops["change_median"] - ops["parent_median"]) > ops["parent_iqr"]
    assert not ops["resolved"]


@pytest.mark.parametrize("shift, resolved", [(-0.002, True), (0.002, True), (0.0, False)])
def test_a_median_gap_won_or_lost_in_every_pair_is_resolved(shift, resolved):
    # the change faster (or slower) in 10 of 10 pairs, past the parent's IQR
    parent = [0.0300, 0.0301, 0.0299, 0.0300, 0.0302, 0.0300, 0.0301, 0.0299, 0.0300, 0.0300]
    change = [a + shift for a in parent]
    ops = paired.summarize(fixture_pairs(parent, change, [1.0] * 10, [1.0] * 10),
                           METRICS)["op_s.p50"]
    assert (ops["wins"], ops["losses"]) == ((10, 0) if shift < 0 else
                                            (0, 10) if shift > 0 else (0, 0))
    assert ops["resolved"] == resolved


def test_summary_skips_a_metric_a_run_lacks():
    pairs = [{"parent": {"op_s.p50": 1.0}, "change": {"op_s.p50": 0.9}}]
    assert list(paired.summarize(pairs, METRICS)) == ["op_s.p50"]


def test_pairs_alternate_which_side_runs_first():
    calls = []

    def run(side):
        calls.append(side)
        return {"metrics": {"op_s.p50": float(len(calls))}, "attempted": 7, "failed": 0}

    pairs = paired.run_pairs(3, run)
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert [(p["pair"], p["first"]) for p in pairs] == [
        (0, "parent"), (1, "change"), (2, "parent")]
    assert [(p["parent"]["op_s.p50"], p["change"]["op_s.p50"]) for p in pairs] == [
        (1.0, 2.0), (4.0, 3.0), (5.0, 6.0)]
    assert pairs[1]["change_ops"] == {"attempted": 7, "failed": 0}
