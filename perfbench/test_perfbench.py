"""Tests for the benchmark's own arithmetic and bookkeeping.

    python -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import summary  # noqa: E402


# -- medians, tails, sample counts ----------------------------------------------


def test_median_and_sample_count():
    assert summary.median([3.0, 1.0, 2.0]) == 2.0
    assert summary.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert "n=3" in summary.describe([3.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        summary.median([])


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert summary.tail([float(v) for v in range(1, 20)]) is None
    assert summary.tail([float(v) for v in range(1, 21)]) == (50.0, 10.0)
    assert summary.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert summary.tail([float(v) for v in range(1, 1001)]) == (99.0, 990.0)
    assert summary.tail([float(v) for v in range(1, 10001)]) == (99.9, 9990.0)
    text = summary.describe([float(v) for v in range(1, 101)])
    assert "n=100" in text and "p90 90" in text


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert summary.percentile(values, 50.0) == 3.0
    assert summary.percentile(values, 100.0) == 5.0
    assert summary.percentile(values, 1.0) == 1.0


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_nested_children_once():
    spans = [
        (1, None, 0.0, 10.0),  # root
        (2, 1, 1.0, 4.0),      # child
        (3, 2, 2.0, 3.0),      # grandchild: covered by the child already
        (4, 1, 5.0, 7.0),      # second child
    ]
    own = summary.self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 1.0, 4: 2.0}


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [(1, None, 0.0, 10.0), (2, 1, 1.0, 4.0), (3, 1, 3.0, 6.0), (4, 1, 9.0, 12.0)]
    assert summary.self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_subtracts_aggregate_child_time():
    spans = [(1, None, 0.0, 10.0), (2, 1, 1.0, 4.0)]
    assert summary.self_times(spans, {1: 0.5, 2: 1.0}) == {1: 6.5, 2: 2.0}


# -- failures --------------------------------------------------------------------


def test_fail_rate_counts_a_lost_arrival():
    arrivals = {"f": 10, "g": 5}
    failed = summary.replay_failures(arrivals, {"f": (8, 1), "g": (4, 1)})
    assert failed == 1
    assert summary.fail_rate(15, failed) == pytest.approx(1 / 15)


def test_fail_rate_counts_every_arrival_of_a_failed_output():
    arrivals = {"f": 10, "g": 5}
    outcomes = {"f": (9, 0), "g": (5, 0)}
    assert summary.replay_failures(arrivals, outcomes, {"g"}) == 1 + 5
    assert summary.replay_failures(arrivals, outcomes, arrivals) == 15


def test_missing_or_overcounted_functions_fail_whole():
    arrivals = {"f": 10, "g": 5}
    assert summary.replay_failures(arrivals, {"f": (10, 0)}) == 5
    assert summary.replay_failures(arrivals, {"f": (10, 1), "g": (5, 0)}) == 10
    assert summary.replay_failures(arrivals, {"f": (10, 0), "g": (3, 2)}) == 0


def test_fail_rate_needs_an_attempt():
    assert summary.fail_rate(4, 0) == 0.0
    with pytest.raises(ValueError):
        summary.fail_rate(0, 0)


# -- the outside-in tracer ----------------------------------------------------


def test_aggregates_charge_the_innermost_span_and_nest_once():
    import ledger

    class Sink:
        def outer(self, rows):
            return self.inner(rows)

        def inner(self, rows):
            return len(rows)

    tracer = ledger.Tracer()
    tracer._wrap_method(Sink, "outer", tracer._aggregate("sink", ledger._length_of(Sink.outer, "rows")))
    tracer._wrap_method(Sink, "inner", tracer._aggregate("sink", ledger._one))
    try:
        with tracer.recorder.span("root") as root:
            assert Sink().outer([1, 2, 3]) == 3
        Sink().inner([1])
    finally:
        tracer.restore()
    assert tracer.agg[root.span_id]["sink"][:2] == [1, 3]
    assert tracer.agg[None]["sink"][:2] == [1, 1]
    assert not hasattr(Sink.__dict__["outer"], "__wrapped__")
    tree = tracer.tree()
    seconds = tracer.agg[root.span_id]["sink"][2]
    assert tree.self_s[root.span_id] == pytest.approx(root.duration_s - seconds)


def test_functions_are_patched_where_they_were_imported():
    import ledger
    from repro.core import ast_transform, debloater

    original = ast_transform.rebuild_source
    tracer = ledger.Tracer()
    tracer.install_trim()
    try:
        assert debloater.rebuild_source is not original
        assert debloater.rebuild_source is ast_transform.rebuild_source
    finally:
        tracer.restore()
    assert debloater.rebuild_source is original
    assert ast_transform.rebuild_source is original


# -- the benchmark's declaration ---------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _declaration():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_map = json.loads((BENCH / "map.json").read_text(encoding="utf-8"))
    return spec, layer_map


def test_benchmark_json_shape():
    spec, _ = _declaration()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in spec["workloads"]] + [
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_layer_map_covers_every_layer_metric():
    spec, layer_map = _declaration()
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert set(layer_map["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    for name, entry in layer_map["per_layer"].items():
        assert set(entry["workloads"]) <= workloads, name
        assert entry["moves"].startswith("nothing") or any(
            metric in entry["moves"] for metric in end_to_end
        ), name
    assert set(layer_map["end_to_end"]) >= end_to_end
    seeds = layer_map["seeds"]
    assert seeds["default"] != seeds["holdout"]


# -- nominal seconds -------------------------------------------------------------


def test_nominal_seconds_scale_by_mean_speed_less_sampling():
    import speed

    sampler = speed.SpeedSampler()
    sampler.stamps = [1.0, 2.0, 3.0, 9.0]
    sampler.speeds = [1.0, 2.0, 3.0, 5.0]
    sampler.costs = [0.1, 0.1, 0.1, 0.1]
    assert sampler.factor(0.5, 3.5) == pytest.approx(2.0)
    assert sampler.nominal(0.5, 3.5) == pytest.approx((3.0 - 0.3) * 2.0)
    assert sampler.nominal(0.5, 3.5, seconds=2.0) == pytest.approx((2.0 - 0.3) * 2.0)
    # An interval shorter than the sampling period borrows its neighbours.
    assert sampler.factor(5.0, 5.1) == pytest.approx(4.0)
    assert speed.SpeedSampler().nominal(0.0, 2.0) == 2.0
