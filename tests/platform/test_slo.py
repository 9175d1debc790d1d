"""SLO rules, breach detection, and policy evaluation over rollups."""

from __future__ import annotations

import pytest

from repro.errors import PlatformError
from repro.platform.logs import InvocationRecord, StartType
from repro.platform.slo import FLEET, SloBreach, SloPolicy, SloRule, metric_value
from repro.platform.telemetry import TelemetrySink, WindowRollup


def make_rollup(
    function: str = FLEET,
    *,
    start_s: float = 0.0,
    e2e_values: tuple[float, ...] = (0.1, 0.2, 0.3),
    cold_flags: tuple[bool, ...] = (True, False, False),
) -> WindowRollup:
    sink = TelemetrySink(window_s=60.0, track_fleet=False)
    for i, (e2e, cold) in enumerate(zip(e2e_values, cold_flags)):
        sink.observe(InvocationRecord(
            request_id=f"r{i}",
            function=function,
            start_type=StartType.COLD if cold else StartType.WARM,
            timestamp=start_s + e2e,
            value=None,
            instance_id="i0",
            init_duration_s=e2e / 2 if cold else 0.0,
            exec_duration_s=e2e / 2 if cold else e2e,
            billed_duration_s=e2e,
            cost_usd=1e-6,
        ), arrival=start_s)
    (rollup,) = sink.rollups(function)
    return rollup


class TestMetricValue:
    def test_scalars(self):
        rollup = make_rollup()
        assert metric_value(rollup, "invocations") == 3.0
        assert metric_value(rollup, "cold_starts") == 1.0
        assert metric_value(rollup, "cold_start_rate") == pytest.approx(1 / 3)
        assert metric_value(rollup, "cost_usd") == pytest.approx(3e-6)
        assert metric_value(rollup, "cost_per_1k") == pytest.approx(1e-3)
        assert metric_value(rollup, "error_rate") == 0.0

    def test_percentiles(self):
        # rank floor(0.99 * 99) = 98 of the sorted sample → the tail value
        rollup = make_rollup(e2e_values=tuple([0.1] * 98 + [5.0, 5.0]),
                             cold_flags=tuple([False] * 100))
        p50 = metric_value(rollup, "e2e_p50")
        p99 = metric_value(rollup, "e2e_p99")
        assert p50 == pytest.approx(0.1, rel=0.01)
        assert p99 == pytest.approx(5.0, rel=0.01)
        assert metric_value(rollup, "billed_p95") == pytest.approx(0.1, rel=0.01)

    def test_cold_e2e_histogram_only_sees_cold_starts(self):
        rollup = make_rollup(e2e_values=(2.0, 0.1, 0.1),
                             cold_flags=(True, False, False))
        assert metric_value(rollup, "cold_e2e_p99") == pytest.approx(2.0, rel=0.01)

    def test_unknown_metric_raises(self):
        rollup = make_rollup()
        with pytest.raises(PlatformError, match="unknown SLO metric"):
            metric_value(rollup, "latency_p42")
        with pytest.raises(PlatformError, match="unknown SLO metric"):
            metric_value(rollup, "e2e_p42")  # unsupported percentile


class TestSloRule:
    def test_breach_and_green(self):
        rule = SloRule(name="cold-rate", metric="cold_start_rate", threshold=0.5)
        green = rule.evaluate(make_rollup(cold_flags=(True, False, False)))
        assert green is None
        breach = rule.evaluate(make_rollup(cold_flags=(True, True, False)))
        assert isinstance(breach, SloBreach)
        assert breach.rule == "cold-rate"
        assert breach.value == pytest.approx(2 / 3)
        assert breach.excess_ratio == pytest.approx((2 / 3) / 0.5)

    def test_threshold_is_inclusive(self):
        rule = SloRule(name="n", metric="invocations", threshold=3.0)
        assert rule.evaluate(make_rollup()) is None  # 3 <= 3: green

    def test_function_scoping(self):
        rule = SloRule(name="api-only", metric="invocations", threshold=0.0,
                       function="api")
        assert rule.evaluate(make_rollup("api")) is not None
        assert rule.evaluate(make_rollup("etl")) is None
        assert rule.evaluate(make_rollup(FLEET)) is None

    def test_min_invocations_skips_idle_windows(self):
        rule = SloRule(name="tail", metric="e2e_p99", threshold=0.0,
                       min_invocations=10)
        assert rule.evaluate(make_rollup()) is None  # only 3 invocations

    def test_eager_validation(self):
        with pytest.raises(PlatformError, match="unknown SLO metric"):
            SloRule(name="typo", metric="e2e_p98", threshold=1.0)
        with pytest.raises(PlatformError, match="non-negative"):
            SloRule(name="neg", metric="e2e_p99", threshold=-1.0)
        with pytest.raises(PlatformError, match="min_invocations"):
            SloRule(name="m", metric="e2e_p99", threshold=1.0, min_invocations=0)

    def test_round_trip(self):
        rule = SloRule(name="tail", metric="cold_e2e_p99", threshold=0.8,
                       function="api", min_invocations=5, description="d")
        assert SloRule.from_dict(rule.to_dict()) == rule

    def test_breach_describe_and_round_trip(self):
        rule = SloRule(name="tail", metric="e2e_p99", threshold=0.001)
        breach = rule.evaluate(make_rollup(start_s=120.0))
        assert breach is not None
        text = breach.describe()
        assert "BREACH tail [fleet] window 120-180s" in text
        assert "e2e_p99" in text
        assert SloBreach.from_dict(breach.to_dict()) == breach


class TestSloPolicy:
    def test_evaluates_all_rules(self):
        policy = SloPolicy([
            SloRule(name="rate", metric="cold_start_rate", threshold=0.1),
            SloRule(name="count", metric="invocations", threshold=100.0),
        ]).add(SloRule(name="cost", metric="cost_usd", threshold=0.0))
        assert len(policy) == 3
        breaches = policy.evaluate_window(make_rollup())
        assert {b.rule for b in breaches} == {"rate", "cost"}

    def test_iterates_rules(self):
        rules = [SloRule(name="a", metric="errors", threshold=0.0)]
        assert list(SloPolicy(rules)) == rules
