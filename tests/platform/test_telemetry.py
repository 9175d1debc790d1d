"""Fleet telemetry: windowed rollups, SLO alarms, and the dashboard.

Ends with the acceptance scenario of this layer: an Azure-trace fleet of
10k+ invocations replayed through the *real* emulator, where a cold-start
p99 SLO fires breach alarms for the un-debloated toy app and stays green
once λ-trim has debloated it — rendered by ``repro dashboard``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bundle import AppBundle
from repro.cli import main
from repro.core.pipeline import LambdaTrim, TrimConfig
from repro.errors import PlatformError
from repro.obs import InMemoryRecorder, use_recorder
from repro.platform import (
    FLEET,
    FleetReport,
    LambdaEmulator,
    SloRule,
    TelemetrySink,
    TraceReplayer,
    WindowRollup,
)
from repro.platform.logs import InvocationRecord, InvocationStatus, StartType
from repro.traces.azure import AzureTraceGenerator, FunctionTrace
from repro.traces.simulator import TraceSimulator
from repro.workloads.toy import build_toy_torch_app

#: The acceptance SLO: cold-start e2e p99 must stay under 0.8 virtual
#: seconds.  The toy app's cold e2e is ~1.08s before debloating and
#: ~0.58s after, so the rule brackets the λ-trim win with wide margins.
COLD_P99_SLO_S = 0.8


def make_record(
    *,
    function: str = "api",
    cold: bool = False,
    timestamp: float = 0.0,
    e2e_s: float = 0.1,
    cost_usd: float = 1e-6,
    error: str | None = None,
) -> InvocationRecord:
    """A record whose exec time is its whole e2e (stamped at completion)."""
    return InvocationRecord(
        request_id=f"{function}-{timestamp}",
        function=function,
        start_type=StartType.COLD if cold else StartType.WARM,
        timestamp=timestamp,
        value=None,
        instance_id=f"{function}-i0",
        exec_duration_s=e2e_s,
        billed_duration_s=e2e_s,
        cost_usd=cost_usd,
        error_type=error,
    )


class TestSinkWindowing:
    def test_tumbling_windows_keyed_by_arrival(self):
        sink = TelemetrySink(window_s=60.0)
        # Completion stamps: arrival = timestamp - e2e_s.
        sink.observe(make_record(timestamp=10.1, e2e_s=0.1))   # arrival 10
        sink.observe(make_record(timestamp=59.9, e2e_s=0.1))   # arrival 59.8
        sink.observe(make_record(timestamp=60.05, e2e_s=0.1))  # arrival 59.95
        sink.observe(make_record(timestamp=70.0, e2e_s=0.1))   # arrival 69.9
        windows = sink.rollups("api")
        assert [(w.start_s, w.invocations) for w in windows] == [
            (0.0, 3), (60.0, 1),
        ]
        # Every record is mirrored into the fleet-wide pseudo-function.
        assert [(w.start_s, w.invocations) for w in sink.rollups(FLEET)] == [
            (0.0, 3), (60.0, 1),
        ]
        assert sink.invocations == 4

    def test_explicit_arrival_overrides_completion_stamp(self):
        sink = TelemetrySink(window_s=60.0)
        sink.observe(make_record(timestamp=1000.0, e2e_s=0.1), arrival=30.0)
        assert [w.start_s for w in sink.rollups("api")] == [0.0]

    def test_per_function_and_fleet_rollups(self):
        sink = TelemetrySink(window_s=60.0)
        sink.observe(make_record(function="api", cold=True, timestamp=1.0))
        sink.observe(make_record(function="etl", timestamp=2.0, error="Boom"))
        assert sink.functions() == ["api", "etl"]
        fleet = sink.rollups(FLEET)[0]
        assert fleet.invocations == 2
        assert fleet.cold_starts == 1
        assert fleet.errors == 1
        assert fleet.cold_start_rate == 0.5
        assert fleet.error_rate == 0.5

    def test_cold_e2e_histogram_is_cold_only(self):
        sink = TelemetrySink(window_s=60.0)
        sink.observe(make_record(cold=True, timestamp=3.0, e2e_s=2.0))
        for i in range(9):
            sink.observe(make_record(timestamp=2.0 + i, e2e_s=0.1))
        rollup = sink.rollups("api")[0]
        assert rollup.cold_e2e.count == 1
        assert rollup.cold_e2e.p99 == pytest.approx(2.0, rel=0.01)
        assert rollup.e2e.count == 10

    def test_concurrency_high_water_mark(self):
        sink = TelemetrySink(window_s=60.0)
        # Three overlapping requests (arrivals 0, 1, 2; each runs 10s),
        # then one after they all drained.
        for arrival in (0.0, 1.0, 2.0):
            sink.observe(make_record(timestamp=arrival + 10.0, e2e_s=10.0))
        sink.observe(make_record(timestamp=30.1, e2e_s=0.1))
        assert sink.rollups("api")[0].concurrency_peak == 3

    def test_sliding_windows_merge_tumbling(self):
        sink = TelemetrySink(window_s=60.0)
        for arrival, n in ((10.0, 3), (70.0, 2), (130.0, 1)):
            for i in range(n):
                sink.observe(
                    make_record(timestamp=arrival + 0.1 + i * 0.001, e2e_s=0.1)
                )
        sliding = sink.sliding("api", width=2)
        assert [w.invocations for w in sliding] == [5, 3, 1]
        assert [(w.start_s, w.end_s) for w in sliding] == [
            (0.0, 120.0), (60.0, 180.0), (120.0, 180.0),
        ]
        # The underlying tumbling windows are untouched (deep copies).
        assert [w.invocations for w in sink.rollups("api")] == [3, 2, 1]
        with pytest.raises(PlatformError, match="width"):
            sink.sliding("api", width=0)

    def test_rollup_merge_rules(self):
        a = sink_window(invocations=2, peak=3)
        b = sink_window(invocations=1, peak=2, start_s=60.0)
        a.merge(b)
        assert a.invocations == 3
        assert a.concurrency_peak == 3  # max, not sum: peaks don't overlap
        assert (a.start_s, a.end_s) == (0.0, 120.0)
        other = WindowRollup(function="etl", start_s=0.0, end_s=60.0)
        with pytest.raises(PlatformError, match="different functions"):
            a.merge(other)

    def test_rejects_bad_window(self):
        with pytest.raises(PlatformError, match="window"):
            TelemetrySink(window_s=0.0)

    def test_observe_defers_aggregation_until_queried(self, monkeypatch):
        from repro.platform import telemetry as telemetry_module

        monkeypatch.setattr(telemetry_module, "DRAIN_THRESHOLD", 5)
        sink = TelemetrySink(window_s=60.0)
        for i in range(4):
            sink.observe(make_record(timestamp=1.0 + i))
        # Below the threshold nothing has been aggregated yet...
        assert len(sink._pending) == 4
        assert sink._windows == {}
        # ...the fifth record trips the auto-drain...
        sink.observe(make_record(timestamp=5.0))
        assert sink._pending == []
        # ...and queries always drain, so results are exact either way.
        sink.observe(make_record(timestamp=6.0))
        assert sink.invocations == 6
        assert sink.rollups("api")[0].invocations == 6


def sink_window(
    *, invocations: int, peak: int, start_s: float = 0.0
) -> WindowRollup:
    sink = TelemetrySink(window_s=60.0, track_fleet=False)
    for i in range(invocations):
        sink.observe(make_record(timestamp=start_s + 1.0 + i))
    (rollup,) = sink.rollups("api")
    rollup.concurrency_peak = peak
    return rollup


class TestFinalizeAndSlos:
    def rule(self) -> SloRule:
        return SloRule(name="err", metric="error_rate", threshold=0.0)

    def test_finalize_is_idempotent_per_window(self):
        sink = TelemetrySink(window_s=60.0, slos=[self.rule()])
        sink.observe(make_record(timestamp=1.0, error="Boom"))
        first = sink.finalize()
        # The FLEET-scoped rule judges only the fleet-wide rollup.
        assert [b.function for b in first] == [FLEET]
        assert sink.finalize() == []  # already judged
        # A later window is judged exactly once more.
        sink.observe(make_record(timestamp=70.0, error="Boom"))
        assert len(sink.finalize()) == 1
        assert len(sink.breaches) == 2

    def test_breaches_become_obs_events(self):
        sink = TelemetrySink(window_s=60.0, slos=[self.rule()])
        sink.observe(make_record(timestamp=1.0, error="Boom"))
        with use_recorder(InMemoryRecorder()) as recorder:
            breaches = sink.finalize()
            events = [e for e in recorder.events if e.name == "slo.breach"]
            assert len(events) == len(breaches) == 1
            assert events[0].attrs["rule"] == "err"
            metrics = recorder.metrics()
            assert metrics["telemetry.slo_breaches"] == 1.0
            # Both the api and the fleet window were evaluated.
            assert metrics["telemetry.windows_evaluated"] == 2.0

    def test_report_round_trips_through_json(self, tmp_path):
        sink = TelemetrySink(window_s=60.0, slos=[self.rule()])
        sink.observe(make_record(cold=True, timestamp=2.0, e2e_s=1.5))
        sink.observe(make_record(timestamp=70.0, error="Boom"))
        path = sink.save(tmp_path / "export.json")
        restored = FleetReport.load(path)
        assert restored.to_dict() == sink.report().to_dict()
        assert restored.invocations == 2
        assert len(restored.breaches) == 1
        assert restored.slos == [self.rule()]
        overall = restored.overall(FLEET)
        assert overall.cold_e2e.p99 == pytest.approx(1.5, rel=0.01)
        assert restored.series("cold_start_rate") == [(0.0, 1.0), (60.0, 0.0)]

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not-telemetry.json"
        path.write_text('{"windows": []}', encoding="utf-8")
        with pytest.raises(PlatformError, match="repro-telemetry"):
            FleetReport.load(path)
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(PlatformError, match="valid JSON"):
            FleetReport.load(path)


class TestPublishers:
    def test_emulator_publishes_every_invocation(self, toy_app):
        sink = TelemetrySink(window_s=60.0)
        emu = LambdaEmulator(telemetry=sink)
        emu.deploy(toy_app)
        event = {"x": [1.0, 2.0], "y": [3.0, 4.0]}
        emu.invoke(toy_app.name, event)
        emu.invoke(toy_app.name, event)
        assert sink.invocations == 2
        rollup = sink.rollups(toy_app.name)[0]
        assert rollup.cold_starts == 1 and rollup.warm_starts == 1
        # Sink totals agree with the emulator's own log and ledger.
        assert rollup.cost_usd == pytest.approx(emu.log.total_cost())

    def test_trace_simulator_publishes_synthetic_records(self):
        trace = AzureTraceGenerator(seed=3).generate(6)[0]
        sim = TraceSimulator(keep_alive_s=600.0)
        sink = TelemetrySink(window_s=3600.0)
        breakdown = sim.simulate(
            trace, window_s=86400.0, init_time_s=0.5, snapstart=False,
            telemetry=sink,
        )
        assert sink.invocations == trace.invocations
        overall = sink.report().overall(trace.function_id)
        assert overall.cold_starts == breakdown.cold_starts
        assert overall.warm_starts == breakdown.warm_starts
        # Per-record costs sum to the breakdown's invocation component
        # (the time-based SnapStart cache fee is deliberately excluded).
        assert overall.cost_usd == pytest.approx(breakdown.invocation)

    def test_trace_simulator_ids_name_the_exemplars_verbatim(self):
        # Arrivals 0 and 42 are the only cold starts (a 200 s gap beyond
        # the 60 s keep-alive), so they are the two slowest invocations.
        stamps = [float(i) for i in range(42)] + [242.0 + i for i in range(8)]
        trace = FunctionTrace(
            function_id="fn", pattern="rare", memory_mb=128.0,
            duration_s=0.5, timestamps=tuple(stamps),
        )
        sink = TelemetrySink(window_s=3600.0)
        TraceSimulator(keep_alive_s=60.0).simulate(
            trace, window_s=3600.0, init_time_s=2.0, snapstart=False,
            telemetry=sink,
        )
        for name in ("fn", FLEET):
            (rollup,) = sink.rollups(name)
            assert [ref for _, ref in rollup.exemplars[:2]] == [
                "fn/fn-000000", "fn/fn-000042",
            ]


# (function, status, cold, e2e, cost, billed_s, request id, explicit
# arrival?, delta) for a record; (function, kind, util, delta) for a host
# event.  Integer deltas put many items on one instant and one window.
_grouping_record = st.tuples(
    st.sampled_from(["api", "etl"]),
    st.sampled_from([s.value for s in InvocationStatus]),
    st.booleans(),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=30.0)),
    st.floats(min_value=0.0, max_value=1e-3),
    st.floats(min_value=0.0, max_value=30.0),
    st.one_of(
        st.integers(min_value=0, max_value=999_999).map(lambda n: f"req-{n:06d}"),
        st.integers(min_value=0, max_value=99).map(lambda n: f"fn-{n:06d}"),
    ),
    st.booleans(),
    st.one_of(
        st.integers(min_value=0, max_value=3).map(float),
        st.floats(min_value=0.0, max_value=40.0),
    ),
)
_grouping_host = st.tuples(
    st.sampled_from(["api", "etl"]),
    st.sampled_from(["placement", "eviction", "host_loss"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=3).map(float),
)


def _publish(sink: TelemetrySink, item, clock: float) -> float:
    if len(item) == 4:
        function, kind, util, delta = item
        clock += delta
        sink.observe_host(function, kind, util, arrival=clock)
        return clock
    function, status, cold, e2e, cost, billed_s, rid, explicit, delta = item
    clock += delta
    if status == "throttled":
        start, e2e = StartType.THROTTLED, 0.0
    else:
        start = StartType.COLD if cold else StartType.WARM
    record = InvocationRecord(
        request_id=rid,
        function=function,
        start_type=start,
        timestamp=clock + e2e,
        value=None,
        instance_id="-",
        exec_duration_s=e2e,
        billed_duration_s=billed_s,
        cost_usd=cost,
        status=status,
    )
    # Without an explicit arrival the sink derives timestamp - e2e.
    sink.observe(record, arrival=clock if explicit else None)
    return clock


class TestRecordRunGrouping:
    """Buffered records fold in maximal (function, window) runs between
    host events; where the drains fall must be unobservable."""

    @settings(max_examples=60, deadline=None)
    @given(
        items=st.lists(st.one_of(_grouping_record, _grouping_host), max_size=60),
        track_fleet=st.booleans(),
    )
    def test_draining_after_every_item_matches_one_drain(self, items, track_fleet):
        eager = TelemetrySink(window_s=10.0, subbuckets=16, track_fleet=track_fleet)
        lazy = TelemetrySink(window_s=10.0, subbuckets=16, track_fleet=track_fleet)
        eager_clock = lazy_clock = 0.0
        for item in items:
            eager_clock = _publish(eager, item, eager_clock)
            eager.rollups()
            lazy_clock = _publish(lazy, item, lazy_clock)
        assert json.dumps(lazy.snapshot(), sort_keys=True) == json.dumps(
            eager.snapshot(), sort_keys=True
        )
        assert json.dumps(lazy.report().to_dict(), sort_keys=True) == json.dumps(
            eager.report().to_dict(), sort_keys=True
        )


# -- the acceptance scenario -------------------------------------------------


def fleet_traces(min_invocations: int = 10_000):
    """A deterministic Azure-style fleet totalling >= 10k invocations."""
    traces = AzureTraceGenerator(seed=11).generate(40)
    picked, total = [], 0
    for trace in sorted(traces, key=lambda t: -t.invocations):
        if trace.invocations > 4000:
            continue  # keep per-function replay cost bounded
        picked.append(trace)
        total += trace.invocations
        if total >= min_invocations:
            return picked, total
    raise AssertionError("trace population too small for the acceptance test")


def replay_fleet(bundle: AppBundle) -> TelemetrySink:
    """Replay the fleet's arrivals against real emulator instances."""
    traces, _total = fleet_traces()
    sink = TelemetrySink(
        window_s=3600.0,
        slos=[
            SloRule(
                name="cold-tail",
                metric="cold_e2e_p99",
                threshold=COLD_P99_SLO_S,
                description="cold-start p99 must stay under 0.8 virtual s",
            )
        ],
    )
    emulator = LambdaEmulator(telemetry=sink)
    replayer = TraceReplayer(emulator)
    event = {"x": [1.0, 2.0], "y": [3.0, 4.0]}
    for index, trace in enumerate(traces):
        name = f"fn-{index}"
        emulator.deploy(bundle, name=name)
        replayer.replay(name, list(trace.timestamps), event)
    sink.finalize()
    return sink


@pytest.fixture(scope="module")
def toy_bundles(tmp_path_factory):
    """(original, debloated) toy bundles, built once for the module."""
    root = tmp_path_factory.mktemp("telemetry-acceptance")
    original = build_toy_torch_app(root / "toy")
    LambdaTrim(TrimConfig(k=5)).run(original, root / "trimmed")
    return original, AppBundle(root / "trimmed")


@pytest.fixture(scope="module")
def fleet_reports(toy_bundles, tmp_path_factory):
    """Saved telemetry exports for the bloated and debloated fleets."""
    original, trimmed = toy_bundles
    out = tmp_path_factory.mktemp("telemetry-exports")
    before = replay_fleet(original).save(out / "before.json")
    after = replay_fleet(trimmed).save(out / "after.json")
    return before, after


class TestAcceptance:
    def test_windowed_rollups_over_10k_invocations(self, fleet_reports):
        report = FleetReport.load(fleet_reports[0])
        assert report.invocations >= 10_000
        windows = report.rollups(FLEET)
        assert len(windows) >= 12  # a real day of hourly windows
        for window in windows:
            assert window.invocations > 0
            assert window.cold_start_rate <= 1.0
            assert 0.0 < window.e2e.p50 <= window.e2e.p95 <= window.e2e.p99
            assert window.cost_usd > 0.0
        overall = report.overall(FLEET)
        assert overall.concurrency_peak >= 1
        assert overall.cold_starts + overall.warm_starts == overall.invocations

    def test_slo_fires_bloated_and_stays_green_debloated(self, fleet_reports):
        before = FleetReport.load(fleet_reports[0])
        after = FleetReport.load(fleet_reports[1])
        # Un-debloated: ~1.08s cold e2e blows the 0.8s p99 budget in every
        # window that saw a cold start.
        assert before.breaches, "expected cold-tail breaches before debloating"
        assert all(b.metric == "cold_e2e_p99" for b in before.breaches)
        assert all(b.value > COLD_P99_SLO_S for b in before.breaches)
        # Debloated: ~0.58s cold e2e keeps every window green.
        assert after.breaches == []
        # And the improvement is the λ-trim effect itself, not noise.
        p99_before = before.overall(FLEET).cold_e2e.p99
        p99_after = after.overall(FLEET).cold_e2e.p99
        assert p99_before > COLD_P99_SLO_S > p99_after
        assert p99_after < 0.7 * p99_before

    def test_dashboard_renders_breach_and_green(self, fleet_reports, capsys):
        before, after = fleet_reports
        # Bloated fleet: breaches render and flip the exit code for CI.
        assert main(["dashboard", str(before)]) == 1
        stdout = capsys.readouterr().out
        assert "BREACHED x" in stdout
        assert "cold-tail" in stdout and "cold_e2e_p99" in stdout
        # Debloated fleet: same rule shows green.
        assert main(["dashboard", str(after)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_dashboard_comparison_shows_the_win(self, fleet_reports, capsys):
        before, after = fleet_reports
        code = main(["dashboard", str(after), "--baseline", str(before)])
        stdout = capsys.readouterr().out
        assert code == 0  # the candidate (debloated) export is green
        assert "cold e2e p99" in stdout
        assert "breach(es)" in stdout

    def test_dashboard_json_summary(self, fleet_reports, capsys):
        assert main(["dashboard", str(fleet_reports[0]), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["invocations"] >= 10_000
        assert len(payload["breaches"]) > 0
        assert payload["overall"]["cold_e2e_p99"] > COLD_P99_SLO_S
