"""Tests for the trace-driven cold/warm and cost simulator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.traces import AzureTraceGenerator, TraceSimulator
from repro.traces.azure import FunctionTrace


def _trace(timestamps, memory=256.0, duration=1.0):
    return FunctionTrace(
        function_id="t",
        pattern="rare",
        memory_mb=memory,
        duration_s=duration,
        timestamps=tuple(sorted(timestamps)),
    )


class TestStartCounting:
    def test_single_invocation_is_cold(self):
        sim = TraceSimulator(keep_alive_s=900)
        counts = sim.start_counts([100.0], duration_s=1.0)
        assert counts.cold == 1 and counts.warm == 0

    def test_within_keep_alive_is_warm(self):
        sim = TraceSimulator(keep_alive_s=900)
        counts = sim.start_counts([0.0, 100.0, 200.0], duration_s=1.0)
        assert counts.cold == 1 and counts.warm == 2

    def test_idle_gap_beyond_keep_alive_is_cold(self):
        sim = TraceSimulator(keep_alive_s=60)
        counts = sim.start_counts([0.0, 100.0], duration_s=1.0)
        assert counts.cold == 2

    def test_burst_spills_to_new_instances(self):
        """Concurrent requests cannot share an instance (Section 2.1)."""
        sim = TraceSimulator(keep_alive_s=900)
        # three arrivals within one request duration
        counts = sim.start_counts([0.0, 0.1, 0.2], duration_s=10.0)
        assert counts.cold == 3

    def test_burst_instances_are_reused_later(self):
        sim = TraceSimulator(keep_alive_s=900)
        counts = sim.start_counts([0.0, 0.1, 50.0, 50.1], duration_s=1.0)
        assert counts.cold == 2 and counts.warm == 2

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=86_400), min_size=1, max_size=60),
        st.floats(min_value=0.01, max_value=60),
        st.floats(min_value=1, max_value=7200),
    )
    def test_counts_partition_the_trace(self, stamps, duration, keep_alive):
        sim = TraceSimulator(keep_alive_s=keep_alive)
        counts = sim.start_counts(sorted(stamps), duration_s=duration)
        assert counts.cold + counts.warm == len(stamps)
        assert counts.cold >= 1

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=86_400), min_size=1, max_size=50))
    def test_longer_keep_alive_never_more_cold_starts(self, stamps):
        stamps = sorted(stamps)
        short = TraceSimulator(keep_alive_s=60).start_counts(stamps, 1.0)
        long = TraceSimulator(keep_alive_s=3600).start_counts(stamps, 1.0)
        assert long.cold <= short.cold


def reference_classify_starts(
    timestamps: list[float], duration_s: float, keep_alive_s: float
) -> list[bool]:
    """The quadratic instance-pool sweep: scan every instance ever started
    for the most recently freed one that is idle and within keep-alive."""
    instances: list[float] = []  # each entry: time the instance frees up
    flags: list[bool] = []
    for arrival in timestamps:
        best_index = -1
        best_free_at = -1.0
        for i, free_at in enumerate(instances):
            idle_for = arrival - free_at
            if 0 <= idle_for <= keep_alive_s and free_at > best_free_at:
                best_index, best_free_at = i, free_at
        if best_index < 0:
            flags.append(True)
            instances.append(arrival + duration_s)
        else:
            flags.append(False)
            instances[best_index] = arrival + duration_s
    return flags


# Small integer stamps force bursts, exact ties and zero idle gaps.
stamp = st.one_of(
    st.integers(min_value=0, max_value=40).map(float),
    st.floats(min_value=0, max_value=86_400),
)
span = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=20).map(float),
    st.floats(min_value=0, max_value=7200),
)


class TestClassifyStartsMatchesReferenceSweep:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(stamp, max_size=80), span, span)
    def test_identical_flags(self, stamps, duration, keep_alive):
        stamps = sorted(stamps)
        sim = TraceSimulator(keep_alive_s=keep_alive)
        assert sim.classify_starts(stamps, duration) == reference_classify_starts(
            stamps, duration, keep_alive
        )

    def test_zero_keep_alive_reuses_only_at_the_free_instant(self):
        sim = TraceSimulator(keep_alive_s=0.0)
        assert sim.classify_starts([0.0, 1.0, 1.5, 3.0], 1.0) == [
            True, False, True, True,
        ]

    def test_unsorted_timestamps_are_rejected(self):
        with pytest.raises(TraceError, match="sorted"):
            TraceSimulator().classify_starts([5.0, 1.0], 1.0)


class TestCostBreakdown:
    def test_snapstart_adds_cache_and_restore(self):
        sim = TraceSimulator(keep_alive_s=900)
        trace = _trace([0.0, 5000.0])
        with_snap = sim.simulate(trace, window_s=86_400, snapstart=True)
        without = sim.simulate(trace, window_s=86_400, snapstart=False, init_time_s=2.0)
        assert with_snap.snapstart > 0
        assert without.snapstart == 0

    def test_no_snapstart_bills_init_on_cold_starts(self):
        sim = TraceSimulator(keep_alive_s=900)
        trace = _trace([0.0])
        cheap = sim.simulate(trace, window_s=86_400, snapstart=False, init_time_s=0.0)
        pricey = sim.simulate(trace, window_s=86_400, snapstart=False, init_time_s=5.0)
        assert pricey.invocation > cheap.invocation

    def test_snapstart_share_for_idle_function(self):
        """Figure 13: rarely-invoked functions spend most budget on C/R."""
        sim = TraceSimulator(keep_alive_s=900)
        trace = _trace([100.0, 50_000.0], memory=256.0, duration=0.5)
        breakdown = sim.simulate(trace, window_s=86_400, snapstart=True)
        assert breakdown.snapstart_share > 0.6

    def test_snapstart_share_for_hot_function(self):
        sim = TraceSimulator(keep_alive_s=900)
        trace = _trace([float(i) for i in range(0, 80_000)], duration=0.4)
        breakdown = sim.simulate(trace, window_s=86_400, snapstart=True)
        assert breakdown.snapstart_share < 0.2

    def test_memory_override_scales_cost(self):
        sim = TraceSimulator(keep_alive_s=900)
        trace = _trace([0.0, 10.0, 20.0])
        small = sim.simulate(trace, window_s=86_400, memory_mb=128)
        large = sim.simulate(trace, window_s=86_400, memory_mb=1024)
        assert large.invocation > small.invocation

    def test_full_population_runs(self):
        traces = AzureTraceGenerator(seed=2).generate(30)
        sim = TraceSimulator(keep_alive_s=900)
        for trace in traces:
            breakdown = sim.simulate(trace, window_s=86_400)
            assert breakdown.total > 0
            assert 0 <= breakdown.snapstart_share <= 1
