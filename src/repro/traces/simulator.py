"""Trace-driven cold/warm and cost simulation (Figures 13 and 14).

:class:`TraceSimulator` replays an invocation timestamp series against a
keep-alive policy using an instance-pool sweep (concurrent requests spill
onto new instances, i.e. bursts cause extra cold starts), then prices the
run under Eq. 1 plus SnapStart's restore and cache fees.

This is the heavy-traffic path — an Azure-scale population runs through
here without executing any application code — so it is instrumented: each
``simulate`` call opens a ``trace_sim.simulate`` span and bumps the
``trace_sim.*`` counters, and with a
:class:`~repro.platform.telemetry.TelemetrySink` attached it publishes
one synthetic :class:`~repro.platform.logs.InvocationRecord` per arrival,
giving the fleet-telemetry layer windowed percentiles over millions of
analytically-simulated invocations.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.checkpoint import CriuSimulator
from repro.errors import TraceError
from repro.obs import get_recorder
from repro.platform.logs import InvocationRecord, StartType
from repro.pricing import AwsLambdaPricing, PricingModel, SnapStartPricing
from repro.traces.azure import FunctionTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platform.telemetry import TelemetrySink

__all__ = ["CostBreakdown", "StartCounts", "TraceSimulator"]


@dataclass(frozen=True)
class StartCounts:
    cold: int
    warm: int

    @property
    def total(self) -> int:
        return self.cold + self.warm


@dataclass(frozen=True)
class CostBreakdown:
    """Cost components of one simulated function over the window."""

    invocation: float
    snapstart_restore: float
    snapstart_cache: float
    cold_starts: int
    warm_starts: int

    @property
    def snapstart(self) -> float:
        return self.snapstart_restore + self.snapstart_cache

    @property
    def total(self) -> float:
        return self.invocation + self.snapstart

    @property
    def snapstart_share(self) -> float:
        """SnapStart cost over total cost — the Figure 13 x-axis."""
        total = self.total
        return self.snapstart / total if total > 0 else 0.0


class TraceSimulator:
    """Prices invocation traces under keep-alive + SnapStart policies."""

    def __init__(
        self,
        *,
        keep_alive_s: float = 15 * 60,
        pricing: PricingModel | None = None,
        snapstart_pricing: SnapStartPricing | None = None,
        criu: CriuSimulator | None = None,
    ):
        if keep_alive_s < 0:
            raise TraceError(f"keep-alive must be non-negative: {keep_alive_s}")
        self.keep_alive_s = keep_alive_s
        self.pricing = pricing if pricing is not None else AwsLambdaPricing()
        self.snapstart_pricing = (
            snapstart_pricing if snapstart_pricing is not None else SnapStartPricing()
        )
        self.criu = criu if criu is not None else CriuSimulator()

    def classify_starts(
        self, timestamps: tuple[float, ...] | list[float], duration_s: float
    ) -> list[bool]:
        """Per-arrival cold flags via an instance-pool sweep.

        An instance can serve a request if it is idle at the arrival time
        (``0 <= arrival - free_at``) and was last used within the
        keep-alive window (``arrival - free_at <= keep_alive_s``); the most
        recently freed such instance serves it, otherwise a new instance
        cold-starts.  ``duration_s`` is the per-request busy time.

        Arrivals must be sorted.  With one busy time, instances then free
        up in arrival order, so the pool is a sorted list of free-at
        times: expired instances leave from the front for good, and the
        pick is a bisection — O(n log n) instead of a scan of every
        instance ever started.
        """
        keep_alive_s = self.keep_alive_s
        free: list[float] = []  # free-at time of every live instance, sorted
        flags: list[bool] = []
        previous = -math.inf
        for arrival in timestamps:
            if arrival < previous:
                raise TraceError(
                    f"timestamps must be sorted: {arrival} after {previous}"
                )
            previous = arrival
            expired = 0
            while expired < len(free) and arrival - free[expired] > keep_alive_s:
                expired += 1
            if expired:
                del free[:expired]
            pick = bisect_right(free, arrival) - 1
            flags.append(pick < 0)
            if pick >= 0:
                del free[pick]
            free.append(arrival + duration_s)
        return flags

    def start_counts(
        self, timestamps: tuple[float, ...] | list[float], duration_s: float
    ) -> StartCounts:
        """Cold/warm split of :meth:`classify_starts` over the series."""
        flags = self.classify_starts(timestamps, duration_s)
        cold = sum(flags)
        return StartCounts(cold=cold, warm=len(flags) - cold)

    def simulate(
        self,
        trace: FunctionTrace,
        *,
        window_s: float,
        init_time_s: float = 0.0,
        snapstart: bool = True,
        image_size_mb: float = 0.0,
        memory_mb: float | None = None,
        duration_s: float | None = None,
        telemetry: "TelemetrySink | None" = None,
    ) -> CostBreakdown:
        """Price one function's trace over a window.

        With ``snapstart`` the cold starts restore (restore fee, no billed
        init) and the snapshot accrues cache cost for the whole window;
        without it cold starts pay billed initialization instead.  With a
        *telemetry* sink, every arrival is additionally published as a
        synthetic invocation record (the cache fee is time-based, not
        per-invocation, so it stays out of the per-record costs).
        """
        memory = memory_mb if memory_mb is not None else trace.memory_mb
        duration = duration_s if duration_s is not None else trace.duration_s
        recorder = get_recorder()
        with recorder.span(
            "trace_sim.simulate",
            label=trace.function_id,
            invocations=trace.invocations,
            snapstart=snapstart,
        ) as span:
            flags = self.classify_starts(trace.timestamps, duration)
            cold = sum(flags)
            warm = len(flags) - cold
            counts = StartCounts(cold=cold, warm=warm)

            warm_cost = self.pricing.invocation_cost(duration, memory) * counts.warm
            if snapstart:
                cold_cost = (
                    self.pricing.invocation_cost(duration, memory) * counts.cold
                )
                snapshot_mb = self.criu.checkpoint_size_mb(memory, image_size_mb)
                restore = self.snapstart_pricing.restore_cost(
                    snapshot_mb, counts.cold
                )
                cache = self.snapstart_pricing.cache_cost(snapshot_mb, window_s)
            else:
                cold_cost = (
                    self.pricing.invocation_cost(duration + init_time_s, memory)
                    * counts.cold
                )
                restore = 0.0
                cache = 0.0

            breakdown = CostBreakdown(
                invocation=warm_cost + cold_cost,
                snapstart_restore=restore,
                snapstart_cache=cache,
                cold_starts=counts.cold,
                warm_starts=counts.warm,
            )
            if telemetry is not None:
                self._publish(
                    telemetry,
                    trace,
                    flags,
                    duration=duration,
                    memory=memory,
                    init_time_s=init_time_s,
                    snapstart=snapstart,
                    image_size_mb=image_size_mb,
                )
            recorder.counter_add("trace_sim.invocations", counts.total)
            recorder.counter_add("trace_sim.cold_starts", counts.cold)
            recorder.counter_add("trace_sim.warm_starts", counts.warm)
            recorder.counter_add("trace_sim.cost_usd", breakdown.total)
            if span is not None:
                span.set_attr("cold_starts", counts.cold)
                span.set_attr("warm_starts", counts.warm)
                span.set_attr("cost_usd", round(breakdown.total, 9))
        return breakdown

    def _publish(
        self,
        telemetry: "TelemetrySink",
        trace: FunctionTrace,
        flags: list[bool],
        *,
        duration: float,
        memory: float,
        init_time_s: float,
        snapstart: bool,
        image_size_mb: float,
    ) -> None:
        """Publish one synthetic invocation record per arrival."""
        restore_s = 0.0
        restore_fee = 0.0
        if snapstart:
            snapshot = self.criu.checkpoint(
                trace.function_id,
                memory_mb=memory,
                image_size_mb=image_size_mb,
                init_time_s=init_time_s,
            )
            restore_s = self.criu.restore_time_s(snapshot)
            restore_fee = self.snapstart_pricing.restore_cost(snapshot.size_mb)
        memory_config = self.pricing.clamp_memory_mb(int(memory + 0.999))
        warm_cost = self.pricing.invocation_cost(duration, memory)
        if snapstart:
            cold_cost = warm_cost + restore_fee
        else:
            cold_cost = self.pricing.invocation_cost(duration + init_time_s, memory)
        for index, (arrival, is_cold) in enumerate(zip(trace.timestamps, flags)):
            if is_cold:
                init_s = 0.0 if snapstart else init_time_s
                e2e = duration + init_s + (restore_s if snapstart else 0.0)
            else:
                init_s = 0.0
                e2e = duration
            telemetry.observe(
                InvocationRecord(
                    request_id=f"{trace.function_id}-{index:06d}",
                    function=trace.function_id,
                    start_type=StartType.COLD if is_cold else StartType.WARM,
                    timestamp=arrival + e2e,
                    value=None,
                    instance_id=trace.function_id,
                    init_duration_s=init_s,
                    restore_duration_s=restore_s if is_cold and snapstart else 0.0,
                    exec_duration_s=duration,
                    routing_s=0.0,
                    billed_duration_s=self.pricing.billed_duration_s(
                        duration + init_s
                    ),
                    memory_config_mb=memory_config,
                    peak_memory_mb=memory,
                    cost_usd=cold_cost if is_cold else warm_cost,
                ),
                arrival=arrival,
            )
