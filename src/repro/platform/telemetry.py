"""Fleet telemetry: windowed rollups of invocations over virtual time.

The paper evaluates λ-trim by querying per-invocation AWS REPORT lines;
this module is the aggregate view of that stream under load.  A
:class:`TelemetrySink` receives every
:class:`~repro.platform.logs.InvocationRecord` the emulator, the trace
replayer, or the analytic trace simulator produces and folds it into
**tumbling windows over the virtual clock** — one
:class:`WindowRollup` per (function, window) plus a fleet-wide rollup per
window under the pseudo-function ``"*"``.

Each rollup carries cold-start rate, error rate, cost, a concurrency
high-water mark, and mergeable :class:`~repro.obs.histogram.
LogLinearHistogram` sketches of e2e / cold-e2e / billed durations, so
p50/p95/p99 queries are O(buckets) regardless of invocation volume.
Because the sketches merge, tumbling windows compose into sliding windows
(:meth:`TelemetrySink.sliding`) and whole-run summaries
(:meth:`FleetReport.overall`) without re-reading any records.

Declarative SLO rules (:mod:`repro.platform.slo`) are evaluated once per
finalized window; breaches are recorded as ``slo.breach`` observability
events and surface in the :class:`FleetReport` that ``repro dashboard``
renders.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.errors import PlatformError
from repro.obs import get_recorder
from repro.obs.histogram import LogLinearHistogram
from repro.platform.logs import InvocationRecord, StartType
from repro.platform.slo import FLEET, SloBreach, SloPolicy, SloRule, metric_value

try:  # optional [perf] extra: observe_columns needs it, observe_rows doesn't
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

__all__ = ["WindowRollup", "TelemetrySink", "FleetReport", "FLEET", "EXEMPLAR_K"]

SCHEMA_VERSION = 1

#: Worst-invocation exemplars retained per window (the drill-down trail
#: from an SLO breach back to concrete request ids).
EXEMPLAR_K = 3


def _exemplar_order(item: tuple[float, str]) -> tuple[float, str]:
    """Slowest first; ties broken by reference string for determinism."""
    return (-item[0], item[1])


@dataclass
class WindowRollup:
    """Aggregate of one function's invocations in one virtual-time window.

    ``function`` is ``"*"`` for the fleet-wide rollup.  Histograms hold
    seconds; ``concurrency_peak`` is the high-water mark of in-flight
    requests observed at arrival instants within the window.
    """

    function: str
    start_s: float
    end_s: float
    invocations: int = 0
    cold_starts: int = 0
    warm_starts: int = 0
    errors: int = 0
    cost_usd: float = 0.0
    billed_s_sum: float = 0.0
    concurrency_peak: int = 0
    #: Host-layer counters (zero when replay runs without a
    #: :class:`~repro.platform.hosts.HostPool`): warm instances evicted
    #: under memory pressure, instances destroyed by host crash/spot
    #: reclamation, and the pool-utilization high-water mark observed at
    #: host events in this window.
    evictions: int = 0
    host_losses: int = 0
    host_util_peak: float = 0.0
    #: Per-status breakdown (status value -> count), e.g. ``{"success":
    #: 98, "throttled": 2}``.  Sums to ``invocations``.
    status_counts: dict[str, int] = field(default_factory=dict)
    e2e: LogLinearHistogram = field(default_factory=LogLinearHistogram)
    cold_e2e: LogLinearHistogram = field(default_factory=LogLinearHistogram)
    billed: LogLinearHistogram = field(default_factory=LogLinearHistogram)
    #: The :data:`EXEMPLAR_K` slowest billed invocations of the window as
    #: ``(e2e_s, "function/request-id")`` pairs, slowest first.  These are
    #: the ids an SLO breach carries so the dashboard can drill from an
    #: alarm to the offending invocations and their cost profiles.
    exemplars: list[tuple[float, str]] = field(default_factory=list)

    # -- accumulation ------------------------------------------------------

    def _push_exemplar(self, e2e_s: float, ref: str) -> None:
        exemplars = self.exemplars
        exemplars.append((e2e_s, ref))
        exemplars.sort(key=_exemplar_order)
        del exemplars[EXEMPLAR_K:]

    def observe(self, record: InvocationRecord) -> None:
        self.invocations += 1
        status = record.status.value
        self.status_counts[status] = self.status_counts.get(status, 0) + 1
        if not record.ok:
            self.errors += 1
        if not record.billed:
            # Throttled: rejected before any instance work — counted (it
            # drives the error rate) but kept out of the start-type and
            # latency accounting, which describe work that actually ran.
            return
        if record.is_cold:
            self.cold_starts += 1
            self.cold_e2e.record(record.e2e_s)
        elif record.start_type is StartType.WARM:
            self.warm_starts += 1
        self.cost_usd += record.cost_usd
        self.billed_s_sum += record.billed_duration_s
        e2e_s = record.e2e_s
        self.e2e.record(e2e_s)
        self.billed.record(record.billed_duration_s)
        exemplars = self.exemplars
        if len(exemplars) < EXEMPLAR_K or e2e_s > exemplars[-1][0]:
            self._push_exemplar(e2e_s, f"{record.function}/{record.request_id}")

    def merge(self, other: "WindowRollup") -> None:
        """Fold *other* into this rollup (sliding windows, run totals)."""
        if other.function != self.function:
            raise PlatformError(
                f"cannot merge rollups for different functions: "
                f"{self.function!r} vs {other.function!r}"
            )
        self.start_s = min(self.start_s, other.start_s)
        self.end_s = max(self.end_s, other.end_s)
        self.invocations += other.invocations
        self.cold_starts += other.cold_starts
        self.warm_starts += other.warm_starts
        self.errors += other.errors
        self.cost_usd += other.cost_usd
        self.billed_s_sum += other.billed_s_sum
        for status, count in other.status_counts.items():
            self.status_counts[status] = self.status_counts.get(status, 0) + count
        # Peaks in disjoint windows do not overlap, so the merged HWM is
        # the max, not the sum.
        self.concurrency_peak = max(self.concurrency_peak, other.concurrency_peak)
        self.evictions += other.evictions
        self.host_losses += other.host_losses
        self.host_util_peak = max(self.host_util_peak, other.host_util_peak)
        self.e2e.merge(other.e2e)
        self.cold_e2e.merge(other.cold_e2e)
        self.billed.merge(other.billed)
        if other.exemplars:
            combined = self.exemplars + other.exemplars
            combined.sort(key=_exemplar_order)
            self.exemplars = combined[:EXEMPLAR_K]

    # -- derived metrics ---------------------------------------------------

    @property
    def cold_start_rate(self) -> float:
        return self.cold_starts / self.invocations if self.invocations else 0.0

    @property
    def error_rate(self) -> float:
        return self.errors / self.invocations if self.invocations else 0.0

    @property
    def cost_per_1k(self) -> float:
        """USD per 1000 invocations at this window's mix."""
        if not self.invocations:
            return 0.0
        return self.cost_usd * 1000.0 / self.invocations

    @property
    def mean_e2e_s(self) -> float:
        return self.e2e.mean

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "function": self.function,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "invocations": self.invocations,
            "cold_starts": self.cold_starts,
            "warm_starts": self.warm_starts,
            "errors": self.errors,
            "cost_usd": self.cost_usd,
            "billed_s_sum": self.billed_s_sum,
            "concurrency_peak": self.concurrency_peak,
            "evictions": self.evictions,
            "host_losses": self.host_losses,
            "host_util_peak": self.host_util_peak,
            "status_counts": dict(sorted(self.status_counts.items())),
            "e2e": self.e2e.to_dict(),
            "cold_e2e": self.cold_e2e.to_dict(),
            "billed": self.billed.to_dict(),
            "exemplars": [[e2e_s, ref] for e2e_s, ref in self.exemplars],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "WindowRollup":
        return cls(
            function=data["function"],
            start_s=float(data["start_s"]),
            end_s=float(data["end_s"]),
            invocations=int(data["invocations"]),
            cold_starts=int(data["cold_starts"]),
            warm_starts=int(data["warm_starts"]),
            errors=int(data["errors"]),
            cost_usd=float(data["cost_usd"]),
            billed_s_sum=float(data["billed_s_sum"]),
            concurrency_peak=int(data["concurrency_peak"]),
            evictions=int(data.get("evictions", 0)),
            host_losses=int(data.get("host_losses", 0)),
            host_util_peak=float(data.get("host_util_peak", 0.0)),
            status_counts={
                str(k): int(v)
                for k, v in data.get("status_counts", {}).items()
            },
            e2e=LogLinearHistogram.from_dict(data["e2e"]),
            cold_e2e=LogLinearHistogram.from_dict(data["cold_e2e"]),
            billed=LogLinearHistogram.from_dict(data["billed"]),
            exemplars=[
                (float(e2e_s), str(ref))
                for e2e_s, ref in data.get("exemplars", [])
            ],
        )


#: Pending records are folded into rollups once this many accumulate, so
#: buffered memory stays bounded no matter how long a run streams.
DRAIN_THRESHOLD = 50_000

#: Columnar (function, window) runs at or below this many rows fold via
#: the plain-Python row sweep — a dozen numpy kernel launches cost more
#: than looping a handful of rows (see ``_ingest_cols_small``).
_SMALL_RUN = 128


class TelemetrySink:
    """Aggregator of invocation records over the virtual clock.

    Windows tumble every ``window_s`` virtual seconds, keyed by the
    *arrival* time of each request (``record.timestamp - record.e2e_s``
    unless the publisher supplies trace-time arrivals, as the replayer
    does).  Publishers are expected to deliver records in non-decreasing
    arrival order — true of the emulator (the virtual clock only moves
    forward) and of :class:`~repro.platform.replay.TraceReplayer`
    (arrivals are validated sorted); mild disorder only softens the
    concurrency high-water mark, never the counts or histograms.

    **Hot-path contract.**  ``observe`` is an O(1) buffer append — the
    statsd/CloudWatch-agent design — so attaching a sink costs the
    emulator's invocation path well under the 3% budget that
    ``benchmarks/bench_telemetry_overhead.py`` enforces.  Aggregation
    (windowing, histogram inserts, the concurrency heap) runs when the
    buffer hits :data:`DRAIN_THRESHOLD` or on the first query/finalize,
    whichever comes first; every query method drains first, so results
    are always exact and orderings identical to eager aggregation.
    """

    def __init__(
        self,
        *,
        window_s: float = 60.0,
        subbuckets: int = 64,
        slos: Iterable[SloRule] | SloPolicy = (),
        track_fleet: bool = True,
    ):
        if window_s <= 0:
            raise PlatformError(f"window must be positive: {window_s}")
        self.window_s = float(window_s)
        self.subbuckets = subbuckets
        #: Whether to also maintain the fleet-wide ``"*"`` rollups.  Fleet
        #: replay workers turn this off: the parent rebuilds ``"*"`` from
        #: the per-function windows during the merge, so per-worker fleet
        #: rollups are pure overhead.
        self.track_fleet = track_fleet
        self.policy = slos if isinstance(slos, SloPolicy) else SloPolicy(list(slos))
        self.breaches: list[SloBreach] = []
        #: Free-form run metadata exported with the report — e.g. the
        #: fallback manager's breaker state (see :meth:`set_meta`).
        self.meta: dict[str, Any] = {}
        self._windows: dict[tuple[str, int], WindowRollup] = {}
        self._evaluated: set[tuple[str, int]] = set()
        # In-flight completion-time heaps for the concurrency HWM.
        self._in_flight: dict[str, list[float]] = {}
        # Hot-path buffer: (record, explicit arrival or None) pairs, plus
        # ((function, kind, util), arrival) host events from observe_host.
        self._pending: list[tuple[Any, float | None]] = []

    # -- ingestion ---------------------------------------------------------

    def observe(
        self, record: InvocationRecord, *, arrival: float | None = None
    ) -> None:
        """Buffer one invocation for its (function, window) and fleet rollups.

        *arrival* defaults to ``record.timestamp - record.e2e_s`` — the
        emulator stamps records at completion.  Replay-style publishers
        pass their own trace-time arrivals instead.  The append is the
        whole hot-path cost; aggregation is deferred (see class docstring).
        """
        self._pending.append((record, arrival))
        if len(self._pending) >= DRAIN_THRESHOLD:
            self._drain()

    def observe_row(self, row: tuple, *, arrival: float) -> None:
        """Fold one already-decomposed invocation: a one-row
        :meth:`observe_rows` (see there for the row layout)."""
        self.observe_rows((row,), arrivals=(arrival,))

    def observe_rows(
        self,
        rows: Sequence[tuple],
        *,
        arrivals: Sequence[float],
    ) -> None:
        """Fold many already-decomposed rows at once (the fast-engine path).

        Each row is ``(function, status_value, ok, billed, is_cold,
        is_warm, e2e_s, cost_usd, billed_duration_s[, request_num])`` —
        everything :meth:`WindowRollup.observe` would have derived from a
        record; the optional trailing ``request_num`` feeds window
        exemplars (a 9-element row skips them).  Sink state is identical
        to one :meth:`observe` per equivalent record followed by a drain,
        but maximal runs of rows sharing a (function, window) are
        aggregated in bulk: histogram inserts go through
        :meth:`~repro.obs.histogram.LogLinearHistogram.observe_many`,
        while every order-dependent float accumulation (``cost_usd``,
        ``billed_s_sum``, the sketches' ``_sum``) stays a sequential fold
        in row order, so sink state is bit-identical to the per-record path.
        Rows must arrive in non-decreasing arrival order, like every
        other publisher.  The hot-path buffer is drained first so
        previously buffered records keep their publish order.
        """
        if len(rows) != len(arrivals):
            raise PlatformError(
                f"observe_rows needs one arrival per row: "
                f"{len(rows)} rows vs {len(arrivals)} arrivals"
            )
        if not rows:
            return
        self._drain()
        window_s = self.window_s
        n = len(rows)
        start = 0
        while start < n:
            function = rows[start][0]
            index = int(arrivals[start] // window_s)
            end = start + 1
            while (
                end < n
                and rows[end][0] == function
                and int(arrivals[end] // window_s) == index
            ):
                end += 1
            self._ingest_run(rows, arrivals, start, end)
            start = end

    def _ingest_run(
        self,
        rows: Sequence[tuple],
        arrivals: Sequence[float],
        start: int,
        end: int,
    ) -> None:
        """Fold rows[start:end] — one (function, window) run — in bulk."""
        function = rows[start][0]
        names = (function, FLEET) if self.track_fleet else (function,)
        for name in names:
            rollup = self._rollup(name, arrivals[start])
            heap = self._in_flight.setdefault(name, [])
            status_counts = rollup.status_counts
            exemplars = rollup.exemplars
            errors = 0
            cold = 0
            warm = 0
            cost = rollup.cost_usd
            billed_sum = rollup.billed_s_sum
            peak = rollup.concurrency_peak
            e2e_values: list[float] = []
            cold_values: list[float] = []
            billed_values: list[float] = []
            for i in range(start, end):
                row = rows[i]
                arrival = arrivals[i]
                status = row[1]
                status_counts[status] = status_counts.get(status, 0) + 1
                if not row[2]:
                    errors += 1
                e2e_s = row[6]
                if row[3]:
                    if row[4]:
                        cold += 1
                        cold_values.append(e2e_s)
                    elif row[5]:
                        warm += 1
                    cost += row[7]
                    billed_sum += row[8]
                    e2e_values.append(e2e_s)
                    billed_values.append(row[8])
                    request_num = row[9] if len(row) > 9 else -1
                    if request_num >= 0 and (
                        len(exemplars) < EXEMPLAR_K or e2e_s > exemplars[-1][0]
                    ):
                        rollup._push_exemplar(
                            e2e_s, f"{function}/req-{request_num:06d}"
                        )
                completion = arrival + e2e_s
                while heap and heap[0] <= arrival:
                    heapq.heappop(heap)
                heapq.heappush(heap, completion)
                depth = len(heap)
                if depth > peak:
                    peak = depth
            rollup.invocations += end - start
            rollup.errors += errors
            rollup.cold_starts += cold
            rollup.warm_starts += warm
            rollup.cost_usd = cost
            rollup.billed_s_sum = billed_sum
            rollup.concurrency_peak = peak
            if e2e_values:
                rollup.e2e.observe_many(e2e_values)
                rollup.billed.observe_many(billed_values)
            if cold_values:
                rollup.cold_e2e.observe_many(cold_values)

    def observe_columns(
        self,
        function: str,
        *,
        statuses,
        status_names: Sequence[str],
        ok,
        is_cold,
        e2e,
        cost,
        billed_s,
        arrivals,
        rid_start: int,
    ) -> None:
        """Fold one all-billed columnar batch — the columnar replay loop.

        Arguments are parallel numpy arrays in serve order: ``statuses``
        indexes into ``status_names``, ``ok``/``is_cold`` are bool masks
        (every row is billed and non-throttled, so ``is_warm`` is exactly
        ``~is_cold``), and row *i* carries request number
        ``rid_start + i``.  State after the call is bit-identical to one
        :meth:`observe` per equivalent record: order-dependent float folds
        (``cost_usd``, ``billed_s_sum``, histogram ``_sum``) run as
        seeded ``cumsum`` left-folds, counters and bucket counts come
        from array aggregates, and the concurrency heap is replaced by
        its surviving multiset (pop/push order inside one batch is
        unobservable — only pops-by-value and depth are).  Requires
        numpy (the columnar loop only runs with it).
        """
        if _np is None:  # pragma: no cover - the columnar loop requires numpy
            raise PlatformError("observe_columns requires numpy")
        n = int(len(e2e))
        if n == 0:
            return
        self._drain()
        window_s = self.window_s
        widx = _np.floor_divide(arrivals, window_s).astype(_np.int64)
        bounds = (_np.flatnonzero(widx[1:] != widx[:-1]) + 1).tolist()
        edges = [0, *bounds, n]
        for run in range(len(edges) - 1):
            a, b = edges[run], edges[run + 1]
            if b - a <= _SMALL_RUN:
                self._ingest_cols_small(
                    function, status_names, statuses, ok, is_cold, e2e,
                    cost, billed_s, arrivals, rid_start, a, b,
                )
            else:
                self._ingest_cols(
                    function, status_names, statuses, ok, is_cold, e2e,
                    cost, billed_s, arrivals, rid_start, a, b,
                )

    def _ingest_cols_small(
        self, function, status_names, statuses, ok, is_cold, e2e, cost,
        billed_s, arrivals, rid_start, a, b,
    ) -> None:
        """Row-loop twin of :meth:`_ingest_cols` for short runs.

        Fleet traces cut batches into many small (function, window) runs;
        below ``_SMALL_RUN`` rows the fixed cost of a dozen numpy
        kernels exceeds a plain Python sweep.  This is the reference
        per-row fold verbatim (same arithmetic, same order), so the
        resulting sink state is bit-identical to both the scalar path
        and :meth:`_ingest_cols`.
        """
        m = b - a
        st_l = statuses[a:b].tolist()
        ok_l = ok[a:b].tolist()
        cold_l = is_cold[a:b].tolist()
        e2e_l = e2e[a:b].tolist()
        cost_l = cost[a:b].tolist()
        bill_l = billed_s[a:b].tolist()
        arr_l = arrivals[a:b].tolist()
        rid0 = rid_start + a
        names = (function, FLEET) if self.track_fleet else (function,)
        for name in names:
            rollup = self._rollup(name, arr_l[0])
            heap = self._in_flight.setdefault(name, [])
            status_counts = rollup.status_counts
            exemplars = rollup.exemplars
            errors = 0
            cold = 0
            cost_acc = rollup.cost_usd
            billed_sum = rollup.billed_s_sum
            peak = rollup.concurrency_peak
            cold_values: list[float] = []
            for i in range(m):
                status = status_names[st_l[i]]
                status_counts[status] = status_counts.get(status, 0) + 1
                if not ok_l[i]:
                    errors += 1
                e2e_s = e2e_l[i]
                if cold_l[i]:
                    cold += 1
                    cold_values.append(e2e_s)
                cost_acc += cost_l[i]
                billed_sum += bill_l[i]
                if len(exemplars) < EXEMPLAR_K or e2e_s > exemplars[-1][0]:
                    rollup._push_exemplar(
                        e2e_s, f"{function}/req-{rid0 + i:06d}"
                    )
                arrival = arr_l[i]
                while heap and heap[0] <= arrival:
                    heapq.heappop(heap)
                heapq.heappush(heap, arrival + e2e_s)
                depth = len(heap)
                if depth > peak:
                    peak = depth
            rollup.invocations += m
            rollup.errors += errors
            rollup.cold_starts += cold
            rollup.warm_starts += m - cold
            rollup.cost_usd = cost_acc
            rollup.billed_s_sum = billed_sum
            rollup.concurrency_peak = peak
            rollup.e2e.observe_many(e2e_l)
            rollup.billed.observe_many(bill_l)
            if cold_values:
                rollup.cold_e2e.observe_many(cold_values)

    def _ingest_cols(
        self, function, status_names, statuses, ok, is_cold, e2e, cost,
        billed_s, arrivals, rid_start, a, b,
    ) -> None:
        """Fold columns[a:b] — one (function, window) run — in bulk."""
        m = b - a
        arr_sl = arrivals[a:b]
        e2e_sl = e2e[a:b]
        comp_sl = arr_sl + e2e_sl
        cold_sl = is_cold[a:b]
        uq, first, cnts = _np.unique(
            statuses[a:b], return_index=True, return_counts=True
        )
        status_pairs = [
            (status_names[int(uq[p])], int(cnts[p]))
            for p in _np.argsort(first, kind="stable").tolist()
        ]
        errors = m - int(ok[a:b].sum())
        cold_n = int(cold_sl.sum())
        cold_vals = e2e_sl[cold_sl] if cold_n else None
        bill_sl = billed_s[a:b]
        cost_sl = cost[a:b]
        # A zero-e2e row completes *at* its arrival, entangling pop order
        # with same-instant arrivals — the closed form below assumes
        # every completion lands strictly after its arrival.
        zero_e2e = bool((e2e_sl == 0.0).any())
        arrival0 = float(arr_sl[0])
        names = (function, FLEET) if self.track_fleet else (function,)
        for name in names:
            rollup = self._rollup(name, arrival0)
            status_counts = rollup.status_counts
            for status, cnt in status_pairs:
                status_counts[status] = status_counts.get(status, 0) + cnt
            rollup.invocations += m
            rollup.errors += errors
            rollup.cold_starts += cold_n
            rollup.warm_starts += m - cold_n
            rollup.cost_usd = float(
                _np.cumsum(_np.concatenate(((rollup.cost_usd,), cost_sl)))[-1]
            )
            rollup.billed_s_sum = float(
                _np.cumsum(
                    _np.concatenate(((rollup.billed_s_sum,), bill_sl))
                )[-1]
            )
            rollup.e2e.observe_many(e2e_sl)
            rollup.billed.observe_many(bill_sl)
            if cold_vals is not None:
                rollup.cold_e2e.observe_many(cold_vals)
            exemplars = rollup.exemplars
            index = 0
            while index < m and len(exemplars) < EXEMPLAR_K:
                rollup._push_exemplar(
                    float(e2e_sl[index]),
                    f"{function}/req-{rid_start + a + index:06d}",
                )
                index += 1
            if index < m:
                # The K-th slowest only ever rises, so rows at or below
                # the *entry* threshold can never displace an exemplar.
                candidates = (
                    _np.flatnonzero(e2e_sl[index:] > exemplars[-1][0]) + index
                )
                for i in candidates.tolist():
                    value = float(e2e_sl[i])
                    if value > exemplars[-1][0]:
                        rollup._push_exemplar(
                            value, f"{function}/req-{rid_start + a + i:06d}"
                        )
            heap = self._in_flight.setdefault(name, [])
            if zero_e2e:
                peak = rollup.concurrency_peak
                for i in range(m):
                    arrival = arr_sl[i]
                    while heap and heap[0] <= arrival:
                        heapq.heappop(heap)
                    heapq.heappush(heap, float(comp_sl[i]))
                    depth = len(heap)
                    if depth > peak:
                        peak = depth
                rollup.concurrency_peak = peak
            else:
                len_heap = len(heap)
                if len_heap:
                    carry = _np.sort(_np.asarray(heap))
                    heap_pops = _np.searchsorted(carry, arr_sl, side="right")
                else:
                    heap_pops = 0
                own_pops = _np.searchsorted(
                    _np.sort(comp_sl), arr_sl, side="right"
                )
                depth = (len_heap - heap_pops) + (
                    _np.arange(1, m + 1) - own_pops
                )
                peak = int(depth.max())
                if peak > rollup.concurrency_peak:
                    rollup.concurrency_peak = peak
                t_last = arr_sl[m - 1]
                survivors: list[float] = []
                if len_heap:
                    survivors += carry[carry > t_last].tolist()
                head = comp_sl[:-1]
                survivors += head[head > t_last].tolist()
                survivors.append(float(comp_sl[m - 1]))
                survivors.sort()
                heap[:] = survivors

    def observe_host(
        self, function: str, kind: str, util: float, *, arrival: float
    ) -> None:
        """Buffer one host-layer event for *function*'s windows.

        *kind* is ``"placement"`` (utilization sample only),
        ``"eviction"`` (memory pressure reclaimed a warm instance), or
        ``"host_loss"`` (a crash or spot reclamation destroyed an
        instance).  Events are attributed to the affected instance's
        function so per-worker sinks in a sharded fleet replay merge
        identically to a single live sink.
        """
        self._pending.append(((function, kind, util), arrival))
        if len(self._pending) >= DRAIN_THRESHOLD:
            self._drain()

    def _drain(self) -> None:
        """Fold every buffered record into its rollups, in publish order."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        for record, arrival in pending:
            if type(record) is tuple:
                self._ingest_host(record[0], record[1], record[2], arrival)
            else:
                self._ingest(record, arrival)

    def _ingest(self, record: InvocationRecord, arrival: float | None) -> None:
        if arrival is None:
            arrival = record.timestamp - record.e2e_s
        completion = arrival + record.e2e_s
        names = (record.function, FLEET) if self.track_fleet else (record.function,)
        for name in names:
            rollup = self._rollup(name, arrival)
            rollup.observe(record)
            depth = self._track_concurrency(name, arrival, completion)
            rollup.concurrency_peak = max(rollup.concurrency_peak, depth)

    def _ingest_host(
        self, function: str, kind: str, util: float, arrival: float
    ) -> None:
        names = (function, FLEET) if self.track_fleet else (function,)
        for name in names:
            rollup = self._rollup(name, arrival)
            if kind == "eviction":
                rollup.evictions += 1
            elif kind == "host_loss":
                rollup.host_losses += 1
            if util > rollup.host_util_peak:
                rollup.host_util_peak = util

    def _rollup(self, function: str, arrival: float) -> WindowRollup:
        index = int(arrival // self.window_s)
        key = (function, index)
        rollup = self._windows.get(key)
        if rollup is None:
            rollup = self._windows[key] = WindowRollup(
                function=function,
                start_s=index * self.window_s,
                end_s=(index + 1) * self.window_s,
                e2e=LogLinearHistogram(subbuckets=self.subbuckets),
                cold_e2e=LogLinearHistogram(subbuckets=self.subbuckets),
                billed=LogLinearHistogram(subbuckets=self.subbuckets),
            )
        return rollup

    def _track_concurrency(
        self, function: str, arrival: float, completion: float
    ) -> int:
        heap = self._in_flight.setdefault(function, [])
        while heap and heap[0] <= arrival:
            heapq.heappop(heap)
        heapq.heappush(heap, completion)
        return len(heap)

    # -- SLO evaluation ----------------------------------------------------

    def finalize(self) -> list[SloBreach]:
        """Evaluate SLO rules on every not-yet-evaluated window.

        Idempotent: each window is judged exactly once, so streaming
        callers can finalize repeatedly as virtual time advances.  Every
        breach is also re-emitted as a ``slo.breach`` observability event
        and counted under ``telemetry.slo_breaches``.
        """
        self._drain()
        recorder = get_recorder()
        fresh: list[SloBreach] = []
        for key in sorted(self._windows, key=lambda k: (k[1], k[0])):
            if key in self._evaluated:
                continue
            self._evaluated.add(key)
            rollup = self._windows[key]
            recorder.counter_add("telemetry.windows_evaluated")
            for breach in self.policy.evaluate_window(rollup):
                fresh.append(breach)
                recorder.counter_add("telemetry.slo_breaches")
                recorder.event("slo.breach", breach.to_dict())
        self.breaches.extend(fresh)
        return fresh

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe full sink state for kill-and-resume replay.

        Drains the hot-path buffer first, so the snapshot is exactly the
        folded state; :class:`WindowRollup` round-trips through
        ``to_dict``/``from_dict`` losslessly (``sliding`` relies on that
        as a deep copy), and the in-flight completion heaps are plain
        float lists.
        """
        self._drain()
        return {
            "windows": [
                [name, index, rollup.to_dict()]
                for (name, index), rollup in self._windows.items()
            ],
            "evaluated": sorted([name, index] for name, index in self._evaluated),
            "in_flight": {
                name: list(heap) for name, heap in self._in_flight.items()
            },
            "breaches": [breach.to_dict() for breach in self.breaches],
            "meta": dict(self.meta),
        }

    def restore(self, state: dict) -> None:
        """Adopt a :meth:`snapshot` into this (freshly built) sink.

        The sink must be configured like the snapshotting one (same
        window shape, subbuckets, SLO policy); only dynamic state is
        carried over.
        """
        self._pending = []
        self._windows = {
            (name, int(index)): WindowRollup.from_dict(data)
            for name, index, data in state["windows"]
        }
        self._evaluated = {
            (name, int(index)) for name, index in state["evaluated"]
        }
        self._in_flight = {
            name: [float(t) for t in heap]
            for name, heap in state["in_flight"].items()
        }
        self.breaches = [SloBreach.from_dict(b) for b in state["breaches"]]
        self.meta = dict(state["meta"])

    # -- queries -----------------------------------------------------------

    @property
    def invocations(self) -> int:
        self._drain()
        return sum(
            r.invocations for (name, _), r in self._windows.items() if name == FLEET
        )

    def functions(self) -> list[str]:
        self._drain()
        return sorted({name for name, _ in self._windows if name != FLEET})

    def rollups(self, function: str = FLEET) -> list[WindowRollup]:
        """Finalized tumbling windows for *function*, in time order."""
        self._drain()
        return [
            self._windows[key]
            for key in sorted(self._windows, key=lambda k: k[1])
            if key[0] == function
        ]

    def sliding(self, function: str = FLEET, *, width: int = 2) -> list[WindowRollup]:
        """Sliding windows of *width* tumbling windows, stepping by one.

        Implemented by merging the underlying sketches — no records are
        re-read, which is the point of mergeable histograms.
        """
        if width < 1:
            raise PlatformError(f"sliding width must be >= 1: {width}")
        tumbling = self.rollups(function)
        merged: list[WindowRollup] = []
        for i in range(len(tumbling)):
            window = WindowRollup.from_dict(tumbling[i].to_dict())  # deep copy
            for other in tumbling[i + 1 : i + width]:
                window.merge(other)
            merged.append(window)
        return merged

    # -- export ------------------------------------------------------------

    def set_meta(self, key: str, value: Any) -> None:
        """Attach JSON-serializable run metadata to the exported report.

        The canonical use is breaker state: ``sink.set_meta("fallback",
        manager.to_dict())`` surfaces the circuit breaker on the
        dashboard.
        """
        self.meta[key] = value

    def report(self) -> "FleetReport":
        """Finalize outstanding windows and snapshot the full fleet view."""
        self.finalize()
        return FleetReport(
            window_s=self.window_s,
            windows=[
                self._windows[key]
                for key in sorted(self._windows, key=lambda k: (k[1], k[0]))
            ],
            breaches=list(self.breaches),
            slos=list(self.policy.rules),
            meta=dict(self.meta),
        )

    def save(self, path: Path | str) -> Path:
        return self.report().save(path)


@dataclass
class FleetReport:
    """A sink's exported state, decoupled from the live sink.

    This is what ``repro dashboard`` loads: tumbling windows (per function
    and fleet-wide), the SLO rules that were active, and every breach.
    """

    window_s: float
    windows: list[WindowRollup] = field(default_factory=list)
    breaches: list[SloBreach] = field(default_factory=list)
    slos: list[SloRule] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)

    def functions(self) -> list[str]:
        return sorted({w.function for w in self.windows if w.function != FLEET})

    def rollups(self, function: str = FLEET) -> list[WindowRollup]:
        return sorted(
            (w for w in self.windows if w.function == function),
            key=lambda w: w.start_s,
        )

    def overall(self, function: str = FLEET) -> WindowRollup:
        """All of *function*'s windows merged into one run-level rollup."""
        windows = self.rollups(function)
        if not windows:
            raise PlatformError(f"no telemetry recorded for {function!r}")
        total = WindowRollup.from_dict(windows[0].to_dict())
        for window in windows[1:]:
            total.merge(window)
        return total

    def series(self, metric: str, function: str = FLEET) -> list[tuple[float, float]]:
        """(window start, metric value) per window — sparkline fodder."""
        return [
            (w.start_s, metric_value(w, metric)) for w in self.rollups(function)
        ]

    @property
    def invocations(self) -> int:
        return sum(w.invocations for w in self.windows if w.function == FLEET)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "repro-telemetry",
            "window_s": self.window_s,
            "windows": [w.to_dict() for w in self.windows],
            "breaches": [b.to_dict() for b in self.breaches],
            "slos": [rule.to_dict() for rule in self.slos],
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FleetReport":
        if data.get("kind") != "repro-telemetry":
            raise PlatformError(
                "not a telemetry export (expected kind='repro-telemetry')"
            )
        return cls(
            window_s=float(data["window_s"]),
            windows=[WindowRollup.from_dict(w) for w in data.get("windows", [])],
            breaches=[SloBreach.from_dict(b) for b in data.get("breaches", [])],
            slos=[SloRule.from_dict(r) for r in data.get("slos", [])],
            meta=dict(data.get("meta", {})),
        )

    def save(self, path: Path | str) -> Path:
        """Atomically persist the report (fsync + rename, never torn).

        The volatile ``meta["resume"]`` counters (how a particular run
        was supervised — resumed shards, re-executed invocations) are
        excluded from the file: like worker counts and wall timings, they
        must not leak into the export, which stays byte-identical between
        a crashed-and-resumed replay and an uninterrupted one.  They
        remain on the in-memory report for the CLI/dashboard to print.
        """
        from repro.core.journal import atomic_write_text

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = self.to_dict()
        data["meta"] = {k: v for k, v in self.meta.items() if k != "resume"}
        atomic_write_text(path, json.dumps(data, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: Path | str) -> "FleetReport":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise PlatformError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)
