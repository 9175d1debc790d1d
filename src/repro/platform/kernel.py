"""The fast replay engine: template capture, synthesis, bulk emission.

:class:`~repro.platform.replay.TraceReplayer` replays every arrival by
*really* importing and executing the application under the virtual
meter.  That is the reference semantics, but at fleet scale it is almost
all redundant work: instances are isolated (each gets private copies of
its modules via ``isolated_imports``) and the metering is deterministic,
so every cold start of a function replays the same charge sequence, and
every warm invocation from the second onwards replays the same charge
*tape*.  :class:`KernelReplayer` exploits exactly that:

1. **Capture.**  Before the first arrival, :meth:`TemplateStore.capture`
   runs one real cold start and two real warm invocations of each
   ``(bundle, event)`` pair on a scratch instance, outside the clock,
   faults, hosts, log, and ledger, recording the meter's charge sequence
   (per-event virtual times and memory deltas), the handler's return
   value, and the error outcome.  This is the only place the kernel
   runs application code.
2. **Verify.**  The two warm tapes must match exactly — times, memory,
   value, error — and the memory deltas must account for the meter's
   live footprint (a handler that *frees* memory is not replayable from
   deltas).  A pair that fails verification, or whose bundle fails to
   initialize, is not the kernel's: :meth:`KernelReplayer.replay`
   refuses it and :func:`~repro.platform.fleet.replay_fleet` serves it
   on the reference engine.
3. **Synthesize.**  Every invocation, from the first arrival on, is
   synthesized without an interpreter on a *tape instance*
   (:class:`_Shadow`): a simulated meter (running time, live MB, peak
   MB) whose first run replays the cold template's constants and whose
   every later run replays the warm tape's charges as the same sequence
   of float additions as the real meter.

Because ``x + 0.0 == x`` and the charge replay performs the *same
additions in the same order* as the real meter, every derived float —
``exec_duration_s`` (a difference of running sums, so it drifts across
an instance's lifetime!), ``e2e_s``, billed durations, costs — comes out
bit-identical to the reference engine.  Everything else is the
emulator's own code: a tape instance implements the emulator's instance
protocol, so :meth:`LambdaEmulator._serve
<repro.platform.emulator.LambdaEmulator._serve>` serves it exactly as
it serves a real instance — host faults, the throttle draw, the warm
pool (:class:`~repro.platform.instance.WarmPool`), host admission, the
cold-start order (overhead, instance id, init, the cold-start crash
draw, binding), the post-execution step (memory configuration, CPU
scaling, the exec-crash draw, the host-crash offset, the kill ladder
:func:`~repro.platform.emulator.settle`, the kill, the clock advance),
pricing, attribution and request ids.  So is everything around the
serve step: the retry timeline
(:class:`~repro.platform.retry.RetryTimeline`) and the checkpoint
snapshot and resume check
(:func:`~repro.platform.checkpoint.restore_replay_state`).  Logs,
ledgers, telemetry, and dead letters are therefore byte-identical at any
worker count.

**Two serve loops, bulk emission.**  The *general path* walks the
reference engine's attempt timeline, with or without a retry policy,
serves one attempt at a time through the emulator's step with a
tape-instance factory (:meth:`KernelReplayer._spawn`) — synthesis,
faults, hosts, CPU scaling, retries, checkpoints — and buffers each
attempt's row in one bounded chunk, as the reference engine does.  The
chunk reaches the sinks in bulk through :meth:`LambdaEmulator._emit_rows
<repro.platform.emulator.LambdaEmulator._emit_rows>`
(:meth:`ExecutionLog.append_rows
<repro.platform.logs.ExecutionLog.append_rows>`,
:meth:`TelemetrySink.observe_rows
<repro.platform.telemetry.TelemetrySink.observe_rows>`,
:meth:`FunctionBill.charge_batch
<repro.platform.billing.FunctionBill.charge_batch>`) when it fills,
before every checkpoint snapshot, and when the loop ends.  Flush
boundaries are unobservable: every order-dependent float sum continues
its sequential fold in serve order.

A *homogeneous* retry-free run — numpy importable, no crash faults, no
throttle rate or outage covering the function, no hosts, no CPU scaling,
no checkpoint or resume — is served from its first arrival by the
*columnar loop*.  Its only logic of its own is the warm hit: the
warm-pool MRU stack + busy heap (an inlined
:meth:`WarmPool.acquire <repro.platform.instance.WarmPool.acquire>`),
the clock fold, and a per-*j* outcome table that the rest of the row is
gathered from.  A miss is the emulator's own cold start
(:meth:`LambdaEmulator._cold_start
<repro.platform.emulator.LambdaEmulator._cold_start>`) on a tape
instance, so every cold start in the system, its dollar attribution
included, runs through one method.  Two observations make the warm
hit exact:

1. *One outcome table per template and settings.*  Every synthesized
   instance of a template lives on one float-drift sequence: its meter
   after ``j`` serves is the cold template's post-exec meter with the
   warm tape folded onto it ``j - 1`` times, in the meter's own addition
   order.  So the outcome of an instance's ``j+1``-th serve (exec time,
   status, billed duration, cost, e2e, live/peak memory) is a pure
   function of ``j`` and of the settings that enter it.  Entry *j* of
   the table is computed once, in scalar code, as one warm serve of a
   probe shadow: the general path's tape fold
   (:meth:`_Shadow.serve`), settled by the emulator's kill ladder with
   no crash and no host, and priced through the emulator's memo
   (:class:`_OutcomeTable`).  The table lives on the template's entry,
   keyed by the function's ``memory_mb`` and ``timeout_s``, the routing
   delay, the platform overhead and the pricing model, so every function
   of a shard with the same settings shares it.  Each replay call starts
   with an empty pool, so every shadow it serves was born on its own
   template's sequence.
2. *Order-dependent sums stay sequential.*  The clock, the per-function
   billing sums, the telemetry histogram ``_sum`` folds, and the log's
   accounting folds are sequential float additions whose order is
   observable; the bulk paths keep them as left folds in serve order and
   vectorize only the order-free work.

Status/billing math that is per-run rather than per-invocation — the
peak-concurrency sweep — is vectorized with numpy when available
(:func:`peak_concurrency`); the pure-Python two-pointer sweep is the
reference and provably computes the same maximum.

What falls back to the reference engine: SnapStart functions, non-JSON
events, a non-``None`` context, fallback managers, any workload whose
capture fails verification or whose bundle fails to initialize, and a
function holding any live instance — warmed by direct
``emulator.invoke()`` calls or left by an earlier replay, shadows
included — because each kernel replay serves from a pool of its own
simulated instances, born in that call.
The host layer (:mod:`repro.platform.hosts`) never invalidates a
template — placement, eviction, and host loss operate on pool state
*outside* the captured meter tapes — so host chaos runs on the general
path with the same pool hooks, in the same order, as the reference
engine.  The parity suite in ``tests/platform/test_kernel.py`` pins all
of this down, with and without the columnar loop.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import InvocationError, PlatformError
from repro.obs import get_recorder
from repro.platform.checkpoint import (
    ReplayCheckpoint,
    restore_replay_state,
    snapshot_replay_state,
)
from repro.platform.emulator import (
    ROW_COST,
    ROW_E2E,
    ROW_START,
    ROW_STATUS,
    DeployedFunction,
    LambdaEmulator,
    settle,
)
from repro.platform.faults import ANY_FUNCTION
from repro.platform.instance import FunctionInstance, WarmPool
from repro.platform.logs import (
    _START_TYPE_INDEX,
    _STATUS_INDEX,
    _STATUS_TYPES,
    InvocationStatus,
    StartType,
    _intern_key,
)
from repro.platform.retry import (
    DeadLetter,
    RetryPolicy,
    RetryTimeline,
    check_arrivals,
)
from repro.vm import aggregate_charges

try:  # numpy is an optional [perf] extra; pure Python is the reference
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

#: The columnar loop's gate: without numpy every run takes the general path.
HAVE_NUMPY = _np is not None

__all__ = [
    "HAVE_NUMPY",
    "KernelReplayer",
    "KernelResult",
    "TemplateStore",
    "peak_concurrency",
    "publish_run",
]

_COLD = _START_TYPE_INDEX[StartType.COLD]
_WARM = _START_TYPE_INDEX[StartType.WARM]
_S_SUCCESS = _STATUS_INDEX[InvocationStatus.SUCCESS]
_S_ERROR = _STATUS_INDEX[InvocationStatus.ERROR]
_S_THROTTLED = _STATUS_INDEX[InvocationStatus.THROTTLED]
_STATUS_VALUES = tuple(s.value for s in _STATUS_TYPES)

#: Rows per bulk flush, so a single huge function keeps RSS flat; flush
#: boundaries are unobservable (sums continue their sequential folds).
#: A serve row (both engines' non-columnar loops, read at call time) is a
#: full tuple whose flush may also render it to the log spill, while a
#: columnar row is one spec index, so the row loops flush far more often.
_CHUNK_ROWS = 4096
_FLUSH_ROWS = 131072


def peak_concurrency(
    arrivals: Sequence[float],
    completions: Sequence[float],
    *,
    vectorized: bool | None = None,
) -> int:
    """Maximum number of simultaneously in-flight requests.

    Equivalent to the reference edge sweep (sort ``(t, +1)``/``(t, -1)``
    edges with departures before arrivals at ties, track the running
    depth): with both arrays sorted, the depth at the i-th arrival is
    ``i + 1 - |{completions <= arrival}|``, and the maximum over
    arrivals is the peak.  ``vectorized=None`` uses numpy when
    installed; ``False`` forces the pure-Python reference sweep.
    """
    n = len(arrivals)
    if n == 0:
        return 0
    use_numpy = (_np is not None) if vectorized is None else vectorized
    if use_numpy:
        if _np is None:
            raise PlatformError("numpy is not available for vectorized=True")
        arr = _np.sort(_np.asarray(arrivals, dtype=float))
        comp = _np.sort(_np.asarray(completions, dtype=float))
        depths = _np.arange(1, n + 1) - _np.searchsorted(comp, arr, side="right")
        return int(depths.max())
    arr_sorted = sorted(arrivals)
    comp_sorted = sorted(completions)
    peak = 0
    j = 0
    for i, arrival in enumerate(arr_sorted):
        while j < n and comp_sorted[j] <= arrival:
            j += 1
        depth = i + 1 - j
        if depth > peak:
            peak = depth
    return peak


def publish_run(
    emulator: LambdaEmulator, result: Any, requests: int, recorder: Any, span: Any
) -> None:
    """Publish a finished replay's run-level counters and span attributes.

    Both engines call it once their serve loop is done, with a
    :class:`KernelResult` or a :class:`~repro.platform.replay.ReplayResult`
    and its count of final requests: the emulator's counters batched on
    the disabled-recorder fast path first, then the replay's own
    aggregates.  Only the reference engine serves fallbacks.
    """
    emulator.flush_obs()
    cold_starts = result.cold_starts
    warm_starts = result.warm_starts
    total_cost = result.total_cost
    peak = result.peak_concurrency
    recorder.counter_add("replay.requests", requests)
    recorder.counter_add("replay.cold_starts", cold_starts)
    recorder.counter_add("replay.warm_starts", warm_starts)
    recorder.counter_add("replay.cost_usd", total_cost)
    recorder.gauge_max("replay.peak_concurrency", peak)
    if result.retries:
        recorder.counter_add("replay.retries", result.retries)
    if result.throttled:
        recorder.counter_add("replay.throttled", result.throttled)
    if result.fallbacks:
        recorder.counter_add("replay.fallbacks", result.fallbacks)
    if result.dead_letters:
        recorder.counter_add("replay.dead_letters", len(result.dead_letters))
    if span is not None:
        span.set_attr("cold_starts", cold_starts)
        span.set_attr("warm_starts", warm_starts)
        span.set_attr("peak_concurrency", peak)
        span.set_attr("cost_usd", round(total_cost, 9))
        span.set_attr("attempts", result.attempts)
        span.set_attr("retries", result.retries)
        span.set_attr("dead_letters", len(result.dead_letters))


@dataclass
class _ColdTemplate:
    """Constants of a cold start: init phase plus the first invocation.

    Cold starts are position-independent — the instance meter always
    starts at zero, so every float here is a constant, not a tape.
    """

    init_s: float
    init_live: float
    init_peak: float
    #: Meter state after invocation #1 (seed state for the warm tape).
    post_t: float
    post_live: float
    post_peak: float
    exec1_s: float
    value: Any
    value_key: Any
    error_type: str | None
    #: Aggregated init-phase charge rows ``(label, time_s, memory_mb)``,
    #: captured once per template — synthesized cold starts reuse them
    #: when dollar attribution is enabled, so profiles stay identical to
    #: the reference engine's without touching an interpreter.
    modules: tuple = ()


@dataclass
class _WarmTemplate:
    """The verified warm-invocation charge tape.

    ``times``/``mems`` are per-charge-event virtual seconds and MB
    deltas; replaying them as sequential additions against the
    instance's running meter state reproduces ``exec_duration_s`` (a
    difference of running sums) bit-for-bit, including its float drift
    across the instance's lifetime.
    """

    times: tuple[float, ...]
    mems: tuple[float, ...]
    has_mem: bool
    value: Any
    value_key: Any
    error_type: str | None


class _Entry:
    """The captured templates of one ``(bundle root, event)`` pair."""

    __slots__ = ("cold", "warm", "tables")

    def __init__(
        self,
        cold: _ColdTemplate | None = None,
        warm: _WarmTemplate | None = None,
    ) -> None:
        self.cold = cold
        self.warm = warm
        #: The columnar loop's :class:`_OutcomeTable` per settings key
        #: (see :meth:`KernelReplayer._outcome_table`), built lazily.
        self.tables: dict[tuple, _OutcomeTable] = {}

    @property
    def ready(self) -> bool:
        """Did the capture verify, so the kernel can serve the pair?"""
        return self.warm is not None


def _capture(function: DeployedFunction, event: Any) -> _Entry:
    """Capture one pair's templates on a scratch instance.

    One real cold start plus two real warm invocations, outside the
    clock, faults, hosts, log, and ledger — templates are a pure function
    of the bundle and the event, because virtual metering is
    deterministic.  The two warm charge tapes must be equal, and their
    memory deltas must reproduce the live footprint (a handler that frees
    memory is not replayable from deltas); otherwise, or when the bundle
    fails to initialize, the entry is not :attr:`~_Entry.ready`.
    """
    instance = FunctionInstance(function.name, function.bundle, created_at=0.0)
    try:
        try:
            init_s = instance.initialize()
        except InvocationError:
            return _Entry()
        meter = instance.app.meter
        # Aggregate the init charge stream before invoke() appends exec
        # events; synthesized cold starts reuse it for dollar attribution.
        modules = tuple(aggregate_charges(meter.events))
        init_live = meter.live_mb
        init_peak = meter.peak_mb
        output = instance.invoke(event, None)
        cold = _ColdTemplate(
            init_s=init_s,
            init_live=init_live,
            init_peak=init_peak,
            post_t=meter.time_s,
            post_live=meter.live_mb,
            post_peak=meter.peak_mb,
            exec1_s=output.exec_time_s,
            value=output.value,
            value_key=_intern_key(output.value),
            error_type=output.error_type,
            modules=modules,
        )
        tapes = []
        for _ in range(2):
            events_before = len(meter.events)
            live = meter.live_mb
            output = instance.invoke(event, None)
            events = meter.events[events_before:]
            mems = tuple(e.memory_mb for e in events)
            for mb in mems:
                if mb:
                    live += mb
            if live != meter.live_mb:
                return _Entry()
            times = tuple(e.time_s for e in events)
            tapes.append((times, mems, output.value, output.error_type))
    finally:
        instance.shutdown()
    if tapes[0] != tapes[1]:
        return _Entry()
    times, mems, value, error_type = tapes[1]
    return _Entry(
        cold,
        _WarmTemplate(
            times=times,
            mems=mems,
            has_mem=any(mems),
            value=value,
            value_key=_intern_key(value),
            error_type=error_type,
        ),
    )


class TemplateStore:
    """Capture-once template cache, scoped to one replay shard/process.

    Deliberately *not* module-global: a bundle path may be rebuilt with
    different contents across calls, and a store that outlives the shard
    would serve stale templates.  The capture cost (one real cold start
    plus two real warm invocations per pair) is paid once per shard.
    """

    def __init__(self) -> None:
        self._entries: dict[Any, _Entry] = {}

    def entry(self, key: Any) -> _Entry | None:
        """The captured entry for *key*, or None before its capture."""
        return self._entries.get(key)

    def capture(self, function: DeployedFunction, event: Any) -> _Entry | None:
        """The verified templates of *function*'s pair, captured once.

        None when the kernel cannot serve the pair: :meth:`key_for`
        refuses it, its bundle fails to initialize, or its capture fails
        verification.
        """
        key = self.key_for(function, event, None)
        if key is None:
            return None
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _capture(function, event)
        return entry if entry.ready else None

    @staticmethod
    def key_for(
        function: DeployedFunction, event: Any, context: Any
    ) -> tuple[str, str] | None:
        """The template cache key, or None if the kernel cannot serve.

        SnapStart re-checkpoints through the C/R simulator, a context
        object may carry behaviour, and a non-JSON event cannot be
        keyed — all three fall back to the reference engine.
        """
        if context is not None or function.snapstart:
            return None
        try:
            event_key = json.dumps(event, sort_keys=True)
        except (TypeError, ValueError):
            return None
        return (str(function.bundle.root), event_key)


class _Shadow:
    """A tape instance: one synthesized instance's simulated meter state.

    Implements the emulator's instance protocol by replaying the charge
    tapes captured for its template (*entry*): :meth:`initialize` sets the
    init-phase meter, the first :meth:`run` returns the cold template's
    constants and post-execution meter, and every later run folds the
    warm tape (:meth:`serve`).  Lives in ``function.instances`` like a
    real instance so ``discard_instances``, kills and host bookkeeping
    work unchanged.
    """

    __slots__ = (
        "instance_id",
        "entry",
        "alive",
        "t",
        "live",
        "peak",
        "invocations",
        "host_id",
    )

    def __init__(
        self,
        instance_id: str,
        entry: _Entry,
        t: float = 0.0,
        live: float = 0.0,
        peak: float = 0.0,
    ) -> None:
        self.instance_id = instance_id
        self.entry = entry
        self.alive = True
        self.t = t
        self.live = live
        self.peak = peak
        self.invocations = 0
        # Host the pool placed this shadow on (None without a host layer);
        # mirrors FunctionInstance.host_id so kernel and reference engines
        # carry identical placement state.
        self.host_id: str | None = None

    def initialize(self) -> float:
        """The init phase: its meter, and the billed init duration."""
        cold = self.entry.cold
        self.live = cold.init_live
        self.peak = cold.init_peak
        return cold.init_s

    def init_charges(self) -> tuple:
        """The init phase's charges per module, captured once per template."""
        return self.entry.cold.modules

    @property
    def peak_memory_mb(self) -> float:
        return self.peak

    def run(self, event: Any, context: Any) -> tuple[float, Any, Any, str | None]:
        """Serve one request: ``(exec_s, value, value_key, error_type)``."""
        if self.invocations:
            warm = self.entry.warm
            return self.serve(warm), warm.value, warm.value_key, warm.error_type
        cold = self.entry.cold
        self.t = cold.post_t
        self.live = cold.post_live
        self.peak = cold.post_peak
        self.invocations = 1
        return cold.exec1_s, cold.value, cold.value_key, cold.error_type

    def serve(self, warm: _WarmTemplate) -> float:
        """Fold one warm invocation's charge tape into this meter and
        return its exec time: identical additions, in identical order,
        give identical floats as the real meter."""
        start = running = self.t
        for time_s in warm.times:
            running += time_s
        self.t = running
        if warm.has_mem:
            live = self.live
            peak = self.peak
            for mb in warm.mems:
                if mb:
                    live += mb
                    if live > peak:
                        peak = live
            self.live = live
            self.peak = peak
        self.invocations += 1
        return running - start

    def shutdown(self) -> None:
        self.alive = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Shadow({self.instance_id}, used {self.invocations}x)"


class _OutcomeTable:
    """The columnar loop's outcome of each serve index of one template.

    Entry 0 is a cold start and entry ``j >= 1`` the warm serve of an
    instance that has already served *j* invocations.  Every synthesized
    instance of a template lives on one meter-drift sequence, so entry *j*
    is the *j*-th warm serve of a probe shadow that starts from the cold
    template's meter: the same tape fold as the general path
    (:meth:`_Shadow.serve`), settled by the emulator's kill ladder with no
    crash and no host (:meth:`KernelReplayer._homogeneous` excludes
    both), and priced through the emulator's memo.  Each entry's
    value/error class indexes
    :attr:`cls_values`/:attr:`cls_errors`, one class per (cold, status)
    the ladder returned; classes run-length encode for
    :meth:`ExecutionLog.append_columns`.

    The table is template math under fixed settings, so every function of
    a shard with those settings shares it; it never holds the emulator or
    function that extend it.
    """

    __slots__ = (
        "probe",
        "specs",
        "rows",
        "cls_values",
        "cls_errors",
        "_classes",
        "_columns",
    )

    def __init__(
        self, entry: _Entry, emulator: LambdaEmulator, function: DeployedFunction
    ) -> None:
        cold = entry.cold
        self.probe = _Shadow(
            "", entry, t=cold.post_t, live=cold.post_live, peak=cold.post_peak
        )
        #: ``(exec_s, e2e, dies)`` per entry: what the loop itself reads.
        self.specs: list[tuple[float, float, bool]] = []
        #: ``(exec_s, e2e, status, billed_s, cost, peak, clamped, cls)`` per
        #: entry: what a flush gathers, through :meth:`columns`.
        self.rows: list[tuple] = []
        self.cls_values: list[tuple[Any, Any]] = []
        self.cls_errors: list[str | None] = []
        self._classes: dict[tuple[bool, int], int] = {}
        self._columns: tuple = ()
        instance_init_s, transmission_s = emulator.platform_overhead_s(function)
        # Same addition order as InvocationRecord.e2e_s, up to the exec.
        e2e_base = (
            emulator.routing_s + instance_init_s + transmission_s + cold.init_s + 0.0
        )
        self._add(emulator, function, cold, True, cold.exec1_s, cold.init_s, e2e_base)

    def extend(
        self,
        upto: int,
        warm: _WarmTemplate,
        emulator: LambdaEmulator,
        function: DeployedFunction,
    ) -> None:
        """Grow the table so index *upto* is valid, one warm serve each."""
        probe = self.probe
        add = self._add
        e2e_base = emulator.routing_s + 0.0 + 0.0 + 0.0 + 0.0
        for _ in range(len(self.specs), upto + 1):
            add(emulator, function, warm, False, probe.serve(warm), 0.0, e2e_base)

    def _add(self, emulator, function, template, cold, exec_raw, init_s, e2e_base):
        """Settle and price one serve, which peaked at the probe's peak."""
        peak = self.probe.peak
        configured, clamped = emulator._memory_config(function, peak)
        exec_s, status, error_type, dies, _ = settle(
            exec_raw,
            template.error_type,
            peak,
            function.memory_mb,
            clamped,
            function.timeout_s,
        )
        billed_s, cost = emulator._price(init_s + exec_s, configured)
        e2e = e2e_base + exec_s
        cls = self._classes.get((cold, status))
        if cls is None:
            cls = self._classes[cold, status] = len(self.cls_values)
            value = (template.value, template.value_key)
            self.cls_values.append(value if status <= _S_ERROR else (None, None))
            self.cls_errors.append(error_type)
        self.specs.append((exec_s, e2e, dies))
        self.rows.append((exec_s, e2e, status, billed_s, cost, peak, clamped, cls))

    def columns(self) -> tuple:
        """The entries as numpy columns, in :attr:`rows` order; rebuilt
        only after the table grew."""
        columns = self._columns
        if not columns or len(columns[0]) != len(self.rows):
            exec_s, e2e, status, billed, cost, peak, clamped, cls = zip(*self.rows)
            columns = self._columns = (
                _np.asarray(exec_s),
                _np.asarray(e2e),
                _np.asarray(status, dtype=_np.int8),
                _np.asarray(billed),
                _np.asarray(cost),
                _np.asarray(peak),
                _np.asarray(clamped, dtype=_np.int64),
                _np.asarray(cls, dtype=_np.int64),
            )
        return columns


@dataclass
class KernelResult:
    """Aggregate outcome of a kernel replay.

    The counting twin of :class:`~repro.platform.replay.ReplayResult`:
    same totals, computed incrementally over final outcomes in the same
    order, without retaining per-request objects.
    """

    arrivals: int = 0
    requests: int = 0
    delivered: int = 0
    attempts: int = 0
    retries: int = 0
    throttled: int = 0
    fallbacks: int = 0
    cold_starts: int = 0
    warm_starts: int = 0
    total_cost: float = 0.0
    peak_concurrency: int = 0
    dead_letters: list[DeadLetter] = field(default_factory=list)
    #: Attempts re-served after a crash-resume because they fell past the
    #: last checkpoint's durable watermark (0 on uninterrupted runs).
    reexecuted: int = 0

    @property
    def lost(self) -> int:
        return self.arrivals - self.requests - len(self.dead_letters)


class KernelReplayer:
    """Replays functions' arrivals through the template kernel.

    The fast engine (see the module docstring): the general serve path
    with bulk emission, plus the columnar loop for homogeneous runs.
    Each :meth:`replay` call builds its own warm pool, so one replayer
    may replay several functions in turn, with the same records as a
    fresh replayer per function.  Use :class:`~repro.platform.replay.
    TraceReplayer` when you need fallback managers or non-replayable
    workloads; :func:`~repro.platform.fleet.replay_fleet` picks the
    engine per function automatically.
    """

    def __init__(
        self, emulator: LambdaEmulator, store: TemplateStore | None = None
    ) -> None:
        self.emulator = emulator
        self.store = store if store is not None else TemplateStore()

    # -- driving -----------------------------------------------------------

    def replay(
        self,
        function_name: str,
        arrivals: list[float],
        event: Any,
        context: Any = None,
        *,
        retry: RetryPolicy | None = None,
        checkpoint: ReplayCheckpoint | None = None,
        resume_state: dict | None = None,
    ) -> KernelResult:
        """Drive *arrivals* through the function on the kernel path.

        Semantics — clock, faults, billing, retries, dead letters,
        telemetry — are byte-identical to
        :meth:`TraceReplayer.replay <repro.platform.replay.TraceReplayer
        .replay>` without a fallback manager.

        The ``(bundle, event)`` templates are captured before the first
        arrival (:meth:`TemplateStore.capture`), so every attempt is
        synthesized; a pair whose capture fails verification, or whose
        bundle fails to initialize, is refused.  The call serves from a
        warm pool of its own that adopts nothing, so a function holding
        any live instance — warmed by direct invokes or left by an
        earlier replay, shadows included — is refused too.

        With a *checkpoint*, the full replay state is snapshotted every
        ``checkpoint.every`` served attempts.  Passing a loaded snapshot
        back as *resume_state* continues exactly where it was taken: the
        resumed shard captures its templates like any other, and every
        pool shadow resumes as a pure synthesized meter.
        """
        check_arrivals(arrivals)
        emulator = self.emulator
        function = emulator.function(function_name)
        if TemplateStore.key_for(function, event, context) is None:
            raise PlatformError(
                f"kernel cannot replay {function_name!r}: snapstart, a "
                "context object, or a non-JSON event needs the reference "
                "engine"
            )
        if any(instance.alive for instance in function.instances):
            raise PlatformError(
                f"kernel cannot replay {function_name!r}: it holds live "
                "instances, which needs the reference engine"
            )
        entry = self.store.capture(function, event)
        if entry is None:
            raise PlatformError(
                f"kernel cannot replay {function_name!r}: its bundle fails "
                "to initialize or its template does not verify, which needs "
                "the reference engine"
            )
        self._name = function_name
        self._pool = WarmPool()
        self._function = function
        self._entry = entry
        self._overhead = emulator.platform_overhead_s(function)

        timeline = RetryTimeline(
            function_name, arrivals, retry.session() if retry is not None else None
        )
        recorder = get_recorder()
        result = KernelResult(arrivals=len(arrivals))
        arrival_times: list[float] = []
        completion_times: list[float] = []
        if resume_state is not None:
            self._restore_state(
                arrivals,
                timeline,
                result,
                arrival_times,
                completion_times,
                resume_state,
            )

        with recorder.span(
            "replay.run", label=function_name, arrivals=len(arrivals)
        ) as span:
            if (
                HAVE_NUMPY
                and retry is None
                and checkpoint is None
                and resume_state is None
                and self._homogeneous()
            ):
                self._run_columnar(
                    arrivals, event, result, arrival_times, completion_times
                )
            else:
                self._run_general(
                    timeline,
                    event,
                    result,
                    arrival_times,
                    completion_times,
                    checkpoint,
                )
            result.peak_concurrency = peak_concurrency(
                arrival_times, completion_times
            )
            publish_run(emulator, result, result.requests, recorder, span)
        return result

    def _spawn(self, function: DeployedFunction) -> _Shadow:
        """A new tape instance of this run's template: the instance
        factory the emulator's serve step calls on a cold start."""
        instance_id = f"{function.name}-i{next(function.instance_seq):05d}"
        return _Shadow(instance_id, self._entry)

    def _run_general(
        self,
        timeline: RetryTimeline,
        event: Any,
        result: KernelResult,
        arrival_times: list[float],
        completion_times: list[float],
        checkpoint: ReplayCheckpoint | None,
    ) -> None:
        """The general serve loop: every attempt the timeline yields.

        Each attempt is the emulator's serve step on tape instances
        (:meth:`_spawn`).  Its row joins one bounded chunk, which reaches
        the sinks through :meth:`LambdaEmulator._emit_rows
        <repro.platform.emulator.LambdaEmulator._emit_rows>` when it
        fills, before every checkpoint snapshot, and when the loop ends,
        by an exception too.  Without a retry session every attempt is
        final.  With one, a failed attempt becomes a record for the retry
        decision and its dead letter, while successes stay rows.
        """
        emulator = self.emulator
        serve = emulator._serve
        emit = emulator._emit_rows
        function = self._function
        name = self._name
        pool = self._pool
        spawn = self._spawn
        arrivals = timeline.arrivals
        retrying = timeline.session is not None
        limit = _CHUNK_ROWS
        chunk: list[tuple] = []
        try:
            for t, seq, attempt in timeline:
                row = serve(function, pool, t, event, None, (), spawn)
                chunk.append(row)
                if len(chunk) >= limit:
                    emit(name, chunk)
                    chunk.clear()
                status = row[ROW_STATUS]
                completion = t + row[ROW_E2E]
                result.attempts += 1
                if status == _S_THROTTLED:
                    result.throttled += 1
                if status == _S_SUCCESS or not retrying:
                    if attempt > 1:
                        # Only a re-drive has failed attempts to drop.
                        timeline.settle(seq)
                    result.requests += 1
                    if status == _S_SUCCESS:
                        result.delivered += 1
                    start = row[ROW_START]
                    if start == _COLD:
                        result.cold_starts += 1
                    elif start == _WARM:
                        result.warm_starts += 1
                    result.total_cost += row[ROW_COST]
                    arrival_times.append(arrivals[seq])
                    completion_times.append(completion)
                else:
                    record = emulator._record(name, row)
                    letter = timeline.fail(seq, attempt, record, completion)
                    if letter is None:
                        result.retries += 1
                    else:
                        result.dead_letters.append(letter)
                if checkpoint is not None and checkpoint.tick():
                    emit(name, chunk)
                    chunk.clear()
                    checkpoint.write(
                        self._snapshot_state(
                            result, timeline, arrival_times, completion_times
                        )
                    )
        finally:
            emit(name, chunk)

    # -- checkpointing -----------------------------------------------------

    def _snapshot_state(
        self,
        result: KernelResult,
        timeline: RetryTimeline,
        arrival_times: list[float],
        completion_times: list[float],
    ) -> dict:
        """Everything needed to resume this kernel replay, JSON-safe."""
        state = snapshot_replay_state(
            "kernel",
            self.emulator,
            self._function,
            arrivals=result.arrivals,
            timeline=timeline,
            pool=self._pool,
            instance_state=self._shadow_state,
        )
        state["times"] = {
            "arrivals": list(arrival_times),
            "completions": list(completion_times),
        }
        state["result"] = {
            "requests": result.requests,
            "delivered": result.delivered,
            "attempts": result.attempts,
            "retries": result.retries,
            "throttled": result.throttled,
            "fallbacks": result.fallbacks,
            "cold_starts": result.cold_starts,
            "warm_starts": result.warm_starts,
            "total_cost": result.total_cost,
            "dead_letters": [dl.to_dict() for dl in result.dead_letters],
        }
        return state

    @staticmethod
    def _shadow_state(shadow: _Shadow, owned: bool) -> dict:
        return {
            "instance_id": shadow.instance_id,
            "owned": owned,
            "alive": shadow.alive,
            "t": shadow.t,
            "live": shadow.live,
            "peak": shadow.peak,
            "invocations": shadow.invocations,
            "host_id": shadow.host_id,
        }

    def _shadow_from_state(self, item: dict) -> _Shadow:
        shadow = _Shadow(
            item["instance_id"],
            self._entry,
            t=float(item["t"]),
            live=float(item["live"]),
            peak=float(item["peak"]),
        )
        shadow.invocations = int(item["invocations"])
        shadow.alive = bool(item["alive"])
        shadow.host_id = item["host_id"]
        return shadow

    def _restore_state(
        self,
        arrivals: list[float],
        timeline: RetryTimeline,
        result: KernelResult,
        arrival_times: list[float],
        completion_times: list[float],
        state: dict,
    ) -> None:
        """Adopt a :meth:`_snapshot_state` dict."""
        result.reexecuted = restore_replay_state(
            state,
            "kernel",
            self.emulator,
            self._function,
            arrivals=len(arrivals),
            timeline=timeline,
            pool=self._pool,
            instance_from_state=self._shadow_from_state,
        )
        res = state["result"]
        result.requests = int(res["requests"])
        result.delivered = int(res["delivered"])
        result.attempts = int(res["attempts"])
        result.retries = int(res["retries"])
        result.throttled = int(res["throttled"])
        result.fallbacks = int(res["fallbacks"])
        result.cold_starts = int(res["cold_starts"])
        result.warm_starts = int(res["warm_starts"])
        result.total_cost = float(res["total_cost"])
        result.dead_letters = [
            DeadLetter.from_dict(item) for item in res["dead_letters"]
        ]
        arrival_times.extend(float(t) for t in state["times"]["arrivals"])
        completion_times.extend(float(t) for t in state["times"]["completions"])

    # -- the columnar loop ---------------------------------------------------

    def _homogeneous(self) -> bool:
        """Is the whole run homogeneous enough for the columnar loop?

        Hosts and CPU scaling thread per-invocation state through the
        serve, and crash faults draw RNG inside it.  Throttle rates and
        outages must consult the injector per serve (RNG draw order and
        injection counters are observable), and throttled rows break the
        all-billed contract of the columnar emitters.
        """
        emulator = self.emulator
        if emulator.hosts is not None or emulator.cpu_scaling is not None:
            return False
        faults = emulator.faults
        if faults is None:
            return True
        plan = faults.plan
        name = self._name
        rates = plan.rates_for(name)
        if rates.exec_crash != 0.0 or rates.cold_start_crash != 0.0:
            return False
        if rates.throttle != 0.0:
            return False
        return not any(
            outage.function in (ANY_FUNCTION, name) for outage in plan.outages
        )

    def _outcome_table(self) -> _OutcomeTable:
        """This run's outcome table, shared per template and settings.

        Keyed by every setting that enters an entry: the function's
        ``memory_mb`` and ``timeout_s``, the routing delay, the platform
        overhead, and the pricing model (a value-hashable frozen model).
        """
        emulator = self.emulator
        function = self._function
        key = (
            function.memory_mb,
            function.timeout_s,
            emulator.routing_s,
            self._overhead,
            emulator.pricing,
        )
        tables = self._entry.tables
        table = tables.get(key)
        if table is None:
            table = tables[key] = _OutcomeTable(self._entry, emulator, function)
        return table

    def _run_columnar(
        self, arrivals, event, result, arrival_times, completion_times
    ) -> None:
        """The columnar serve loop: one spec index and timestamp per row,
        from the first arrival to the last.

        A warm hit is the loop's own: an inlined :meth:`WarmPool.acquire
        <repro.platform.instance.WarmPool.acquire>` on the pool's lists
        (the host layer excluded by :meth:`_homogeneous`), the outcome
        table's entry for the shadow's serve index, and a local clock fold.
        A miss is the emulator's cold start
        (:meth:`LambdaEmulator._cold_start
        <repro.platform.emulator.LambdaEmulator._cold_start>`) on a tape
        instance from :meth:`_spawn`, handed the loop's clock and request
        number and read back; of its row the loop keeps only the e2e,
        since the flush gathers a cold row from the table's entry 0, which
        holds the same values.  Per-row emission is three list appends
        (spec index, timestamp, completion) plus run-length tracking of
        the serving instance; everything else gathers from the outcome
        columns at flush time.
        """
        emulator = self.emulator
        function = self._function
        clock = emulator.clock
        keep_alive = emulator.keep_alive_s
        cold_start = emulator._cold_start
        spawn = self._spawn
        pool = self._pool
        busy = pool.busy
        idle = pool.idle
        heappush = heapq.heappush
        heappop = heapq.heappop
        kill = emulator._kill_instance

        table = self._outcome_table()
        specs = table.specs
        extend_specs = table.extend
        warm = self._entry.warm

        now = clock.now()
        seq = pool.seq.value
        ids = emulator._request_ids
        rid_base = ids.value

        idx_list: list = []
        ts_list: list = []
        comps: list = []
        inst_runs: list = []
        run_iid = None
        run_count = 0
        cold_n = warm_n = 0
        flushed = 0
        n = len(arrivals)
        spec_len = len(specs)

        for i, t in enumerate(arrivals):
            while busy and busy[0][0] <= t:
                freed = heappop(busy)
                idle.append((freed[0], freed[2]))
            shadow = None
            while idle:
                freed_at, candidate = idle[-1]
                if t - freed_at > keep_alive:
                    idle.clear()
                    break
                idle.pop()
                if candidate.alive:
                    shadow = candidate
                    break
            if shadow is not None:
                j = shadow.invocations
                shadow.invocations = j + 1
                if j >= spec_len:
                    extend_specs(j, warm, emulator, function)
                    spec_len = len(specs)
                exec_eff, e2e, dies = specs[j]
                now += exec_eff
                idx_list.append(j)
                ts_list.append(now)
                comps.append(t + e2e)
                warm_n += 1
                if dies:
                    kill(function, shadow)
                else:
                    heappush(busy, (t + e2e, seq, shadow))
                    seq += 1
            else:
                clock.advance_to(now)
                ids.value = rid_base + len(idx_list)
                row, shadow = cold_start(function, event, None, t, None, spawn)
                now = clock.now()
                e2e = row[ROW_E2E]
                idx_list.append(0)
                ts_list.append(now)
                comps.append(t + e2e)
                cold_n += 1
                if shadow.alive:
                    heappush(busy, (t + e2e, seq, shadow))
                    seq += 1
            iid = shadow.instance_id
            if iid is run_iid:
                run_count += 1
            else:
                if run_count:
                    inst_runs.append((run_iid, run_count))
                run_iid = iid
                run_count = 1
            if len(idx_list) >= _FLUSH_ROWS:
                inst_runs.append((run_iid, run_count))
                run_iid = None
                run_count = 0
                self._flush_cols(
                    table, result, idx_list, ts_list, comps, inst_runs,
                    arrivals[flushed : i + 1], rid_base, cold_n, warm_n,
                    arrival_times, completion_times,
                )
                rid_base += len(idx_list)
                ids.value = rid_base
                flushed = i + 1
                idx_list = []
                ts_list = []
                comps = []
                inst_runs = []
                cold_n = warm_n = 0

        if idx_list:
            inst_runs.append((run_iid, run_count))
            self._flush_cols(
                table, result, idx_list, ts_list, comps, inst_runs,
                arrivals[flushed:n], rid_base, cold_n, warm_n,
                arrival_times, completion_times,
            )
            rid_base += len(idx_list)
            ids.value = rid_base

        # The local clock fold is authoritative.  Shadow meters are not
        # written back: the pool ends with this call, and no later replay
        # serves its shadows.
        clock.advance_to(now)

    def _flush_cols(
        self, table, result, idx_list, ts_list, comps, inst_runs, served,
        rid_base, cold_n, warm_n, arrival_times, completion_times,
    ) -> None:
        """Gather one chunk's columns from the outcome table and bulk-emit.

        One fancy-index per column turns the per-row spec indices into
        full log/telemetry columns; the order-dependent float folds
        (billing, total cost, sketch sums) continue as seeded ``cumsum``
        left-folds inside the columnar emitters.
        """
        emulator = self.emulator
        name = self._name
        count = len(idx_list)
        idx = _np.asarray(idx_list, dtype=_np.intp)
        exec_col, e2e, status, billed, cost, peak, clamped, cls = (
            column[idx] for column in table.columns()
        )
        cold_mask = idx == 0
        starts = _np.where(cold_mask, _np.int8(_COLD), _np.int8(_WARM)).astype(
            _np.int8
        )
        instance_init_s, transmission_s = self._overhead
        iinit = _np.where(cold_mask, instance_init_s, 0.0)
        trans = _np.where(cold_mask, transmission_s, 0.0)
        init = _np.where(cold_mask, self._entry.cold.init_s, 0.0)
        bounds = (_np.flatnonzero(cls[1:] != cls[:-1]) + 1).tolist()
        edges = [0, *bounds, count]
        cls_values = table.cls_values
        cls_errors = table.cls_errors
        value_runs = []
        error_runs = []
        for run in range(len(edges) - 1):
            a, b = edges[run], edges[run + 1]
            which = int(cls[a])
            value, value_key = cls_values[which]
            value_runs.append((value, value_key, b - a))
            error_runs.append((cls_errors[which], b - a))
        emulator.log.append_columns(
            name,
            emulator.routing_s,
            rid_base,
            start_types=starts,
            status_indices=status,
            timestamps=_np.asarray(ts_list),
            instance_runs=inst_runs,
            value_runs=value_runs,
            error_runs=error_runs,
            instance_init_s=iinit,
            transmission_s=trans,
            init_duration_s=init,
            exec_duration_s=exec_col,
            billed_duration_s=billed,
            memory_config_mb=clamped,
            peak_memory_mb=peak,
            cost_usd=cost,
        )
        bill = emulator.ledger.bill_for(name)
        bill.charge_block(
            invocation_cost=float(
                _np.cumsum(_np.concatenate(((bill.invocation_cost,), cost)))[-1]
            ),
            invocations=count,
            cold_starts=cold_n,
        )
        result.total_cost = float(
            _np.cumsum(_np.concatenate(((result.total_cost,), cost)))[-1]
        )
        result.attempts += count
        result.requests += count
        result.delivered += int((status == _S_SUCCESS).sum())
        result.cold_starts += cold_n
        result.warm_starts += warm_n
        sink = emulator.telemetry
        if sink is not None:
            sink.observe_columns(
                name,
                statuses=status,
                status_names=_STATUS_VALUES,
                ok=status == _S_SUCCESS,
                is_cold=cold_mask,
                e2e=e2e,
                cost=cost,
                billed_s=billed,
                arrivals=_np.asarray(served),
                rid_start=rid_base,
            )
        arrival_times.extend(served)
        completion_times.extend(comps)
