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
   synthesized without an interpreter: the kernel replays the captured
   charges as the same sequence of float additions against a
   per-instance simulated meter (running time, live MB, peak MB) — no
   :class:`~repro.platform.logs.InvocationRecord` objects, no enum
   lookups, no dict churn.

Because ``x + 0.0 == x`` and the charge replay performs the *same
additions in the same order* as the real meter, every derived float —
``exec_duration_s`` (a difference of running sums, so it drifts across
an instance's lifetime!), ``e2e_s``, billed durations, costs — comes out
bit-identical to the reference engine.  Clock advancement, fault-RNG
draw order, and request-id consumption are replicated exactly, and
everything around the serve step is the reference engine's own code:
the warm pool (:class:`~repro.platform.instance.WarmPool`), the retry
timeline (:class:`~repro.platform.retry.RetryTimeline`), and the
checkpoint snapshot and resume check
(:func:`~repro.platform.checkpoint.restore_replay_state`).  Logs,
ledgers, telemetry, and dead letters are therefore byte-identical at
any worker count.

**Two serve loops, one emitter.**  The *general path* walks the
reference engine's attempt timeline, with or without a retry policy,
and serves one attempt at a time through :meth:`KernelReplayer._serve`
— synthesis, faults, hosts, CPU scaling, retries, checkpoints — and
buffers every billed or throttled row in one bounded chunk.  The chunk
reaches the sinks in bulk (:meth:`ExecutionLog.append_rows
<repro.platform.logs.ExecutionLog.append_rows>`,
:meth:`TelemetrySink.observe_rows
<repro.platform.telemetry.TelemetrySink.observe_rows>`,
:meth:`FunctionBill.charge_batch
<repro.platform.billing.FunctionBill.charge_batch>`) when it fills,
before every checkpoint snapshot, and when :meth:`~KernelReplayer.replay`
returns.  Flush boundaries are unobservable: every order-dependent float
sum continues its sequential fold in serve order.

A *homogeneous* retry-free run — numpy importable, no crash faults, no
throttle rate or outage covering the function, no hosts, no CPU scaling,
no checkpoint or resume — is served from its first arrival by the
*columnar loop*, which makes only the decisions that depend on the
previous invocation (the warm-pool MRU stack + busy heap, the clock
fold) and gathers the rest from per-*j* outcome tables.  Two
observations make that exact:

1. *Shared drift sequences.*  Every synthesized instance of a template
   lives on one float-drift sequence: ``W[0]`` is the cold template's
   post-exec meter time and ``W[j]`` folds the warm tape onto
   ``W[j-1]`` with the meter's own addition order.  An instance about to
   serve its ``j+1``-th invocation has ``t == W[j]`` exactly, so its
   exec time ``W[j+1] - W[j]``, billed duration, cost, status ladder,
   and e2e are pure functions of ``j`` — computed once per *j* instead
   of once per invocation.  The same holds for live/peak memory.  Each
   replay call starts with an empty pool, so every shadow it serves was
   born on its own template's sequence.
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
from repro.platform.emulator import DeployedFunction, LambdaEmulator
from repro.platform.faults import ANY_FUNCTION
from repro.platform.instance import FunctionInstance, WarmPool
from repro.platform.logs import (
    _START_TYPE_INDEX,
    _START_TYPES,
    _STATUS_INDEX,
    _STATUS_TYPES,
    InvocationRecord,
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
from repro.obs.attribution import attribute_cold_start
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
]

_COLD = _START_TYPE_INDEX[StartType.COLD]
_WARM = _START_TYPE_INDEX[StartType.WARM]
_THROTTLED_START = _START_TYPE_INDEX[StartType.THROTTLED]
_S_SUCCESS = _STATUS_INDEX[InvocationStatus.SUCCESS]
_S_ERROR = _STATUS_INDEX[InvocationStatus.ERROR]
_S_TIMEOUT = _STATUS_INDEX[InvocationStatus.TIMEOUT]
_S_OOM = _STATUS_INDEX[InvocationStatus.OOM]
_S_THROTTLED = _STATUS_INDEX[InvocationStatus.THROTTLED]
_S_CRASHED = _STATUS_INDEX[InvocationStatus.CRASHED]
_STATUS_VALUES = tuple(s.value for s in _STATUS_TYPES)
_INF = float("inf")

#: Rows per bulk flush, so a single huge function keeps RSS flat; flush
#: boundaries are unobservable (sums continue their sequential folds).
#: A general-path row is a full tuple whose flush may also render it to
#: the log spill, while a columnar row is one spec index, so the general
#: path flushes far more often.
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

    __slots__ = ("cold", "warm", "drift")

    def __init__(
        self,
        cold: _ColdTemplate | None = None,
        warm: _WarmTemplate | None = None,
    ) -> None:
        self.cold = cold
        self.warm = warm
        #: Lazily built :class:`_DriftTables`, owned by the columnar
        #: loop; None until it runs.
        self.drift: Any = None

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
    """A pool entry: one synthesized instance's simulated meter state.

    Lives in ``function.instances`` like a real instance so
    ``discard_instances`` and kill bookkeeping work unchanged.
    """

    __slots__ = ("instance_id", "alive", "t", "live", "peak", "invocations", "host_id")

    def __init__(
        self,
        instance_id: str,
        t: float = 0.0,
        live: float = 0.0,
        peak: float = 0.0,
    ) -> None:
        self.instance_id = instance_id
        self.alive = True
        self.t = t
        self.live = live
        self.peak = peak
        self.invocations = 0
        # Host the pool placed this shadow on (None without a host layer);
        # mirrors FunctionInstance.host_id so kernel and reference engines
        # carry identical placement state.
        self.host_id: str | None = None

    def shutdown(self) -> None:
        self.alive = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Shadow({self.instance_id}, used {self.invocations}x)"


class _DriftTables:
    """Per-template meter drift: state after the j-th serve of an instance.

    ``t[j]``/``live[j]``/``peak[j]`` are the meter fields any synthesized
    instance holds once it has served ``j + 1`` invocations (one cold
    plus ``j`` warm), computed with the meter's own sequential folds so
    the floats are bit-identical to per-instance replay.  Cached on
    ``_Entry.drift`` — the tables are pure template math, shared by every
    replayer that serves the same (bundle, event) pair.
    """

    __slots__ = ("t", "live", "peak")

    def __init__(self, cold: _ColdTemplate) -> None:
        self.t = [cold.post_t]
        self.live = [cold.post_live]
        self.peak = [cold.post_peak]

    def extend_array(self, upto: int, warm: _WarmTemplate) -> None:
        """Grow the tables so index *upto* is valid, as numpy prefix scans.

        ``cumsum`` is a strict left fold, so seeding it with the last
        table entry and tiling the tape reproduces :meth:`KernelReplayer.
        _synth_warm`'s additions bit for bit; every L-th prefix is a table
        entry.  The memory fold includes the tape's zero entries the
        scalar fold skips — adding ``±0.0`` is a no-op here because the
        running live value can never be ``-0.0`` (it starts ``>= 0`` and
        ``a + (-a)`` rounds to ``+0.0``), and the running max only moves
        on strict increase.
        """
        t = self.t
        need = upto + 1 - len(t)
        if need <= 0:
            return
        times = warm.times
        count = len(times)
        if count:
            folded = _np.cumsum(
                _np.concatenate(((t[-1],), _np.tile(_np.asarray(times), need)))
            )
            t.extend(folded[count::count].tolist())
        else:
            t.extend([t[-1]] * need)
        live = self.live
        peak = self.peak
        if warm.has_mem and len(warm.mems):
            mems = _np.asarray(warm.mems)
            width = len(warm.mems)
            lv = _np.cumsum(_np.concatenate(((live[-1],), _np.tile(mems, need))))
            pk = _np.maximum.accumulate(_np.concatenate(((peak[-1],), lv[1:])))
            live.extend(lv[width::width].tolist())
            peak.extend(pk[width::width].tolist())
        else:
            live.extend([live[-1]] * need)
            peak.extend([peak[-1]] * need)


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
        self._hosts = emulator.hosts
        # Pricing caches keyed on exact float bits: the billed-duration
        # quantization collapses exec-time drift onto few values.
        self._clamp_cache: dict[int, int] = {}
        self._billed_cache: dict[float, float] = {}
        self._cost_cache: dict[tuple[float, int], float] = {}
        #: The general path's emission buffer: one row tuple per billed or
        #: throttled attempt, in :meth:`ExecutionLog.append_rows` column
        #: order plus ``(e2e, arrival)``, at most ``_CHUNK_ROWS`` long; see
        #: :meth:`_flush_chunk`.
        self._chunk: list[tuple] = []

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
        self._routing = emulator.routing_s
        instance_init_s, transmission_s = emulator.platform_overhead_s(function)
        self._overhead = (instance_init_s, transmission_s)
        self._overhead_sum = instance_init_s + transmission_s
        self._timeout_s = function.timeout_s
        self._memory_mb = function.memory_mb
        self._bill = emulator.ledger.bill_for(function_name)
        self._log = emulator.log
        self._sink = emulator.telemetry
        self._faults = emulator.faults
        self._hosts = emulator.hosts
        self._clock = emulator.clock
        self._pricing = emulator.pricing
        self._request_ids = emulator._request_ids
        self._attribution = emulator.attribution
        # Telemetry row heads per (start, status): everything but the
        # per-row floats and request number.
        self._row_heads = [
            [
                (
                    function_name,
                    status_value,
                    status == _S_SUCCESS,
                    status != _S_THROTTLED,
                    start == _COLD,
                    start == _WARM,
                )
                for status, status_value in enumerate(_STATUS_VALUES)
            ]
            for start in range(len(_START_TYPES))
        ]

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
            try:
                if (
                    HAVE_NUMPY
                    and retry is None
                    and checkpoint is None
                    and resume_state is None
                    and self._homogeneous()
                ):
                    self._run_columnar(
                        arrivals, result, arrival_times, completion_times
                    )
                else:
                    self._run_general(
                        timeline, result, arrival_times, completion_times, checkpoint
                    )
            finally:
                self._flush_chunk()

            emulator.flush_obs()
            result.peak_concurrency = peak_concurrency(
                arrival_times, completion_times
            )
            recorder.counter_add("replay.requests", result.requests)
            recorder.counter_add("replay.cold_starts", result.cold_starts)
            recorder.counter_add("replay.warm_starts", result.warm_starts)
            recorder.counter_add("replay.cost_usd", result.total_cost)
            recorder.gauge_max("replay.peak_concurrency", result.peak_concurrency)
            if result.retries:
                recorder.counter_add("replay.retries", result.retries)
            if result.throttled:
                recorder.counter_add("replay.throttled", result.throttled)
            if result.dead_letters:
                recorder.counter_add("replay.dead_letters", len(result.dead_letters))
            if span is not None:
                span.set_attr("cold_starts", result.cold_starts)
                span.set_attr("warm_starts", result.warm_starts)
                span.set_attr("peak_concurrency", result.peak_concurrency)
                span.set_attr("cost_usd", round(result.total_cost, 9))
                span.set_attr("attempts", result.attempts)
                span.set_attr("retries", result.retries)
                span.set_attr("dead_letters", len(result.dead_letters))
        return result

    def _run_general(
        self,
        timeline: RetryTimeline,
        result: KernelResult,
        arrival_times: list[float],
        completion_times: list[float],
        checkpoint: ReplayCheckpoint | None,
    ) -> None:
        """The general serve loop: every attempt the timeline yields.

        Without a retry session every attempt is final.  With one, failed
        attempts materialise real records (the retry decision and dead
        letters consume them) while successes stay on the record-free
        path.
        """
        arrivals = timeline.arrivals
        retrying = timeline.session is not None
        serve = self._serve
        for t, seq, attempt in timeline:
            status, start, completion, cost, record = serve(t, retrying)
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
                if start == _COLD:
                    result.cold_starts += 1
                elif start == _WARM:
                    result.warm_starts += 1
                result.total_cost += cost
                arrival_times.append(arrivals[seq])
                completion_times.append(completion)
            else:
                letter = timeline.fail(seq, attempt, record, completion)
                if letter is None:
                    result.retries += 1
                else:
                    result.dead_letters.append(letter)
            if checkpoint is not None and checkpoint.tick():
                self._flush_chunk()
                checkpoint.write(
                    self._snapshot_state(
                        result, timeline, arrival_times, completion_times
                    )
                )

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

    @staticmethod
    def _shadow_from_state(item: dict) -> _Shadow:
        shadow = _Shadow(
            item["instance_id"],
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
        emulator = self.emulator
        result.reexecuted = restore_replay_state(
            state,
            "kernel",
            emulator,
            self._function,
            arrivals=len(arrivals),
            timeline=timeline,
            pool=self._pool,
            instance_from_state=self._shadow_from_state,
        )
        # The ledger restore replaced every FunctionBill object; re-bind
        # the bill _flush_chunk charges against.
        self._bill = emulator.ledger.bill_for(self._name)

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

    # -- serving one attempt ----------------------------------------------

    def _serve(
        self, t: float, want_record: bool
    ) -> tuple[int, int, float, float, InvocationRecord | None]:
        """Serve one attempt at trace time *t*.

        Returns ``(status_index, start_index, completion, cost,
        record)`` — *record* is materialised only for non-success
        outcomes when *want_record* (the retry path needs them).
        """
        hosts = self._hosts
        if hosts is not None:
            # Same serve ordering as the reference engine: due host faults
            # fire first, then the throttle draw, then warm acquisition.
            hosts.advance(t)
        faults = self._faults
        if faults is not None and faults.throttled(self._name, t):
            return self._emit_throttle(t, want_record)[:5]
        shadow = self._pool.acquire((), t, self.emulator.keep_alive_s, hosts)
        warm_attempt = shadow is not None
        if shadow is not None:
            out = self._synth_warm(shadow, t, want_record)
        else:
            placement = (
                hosts.admit(self._name, t, memory_mb=self._memory_mb)
                if hosts is not None
                else None
            )
            if hosts is not None and placement is None:
                return self._emit_throttle(
                    t, want_record, error="CapacityExhausted"
                )[:5]
            out = self._synth_cold(t, want_record, placement)
        shadow = out[5]
        # The reference engine only feeds the footprint tracker when the
        # served instance is still owned by the function: a cold start
        # whose instance crashed mid-execution was already discarded and
        # never reports a peak (warm crashes do — the instance served
        # from the pool before dying).
        if (
            hosts is not None
            and shadow is not None
            and (warm_attempt or shadow.alive)
        ):
            hosts.adjust(shadow.instance_id, shadow.peak, t)
            hosts.observe_footprint(self._name, shadow.peak)
        if shadow is not None and shadow.alive:
            self._pool.release(shadow, out[2], hosts)
        return out[:5]

    def _kill(self, shadow: _Shadow) -> None:
        shadow.shutdown()
        instances = self._function.instances
        if shadow in instances:
            instances.remove(shadow)
        if self._hosts is not None:
            self._hosts.release(shadow.instance_id)

    # -- synthesis paths (no interpreter) -----------------------------------

    def _synth_cold(self, t: float, want_record: bool, placement=None):
        function = self._function
        clock = self._clock
        template = self._entry.cold
        instance_init_s, transmission_s = self._overhead
        clock.advance(self._overhead_sum)
        instance_id = f"{function.name}-i{next(function.instance_seq):05d}"
        clock.advance(template.init_s)
        faults = self._faults
        if faults is not None and faults.cold_start_crash(function.name, clock.now()):
            if placement is not None:
                self._hosts.cancel(placement)
            return self._emit_cold_crash(
                t, instance_id, template.init_s, template.init_peak, want_record
            )
        shadow = _Shadow(
            instance_id,
            t=template.post_t,
            live=template.post_live,
            peak=template.post_peak,
        )
        shadow.invocations = 1
        function.instances.append(shadow)
        if placement is not None:
            self._hosts.bind(placement, shadow, function.instances)
        return self._finish_run(
            shadow,
            t,
            _COLD,
            instance_init_s,
            transmission_s,
            template.init_s,
            template.exec1_s,
            template.value,
            template.value_key,
            template.error_type,
            want_record,
        )

    def _synth_warm(self, shadow: _Shadow, t: float, want_record: bool):
        template = self._entry.warm
        # Replay the charge tape as sequential additions: identical
        # operations, identical order, identical floats as the meter.
        running = shadow.t
        for time_s in template.times:
            running += time_s
        exec_raw = running - shadow.t
        shadow.t = running
        if template.has_mem:
            live = shadow.live
            peak = shadow.peak
            for mb in template.mems:
                if mb:
                    live += mb
                    if live > peak:
                        peak = live
            shadow.live = live
            shadow.peak = peak
        shadow.invocations += 1
        return self._finish_run(
            shadow,
            t,
            _WARM,
            0.0,
            0.0,
            0.0,
            exec_raw,
            template.value,
            template.value_key,
            template.error_type,
            want_record,
        )

    # -- shared post-execution math ----------------------------------------

    def _finish_run(
        self,
        shadow: _Shadow,
        arrival: float,
        start_index: int,
        instance_init_s: float,
        transmission_s: float,
        billed_init_s: float,
        exec_raw: float,
        value: Any,
        value_key: Any,
        error_type: str | None,
        want_record: bool,
    ):
        """Everything the reference ``_run`` does after the invocation:
        memory configuration, CPU scaling, the crash/timeout/OOM ladder,
        the clock advance, and record emission."""
        peak = shadow.peak
        memory_mb = self._memory_mb
        configured = memory_mb if memory_mb is not None else max(int(peak + 0.999), 1)
        clamped = self._clamp(configured)
        exec_s = exec_raw
        scaling = self.emulator.cpu_scaling
        if scaling is not None:
            exec_s *= scaling.duration_factor(clamped, peak)
        status = _S_SUCCESS if error_type is None else _S_ERROR
        faults = self._faults
        crash = (
            faults.exec_crash(self._name, self._clock.now())
            if faults is not None
            else None
        )
        crash_at = exec_s * crash.fraction if crash is not None else _INF
        # Host-crash truncation, replicated float-for-float from the
        # reference _run: the offset into the exec window is computed with
        # the same addition order, and ties go to the host.
        host_at = _INF
        hosts = self._hosts
        if hosts is not None:
            host_crash = hosts.crash_time(shadow.instance_id)
            if host_crash is not None:
                offset = host_crash - (
                    arrival
                    + self._routing
                    + instance_init_s
                    + transmission_s
                    + billed_init_s
                    + 0.0
                )
                host_at = offset if offset > 0.0 else 0.0
        kill_at = host_at if host_at <= crash_at else crash_at
        timeout_s = self._timeout_s
        timeout_at = (
            timeout_s if timeout_s is not None and exec_s > timeout_s else _INF
        )
        if kill_at < timeout_at and kill_at <= exec_s:
            exec_s = kill_at
            host_killed = host_at <= crash_at
            value, value_key = None, None
            error_type = "HostCrash" if host_killed else "InstanceCrash"
            status = _S_CRASHED
            self._kill(shadow)
            if host_killed:
                hosts.lost_in_flight(self._name, arrival)
        elif timeout_at <= exec_s:
            exec_s = timeout_at
            value, value_key, error_type = None, None, "TimeoutError"
            status = _S_TIMEOUT
        elif memory_mb is not None and peak > clamped:
            value, value_key, error_type = None, None, "OutOfMemoryError"
            status = _S_OOM
            self._kill(shadow)
        self._clock.advance(exec_s)
        billed_duration = billed_init_s + exec_s
        return self._emit(
            start_index,
            status,
            shadow.instance_id,
            instance_init_s,
            transmission_s,
            billed_init_s,
            exec_s,
            configured,
            clamped,
            peak,
            value,
            value_key,
            error_type,
            billed_duration,
            arrival,
            shadow,
            want_record,
        )

    def _emit_cold_crash(
        self,
        arrival: float,
        instance_id: str,
        billed_init_s: float,
        peak: float,
        want_record: bool,
    ):
        """A cold start whose instance died during initialization: the
        init is billed, the instance never joins the pool."""
        memory_mb = self._memory_mb
        configured = memory_mb if memory_mb is not None else max(int(peak + 0.999), 1)
        clamped = self._clamp(configured)
        instance_init_s, transmission_s = self._overhead
        return self._emit(
            _COLD,
            _S_CRASHED,
            instance_id,
            instance_init_s,
            transmission_s,
            billed_init_s,
            0.0,
            configured,
            clamped,
            peak,
            None,
            None,
            "InstanceCrash",
            billed_init_s,
            arrival,
            None,
            want_record,
        )

    def _emit_throttle(
        self, arrival: float, want_record: bool, error: str = "Throttled"
    ):
        request_num = next(self._request_ids)
        timestamp = self._clock.now()
        routing = self._routing
        chunk = self._chunk
        chunk.append(
            (
                request_num, _THROTTLED_START, _S_THROTTLED, timestamp, None,
                None, "-", 0.0, 0.0, 0.0, 0.0, 0.0, 128, 0.0, 0.0, error,
                routing, arrival,
            )
        )
        if len(chunk) >= _CHUNK_ROWS:
            self._flush_chunk()
        completion = arrival + routing
        record = None
        if want_record:
            record = InvocationRecord(
                request_id=f"req-{request_num:06d}",
                function=self._name,
                start_type=StartType.THROTTLED,
                timestamp=timestamp,
                value=None,
                instance_id="-",
                routing_s=routing,
                cost_usd=0.0,
                error_type=error,
                status=InvocationStatus.THROTTLED,
            )
        return (_S_THROTTLED, _THROTTLED_START, completion, 0.0, record, None)

    def _emit(
        self,
        start_index: int,
        status_index: int,
        instance_id: str,
        instance_init_s: float,
        transmission_s: float,
        billed_init_s: float,
        exec_s: float,
        configured: int,
        clamped: int,
        peak: float,
        value: Any,
        value_key: Any,
        error_type: str | None,
        billed_duration: float,
        arrival: float,
        shadow: _Shadow | None,
        want_record: bool,
    ):
        """Price one billed invocation and buffer its row for the sinks."""
        billed_s = self._billed(billed_duration)
        cost = self._cost(billed_duration, configured)
        timestamp = self._clock.now()
        request_num = next(self._request_ids)
        routing = self._routing
        name = self._name
        if self._attribution is not None and start_index == _COLD:
            # Every cold start is synthesized from the captured template;
            # one that crashed during init has no instance and no exec.
            self._attribution.record(
                attribute_cold_start(
                    function=name,
                    request_id=f"req-{request_num:06d}",
                    timestamp=timestamp,
                    pricing=self._pricing,
                    memory_config_mb=clamped,
                    modules=self._entry.cold.modules,
                    billed_init_s=billed_init_s,
                    restore_s=0.0,
                    exec_s=exec_s,
                    billed_duration_s=billed_s,
                    cost_usd=cost,
                    include_exec=shadow is not None,
                )
            )
        # Same addition order as InvocationRecord.e2e_s.
        e2e = routing + instance_init_s + transmission_s + billed_init_s + 0.0 + exec_s
        chunk = self._chunk
        chunk.append(
            (
                request_num, start_index, status_index, timestamp, value,
                value_key, instance_id, instance_init_s, transmission_s,
                billed_init_s, exec_s, billed_s, clamped, peak, cost,
                error_type, e2e, arrival,
            )
        )
        if len(chunk) >= _CHUNK_ROWS:
            self._flush_chunk()
        completion = arrival + e2e
        record = None
        if want_record and status_index != _S_SUCCESS:
            record = InvocationRecord(
                request_id=f"req-{request_num:06d}",
                function=name,
                start_type=_START_TYPES[start_index],
                timestamp=timestamp,
                value=value,
                instance_id=instance_id,
                instance_init_s=instance_init_s,
                transmission_s=transmission_s,
                init_duration_s=billed_init_s,
                restore_duration_s=0.0,
                exec_duration_s=exec_s,
                routing_s=routing,
                billed_duration_s=billed_s,
                memory_config_mb=clamped,
                peak_memory_mb=peak,
                cost_usd=cost,
                error_type=error_type,
                status=_STATUS_TYPES[status_index],
            )
        return (status_index, start_index, completion, cost, record, shadow)

    # -- bulk emission -------------------------------------------------------

    def _flush_chunk(self) -> None:
        """Bulk-emit the buffered rows in serve order.

        One log append, one bill fold, and one telemetry ingest per chunk.
        Billing and log accounting continue their sequential float folds
        in row order; only the int counters are chunk aggregates.
        """
        chunk = self._chunk
        if not chunk:
            return
        self._chunk = []
        (
            request_nums, starts, statuses, timestamps, values, value_keys,
            instance_ids, instance_init_s, transmission_s, init_s, exec_s,
            billed_s, clamped, peaks, costs, errors, e2es, arrivals,
        ) = zip(*chunk)
        self._log.append_rows(
            self._name, self._routing, request_nums, starts, statuses,
            timestamps, values, value_keys, instance_ids, instance_init_s,
            transmission_s, init_s, exec_s, billed_s, clamped, peaks, costs,
            errors,
        )
        self._bill.charge_batch(
            statuses,
            costs,
            throttled_status=_S_THROTTLED,
            cold_starts=starts.count(_COLD),
            throttles=statuses.count(_S_THROTTLED),
        )
        sink = self._sink
        if sink is not None:
            heads = self._row_heads
            sink.observe_rows(
                [
                    heads[start][status] + (e2e, cost, billed, request_num)
                    for start, status, e2e, cost, billed, request_num in zip(
                        starts, statuses, e2es, costs, billed_s, request_nums
                    )
                ],
                arrivals=arrivals,
            )

    # -- the columnar loop ---------------------------------------------------

    def _homogeneous(self) -> bool:
        """Is the whole run homogeneous enough for the columnar loop?

        Hosts and CPU scaling thread per-invocation state through the
        serve, and crash faults draw RNG inside it.  Throttle rates and
        outages must consult the injector per serve (RNG draw order and
        injection counters are observable), and throttled rows break the
        all-billed contract of the columnar emitters.
        """
        if self._hosts is not None or self.emulator.cpu_scaling is not None:
            return False
        faults = self._faults
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

    def _init_spec_cols(self) -> tuple:
        """Seed the per-*j* outcome columns with the cold outcome at 0.

        Index 0 is the cold start and index ``j >= 1`` the warm outcome
        after *j* prior serves (a warm instance always has at least the
        cold behind it), so a per-row spec-index list gathers every log
        and telemetry column with one fancy-index per column at flush
        time.  ``value``/``value_key``/``error_type`` collapse to a tiny
        class table — which branch of the outcome ladder fired — that
        run-length encodes for :meth:`ExecutionLog.append_columns`.

        Every synthesized cold start is identical up to its timestamp,
        request id, and instance id; returns its ``(exec_s, e2e, kill,
        clamped, billed_s, cost)`` for the loop.
        """
        entry = self._entry
        if entry.drift is None:
            entry.drift = _DriftTables(entry.cold)
        cold = entry.cold
        warm = entry.warm
        peak = cold.post_peak
        memory_mb = self._memory_mb
        configured = memory_mb if memory_mb is not None else max(int(peak + 0.999), 1)
        clamped = self._clamp(configured)
        exec_s = cold.exec1_s
        value, value_key, error_type = cold.value, cold.value_key, cold.error_type
        status = _S_SUCCESS if error_type is None else _S_ERROR
        kill = False
        timeout_s = self._timeout_s
        if timeout_s is not None and exec_s > timeout_s:
            exec_s = timeout_s
            value, value_key, error_type = None, None, "TimeoutError"
            status = _S_TIMEOUT
        elif memory_mb is not None and peak > clamped:
            value, value_key, error_type = None, None, "OutOfMemoryError"
            status = _S_OOM
            kill = True
        billed_duration = cold.init_s + exec_s
        billed_s = self._billed(billed_duration)
        cost = self._cost(billed_duration, configured)
        instance_init_s, transmission_s = self._overhead
        # Same addition order as InvocationRecord.e2e_s.
        e2e = self._routing + instance_init_s + transmission_s + cold.init_s + 0.0 + exec_s
        self._sc_exec = [exec_s]
        self._sc_e2e = [e2e]
        self._sc_status = [status]
        self._sc_billed = [billed_s]
        self._sc_cost = [cost]
        self._sc_peak = [peak]
        self._sc_clamped = [clamped]
        self._sc_cls = [0]
        self._cls_values = [
            (value, value_key),
            (warm.value, warm.value_key),
            (None, None),
            (None, None),
        ]
        self._cls_errors = [
            error_type, warm.error_type, "TimeoutError", "OutOfMemoryError",
        ]
        self._warm_specs = [(exec_s, e2e, kill)]
        return exec_s, e2e, kill, clamped, billed_s, cost

    def _extend_spec_cols(self, upto: int) -> None:
        """Grow the outcome columns so index *upto* is valid.

        Entry *j* is the full billed outcome of an instance's serve when
        it has already run *j* invocations, computed array-at-a-time:
        exec times are exact ``diff``\\ s of the drift sequence, the
        timeout/OOM masks select statuses, and billed duration / cost go
        through the *scalar* pricing caches once per unique duration
        (numpy's ``round`` is not Python's correctly-rounded one) and
        scatter back.  Grows with doubling headroom so repeated
        one-past-the-end requests stay amortized-vectorized.
        """
        specs = self._warm_specs
        j0 = len(specs)
        upto = max(upto, 2 * j0)
        entry = self._entry
        drift = entry.drift
        template = entry.warm
        drift.extend_array(upto, template)
        w = _np.asarray(drift.t[j0 - 1 : upto + 1])
        exec_new = _np.diff(w)
        peaks = _np.asarray(drift.peak[j0 : upto + 1])
        count = upto + 1 - j0
        timeout_s = self._timeout_s
        memory_mb = self._memory_mb
        base_status = _S_SUCCESS if template.error_type is None else _S_ERROR
        status = _np.full(count, base_status, dtype=_np.int64)
        cls = _np.full(count, 1, dtype=_np.int64)
        kill = None
        tmask = None
        if timeout_s is not None:
            tmask = exec_new > timeout_s
            if tmask.any():
                exec_new = _np.where(tmask, timeout_s, exec_new)
                status[tmask] = _S_TIMEOUT
                cls[tmask] = 2
            else:
                tmask = None
        if memory_mb is not None:
            configured = memory_mb
            clamped_const = self._clamp(configured)
            omask = peaks > clamped_const
            if tmask is not None:
                omask &= ~tmask
            if omask.any():
                status[omask] = _S_OOM
                cls[omask] = 3
                kill = omask
            clamped = _np.full(count, clamped_const, dtype=_np.int64)
            du, dinv = _np.unique(exec_new, return_inverse=True)
            durations = du.tolist()
            billed = _np.asarray([self._billed(d) for d in durations])[dinv]
            cost = _np.asarray([self._cost(d, configured) for d in durations])[dinv]
        else:
            conf = _np.maximum((peaks + 0.999).astype(_np.int64), 1)
            cu, cinv = _np.unique(conf, return_inverse=True)
            clamped = _np.asarray(
                [self._clamp(c) for c in cu.tolist()], dtype=_np.int64
            )[cinv]
            du, dinv = _np.unique(exec_new, return_inverse=True)
            durations = du.tolist()
            billed = _np.asarray([self._billed(d) for d in durations])[dinv]
            width = len(cu)
            pu, pinv = _np.unique(dinv * width + cinv, return_inverse=True)
            cost = _np.asarray(
                [
                    self._cost(durations[p // width], int(cu[p % width]))
                    for p in pu.tolist()
                ]
            )[pinv]
        # Same addition order as InvocationRecord.e2e_s on a warm start:
        # ((((routing + 0.0) + 0.0) + 0.0) + 0.0) + exec_s.
        base = self._routing + 0.0 + 0.0 + 0.0 + 0.0
        e2e = base + exec_new
        execs = exec_new.tolist()
        e2es = e2e.tolist()
        kills = [False] * count if kill is None else kill.tolist()
        self._sc_exec += execs
        self._sc_e2e += e2es
        self._sc_status += status.tolist()
        self._sc_billed += billed.tolist()
        self._sc_cost += cost.tolist()
        self._sc_peak += peaks.tolist()
        self._sc_clamped += clamped.tolist()
        self._sc_cls += cls.tolist()
        specs.extend(zip(execs, e2es, kills))

    def _run_columnar(
        self, arrivals, result, arrival_times, completion_times
    ) -> None:
        """The columnar serve loop: one spec index and timestamp per row,
        from the first arrival to the last.

        The same pool/clock/id decisions as the general path (an inlined
        :meth:`WarmPool.acquire <repro.platform.instance.WarmPool.acquire>`
        on the pool's own lists, the host layer excluded by
        :meth:`_homogeneous`), but per-row emission shrinks to three list
        appends (spec index, timestamp, completion) plus run-length
        tracking of the serving instance; everything else gathers from
        the outcome columns at flush time.
        """
        entry = self._entry
        name = self._name
        function = self._function
        clock = self._clock
        keep_alive = self.emulator.keep_alive_s
        instance_seq = function.instance_seq
        instances = function.instances
        attribution = self._attribution
        pricing = self._pricing
        pool = self._pool
        busy = pool.busy
        idle = pool.idle
        heappush = heapq.heappush
        heappop = heapq.heappop
        kill_shadow = self._kill

        (
            cold_exec, cold_e2e, cold_kill, cold_clamped, cold_billed_s,
            cold_cost,
        ) = self._init_spec_cols()
        specs = self._warm_specs
        extend_specs = self._extend_spec_cols
        cold = entry.cold
        cold_init_s = cold.init_s
        cold_modules = cold.modules
        post_t = cold.post_t
        post_live = cold.post_live
        post_peak = cold.post_peak
        overhead_sum = self._overhead_sum

        now = clock.now()
        seq = pool.seq.value
        ids = self._request_ids
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
                    extend_specs(j)
                    spec_len = len(specs)
                exec_eff, e2e, kill = specs[j]
                now += exec_eff
                idx_list.append(j)
                ts_list.append(now)
                comps.append(t + e2e)
                warm_n += 1
                iid = shadow.instance_id
                if kill:
                    kill_shadow(shadow)
                else:
                    heappush(busy, (t + e2e, seq, shadow))
                    seq += 1
            else:
                now += overhead_sum
                iid = f"{name}-i{next(instance_seq):05d}"
                now += cold_init_s
                now += cold_exec
                if attribution is not None:
                    rid = rid_base + len(idx_list)
                    attribution.record(
                        attribute_cold_start(
                            function=name,
                            request_id=f"req-{rid:06d}",
                            timestamp=now,
                            pricing=pricing,
                            memory_config_mb=cold_clamped,
                            modules=cold_modules,
                            billed_init_s=cold_init_s,
                            restore_s=0.0,
                            exec_s=cold_exec,
                            billed_duration_s=cold_billed_s,
                            cost_usd=cold_cost,
                            include_exec=True,
                        )
                    )
                idx_list.append(0)
                ts_list.append(now)
                comps.append(t + cold_e2e)
                cold_n += 1
                if not cold_kill:
                    shadow = _Shadow(iid, t=post_t, live=post_live, peak=post_peak)
                    shadow.invocations = 1
                    instances.append(shadow)
                    heappush(busy, (t + cold_e2e, seq, shadow))
                    seq += 1
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
                    result, idx_list, ts_list, comps, inst_runs,
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
                result, idx_list, ts_list, comps, inst_runs,
                arrivals[flushed:n], rid_base, cold_n, warm_n,
                arrival_times, completion_times,
            )
            rid_base += len(idx_list)
            ids.value = rid_base

        # The local clock fold is authoritative.  Shadow meters are not
        # written back: the pool ends with this call, and no later replay
        # serves its shadows.
        clock._now = now

    def _flush_cols(
        self, result, idx_list, ts_list, comps, inst_runs, served, rid_base,
        cold_n, warm_n, arrival_times, completion_times,
    ) -> None:
        """Gather one chunk's columns from the outcome tables and bulk-emit.

        One fancy-index per column turns the per-row spec indices into
        full log/telemetry columns; the order-dependent float folds
        (billing, total cost, sketch sums) continue as seeded ``cumsum``
        left-folds inside the columnar emitters.
        """
        count = len(idx_list)
        idx = _np.asarray(idx_list, dtype=_np.intp)
        e2e = _np.asarray(self._sc_e2e)[idx]
        status = _np.asarray(self._sc_status, dtype=_np.int8)[idx]
        billed = _np.asarray(self._sc_billed)[idx]
        cost = _np.asarray(self._sc_cost)[idx]
        peak = _np.asarray(self._sc_peak)[idx]
        clamped = _np.asarray(self._sc_clamped, dtype=_np.int64)[idx]
        exec_col = _np.asarray(self._sc_exec)[idx]
        cold_mask = idx == 0
        starts = _np.where(cold_mask, _np.int8(_COLD), _np.int8(_WARM)).astype(
            _np.int8
        )
        instance_init_s, transmission_s = self._overhead
        iinit = _np.where(cold_mask, instance_init_s, 0.0)
        trans = _np.where(cold_mask, transmission_s, 0.0)
        init = _np.where(cold_mask, self._entry.cold.init_s, 0.0)
        cls = _np.asarray(self._sc_cls, dtype=_np.int64)[idx]
        bounds = (_np.flatnonzero(cls[1:] != cls[:-1]) + 1).tolist()
        edges = [0, *bounds, count]
        cls_values = self._cls_values
        cls_errors = self._cls_errors
        value_runs = []
        error_runs = []
        for run in range(len(edges) - 1):
            a, b = edges[run], edges[run + 1]
            which = int(cls[a])
            value, value_key = cls_values[which]
            value_runs.append((value, value_key, b - a))
            error_runs.append((cls_errors[which], b - a))
        self._log.append_columns(
            self._name,
            self._routing,
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
        bill = self._bill
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
        sink = self._sink
        if sink is not None:
            sink.observe_columns(
                self._name,
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

    # -- pricing caches ----------------------------------------------------

    def _clamp(self, configured: int) -> int:
        clamped = self._clamp_cache.get(configured)
        if clamped is None:
            clamped = self._clamp_cache[configured] = (
                self._pricing.clamp_memory_mb(configured)
            )
        return clamped

    def _billed(self, duration_s: float) -> float:
        billed = self._billed_cache.get(duration_s)
        if billed is None:
            billed = self._billed_cache[duration_s] = (
                self._pricing.billed_duration_s(duration_s)
            )
        return billed

    def _cost(self, duration_s: float, configured: int) -> float:
        key = (duration_s, configured)
        cost = self._cost_cache.get(key)
        if cost is None:
            cost = self._cost_cache[key] = self._pricing.invocation_cost(
                duration_s, configured
            )
        return cost
