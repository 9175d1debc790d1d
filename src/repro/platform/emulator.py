"""The serverless platform emulator: deploy, invoke, bill (Section 2.1).

:class:`LambdaEmulator` implements the lifecycle the paper measures on AWS
Lambda:

* **cold start** — unbilled platform preparation (instance init + image
  transmission, pinned per-application to the Table 1 residual or derived
  from the image size), then billed Function Initialization (really
  importing the handler module under the instance meter), then billed
  Function Execution;
* **warm start** — an instance whose last request completed no more
  than the keep-alive ago serves the request with only routing delay
  plus execution.  Every warm start comes from a
  :class:`~repro.platform.instance.WarmPool` owned by one caller: each
  function's own pool for direct invokes, a per-call pool for each replay;
* **the serve step** — :meth:`LambdaEmulator._serve` decides this
  lifecycle once for direct invokes and both replay engines: host
  faults, the throttle draw, the warm pool, the cold start, the kill
  ladder (:func:`settle`) and pricing.  It reaches instances through a
  small protocol that real instances and the fast engine's tape
  instances both implement, and returns one row tuple per attempt
  (``ROW_*``); a record is built only where one is read, and replays
  hand their rows to the log, bill and telemetry sink in bulk
  (:meth:`LambdaEmulator._emit_rows`);
* **forced cold starts** — :meth:`update_function` discards warm
  instances, the paper's trick of editing the function description;
* **billing** — Eq. 1 with the provider's granularity, memory configured
  to the measured footprint (128 MB floor);
* **SnapStart** — cold starts restore from a checkpoint instead of
  re-initializing; restore time comes from the C/R simulator and restore/
  cache fees from :class:`~repro.pricing.snapstart.SnapStartPricing`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.bundle import AppBundle
from repro.checkpoint import Checkpoint, CriuSimulator
from repro.errors import FunctionNotFound, PlatformError
from repro.obs import get_recorder
from repro.obs.attribution import AttributionStore, attribute_cold_start
from repro.platform.billing import BillingLedger
from repro.platform.checkpoint import SerialCounter
from repro.platform.clock import VirtualClock
from repro.platform.faults import FaultInjector, FaultPlan
from repro.platform.hosts import HostConfig, HostPool
from repro.platform.instance import FunctionInstance, WarmPool
from repro.platform.logs import (
    _START_TYPE_INDEX,
    _START_TYPES,
    _STATUS_INDEX,
    _STATUS_TYPES,
    ExecutionLog,
    InvocationRecord,
    InvocationStatus,
    StartType,
)
from repro.platform.telemetry import TelemetrySink
from repro.platform.tuning import CpuScalingModel
from repro.pricing import AwsLambdaPricing, PricingModel, SnapStartPricing

__all__ = ["LambdaEmulator", "DeployedFunction", "settle"]

DEFAULT_KEEP_ALIVE_S = 15 * 60  # GCP-style; AWS allows up to ~45-60 min
DEFAULT_INSTANCE_INIT_S = 0.25
DEFAULT_TRANSMISSION_MB_PER_S = 170.0  # Figure 1: 742 MB in ~4.4 s
DEFAULT_ROUTING_S = 0.04

_INF = float("inf")
_SUCCESS = _STATUS_INDEX[InvocationStatus.SUCCESS]
_ERROR = _STATUS_INDEX[InvocationStatus.ERROR]
_TIMEOUT = _STATUS_INDEX[InvocationStatus.TIMEOUT]
_OOM = _STATUS_INDEX[InvocationStatus.OOM]
_CRASHED = _STATUS_INDEX[InvocationStatus.CRASHED]
_THROTTLED = _STATUS_INDEX[InvocationStatus.THROTTLED]
_COLD = _START_TYPE_INDEX[StartType.COLD]
_WARM = _START_TYPE_INDEX[StartType.WARM]
_THROTTLED_START = _START_TYPE_INDEX[StartType.THROTTLED]

#: Field positions of a serve row, the one tuple per attempt that
#: :meth:`LambdaEmulator._serve` returns: the
#: :meth:`~repro.platform.logs.ExecutionLog.append_rows` columns (start
#: and status as table indices, the request as its number), then the
#: end-to-end time and the arrival it was served at.
(
    ROW_REQUEST, ROW_START, ROW_STATUS, ROW_TIMESTAMP, ROW_VALUE,
    ROW_VALUE_KEY, ROW_INSTANCE, ROW_INSTANCE_INIT, ROW_TRANSMISSION,
    ROW_INIT, ROW_RESTORE, ROW_EXEC, ROW_BILLED, ROW_MEMORY, ROW_PEAK,
    ROW_COST, ROW_ERROR, ROW_E2E, ROW_ARRIVAL,
) = range(19)  # fmt: skip


def settle(
    exec_s: float,
    error_type: str | None,
    peak_mb: float,
    memory_mb: int | None,
    clamped_mb: int,
    timeout_s: float | None,
    crash_at: float = _INF,
    host_at: float = _INF,
) -> tuple[float, int, str | None, bool, bool]:
    """How one execution of *exec_s* seconds ends: the one kill ladder.

    Whichever kill lands within the execution earliest wins: an injected
    instance crash at *crash_at*, a crash of the serving host at
    *host_at* (both offsets into the execution), or the timeout, which
    fires at *timeout_s* only when the execution runs past it.  On a tie
    the host crash beats the instance crash (the machine disappearing
    subsumes a process crash), and the timeout beats either.  With no
    kill, the memory ceiling (only an explicit *memory_mb* enforces one)
    is checked at the measured *peak_mb* against *clamped_mb*, at the end
    of the execution.  Otherwise the handler's own *error_type* decides
    between success and error; its value survives only those two.

    Returns ``(exec_s, status, error_type, dies, host_killed)``: the
    billed execution time (the time that ran), the status as an index
    into ``logs._STATUS_TYPES``, the error type, whether the instance
    dies (crash or OOM kill), and whether a host crash killed it.
    """
    kill_at = host_at if host_at <= crash_at else crash_at
    timeout_at = timeout_s if timeout_s is not None and exec_s > timeout_s else _INF
    if kill_at < timeout_at and kill_at <= exec_s:
        host_killed = host_at <= crash_at
        error_type = "HostCrash" if host_killed else "InstanceCrash"
        return kill_at, _CRASHED, error_type, True, host_killed
    if timeout_at <= exec_s:
        return timeout_at, _TIMEOUT, "TimeoutError", False, False
    if memory_mb is not None and peak_mb > clamped_mb:
        return exec_s, _OOM, "OutOfMemoryError", True, False
    status = _SUCCESS if error_type is None else _ERROR
    return exec_s, status, error_type, False, False


@dataclass
class DeployedFunction:
    """A function registered with the emulator."""

    name: str
    bundle: AppBundle
    memory_mb: int | None = None  # None = configure to measured footprint
    snapstart: bool = False
    #: Execution deadline; ``None`` disables the kill (the seed behaviour).
    #: Exceeding it yields a billed ``timeout`` record, like Lambda.
    timeout_s: float | None = None
    instances: list[FunctionInstance] = field(default_factory=list)
    snapshot: Checkpoint | None = None
    snapstart_enabled_at: float = 0.0
    generation: int = 0  # bumped by update_function to force cold starts
    #: Per-function instance-id sequence.  Ids depend only on this
    #: function's own cold-start history, so a fleet replay that shards
    #: functions across processes logs identical ids at any worker count.
    instance_seq: SerialCounter = field(
        default_factory=lambda: SerialCounter(1), repr=False
    )
    #: Deploy-time cache of ``(instance_init_s, transmission_s)``: the
    #: overhead is a pure function of the bundle manifest and the
    #: emulator's constants, so it is computed once per deploy (and
    #: invalidated on a bundle swap) instead of on every cold start.
    overhead_cache: tuple[float, float] | None = field(
        default=None, repr=False, compare=False
    )
    #: The warm pool of direct invokes, in virtual-clock time.  It holds
    #: only instances direct invokes served; replays build their own.
    pool: WarmPool = field(
        default_factory=WarmPool, init=False, repr=False, compare=False
    )

    def discard_instances(self) -> None:
        for instance in self.instances:
            instance.shutdown()
        self.instances.clear()


class LambdaEmulator:
    """A deterministic, virtual-clock serverless platform."""

    def __init__(
        self,
        *,
        pricing: PricingModel | None = None,
        keep_alive_s: float = DEFAULT_KEEP_ALIVE_S,
        clock: VirtualClock | None = None,
        instance_init_s: float = DEFAULT_INSTANCE_INIT_S,
        transmission_mb_per_s: float = DEFAULT_TRANSMISSION_MB_PER_S,
        routing_s: float = DEFAULT_ROUTING_S,
        snapstart_pricing: SnapStartPricing | None = None,
        criu: CriuSimulator | None = None,
        cpu_scaling: CpuScalingModel | None = None,
        telemetry: TelemetrySink | None = None,
        faults: FaultInjector | FaultPlan | None = None,
        hosts: HostPool | HostConfig | None = None,
        log: ExecutionLog | None = None,
        attribution: AttributionStore | None = None,
    ):
        #: Fixed for the emulator's life: the pricing memo below relies on
        #: it, so no caller may reassign it after construction.
        self.pricing = pricing if pricing is not None else AwsLambdaPricing()
        self.keep_alive_s = keep_alive_s
        self.clock = clock if clock is not None else VirtualClock()
        self.instance_init_s = instance_init_s
        self.transmission_mb_per_s = transmission_mb_per_s
        self.routing_s = routing_s
        self.snapstart_pricing = (
            snapstart_pricing if snapstart_pricing is not None else SnapStartPricing()
        )
        self.criu = criu if criu is not None else CriuSimulator()
        # Optional AWS-style CPU scaling: execution slows down below the
        # full-vCPU memory point (see repro.platform.tuning).  Off by
        # default so calibrated Table 1 durations are unchanged.
        self.cpu_scaling = cpu_scaling
        # Optional fleet-telemetry sink: every invocation record is also
        # folded into virtual-time windowed rollups (repro.platform.telemetry).
        self.telemetry = telemetry
        # Optional seeded chaos: throttles, cold-start and mid-execution
        # crashes (repro.platform.faults).  None keeps the happy path
        # fault-free at zero per-invocation cost.
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults)
        self.faults = faults
        # Optional host layer (repro.platform.hosts): instances bin-pack
        # onto memory-constrained hosts, memory pressure evicts LRU warm
        # instances, and the fault plan's host_faults execute against the
        # pool.  A bare HostConfig is expanded here so the pool picks up
        # this emulator's telemetry sink and the plan's fault schedule.
        if isinstance(hosts, HostConfig):
            plan = self.faults.plan if self.faults is not None else None
            hosts = HostPool(
                hosts,
                host_faults=plan.host_faults if plan is not None else (),
                seed=plan.seed if plan is not None else 0,
                telemetry=self.telemetry,
            )
        elif hosts is not None and hosts.telemetry is None:
            hosts.telemetry = self.telemetry
        self.hosts = hosts
        # An injected log lets fleet replays choose columnar spill-to-disk
        # settings; the default is an unbounded in-memory columnar store.
        self.log = log if log is not None else ExecutionLog()
        self.ledger = BillingLedger()
        # Optional dollar attribution: with a store attached, every cold
        # start's init-phase charge stream is folded into a priced
        # ColdStartProfile (repro.obs.attribution).  None (the default)
        # keeps the capture entirely off the hot path.
        self.attribution = attribution
        self._functions: dict[str, DeployedFunction] = {}
        self._request_ids = SerialCounter(1)
        # Pricing memos keyed on exact float bits (see _memory_config and
        # _price): the billed-duration quantization collapses exec-time
        # drift onto few values, and every engine prices through them.
        self._clamps: dict[int, int] = {}
        self._prices: dict[tuple[float, int], tuple[float, float]] = {}
        # Batched observability counters for the disabled-recorder fast
        # path: _emit_telemetry folds into these plain floats/dicts and
        # flush_obs() publishes the totals in one burst.
        self._obs_counts: dict[str, float] = {}
        self._obs_status: dict[str, int] = {}
        self._obs_peak_mb = 0.0
        self._obs_pending = 0
        #: Telemetry row heads per function, built by _emit_rows.
        self._row_heads: dict[str, list[list[tuple]]] = {}

    # -- deployment ----------------------------------------------------------

    def deploy(
        self,
        bundle: AppBundle,
        *,
        name: str | None = None,
        memory_mb: int | None = None,
        snapstart: bool = False,
        timeout_s: float | None = None,
    ) -> DeployedFunction:
        """Register a bundle; ``memory_mb=None`` bills the measured peak.

        An explicit ``memory_mb`` is also the enforcement ceiling: an
        instance whose measured peak exceeds it is OOM-killed, the way an
        over-footprint debloated bundle dies on Lambda.  ``timeout_s``
        bounds each execution; both kills produce billed failure records.
        """
        function_name = name if name is not None else bundle.name
        if function_name in self._functions:
            raise PlatformError(f"function already deployed: {function_name}")
        if timeout_s is not None and timeout_s <= 0:
            raise PlatformError(f"timeout must be positive: {timeout_s}")
        function = DeployedFunction(
            name=function_name,
            bundle=bundle,
            memory_mb=memory_mb,
            snapstart=snapstart,
            timeout_s=timeout_s,
            snapstart_enabled_at=self.clock.now(),
        )
        self._functions[function_name] = function
        return function

    def function(self, name: str) -> DeployedFunction:
        try:
            return self._functions[name]
        except KeyError:
            raise FunctionNotFound(f"no such function: {name}") from None

    def update_function(self, name: str, *, bundle: AppBundle | None = None) -> None:
        """Update function metadata, discarding warm instances.

        This is the paper's methodology for forcing 100 cold starts:
        "we update the function description field after each invocation".
        Passing *bundle* additionally swaps the deployed code — the
        mechanism :class:`~repro.core.fallback.FallbackManager` uses to
        "un-trim" a broken debloated function back to the original.
        """
        function = self.function(name)
        function.generation += 1
        if bundle is not None:
            function.bundle = bundle
            function.overhead_cache = None
        function.discard_instances()
        if self.hosts is not None:
            self.hosts.evacuate(name)
        if function.snapstart:
            function.snapshot = None  # a new version re-snapshots

    # -- invocation -----------------------------------------------------------

    def platform_overhead_s(self, function: DeployedFunction) -> tuple[float, float]:
        """(instance init, image transmission) — the unbilled phases.

        Cached on the function after the first call (invalidated when
        :meth:`update_function` swaps the bundle), so the per-cold-start
        cost is a tuple unpack.
        """
        cached = function.overhead_cache
        if cached is not None:
            return cached
        manifest = function.bundle.manifest
        if manifest.platform_overhead_s is not None:
            total = manifest.platform_overhead_s
            instance_init = min(self.instance_init_s, total / 2)
            overhead = (instance_init, total - instance_init)
        else:
            transmission = manifest.image_size_mb / self.transmission_mb_per_s
            overhead = (self.instance_init_s, transmission)
        function.overhead_cache = overhead
        return overhead

    def invoke(
        self,
        name: str,
        event: Any,
        context: Any = None,
        *,
        force_cold: bool = False,
    ) -> InvocationRecord:
        """Invoke a function; cold or warm depending on its warm pool."""
        function = self.function(name)
        if force_cold:
            self.update_function(name)

        now = self.clock.now()
        self.clock.advance(self.routing_s)
        record = self._record(
            function.name,
            self._serve(function, function.pool, now, event, context, clock_time=True),
        )
        self.log.append(record)
        if record.billed:
            self.ledger.charge_invocation(
                record.function, record.cost_usd, cold=record.is_cold
            )
        else:
            self.ledger.charge_throttle(record.function)
        if self.telemetry is not None:
            self.telemetry.observe(record)
        self._emit_telemetry(record)
        return record

    def _serve(
        self,
        function: DeployedFunction,
        pool: WarmPool,
        arrival: float,
        event: Any,
        context: Any,
        adopt: Iterable[Any] = (),
        spawn: Callable[[DeployedFunction], Any] | None = None,
        *,
        clock_time: bool = False,
    ) -> tuple:
        """Serve one request arriving at *arrival*: the one serve step.

        Host faults due by *arrival* fire first, then the throttle draw,
        then *pool* serves a warm start (adopting the alive instances in
        *adopt* on its first acquire) or a host admits a cold start on an
        instance that *spawn* makes (a real :class:`FunctionInstance` by
        default).  The served instance's reservation is then trued up to
        its measured peak, unless it was a cold start's instance that died
        serving, and an instance still alive goes back to *pool*, busy
        until the request completes: in trace time, or in virtual-clock
        time with *clock_time* (direct invokes).

        Instances are reached only through the instance protocol:
        ``instance_id``, ``alive``, ``host_id``, ``initialize()``,
        ``init_charges()``, ``run(event, context)``, ``peak_memory_mb`` and
        ``shutdown()``.  Returns the attempt's row (see ``ROW_*``).
        """
        hosts = self.hosts
        if hosts is not None:
            hosts.advance(arrival)
        if self.faults is not None and self.faults.throttled(function.name, arrival):
            return self._throttle(arrival, "Throttled")
        served = pool.acquire(adopt, arrival, self.keep_alive_s, hosts)
        if served is not None:
            # Float zeros: warm rows must carry the same field types as
            # cold ones, or exports that serialize a record object
            # directly (dead letters) differ from the columnar log.
            row = self._run(
                function, served, event, context, _WARM, 0.0, 0.0, 0.0, 0.0, arrival
            )
        else:
            placement = None
            if hosts is not None:
                placement = hosts.admit(
                    function.name, arrival, memory_mb=function.memory_mb
                )
                if placement is None:
                    # No host can take a new instance and nothing idle is
                    # left to evict: the request bounces as a (retryable,
                    # unbilled) capacity throttle.
                    return self._throttle(arrival, "CapacityExhausted")
            row, served = self._cold_start(
                function, event, context, arrival, placement, spawn or self._spawn
            )
            if not served.alive:
                return row
        if hosts is not None:
            # True the reservation up to the measured peak (may evict idle
            # neighbours under pressure) and remember the footprint for
            # future placements of this function.
            hosts.adjust(served.instance_id, row[ROW_PEAK], arrival)
            hosts.observe_footprint(function.name, row[ROW_PEAK])
        if served.alive:
            # Free as of the clock at completion for direct invokes:
            # ``arrival + e2e`` can land one ulp past the arrival of a
            # back-to-back invoke, which would then find it still busy.
            until = self.clock.now() if clock_time else arrival + row[ROW_E2E]
            pool.release(served, until, hosts)
        return row

    def _throttle(self, arrival: float, error: str) -> tuple:
        """The row of a rejected request: no instance work, nothing billed.

        ``"CapacityExhausted"`` marks a host-pool capacity throttle (no
        host could take the instance); both flavours share the THROTTLED
        status, so retry policies treat them alike.
        """
        return (
            next(self._request_ids), _THROTTLED_START, _THROTTLED,
            self.clock.now(), None, None, "-", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            128, 0.0, 0.0, error, self.routing_s, arrival,
        )  # fmt: skip

    def _record(self, name: str, row: tuple) -> InvocationRecord:
        """*row* of function *name* as a record, for callers that read one."""
        (
            request_num, start, status, timestamp, value, _, instance_id,
            instance_init_s, transmission_s, init_s, restore_s, exec_s,
            billed_s, clamped, peak, cost, error_type, _, _,
        ) = row  # fmt: skip
        return InvocationRecord(
            request_id=f"req-{request_num:06d}",
            function=name,
            start_type=_START_TYPES[start],
            timestamp=timestamp,
            value=value,
            instance_id=instance_id,
            instance_init_s=instance_init_s,
            transmission_s=transmission_s,
            init_duration_s=init_s,
            restore_duration_s=restore_s,
            exec_duration_s=exec_s,
            routing_s=self.routing_s,
            billed_duration_s=billed_s,
            memory_config_mb=clamped,
            peak_memory_mb=peak,
            cost_usd=cost,
            error_type=error_type,
            status=_STATUS_TYPES[status],
        )

    def _emit_rows(self, name: str, rows: list[tuple]) -> None:
        """Bulk-emit function *name*'s served rows, in serve order.

        One log append, one bill fold and one telemetry ingest per call:
        replays buffer their rows and flush them here.  Billing and log
        accounting continue their sequential float folds in row order;
        only the int counters are batch aggregates, so where a caller
        cuts its batches never shows.
        """
        if not rows:
            return
        (
            request_nums, starts, statuses, timestamps, values, value_keys,
            instance_ids, instance_init_s, transmission_s, init_s, restore_s,
            exec_s, billed_s, clamped, peaks, costs, errors, e2es, arrivals,
        ) = zip(*rows)  # fmt: skip
        self.log.append_rows(
            name, self.routing_s, request_nums, starts, statuses, timestamps,
            values, value_keys, instance_ids, instance_init_s, transmission_s,
            init_s, exec_s, billed_s, clamped, peaks, costs, errors,
            restore_duration_s=restore_s,
        )  # fmt: skip
        self.ledger.bill_for(name).charge_batch(
            statuses,
            costs,
            throttled_status=_THROTTLED,
            cold_starts=starts.count(_COLD),
            throttles=statuses.count(_THROTTLED),
        )
        sink = self.telemetry
        if sink is not None:
            heads = self._row_heads.get(name)
            if heads is None:
                # Telemetry row heads per (start, status): everything but
                # the per-row floats and request number.
                heads = self._row_heads[name] = [
                    [
                        (
                            name,
                            status.value,
                            status is InvocationStatus.SUCCESS,
                            status is not InvocationStatus.THROTTLED,
                            start is StartType.COLD,
                            start is StartType.WARM,
                        )
                        for status in _STATUS_TYPES
                    ]
                    for start in _START_TYPES
                ]
            sink.observe_rows(
                [
                    heads[start][status] + (e2e, cost, billed, request_num)
                    for start, status, e2e, cost, billed, request_num in zip(
                        starts, statuses, e2es, costs, billed_s, request_nums
                    )
                ],
                arrivals=arrivals,
            )

    def _emit_telemetry(self, record: InvocationRecord) -> None:
        """Re-emit a direct invoke's REPORT accounting as observability data.

        Only :meth:`invoke` calls it; replays bulk-emit their rows through
        :meth:`_emit_rows` instead.  With the null recorder active this
        takes the batched fast path: totals accumulate in plain dicts (no
        instrument dispatch, no per-record key strings) and
        :meth:`flush_obs` publishes them in one burst.  With a recorder
        active, each record adds its counters and one ``emulator.report``
        event.
        """
        recorder = get_recorder()
        if not recorder.enabled:
            counts = self._obs_counts
            counts["emulator.invocations"] = (
                counts.get("emulator.invocations", 0.0) + 1.0
            )
            start_type = record.start_type
            if start_type is not StartType.THROTTLED:
                name = (
                    "emulator.cold_starts"
                    if start_type is StartType.COLD
                    else "emulator.warm_starts"
                )
                counts[name] = counts.get(name, 0.0) + 1.0
            counts["emulator.billed_ms"] = (
                counts.get("emulator.billed_ms", 0.0)
                + record.billed_duration_s * 1000.0
            )
            counts["emulator.cost_usd"] = (
                counts.get("emulator.cost_usd", 0.0) + record.cost_usd
            )
            status = record.status
            if status is not InvocationStatus.SUCCESS:
                counts["emulator.errors"] = counts.get("emulator.errors", 0.0) + 1.0
                self._obs_status[status.value] = (
                    self._obs_status.get(status.value, 0) + 1
                )
            if record.peak_memory_mb > self._obs_peak_mb:
                self._obs_peak_mb = record.peak_memory_mb
            self._obs_pending += 1
            return

        # A recorder became active: publish anything batched while it was
        # off so counter totals never depend on when it was enabled.
        if self._obs_pending:
            self.flush_obs()
        recorder.counter_add("emulator.invocations")
        if record.start_type is not StartType.THROTTLED:
            recorder.counter_add(
                "emulator.cold_starts" if record.is_cold else "emulator.warm_starts"
            )
        recorder.counter_add("emulator.billed_ms", record.billed_duration_s * 1000.0)
        recorder.counter_add("emulator.cost_usd", record.cost_usd)
        if not record.ok:
            recorder.counter_add("emulator.errors")
            recorder.counter_add(f"emulator.status.{record.status.value}")
        recorder.gauge_max("emulator.peak_memory_mb", record.peak_memory_mb)
        recorder.event(
            "emulator.report",
            {
                "request_id": record.request_id,
                "function": record.function,
                "start_type": record.start_type.value,
                "instance_init_s": record.instance_init_s,
                "transmission_s": record.transmission_s,
                "init_duration_s": record.init_duration_s,
                "restore_duration_s": record.restore_duration_s,
                "exec_duration_s": record.exec_duration_s,
                "billed_duration_s": record.billed_duration_s,
                "memory_config_mb": record.memory_config_mb,
                "peak_memory_mb": record.peak_memory_mb,
                "cost_usd": record.cost_usd,
                "error_type": record.error_type,
                "status": record.status.value,
            },
        )

    def flush_obs(self) -> None:
        """Publish observability counters batched on the fast path.

        Cheap when nothing is pending; replayers call it once per run so
        counter totals match the per-invocation path exactly.
        """
        if not self._obs_pending:
            return
        recorder = get_recorder()
        for name, value in self._obs_counts.items():
            recorder.counter_add(name, value)
        for status, count in self._obs_status.items():
            recorder.counter_add(f"emulator.status.{status}", count)
        recorder.gauge_max("emulator.peak_memory_mb", self._obs_peak_mb)
        self._obs_counts = {}
        self._obs_status = {}
        self._obs_peak_mb = 0.0
        self._obs_pending = 0

    def _spawn(self, function: DeployedFunction) -> FunctionInstance:
        """A new real instance of *function*: the default instance factory."""
        return FunctionInstance(
            function.name,
            function.bundle,
            created_at=self.clock.now(),
            sequence=function.instance_seq,
        )

    def _cold_start(
        self,
        function: DeployedFunction,
        event: Any,
        context: Any,
        arrival: float,
        placement,
        spawn: Callable[[DeployedFunction], Any],
    ) -> tuple[tuple, Any]:
        """A cold start on a new instance from *spawn*: its row and instance.

        In order: the unbilled platform overhead, the instance (and its
        id), Function Initialization, the cold-start crash draw, and the
        binding to the host placement; then the first run.  SnapStart
        restores apply to real instances only (the fast engine refuses
        SnapStart functions).
        """
        instance_init_s, transmission_s = self.platform_overhead_s(function)
        self.clock.advance(instance_init_s + transmission_s)

        instance = spawn(function)
        init_s = instance.initialize()  # a real instance imports here
        # Snapshot the init-phase charges before the handler runs: a real
        # instance's first run appends exec-phase events to the same meter.
        modules = instance.init_charges() if self.attribution is not None else None

        restore_s = 0.0
        if function.snapstart:
            # Restore from the snapshot instead of paying initialization:
            # the measured init happens off the books (snapshot creation).
            if function.snapshot is None:
                function.snapshot = self.criu.checkpoint(
                    function.name,
                    memory_mb=instance.init_memory_mb,
                    image_size_mb=function.bundle.manifest.image_size_mb,
                    init_time_s=init_s,
                )
            restore_s = self.criu.restore_time_s(function.snapshot)
            restore_cost = self.snapstart_pricing.restore_cost(
                function.snapshot.size_mb
            )
            self.ledger.charge_snapstart_restore(function.name, restore_cost)
            self.clock.advance(restore_s)
            billed_init_s = 0.0
        else:
            self.clock.advance(init_s)
            billed_init_s = init_s

        if self.faults is not None and self.faults.cold_start_crash(
            function.name, self.clock.now()
        ):
            # The instance died during initialization: the init that ran is
            # billed (Lambda bills failed inits on managed runtimes), the
            # instance never becomes warm, and no execution happens.
            instance.shutdown()
            if placement is not None:
                self.hosts.cancel(placement)
            peak = instance.peak_memory_mb
            configured, clamped = self._memory_config(function, peak)
            row = self._row(
                function.name,
                _COLD,
                _CRASHED,
                arrival,
                instance.instance_id,
                instance_init_s,
                transmission_s,
                billed_init_s,
                restore_s,
                0.0,
                configured,
                clamped,
                peak,
                None,
                None,
                "InstanceCrash",
                modules,
                False,
            )
            return row, instance

        function.instances.append(instance)
        if placement is not None:
            self.hosts.bind(placement, instance, function.instances)
        row = self._run(
            function,
            instance,
            event,
            context,
            _COLD,
            instance_init_s,
            transmission_s,
            billed_init_s,
            restore_s,
            arrival,
            modules,
        )
        return row, instance

    def _memory_config(
        self, function: DeployedFunction, peak_mb: float
    ) -> tuple[int, int]:
        """``(configured, clamped)`` memory of an execution peaking at
        *peak_mb*: the explicit ``memory_mb``, else the measured footprint
        rounded up, and that configuration clamped to the provider's range
        (memoized)."""
        memory_mb = function.memory_mb
        configured = (
            memory_mb if memory_mb is not None else max(int(peak_mb + 0.999), 1)
        )
        clamped = self._clamps.get(configured)
        if clamped is None:
            clamped = self._clamps[configured] = self.pricing.clamp_memory_mb(
                configured
            )
        return configured, clamped

    def _price(self, duration_s: float, configured_mb: int) -> tuple[float, float]:
        """``(billed duration, cost)`` of a billed *duration_s* (Eq. 1),
        memoized on the exact float: pricing is a pure function of a
        model that :attr:`pricing` fixes for the emulator's life."""
        key = (duration_s, configured_mb)
        priced = self._prices.get(key)
        if priced is None:
            pricing = self.pricing
            priced = self._prices[key] = (
                pricing.billed_duration_s(duration_s),
                pricing.invocation_cost(duration_s, configured_mb),
            )
        return priced

    def _settle_run(
        self,
        function: DeployedFunction,
        instance: Any,
        peak_mb: float,
        arrival: float,
        instance_init_s: float,
        transmission_s: float,
        billed_init_s: float,
        restore_s: float,
        exec_s: float,
        error_type: str | None,
    ) -> tuple[float, int, str | None, int, int]:
        """Everything after the handler ran: the one post-execution step.

        In order: the memory configuration from the measured *peak_mb*
        and its clamp, CPU scaling, the exec-crash draw at the current
        clock, the serving host's crash offset into the execution, the
        kill ladder (:func:`settle`), the kill of an instance that dies
        (and the host's in-flight loss), and the clock advance by the
        execution that ran.  *instance* is a real instance or the fast
        engine's simulated one; both live in ``function.instances``.

        Returns ``(exec_s, status, error_type, configured, clamped)``.
        """
        configured, clamped = self._memory_config(function, peak_mb)
        if self.cpu_scaling is not None:
            exec_s *= self.cpu_scaling.duration_factor(clamped, peak_mb)
        faults = self.faults
        crash = (
            faults.exec_crash(function.name, self.clock.now())
            if faults is not None
            else None
        )
        crash_at = exec_s * crash.fraction if crash is not None else _INF
        # A scheduled crash of the serving host truncates the execution at
        # the crash instant; one landing in the routing or init phases
        # kills at offset zero.
        host_at = _INF
        hosts = self.hosts
        if hosts is not None:
            host_crash = hosts.crash_time(instance.instance_id)
            if host_crash is not None:
                offset = host_crash - (
                    arrival
                    + self.routing_s
                    + instance_init_s
                    + transmission_s
                    + billed_init_s
                    + restore_s
                )
                host_at = offset if offset > 0.0 else 0.0
        exec_s, status, error_type, dies, host_killed = settle(
            exec_s,
            error_type,
            peak_mb,
            function.memory_mb,
            clamped,
            function.timeout_s,
            crash_at,
            host_at,
        )
        if dies:
            self._kill_instance(function, instance)
            if host_killed:
                hosts.lost_in_flight(function.name, arrival)
        self.clock.advance(exec_s)
        return exec_s, status, error_type, configured, clamped

    def _run(
        self,
        function: DeployedFunction,
        instance: Any,
        event: Any,
        context: Any,
        start: int,
        instance_init_s: float,
        transmission_s: float,
        billed_init_s: float,
        restore_s: float,
        arrival: float,
        modules: Any = None,
    ) -> tuple:
        """Run the handler on *instance*, settle the execution, build its row.

        *modules* are a cold start's aggregated init charges when dollar
        attribution is on.
        """
        exec_s, value, value_key, error_type = instance.run(event, context)
        peak = instance.peak_memory_mb
        exec_s, status, error_type, configured, clamped = self._settle_run(
            function,
            instance,
            peak,
            arrival,
            instance_init_s,
            transmission_s,
            billed_init_s,
            restore_s,
            exec_s,
            error_type,
        )
        if status > _ERROR:
            value = value_key = None
        return self._row(
            function.name,
            start,
            status,
            arrival,
            instance.instance_id,
            instance_init_s,
            transmission_s,
            billed_init_s,
            restore_s,
            exec_s,
            configured,
            clamped,
            peak,
            value,
            value_key,
            error_type,
            modules,
            True,
        )

    def _row(
        self,
        name: str,
        start: int,
        status: int,
        arrival: float,
        instance_id: str,
        instance_init_s: float,
        transmission_s: float,
        billed_init_s: float,
        restore_s: float,
        exec_s: float,
        configured: int,
        clamped: int,
        peak: float,
        value: Any,
        value_key: Any,
        error_type: str | None,
        modules: Any,
        include_exec: bool,
    ) -> tuple:
        """Price one billed attempt, record its attribution, build its row.

        *modules* (a cold start's init charges, None otherwise) are priced
        into a :class:`~repro.obs.attribution.ColdStartProfile`, with the
        execution unless the instance died during initialization.
        """
        billed_s, cost = self._price(billed_init_s + exec_s, configured)
        request_num = next(self._request_ids)
        timestamp = self.clock.now()
        if modules is not None:
            self.attribution.record(
                attribute_cold_start(
                    function=name,
                    request_id=f"req-{request_num:06d}",
                    timestamp=timestamp,
                    pricing=self.pricing,
                    memory_config_mb=clamped,
                    modules=modules,
                    billed_init_s=billed_init_s,
                    restore_s=restore_s,
                    exec_s=exec_s,
                    billed_duration_s=billed_s,
                    cost_usd=cost,
                    include_exec=include_exec,
                )
            )
        # Same addition order as InvocationRecord.e2e_s.
        e2e = self.routing_s + instance_init_s + transmission_s + billed_init_s
        e2e = e2e + restore_s + exec_s
        return (
            request_num, start, status, timestamp, value, value_key,
            instance_id, instance_init_s, transmission_s, billed_init_s,
            restore_s, exec_s, billed_s, clamped, peak, cost, error_type, e2e,
            arrival,
        )  # fmt: skip

    def _kill_instance(self, function: DeployedFunction, instance: Any) -> None:
        """Discard one instance, real or simulated (OOM kill or crash): it
        never serves again."""
        instance.shutdown()
        if instance in function.instances:
            function.instances.remove(instance)
        if self.hosts is not None:
            self.hosts.release(instance.instance_id)

    def deploy_with_fallback(
        self,
        trimmed: AppBundle,
        original: AppBundle,
        *,
        name: str | None = None,
    ):
        """Deploy a debloated bundle with its safety net (Section 5.4).

        The original function is deployed as an independent instance
        (``<name>--fallback``); the returned
        :class:`~repro.core.fallback.FallbackWrapper` invokes the trimmed
        function and, on an AttributeError-class failure, re-invokes the
        original and reports the failing input.
        """
        from repro.core.fallback import FallbackWrapper

        primary_name = name if name is not None else trimmed.name
        fallback_name = f"{primary_name}--fallback"
        self.deploy(trimmed, name=primary_name)
        self.deploy(original, name=fallback_name)
        return FallbackWrapper(
            primary=lambda event, context: self.invoke(primary_name, event, context),
            original=lambda event, context: self.invoke(fallback_name, event, context),
        )

    def deploy_managed(
        self,
        trimmed: AppBundle,
        original: AppBundle,
        *,
        name: str | None = None,
        breaker=None,
        memory_mb: int | None = None,
        timeout_s: float | None = None,
    ):
        """Deploy a debloated bundle behind a self-healing manager.

        Like :meth:`deploy_with_fallback`, but returns a
        :class:`~repro.core.fallback.FallbackManager`: trigger errors are
        served by the original *and* counted against a sliding-window
        circuit breaker that un-trims the primary once they pile up.
        """
        from repro.core.fallback import FallbackManager

        primary_name = name if name is not None else trimmed.name
        fallback_name = f"{primary_name}--fallback"
        self.deploy(
            trimmed, name=primary_name, memory_mb=memory_mb, timeout_s=timeout_s
        )
        self.deploy(original, name=fallback_name)
        return FallbackManager(
            self, primary_name, fallback_name, original, breaker=breaker
        )

    # -- SnapStart accounting ----------------------------------------------------

    def settle_snapstart_cache(self, name: str) -> float:
        """Charge cache storage from enablement (or last settle) to now."""
        function = self.function(name)
        if not function.snapstart or function.snapshot is None:
            return 0.0
        duration = self.clock.now() - function.snapstart_enabled_at
        cost = self.snapstart_pricing.cache_cost(function.snapshot.size_mb, duration)
        self.ledger.charge_snapstart_cache(name, cost)
        function.snapstart_enabled_at = self.clock.now()
        return cost
