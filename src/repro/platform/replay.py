"""Trace replay on the emulator: bursty arrivals against real instances.

The analytic :class:`~repro.traces.simulator.TraceSimulator` prices traces
without executing anything.  :class:`TraceReplayer` instead replays an
arrival sequence against the *real* emulator — every invocation actually
imports and runs the application — so bursty workloads exercise true
instance semantics: a request arriving while all warm instances are busy
spills onto a new instance and pays a full cold start (Section 2.1's
"part of a burst that exceeds the capacity of the currently deployed
instances").

Requests overlap in trace time, but the emulator executes them one at a
time; the replayer therefore keeps its own trace-time bookkeeping (per-
instance busy-until and last-served times) instead of the global virtual
clock, which only ever moves forward.

The replayer is also the client in the failure model: with a
:class:`~repro.platform.retry.RetryPolicy` it re-drives attempts whose
status is transient (backoff scheduled on the same trace timeline, via a
heap of pending attempts), dead-letters requests that exhaust their
attempts, and — given a :class:`~repro.core.fallback.FallbackManager` —
serves trigger errors from the original function while feeding the
manager's circuit breaker.  Every arrival ends as exactly one replayed
request or one dead letter: nothing is silently lost.

This module is the *reference semantics* the fast engine is judged
against: :class:`~repro.platform.kernel.KernelReplayer` (template
capture, synthesis, bulk emission) must be byte-identical to a
:class:`TraceReplayer` run in every export, and the parity suite in
``tests/platform/test_kernel.py`` holds it to that.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from repro.core.fallback import SETUP_OVERHEAD_S, FallbackManager
from repro.errors import CheckpointError, PlatformError
from repro.obs import get_recorder
from repro.platform.checkpoint import (
    ReplayCheckpoint,
    SerialCounter,
    restore_platform_state,
    snapshot_platform_state,
)
from repro.platform.emulator import DeployedFunction, LambdaEmulator
from repro.platform.instance import FunctionInstance
from repro.platform.logs import InvocationRecord, StartType
from repro.platform.retry import DeadLetter, RetryPolicy

__all__ = ["ReplayResult", "ReplayedRequest", "TraceReplayer"]


@dataclass(frozen=True, slots=True)
class ReplayedRequest:
    """One arrival's outcome in trace time."""

    arrival: float
    completion: float
    record: InvocationRecord
    #: Which attempt (1-based) produced the final record.
    attempt: int = 1
    #: Whether the final record came from the fallback function.
    used_fallback: bool = False

    @property
    def is_cold(self) -> bool:
        return self.record.is_cold

    @property
    def e2e_s(self) -> float:
        return self.completion - self.arrival


@dataclass
class ReplayResult:
    """Outcome of replaying one arrival sequence."""

    requests: list[ReplayedRequest] = field(default_factory=list)
    dead_letters: list[DeadLetter] = field(default_factory=list)
    #: How many arrivals the replay was asked to drive.
    arrivals: int = 0
    #: Total attempts served, including retries and fallback invocations.
    attempts: int = 0
    retries: int = 0
    throttled: int = 0
    fallbacks: int = 0
    #: Attempts re-served after a crash-resume because they fell past the
    #: last checkpoint's durable watermark (0 on uninterrupted runs).
    reexecuted: int = 0

    @property
    def cold_starts(self) -> int:
        return sum(1 for r in self.requests if r.is_cold)

    @property
    def warm_starts(self) -> int:
        return sum(1 for r in self.requests if r.record.start_type is StartType.WARM)

    @property
    def delivered(self) -> int:
        """Requests whose final record succeeded."""
        return sum(1 for r in self.requests if r.record.ok)

    @property
    def lost(self) -> int:
        """Arrivals with neither a final outcome nor a dead letter.

        Always zero by construction; exposed so chaos runs can assert it.
        """
        return self.arrivals - len(self.requests) - len(self.dead_letters)

    @property
    def total_cost(self) -> float:
        return sum(r.record.cost_usd for r in self.requests)

    @property
    def peak_concurrency(self) -> int:
        """Maximum number of simultaneously in-flight requests."""
        edges: list[tuple[float, int]] = []
        for request in self.requests:
            edges.append((request.arrival, 1))
            edges.append((request.completion, -1))
        edges.sort()
        peak = current = 0
        for _, delta in edges:
            current += delta
            peak = max(peak, current)
        return peak


class TraceReplayer:
    """Replays timestamped arrivals against a deployed function."""

    def __init__(self, emulator: LambdaEmulator):
        self.emulator = emulator
        # Trace-time warm-pool bookkeeping, independent of the global
        # virtual clock.  Per function: a heap of (busy-until, seq,
        # instance) for in-flight instances and a LIFO stack of
        # (freed-at, instance) for idle ones.  Arrivals are non-decreasing
        # and every instance with busy-until <= arrival is moved to the
        # idle stack at each acquire, so the stack is monotone in freed-at
        # — the top is the most recently used instance, and a stale top
        # means everything beneath it is stale too.  Acquire and expiry
        # are therefore O(log instances) instead of a per-arrival linear
        # scan over the instance list.
        self._busy: dict[str, list[tuple[float, int, FunctionInstance]]] = {}
        self._idle: dict[str, list[tuple[float, FunctionInstance]]] = {}
        self._seq = SerialCounter()

    def replay(
        self,
        function_name: str,
        arrivals: list[float],
        event: Any,
        context: Any = None,
        *,
        retry: RetryPolicy | None = None,
        fallback: FallbackManager | None = None,
        checkpoint: ReplayCheckpoint | None = None,
        resume_state: dict | None = None,
    ) -> ReplayResult:
        """Drive *arrivals* through the function, absorbing failures.

        With a *retry* policy, attempts whose status the policy marks
        retryable are re-scheduled at ``completion + backoff`` on the
        trace timeline; a request that fails its final allowed attempt is
        captured as a :class:`~repro.platform.retry.DeadLetter`.  With a
        *fallback* manager (for this function), trigger errors are served
        by the original function and counted against the manager's
        breaker — which may un-trim the primary mid-replay.

        With a *checkpoint*, the full replay state (platform, warm pool,
        retry timeline, accumulated result) is snapshotted every
        ``checkpoint.every`` served attempts; passing a loaded snapshot
        back as *resume_state* continues exactly where the snapshot was
        taken, byte-identical to an uninterrupted run.  Checkpointing
        assumes this replayer serves exactly one function per replayer
        (the fleet layout) and does not compose with *fallback* — breaker
        state is not snapshotted.
        """
        # Linear monotonicity scan — sorting a million-arrival copy just
        # to compare it costs more than the check is worth.
        previous = float("-inf")
        for arrival_time in arrivals:
            if arrival_time < previous:
                raise PlatformError("arrivals must be sorted")
            previous = arrival_time
        function = self.emulator.function(function_name)
        fallback_function: DeployedFunction | None = None
        if fallback is not None:
            if fallback.emulator is not self.emulator:
                raise PlatformError("fallback manager is bound to a different emulator")
            fallback_function = self.emulator.function(fallback.fallback)
        session = retry.session() if retry is not None else None
        recorder = get_recorder()

        if (checkpoint is not None or resume_state is not None) and (
            fallback is not None
        ):
            raise CheckpointError(
                "checkpointed replay does not compose with fallback managers"
            )

        result = ReplayResult(arrivals=len(arrivals))
        start_index = 0
        heap: list[tuple[float, int, int]] | None = None
        failed_attempts: dict[int, list[InvocationRecord]] = {}
        if resume_state is not None:
            start_index, heap, failed_attempts = self._restore_state(
                function, arrivals, session, result, resume_state
            )

        with recorder.span(
            "replay.run", label=function_name, arrivals=len(arrivals)
        ) as span:
            if session is None and fallback is None:
                # No retry timeline and no fallback detours: every arrival
                # is exactly one attempt served in order, so skip the
                # pending-attempt heap entirely.
                serve = self._serve_attempt
                requests_append = result.requests.append
                for index in range(start_index, len(arrivals)):
                    arrival = arrivals[index]
                    record, completion = serve(function, arrival, event, context)
                    result.attempts += 1
                    if not record.billed:
                        result.throttled += 1
                    requests_append(
                        ReplayedRequest(
                            arrival=arrival,
                            completion=completion,
                            record=record,
                        )
                    )
                    if checkpoint is not None and checkpoint.tick():
                        checkpoint.write(
                            self._snapshot_state(
                                function, result, None, index + 1, None, None
                            )
                        )
                return self._finish(result, recorder, span)

            if heap is None:
                # (time, seq, attempt): initial arrivals plus retry
                # re-drives.  Re-drives always land after the attempt that
                # spawned them, so pops come out in non-decreasing time
                # order and the warm-instance bookkeeping stays valid.
                heap = [(t, seq, 1) for seq, t in enumerate(arrivals)]
                heapq.heapify(heap)

            while heap:
                t, seq, attempt = heapq.heappop(heap)
                arrival = arrivals[seq]
                record, completion = self._serve_attempt(function, t, event, context)
                result.attempts += 1
                if not record.billed:
                    result.throttled += 1

                if (
                    fallback is not None
                    and fallback.primary == function_name
                    and fallback.is_trigger(record)
                ):
                    # The trimmed bundle is missing code this input needs:
                    # pay the wrapper detour, serve the original, feed the
                    # breaker (which may un-trim the primary for everyone).
                    fallback.record_trigger(t)
                    fb_record, fb_completion = self._serve_attempt(
                        fallback_function,
                        completion + SETUP_OVERHEAD_S,
                        event,
                        context,
                    )
                    if fb_record.ok:
                        fallback.recovered += 1
                    result.attempts += 1
                    result.fallbacks += 1
                    failed_attempts.pop(seq, None)
                    result.requests.append(
                        ReplayedRequest(
                            arrival=arrival,
                            completion=fb_completion,
                            record=fb_record,
                            attempt=attempt,
                            used_fallback=True,
                        )
                    )
                elif record.ok or session is None:
                    failed_attempts.pop(seq, None)
                    result.requests.append(
                        ReplayedRequest(
                            arrival=arrival,
                            completion=completion,
                            record=record,
                            attempt=attempt,
                        )
                    )
                else:
                    history = failed_attempts.setdefault(seq, [])
                    history.append(record)
                    if session.should_retry(record, attempt):
                        delay = session.next_delay_s(attempt)
                        heapq.heappush(heap, (completion + delay, seq, attempt + 1))
                        result.retries += 1
                    else:
                        failed_attempts.pop(seq, None)
                        result.dead_letters.append(
                            DeadLetter(
                                function=function_name,
                                arrival=arrival,
                                attempts=tuple(history),
                            )
                        )

                if checkpoint is not None and checkpoint.tick():
                    checkpoint.write(
                        self._snapshot_state(
                            function, result, session, None, heap, failed_attempts
                        )
                    )

            return self._finish(result, recorder, span)

    # -- checkpointing -----------------------------------------------------

    def _snapshot_state(
        self,
        function: DeployedFunction,
        result: ReplayResult,
        session,
        cursor: int | None,
        heap: list[tuple[float, int, int]] | None,
        failed_attempts: dict[int, list[InvocationRecord]] | None,
    ) -> dict:
        """Everything needed to resume this replay, as one JSON-safe dict.

        Taken at a loop boundary: no attempt is in flight, the emulator's
        pending-cold stash is consumed, and the log's spill offset marks
        exactly the rows already durable.
        """
        name = function.name
        busy = self._busy.get(name, [])
        idle = self._idle.get(name, [])
        instances = []
        seen: set[str] = set()
        # Owned instances first (list order is behaviour: the cold-start
        # recovery check reads ``function.instances[-1]``), then any pool
        # entry that was already dropped from the owner list but still
        # sits in the busy heap / idle stack awaiting lazy discard.
        for inst in function.instances:
            seen.add(inst.instance_id)
            instances.append(self._instance_state(inst, owned=True))
        for _, _, inst in busy:
            if inst.instance_id not in seen:
                seen.add(inst.instance_id)
                instances.append(self._instance_state(inst, owned=False))
        for _, inst in idle:
            if inst.instance_id not in seen:
                seen.add(inst.instance_id)
                instances.append(self._instance_state(inst, owned=False))
        hosts = self.emulator.hosts
        return {
            "engine": "reference",
            "function": name,
            "arrivals": result.arrivals,
            "mode": "fast" if session is None else "retry",
            "cursor": cursor,
            "heap": [[t, seq, attempt] for t, seq, attempt in heap]
            if heap is not None
            else None,
            "failed": {
                str(seq): [record.to_dict() for record in records]
                for seq, records in failed_attempts.items()
            }
            if failed_attempts is not None
            else None,
            "session": session.snapshot() if session is not None else None,
            "platform": snapshot_platform_state(self.emulator, function),
            "hosts": hosts.snapshot() if hosts is not None else None,
            "instances": instances,
            "pool": {
                "busy": [[until, seq, inst.instance_id] for until, seq, inst in busy],
                "idle": [[freed_at, inst.instance_id] for freed_at, inst in idle],
                "seq": self._seq.value,
                "adopted": name in self._idle,
            },
            "result": {
                "attempts": result.attempts,
                "retries": result.retries,
                "throttled": result.throttled,
                "fallbacks": result.fallbacks,
                "requests": [
                    [r.arrival, r.completion, r.attempt, r.record.to_dict()]
                    for r in result.requests
                ],
                "dead_letters": [dl.to_dict() for dl in result.dead_letters],
            },
        }

    @staticmethod
    def _instance_state(instance: FunctionInstance, *, owned: bool) -> dict:
        app = instance.app
        meter = app.meter
        return {
            "instance_id": instance.instance_id,
            "owned": owned,
            "created_at": instance.created_at,
            "last_used_at": instance.last_used_at,
            "invocations": instance.invocations,
            "alive": instance.alive,
            "host_id": instance.host_id,
            "meter": {
                "time_s": meter._time_s,
                "live_mb": meter.ledger._live_mb,
                "peak_mb": meter.ledger._peak_mb,
                "allocations": dict(meter.ledger._allocations),
                "init_time_s": app.init_time_s,
                "init_memory_mb": app.init_memory_mb,
            }
            if instance.alive
            else None,
        }

    def _restore_state(
        self,
        function: DeployedFunction,
        arrivals: list[float],
        session,
        result: ReplayResult,
        state: dict,
    ) -> tuple[int, list[tuple[float, int, int]] | None, dict]:
        """Adopt a :meth:`_snapshot_state` dict; returns the loop cursor."""
        if state.get("engine") != "reference":
            raise CheckpointError(
                f"checkpoint was written by the {state.get('engine')!r} engine; "
                "cannot resume with the reference TraceReplayer"
            )
        if state.get("function") != function.name:
            raise CheckpointError(
                f"checkpoint is for {state.get('function')!r}, "
                f"not {function.name!r}"
            )
        if state.get("arrivals") != len(arrivals):
            raise CheckpointError(
                f"checkpoint covers {state.get('arrivals')} arrivals but the "
                f"trace has {len(arrivals)}: trace changed since the snapshot"
            )
        mode = "fast" if session is None else "retry"
        if state.get("mode") != mode:
            raise CheckpointError(
                "retry configuration changed since the checkpoint was written"
            )
        emulator = self.emulator
        result.reexecuted = restore_platform_state(
            emulator, function, state["platform"]
        )

        by_id: dict[str, FunctionInstance] = {}
        owners: dict[str, list | None] = {}
        function.instances.clear()
        for item in state["instances"]:
            instance = self._instance_from_state(function, item)
            by_id[instance.instance_id] = instance
            if item["owned"]:
                function.instances.append(instance)
                owners[instance.instance_id] = function.instances
            else:
                owners[instance.instance_id] = None

        hosts = emulator.hosts
        if hosts is not None:
            if state["hosts"] is None:
                raise CheckpointError(
                    "checkpoint has no host-pool state but a host pool is "
                    "configured"
                )
            hosts.restore(state["hosts"], by_id, owners)
        elif state["hosts"] is not None:
            raise CheckpointError(
                "checkpoint carries host-pool state but no host pool is "
                "configured"
            )

        pool = state["pool"]
        name = function.name
        self._seq.value = int(pool["seq"])
        busy = [
            (float(until), int(seq), by_id[iid]) for until, seq, iid in pool["busy"]
        ]
        heapq.heapify(busy)
        self._busy[name] = busy
        if pool["adopted"]:
            # Pre-seeding the idle stack (even empty) suppresses the lazy
            # re-adoption of ``function.instances`` in _acquire_warm.
            self._idle[name] = [
                (float(freed_at), by_id[iid]) for freed_at, iid in pool["idle"]
            ]

        res = state["result"]
        result.attempts = int(res["attempts"])
        result.retries = int(res["retries"])
        result.throttled = int(res["throttled"])
        result.fallbacks = int(res["fallbacks"])
        result.requests = [
            ReplayedRequest(
                arrival=float(arrival),
                completion=float(completion),
                record=InvocationRecord.from_dict(record),
                attempt=int(attempt),
            )
            for arrival, completion, attempt, record in res["requests"]
        ]
        result.dead_letters = [
            DeadLetter(
                function=item["function"],
                arrival=float(item["arrival"]),
                attempts=tuple(
                    InvocationRecord.from_dict(record)
                    for record in item["attempts"]
                ),
            )
            for item in res["dead_letters"]
        ]

        if session is not None:
            session.restore(state["session"])
        failed = {
            int(seq): [InvocationRecord.from_dict(record) for record in records]
            for seq, records in (state["failed"] or {}).items()
        }
        start_index = int(state["cursor"]) if state["cursor"] is not None else 0
        heap = None
        if state["heap"] is not None:
            heap = [(float(t), int(s), int(a)) for t, s, a in state["heap"]]
            heapq.heapify(heap)
        return start_index, heap, failed

    def _instance_from_state(
        self, function: DeployedFunction, item: dict
    ) -> FunctionInstance:
        """Rebuild one warm (or lazily-discarded dead) instance.

        Alive instances re-run Function Initialization for real — handlers
        are assumed stateless across invocations, the repo-wide serverless
        contract — and then have their metered state pinned back to the
        snapshot so every subsequent charge continues bit-exactly.  Dead
        instances (awaiting lazy discard in the pool) skip the re-init.
        """
        instance = FunctionInstance(
            function.name, function.bundle, float(item["created_at"])
        )
        instance.instance_id = item["instance_id"]
        instance.last_used_at = float(item["last_used_at"])
        instance.invocations = int(item["invocations"])
        instance.host_id = item["host_id"]
        if item["alive"]:
            instance.app.load()
            if instance.app.init_error is not None:
                raise CheckpointError(
                    f"{instance.instance_id}: re-initialization failed on "
                    f"resume: {instance.app.init_error}"
                )
            meter_state = item["meter"]
            meter = instance.app.meter
            meter._time_s = float(meter_state["time_s"])
            meter.ledger._allocations = {
                label: float(mb)
                for label, mb in meter_state["allocations"].items()
            }
            meter.ledger._live_mb = float(meter_state["live_mb"])
            meter.ledger._peak_mb = float(meter_state["peak_mb"])
            instance.app._init_time_s = float(meter_state["init_time_s"])
            instance.app._init_memory_mb = float(meter_state["init_memory_mb"])
        else:
            instance.alive = False
        return instance

    def _finish(self, result: ReplayResult, recorder, span) -> ReplayResult:
        """Publish run-level counters once a replay's serving loop is done."""
        # Publish emulator counters batched on the disabled-recorder
        # fast path before reporting the replay's own aggregates.
        self.emulator.flush_obs()
        recorder.counter_add("replay.requests", len(result.requests))
        recorder.counter_add("replay.cold_starts", result.cold_starts)
        recorder.counter_add("replay.warm_starts", result.warm_starts)
        recorder.counter_add("replay.cost_usd", result.total_cost)
        recorder.gauge_max("replay.peak_concurrency", result.peak_concurrency)
        if result.retries:
            recorder.counter_add("replay.retries", result.retries)
        if result.throttled:
            recorder.counter_add("replay.throttled", result.throttled)
        if result.fallbacks:
            recorder.counter_add("replay.fallbacks", result.fallbacks)
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

    def _serve_attempt(
        self,
        function: DeployedFunction,
        arrival: float,
        event: Any,
        context: Any,
    ) -> tuple[InvocationRecord, float]:
        """Serve one attempt at trace time *arrival*; log/bill/observe it."""
        emulator = self.emulator
        hosts = emulator.hosts
        if hosts is not None:
            # Fire host faults due by this arrival before any serving
            # decision — identical ordering in the kernel replayer keeps
            # the engines byte-for-byte interchangeable.
            hosts.advance(arrival)
        instance: FunctionInstance | None = None
        if emulator.faults is not None and emulator.faults.throttled(
            function.name, arrival
        ):
            record = emulator._throttle_record(function)
        else:
            instance = self._acquire_warm(function, arrival)
            if instance is not None:
                record = self._serve_warm(function, instance, event, context, arrival)
            else:
                placement = (
                    hosts.admit(function.name, arrival, memory_mb=function.memory_mb)
                    if hosts is not None
                    else None
                )
                if hosts is not None and placement is None:
                    # No host can take a new instance and nothing idle is
                    # left to evict: the request bounces as a (retryable,
                    # unbilled) capacity throttle.
                    record = emulator._throttle_record(
                        function, error="CapacityExhausted"
                    )
                else:
                    record = emulator._cold_start(
                        function, event, context, arrival=arrival, placement=placement
                    )
                    # Recover the instance the cold start created (it is the
                    # newest in the list) — unless it crashed before joining.
                    if (
                        function.instances
                        and function.instances[-1].instance_id == record.instance_id
                    ):
                        instance = function.instances[-1]
        # Trace-time accounting, not the forward-only virtual clock:
        # windows and concurrency follow the arrivals.  Replay does not
        # re-emit per-record obs counters (it reports in aggregate).
        emulator._record_invocation(record, arrival=arrival, emit_obs=False)
        completion = arrival + record.e2e_s
        if hosts is not None and instance is not None:
            # True the reservation up to the measured peak (may evict idle
            # neighbours under pressure) and remember the footprint for
            # future placements of this function.
            hosts.adjust(instance.instance_id, record.peak_memory_mb, arrival)
            hosts.observe_footprint(function.name, record.peak_memory_mb)
        if instance is not None and instance.alive:
            # Still alive after serving (not OOM-killed / crashed): it is
            # busy until this request's trace-time completion.
            heapq.heappush(
                self._busy.setdefault(function.name, []),
                (completion, next(self._seq), instance),
            )
            if hosts is not None:
                hosts.record_use(instance.instance_id, completion)
        return record, completion

    def _acquire_warm(
        self, function: DeployedFunction, arrival: float
    ) -> FunctionInstance | None:
        """Pop a warm instance free at *arrival*, or None (cold start).

        MRU order: the most recently freed instance serves first, which
        both matches container-reuse behaviour and lets one stale stack
        top expire the whole stack at once.
        """
        name = function.name
        idle = self._idle.get(name)
        if idle is None:
            idle = self._idle[name] = []
            # Adopt instances that predate this replayer (e.g. warmed by
            # direct invokes) as idle-as-of-now.
            for existing in function.instances:
                if existing.alive:
                    idle.append((arrival, existing))
        busy = self._busy.get(name)
        if busy:
            # Everything that completed by this arrival becomes idle; heap
            # order makes the pushes monotone in freed-at.
            while busy and busy[0][0] <= arrival:
                freed_at, _, freed = heapq.heappop(busy)
                idle.append((freed_at, freed))
        keep_alive = self.emulator.keep_alive_s
        while idle:
            freed_at, candidate = idle[-1]
            if arrival - freed_at > keep_alive:
                # The freshest idle instance has already expired, so every
                # older one beneath it has too: drop the whole stack.  With
                # a host pool attached, expiry actually frees host memory:
                # pool-placed instances are shut down and their slots
                # released (retire guards ``alive``, so an instance the
                # pool already evicted is never double-killed).
                hosts = self.emulator.hosts
                if hosts is not None:
                    for _, stale in idle:
                        hosts.retire(stale.instance_id)
                idle.clear()
                return None
            idle.pop()
            if candidate.alive:  # else killed or un-trimmed: discard
                return candidate
        return None

    def _serve_warm(
        self,
        function: DeployedFunction,
        instance: FunctionInstance,
        event: Any,
        context: Any,
        arrival: float | None = None,
    ) -> InvocationRecord:
        # Float zeros: warm records must carry the same field types as
        # cold ones, or exports that serialize the record object directly
        # (dead letters) differ byte-wise from the kernel engine's.
        return self.emulator._run(
            function,
            instance,
            event,
            context,
            StartType.WARM,
            0.0,
            0.0,
            0.0,
            0.0,
            arrival=arrival,
        )
