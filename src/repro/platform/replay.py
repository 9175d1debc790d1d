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
time; each :meth:`TraceReplayer.replay` call therefore builds its own
trace-time :class:`~repro.platform.instance.WarmPool` (per-instance
busy-until and freed-at times) instead of the function's direct-invoke
pool, which follows the forward-only virtual clock.  The function's pool
adopts its alive instances on the first acquire, so a replay after
direct invokes (or after an earlier replay) starts warm; a function
holding the kernel's simulated instances is refused.  Each attempt goes
through the emulator's one serve step,
:meth:`~repro.platform.emulator.LambdaEmulator._serve`, which returns a
row; the replay keeps a record of each request and emits the rows to
the log, bill and telemetry sink in bulk.

Every replay walks its trace through one
:class:`~repro.platform.retry.RetryTimeline`: a cursor over the sorted
arrivals merged with a heap of pending re-drives, yielding attempts in
trace-time order.  The replayer is also the client in the failure
model: with a :class:`~repro.platform.retry.RetryPolicy` it re-drives
attempts whose status is transient (backoff scheduled on the same
timeline), dead-letters requests that exhaust their attempts, and
without one every attempt is final.  Given a
:class:`~repro.core.fallback.FallbackManager`, it serves trigger errors
from the original function while feeding the manager's circuit breaker.
Every arrival ends as exactly one replayed request or one dead letter:
nothing is silently lost.

This module is the *reference semantics* the fast engine is judged
against: :class:`~repro.platform.kernel.KernelReplayer` (template
capture, synthesis, bulk emission) must be byte-identical to a
:class:`TraceReplayer` run in every export, and the parity suite in
``tests/platform/test_kernel.py`` holds it to that.  Both engines serve
every non-columnar attempt through the same step, over the same
:class:`~repro.platform.instance.WarmPool`,
:class:`~repro.platform.retry.RetryTimeline`, bulk emission and
checkpoint functions
(:func:`~repro.platform.checkpoint.snapshot_replay_state`,
:func:`~repro.platform.checkpoint.restore_replay_state`).  They differ
in the instance factory (real instances here, captured charge tapes
there) and in the result: :class:`ReplayResult` keeps each request's
record, for its callers and the fallback detour, while the kernel's
result only counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.core.fallback import SETUP_OVERHEAD_S, FallbackManager
from repro.errors import CheckpointError, PlatformError
from repro.obs import get_recorder
from repro.platform.checkpoint import (
    ReplayCheckpoint,
    restore_replay_state,
    snapshot_replay_state,
)
from repro.platform import kernel
from repro.platform.emulator import ROW_E2E, DeployedFunction, LambdaEmulator
from repro.platform.instance import FunctionInstance, WarmPool
from repro.platform.logs import InvocationRecord, StartType
from repro.platform.retry import (
    DeadLetter,
    RetryPolicy,
    RetryTimeline,
    check_arrivals,
)

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
        return kernel.peak_concurrency(
            [r.arrival for r in self.requests],
            [r.completion for r in self.requests],
        )


class TraceReplayer:
    """Replays timestamped arrivals against a deployed function."""

    def __init__(self, emulator: LambdaEmulator):
        self.emulator = emulator

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
        does not compose with *fallback*: breaker state is not
        snapshotted.

        Each call builds its own trace-time warm pools, one for the
        function and one for the fallback function, and each adopts its
        function's alive instances on the first acquire.  A function that
        holds the kernel's simulated instances is refused before the
        first arrival.
        """
        check_arrivals(arrivals)
        function = self.emulator.function(function_name)
        fallback_function: DeployedFunction | None = None
        if fallback is not None:
            if fallback.emulator is not self.emulator:
                raise PlatformError("fallback manager is bound to a different emulator")
            fallback_function = self.emulator.function(fallback.fallback)
        for deployed in (function, fallback_function):
            if deployed is not None and any(
                instance.alive and not isinstance(instance, FunctionInstance)
                for instance in deployed.instances
            ):
                raise PlatformError(
                    f"reference engine cannot replay {deployed.name!r}: it "
                    "holds live kernel instances"
                )
        recorder = get_recorder()

        if (checkpoint is not None or resume_state is not None) and (
            fallback is not None
        ):
            raise CheckpointError(
                "checkpointed replay does not compose with fallback managers"
            )

        session = retry.session() if retry is not None else None
        timeline = RetryTimeline(function_name, arrivals, session)
        result = ReplayResult(arrivals=len(arrivals))
        pool = WarmPool()
        fallback_pool = WarmPool()
        if resume_state is not None:
            self._restore_state(
                function, arrivals, timeline, pool, result, resume_state
            )

        emulator = self.emulator
        serve = emulator._serve
        emit = emulator._emit_rows
        instances = function.instances
        limit = kernel._CHUNK_ROWS
        # Rows reach the sinks in bulk, as the fast engine's do: when the
        # chunk fills, before each checkpoint and fallback detour, and
        # when the loop ends (by an exception too).  Trace-time arrivals,
        # not the forward-only virtual clock, place each row in its
        # telemetry window.
        chunk: list[tuple] = []
        with recorder.span(
            "replay.run", label=function_name, arrivals=len(arrivals)
        ) as span:
            try:
                for t, seq, attempt in timeline:
                    arrival = arrivals[seq]
                    row = serve(function, pool, t, event, context, instances)
                    chunk.append(row)
                    record = emulator._record(function_name, row)
                    completion = t + row[ROW_E2E]
                    result.attempts += 1
                    if not record.billed:
                        result.throttled += 1

                    if (
                        fallback is not None
                        and fallback.primary == function_name
                        and fallback.is_trigger(record)
                    ):
                        # The trimmed bundle is missing code this input
                        # needs: pay the wrapper detour, serve the original,
                        # feed the breaker (which may un-trim the primary
                        # for everyone).  The detour's row is emitted at
                        # once, so the log stays in serve order.
                        emit(function_name, chunk)
                        chunk.clear()
                        fallback.record_trigger(t)
                        detour = completion + SETUP_OVERHEAD_S
                        fb_row = serve(
                            fallback_function,
                            fallback_pool,
                            detour,
                            event,
                            context,
                            fallback_function.instances,
                        )
                        emit(fallback_function.name, [fb_row])
                        fb_record = emulator._record(fallback_function.name, fb_row)
                        if fb_record.ok:
                            fallback.recovered += 1
                        result.attempts += 1
                        result.fallbacks += 1
                        timeline.settle(seq)
                        result.requests.append(
                            ReplayedRequest(
                                arrival=arrival,
                                completion=detour + fb_row[ROW_E2E],
                                record=fb_record,
                                attempt=attempt,
                                used_fallback=True,
                            )
                        )
                    elif record.ok or session is None:
                        timeline.settle(seq)
                        result.requests.append(
                            ReplayedRequest(
                                arrival=arrival,
                                completion=completion,
                                record=record,
                                attempt=attempt,
                            )
                        )
                    else:
                        letter = timeline.fail(seq, attempt, record, completion)
                        if letter is None:
                            result.retries += 1
                        else:
                            result.dead_letters.append(letter)

                    if len(chunk) >= limit:
                        emit(function_name, chunk)
                        chunk.clear()
                    if checkpoint is not None and checkpoint.tick():
                        emit(function_name, chunk)
                        chunk.clear()
                        checkpoint.write(
                            self._snapshot_state(function, pool, result, timeline)
                        )
            finally:
                emit(function_name, chunk)

            kernel.publish_run(emulator, result, len(result.requests), recorder, span)
            return result

    # -- checkpointing -----------------------------------------------------

    def _snapshot_state(
        self,
        function: DeployedFunction,
        pool: WarmPool,
        result: ReplayResult,
        timeline: RetryTimeline,
    ) -> dict:
        """Everything needed to resume this replay, as one JSON-safe dict."""
        state = snapshot_replay_state(
            "reference",
            self.emulator,
            function,
            arrivals=result.arrivals,
            timeline=timeline,
            pool=pool,
            instance_state=self._instance_state,
        )
        state["result"] = {
            "attempts": result.attempts,
            "retries": result.retries,
            "throttled": result.throttled,
            "fallbacks": result.fallbacks,
            "requests": [
                [r.arrival, r.completion, r.attempt, r.record.to_dict()]
                for r in result.requests
            ],
            "dead_letters": [dl.to_dict() for dl in result.dead_letters],
        }
        return state

    @staticmethod
    def _instance_state(instance: FunctionInstance, owned: bool) -> dict:
        app = instance.app
        meter = app.meter
        return {
            "instance_id": instance.instance_id,
            "owned": owned,
            "created_at": instance.created_at,
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
        timeline: RetryTimeline,
        pool: WarmPool,
        result: ReplayResult,
        state: dict,
    ) -> None:
        """Adopt a :meth:`_snapshot_state` dict."""
        result.reexecuted = restore_replay_state(
            state,
            "reference",
            self.emulator,
            function,
            arrivals=len(arrivals),
            timeline=timeline,
            pool=pool,
            instance_from_state=partial(self._instance_from_state, function),
        )
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
            DeadLetter.from_dict(item) for item in res["dead_letters"]
        ]

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
