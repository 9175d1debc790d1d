"""Function instances and the warm pools that serve them again."""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Iterator

from repro.bundle import AppBundle
from repro.core.execution import InvocationOutput, LoadedApp
from repro.errors import InvocationError
from repro.platform.checkpoint import SerialCounter
from repro.vm import aggregate_charges

__all__ = ["FunctionInstance", "WarmPool"]


class FunctionInstance:
    """One VM/container running one copy of a function.

    Wraps a :class:`LoadedApp` with the lifecycle metadata the emulator
    needs: creation time, invocation count, liveness, and host placement.
    It implements the instance protocol of the emulator's serve step
    (:meth:`~repro.platform.emulator.LambdaEmulator._serve`) by really
    importing and running the application; the fast engine's tape
    instances implement the same protocol from captured charge tapes.
    When it may serve again is not its own state: the :class:`WarmPool`
    that holds it decides, so keep-alive follows one rule everywhere.

    Instance ids are numbered per function (``{function}-i00001``, …) via
    the ``sequence`` counter the owning :class:`DeployedFunction` passes
    in.  A per-function sequence — rather than a process-global one —
    makes ids a pure function of that function's arrival history, which
    is what lets sharded fleet replays produce byte-identical logs no
    matter how functions are scheduled across worker processes.
    """

    __slots__ = (
        "instance_id",
        "function",
        "app",
        "created_at",
        "invocations",
        "alive",
        "host_id",
    )

    def __init__(
        self,
        function: str,
        bundle: AppBundle,
        created_at: float,
        sequence: itertools.count | None = None,
    ):
        if sequence is None:
            sequence = itertools.count(1)
        self.instance_id = f"{function}-i{next(sequence):05d}"
        self.function = function
        self.app = LoadedApp(bundle)
        self.created_at = created_at
        self.invocations = 0
        # Cleared on shutdown.  ``app.loaded`` alone cannot tell a killed
        # instance apart (close() keeps init metrics readable), so pools
        # that hold direct references check this flag instead.
        self.alive = True
        # Set by HostPool.bind when a host layer is active; None means
        # the instance runs on the legacy unconstrained substrate.
        self.host_id: str | None = None

    def initialize(self) -> float:
        """Run Function Initialization; returns the billed init duration."""
        self.app.load()
        if self.app.init_error is not None:
            raise InvocationError(
                f"{self.function} failed to initialize: {self.app.init_error}"
            )
        return self.app.init_time_s

    @property
    def init_time_s(self) -> float:
        return self.app.init_time_s

    @property
    def init_memory_mb(self) -> float:
        return self.app.init_memory_mb

    @property
    def peak_memory_mb(self) -> float:
        return self.app.peak_memory_mb

    def init_charges(self) -> list:
        """The init phase's charges aggregated per module, for dollar
        attribution; read before the first run appends exec charges."""
        return aggregate_charges(self.app.meter.events)

    def invoke(self, event, context) -> InvocationOutput:
        output = self.app.invoke(event, context)
        self.invocations += 1
        return output

    def run(self, event, context) -> tuple[float, Any, Any, str | None]:
        """Serve one request: ``(exec_s, value, value_key, error_type)``.

        The value key is left to the log, which derives it from the value.
        """
        output = self.invoke(event, context)
        return output.exec_time_s, output.value, None, output.error_type

    def shutdown(self) -> None:
        self.alive = False
        self.app.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInstance({self.instance_id}, used {self.invocations}x)"


class WarmPool:
    """One function's warm instances, and the one keep-alive rule.

    Every warm start is served from a pool that belongs to exactly one
    caller: each :class:`~repro.platform.emulator.DeployedFunction` owns
    one for direct invokes, and each replay call builds its own.  A pool
    keeps a heap of ``(busy_until, seq, instance)`` for in-flight
    instances and a LIFO stack of ``(freed_at, instance)`` for idle ones,
    in the caller's time: the virtual clock for direct invokes, trace time
    for replays, whose requests overlap while the emulator serves them one
    at a time.  An instance idle for more than the keep-alive since its
    last request completed has expired.  Arrivals are non-decreasing and
    every instance with ``busy_until <= arrival`` moves to the idle stack
    at each acquire, so the stack is monotone in ``freed_at``: the top is
    the most recently used instance, and a stale top means everything
    beneath it is stale too.  Acquire and expiry are therefore
    O(log instances) instead of a per-arrival scan over the instance list.

    Members are anything with ``instance_id`` and ``alive``: real
    :class:`FunctionInstance` objects in the reference engine and for
    direct invokes, simulated meters in the kernel.  A reference replay's
    pool adopts the function's alive instances on its first acquire; the
    other pools adopt nothing.  The kernel's columnar loop inlines
    :meth:`acquire` and :meth:`release` on ``busy``/``idle``, because
    its warm hit is its whole speed: calling the methods gives the same
    bytes, but a 100k-arrival one-function columnar replay took 145-163
    ms instead of 136-137 ms (best of 7, 2-vCPU VM), and a 200k-arrival
    fleet replay fell from 85.1k to 82.2k median arrivals per second.
    ``tests/platform/test_serve_model.py`` checks the inlined copy
    against an independent model.
    """

    __slots__ = ("busy", "idle", "seq", "adopted")

    def __init__(self) -> None:
        self.busy: list[tuple[float, int, Any]] = []
        self.idle: list[tuple[float, Any]] = []
        self.seq = SerialCounter()
        #: Set once the instances that predate the pool were adopted.
        self.adopted = False

    def acquire(
        self,
        instances: list,
        arrival: float,
        keep_alive_s: float,
        hosts: Any = None,
    ) -> Any:
        """Pop a warm instance free at *arrival*, or None (cold start).

        MRU order: the most recently freed instance serves first, which
        both matches container-reuse behaviour and lets one stale stack
        top expire the whole stack at once.  On the first call, the alive
        *instances* of the function join the stack as idle-as-of-now.
        """
        idle = self.idle
        if not self.adopted:
            self.adopted = True
            for existing in instances:
                if existing.alive:
                    idle.append((arrival, existing))
        busy = self.busy
        # Everything that completed by this arrival becomes idle; heap
        # order makes the pushes monotone in freed-at.
        while busy and busy[0][0] <= arrival:
            freed_at, _, freed = heapq.heappop(busy)
            idle.append((freed_at, freed))
        while idle:
            freed_at, candidate = idle[-1]
            if arrival - freed_at > keep_alive_s:
                # The freshest idle instance has already expired, so every
                # older one beneath it has too: drop the whole stack.  With
                # a host pool attached, expiry actually frees host memory:
                # pool-placed instances are shut down and their slots
                # released (retire guards ``alive``, so an instance the
                # pool already evicted is never double-killed).
                if hosts is not None:
                    for _, stale in idle:
                        hosts.retire(stale.instance_id)
                idle.clear()
                return None
            idle.pop()
            if candidate.alive:  # else killed or un-trimmed: discard
                return candidate
        return None

    def release(self, instance: Any, until: float, hosts: Any = None) -> None:
        """*instance* served a request and is busy until *until*."""
        heapq.heappush(self.busy, (until, next(self.seq), instance))
        if hosts is not None:
            hosts.record_use(instance.instance_id, until)

    def members(self) -> Iterator[Any]:
        """Every instance in the pool: busy ones in heap order, then idle."""
        for _, _, instance in self.busy:
            yield instance
        for _, instance in self.idle:
            yield instance

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe pool state; members are named by instance id."""
        return {
            "busy": [[until, seq, inst.instance_id] for until, seq, inst in self.busy],
            "idle": [[freed_at, inst.instance_id] for freed_at, inst in self.idle],
            "seq": self.seq.value,
            "adopted": self.adopted,
        }

    def restore(self, state: dict, by_id: dict[str, Any]) -> None:
        """Adopt a :meth:`snapshot`, re-binding ids through *by_id*."""
        self.seq.value = int(state["seq"])
        self.busy = [
            (float(until), int(seq), by_id[iid]) for until, seq, iid in state["busy"]
        ]
        heapq.heapify(self.busy)
        self.idle = [(float(freed_at), by_id[iid]) for freed_at, iid in state["idle"]]
        self.adopted = bool(state["adopted"])
