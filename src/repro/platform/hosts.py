"""Host failure domains: bin-packed placement, LRU eviction, host loss.

The fleet emulator historically gave every function unlimited instances,
so the only cold-start driver was keep-alive expiry.  Real platforms
bin-pack instances onto memory-constrained hosts, and warm instances die
for reasons the function never caused: the host under them fills up
(memory pressure evicts the least-recently-used warm instance) or
disappears outright (crash, spot reclamation).  That is exactly where
debloating's smaller footprints pay off twice — fewer evictions *and*
cheaper re-initialization — so the host layer makes the λ-trim cost
argument testable under realistic churn.

A :class:`HostPool` owns a fixed set of :class:`Host` slots and places
every pool-managed instance via a pluggable policy (``first-fit``,
``best-fit``, ``spread``).  Reservations start from the function's
configured ``memory_mb`` (the SLAM-style sizing knob) or, failing that,
the largest peak footprint the pool has observed for that function, and
are corrected to the measured peak after every invocation.  When no host
fits, the pool evicts globally-least-recently-used *idle* instances one
at a time until the reservation fits; when nothing idle remains the
request surfaces as a capacity throttle (``THROTTLED`` status with
``error_type="CapacityExhausted"``, unbilled, retryable).

Host faults are declared on the :class:`~repro.platform.faults.FaultPlan`
(:class:`~repro.platform.faults.HostFault`) and resolved to concrete
hosts at pool construction with a pool-owned seeded RNG, so adding host
chaos never perturbs the :class:`~repro.platform.faults.FaultInjector`
RNG stream: a plan's throttle/crash decisions are bit-identical with and
without host faults.  Two kinds exist:

``crash``
    The host dies abruptly at ``at_s``.  Idle residents are lost; an
    invocation *in flight* across the crash instant is truncated at the
    crash (``CRASHED`` record with ``error_type="HostCrash"``, partial
    execution billed) by the emulator's kill ladder, which asks the pool
    for the serving host's static crash time at serve time.

``spot``
    The host receives a reclamation notice at ``at_s`` and drains: warm
    instances are evicted immediately, in-flight invocations finish
    normally (their records are never truncated), and the host accepts
    no further placements.

Everything is deterministic under the virtual clock: placement scans
hosts in id order, LRU order is ``(busy_until, bind_seq)``, and fault
targets are fixed before the first arrival.  The reference
``TraceReplayer`` and the template-synthesizing ``KernelReplayer`` call
the same pool hooks at the same points, so logs, ledgers, and telemetry
stay byte-identical between engines and across worker counts (the fleet
replayer builds one pool per function — see ``docs/robustness.md`` for
the per-shard host-pool caveat).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import ceil, inf
from typing import TYPE_CHECKING, Any

from repro.errors import PlatformError
from repro.platform.checkpoint import SerialCounter
from repro.platform.faults import HostFault

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.platform.telemetry import TelemetrySink

__all__ = ["PLACEMENT_POLICIES", "HostConfig", "Host", "HostPool"]

#: Placement policies the pool understands, in documentation order.
PLACEMENT_POLICIES = ("first-fit", "best-fit", "spread")


@dataclass(frozen=True)
class HostConfig:
    """Shape of a host pool: how many hosts, how big, how to pack.

    ``default_reserve_mb`` seeds a function's reservation before the pool
    has seen a measured footprint (and the function declares no
    ``memory_mb``), mirroring Lambda's 128 MB floor.
    """

    count: int
    memory_mb: float
    placement: str = "first-fit"
    default_reserve_mb: float = 128.0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise PlatformError(f"host count must be >= 1: {self.count}")
        if self.memory_mb <= 0:
            raise PlatformError(f"host memory_mb must be > 0: {self.memory_mb}")
        if self.placement not in PLACEMENT_POLICIES:
            raise PlatformError(
                f"unknown placement policy {self.placement!r}; "
                f"expected one of {', '.join(PLACEMENT_POLICIES)}"
            )
        if self.default_reserve_mb <= 0:
            raise PlatformError(
                f"default_reserve_mb must be > 0: {self.default_reserve_mb}"
            )


class Host:
    """One memory-constrained machine instances are packed onto."""

    __slots__ = ("host_id", "index", "capacity_mb", "used_mb", "alive",
                 "crash_at", "entries")

    def __init__(self, index: int, capacity_mb: float):
        self.host_id = f"host-{index:03d}"
        self.index = index
        self.capacity_mb = capacity_mb
        self.used_mb = 0.0
        self.alive = True
        # Earliest scheduled abrupt crash (``inf`` = never); static from
        # pool construction so in-flight kills are knowable at serve time.
        self.crash_at = inf
        self.entries: dict[str, "_Entry"] = {}

    @property
    def free_mb(self) -> float:
        return self.capacity_mb - self.used_mb

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"Host({self.host_id}, {self.used_mb:.0f}/{self.capacity_mb:.0f}MB, {state})"


class _Entry:
    """Pool-side bookkeeping for one placed instance."""

    __slots__ = ("instance", "function", "host", "reserved_mb", "busy_until",
                 "seq", "owner")

    def __init__(self, instance, function: str, host: Host, reserved_mb: float,
                 busy_until: float, seq: int, owner: list | None):
        self.instance = instance
        self.function = function
        self.host = host
        self.reserved_mb = reserved_mb
        self.busy_until = busy_until
        self.seq = seq
        self.owner = owner


class _Placement:
    """A reservation handed out by :meth:`HostPool.admit`."""

    __slots__ = ("host", "reserved_mb", "function")

    def __init__(self, host: Host, reserved_mb: float, function: str):
        self.host = host
        self.reserved_mb = reserved_mb
        self.function = function


class HostPool:
    """Bin-packs instances onto hosts and executes host faults.

    All mutating methods take the current *trace-time* instant so the
    pool can fire due faults, judge idleness, and window telemetry —
    callers (both replay engines and ``LambdaEmulator.invoke``) pass the
    arrival they are serving, which is non-decreasing.
    """

    def __init__(
        self,
        config: HostConfig,
        *,
        host_faults: tuple[HostFault, ...] = (),
        seed: int = 0,
        telemetry: "TelemetrySink | None" = None,
    ):
        self.config = config
        self.telemetry = telemetry
        self.hosts = [Host(i, config.memory_mb) for i in range(config.count)]
        # Resolve unpinned fault targets *now*, with a pool-owned RNG in
        # declaration order, so host chaos never touches the FaultInjector
        # stream (its decisions stay bit-identical with hosts on or off).
        rng = random.Random(seed)
        schedule: list[tuple[float, str, int]] = []
        for fault in host_faults:
            index = fault.host if fault.host is not None else rng.randrange(config.count)
            if not 0 <= index < config.count:
                raise PlatformError(
                    f"host fault targets host {index} but the pool has "
                    f"{config.count} host(s)"
                )
            schedule.append((fault.at_s, fault.kind, index))
            if fault.kind == "crash" and fault.at_s < self.hosts[index].crash_at:
                self.hosts[index].crash_at = fault.at_s
        schedule.sort(key=lambda item: item[0])  # stable: ties keep declaration order
        self._schedule = schedule
        self._fault_pos = 0
        self._entries: dict[str, _Entry] = {}
        self._footprints: dict[str, float] = {}
        self._seq = SerialCounter()
        self._capacity_mb = config.memory_mb * config.count
        self._used_mb = 0.0
        # Counters surfaced via stats_dict() / the dashboard hosts panel.
        self.placements = 0
        self.evictions = 0
        self.host_crashes = 0
        self.spot_reclaims = 0
        self.instances_lost = 0
        self.capacity_throttles = 0
        self.peak_util = 0.0

    # ------------------------------------------------------------------
    # observability

    def util(self) -> float:
        """Fraction of live capacity currently reserved."""
        if self._capacity_mb <= 0.0:
            return 0.0
        return self._used_mb / self._capacity_mb

    def stats_dict(self) -> dict[str, Any]:
        """JSON-safe counters (stable key order for exports)."""
        return {
            "hosts": self.config.count,
            "memory_mb": self.config.memory_mb,
            "placement": self.config.placement,
            "placements": self.placements,
            "evictions": self.evictions,
            "host_crashes": self.host_crashes,
            "spot_reclaims": self.spot_reclaims,
            "instances_lost": self.instances_lost,
            "capacity_throttles": self.capacity_throttles,
            "peak_util": self.peak_util,
        }

    # ------------------------------------------------------------------
    # checkpointing

    def snapshot(self) -> dict:
        """JSON-safe dynamic pool state for kill-and-resume replay.

        Static structure — host count/capacity, the resolved fault
        schedule, and each host's ``crash_at`` — is re-derived identically
        at construction from (config, host_faults, seed), so only the
        mutable side is captured: per-host occupancy/liveness, placement
        entries (by instance id; the instance objects themselves are
        re-bound by the engine on restore), footprints, the fault cursor,
        and the counters.  Non-finite floats (``busy_until`` starts at
        ``-inf``) are encoded as strings.
        """

        def _num(value: float) -> float | str:
            return value if value == value and abs(value) != inf else repr(value)

        return {
            "hosts": [[host.used_mb, host.alive] for host in self.hosts],
            "entries": [
                [
                    instance_id,
                    entry.function,
                    entry.host.index,
                    entry.reserved_mb,
                    _num(entry.busy_until),
                    entry.seq,
                ]
                for instance_id, entry in self._entries.items()
            ],
            "footprints": dict(self._footprints),
            "fault_pos": self._fault_pos,
            "seq": self._seq.value,
            "used_mb": self._used_mb,
            "capacity_mb": self._capacity_mb,
            "placements": self.placements,
            "evictions": self.evictions,
            "host_crashes": self.host_crashes,
            "spot_reclaims": self.spot_reclaims,
            "instances_lost": self.instances_lost,
            "capacity_throttles": self.capacity_throttles,
            "peak_util": self.peak_util,
        }

    def restore(
        self,
        state: dict,
        instances: dict[str, Any],
        owners: dict[str, list | None],
    ) -> None:
        """Adopt a :meth:`snapshot` into this freshly constructed pool.

        *instances* maps instance id to the restored instance object for
        every placed entry; *owners* maps instance id to the
        ``function.instances`` list the instance lives in (``None`` for
        unowned).  The pool must have been built with the same config,
        fault schedule, and seed as the snapshotting one.
        """

        def _denum(value: Any) -> float:
            return float(value)

        for host, (used_mb, alive) in zip(self.hosts, state["hosts"]):
            host.used_mb = float(used_mb)
            host.alive = bool(alive)
            host.entries = {}
        self._entries = {}
        for instance_id, function, host_index, reserved, busy, seq in state[
            "entries"
        ]:
            instance = instances[instance_id]
            host = self.hosts[int(host_index)]
            entry = _Entry(
                instance,
                function,
                host,
                float(reserved),
                _denum(busy),
                int(seq),
                owners.get(instance_id),
            )
            self._entries[instance_id] = entry
            host.entries[instance_id] = entry
            instance.host_id = host.host_id
        self._footprints = {
            name: float(mb) for name, mb in state["footprints"].items()
        }
        self._fault_pos = int(state["fault_pos"])
        self._seq.value = int(state["seq"])
        self._used_mb = float(state["used_mb"])
        self._capacity_mb = float(state["capacity_mb"])
        self.placements = int(state["placements"])
        self.evictions = int(state["evictions"])
        self.host_crashes = int(state["host_crashes"])
        self.spot_reclaims = int(state["spot_reclaims"])
        self.instances_lost = int(state["instances_lost"])
        self.capacity_throttles = int(state["capacity_throttles"])
        self.peak_util = float(state["peak_util"])

    def _emit(self, function: str, kind: str, arrival: float) -> None:
        util = self.util()
        if util > self.peak_util:
            self.peak_util = util
        if self.telemetry is not None:
            self.telemetry.observe_host(function, kind, util, arrival=arrival)

    # ------------------------------------------------------------------
    # fault schedule

    def advance(self, now: float) -> None:
        """Fire every scheduled host fault with ``at_s <= now``."""
        schedule = self._schedule
        while self._fault_pos < len(schedule) and schedule[self._fault_pos][0] <= now:
            at_s, kind, index = schedule[self._fault_pos]
            self._fault_pos += 1
            host = self.hosts[index]
            if not host.alive:
                continue
            if kind == "crash":
                self.host_crashes += 1
            else:
                self.spot_reclaims += 1
            # Residents die either way; the crash/spot distinction is in
            # the kill ladder (crash truncates in-flight work via
            # ``crash_time``; a spot drain never does — records already
            # emitted for in-flight invocations stand untouched).
            for entry in list(host.entries.values()):
                instance = entry.instance
                if instance.alive:
                    instance.shutdown()
                self._remove_from_owner(entry)
                self._release_entry(entry)
                self.instances_lost += 1
                self._emit(entry.function, "host_loss", at_s)
            host.alive = False
            self._capacity_mb -= host.capacity_mb

    def crash_time(self, instance_id: str) -> float | None:
        """Static crash instant of the host serving *instance_id* (if any)."""
        entry = self._entries.get(instance_id)
        if entry is None:
            return None
        crash_at = entry.host.crash_at
        return crash_at if crash_at != inf else None

    def lost_in_flight(self, function: str, now: float) -> None:
        """Account an in-flight invocation killed by a host crash."""
        self.instances_lost += 1
        self._emit(function, "host_loss", now)

    # ------------------------------------------------------------------
    # placement

    def _find_slot(self, reserve_mb: float) -> Host | None:
        placement = self.config.placement
        best: Host | None = None
        for host in self.hosts:
            if not host.alive or host.free_mb < reserve_mb:
                continue
            if placement == "first-fit":
                return host
            if best is None:
                best = host
            elif placement == "best-fit":
                if host.free_mb < best.free_mb:
                    best = host
            else:  # spread
                if host.free_mb > best.free_mb:
                    best = host
        return best

    def _lru_idle(self, now: float, host: Host | None = None,
                  exclude: str | None = None) -> _Entry | None:
        entries = host.entries.values() if host is not None else self._entries.values()
        best: _Entry | None = None
        for entry in entries:
            if entry.busy_until > now:
                continue
            if exclude is not None and entry.instance.instance_id == exclude:
                continue
            if best is None or (entry.busy_until, entry.seq) < (best.busy_until, best.seq):
                best = entry
        return best

    def _evict(self, entry: _Entry, now: float) -> None:
        instance = entry.instance
        if instance.alive:
            instance.shutdown()
        self._remove_from_owner(entry)
        self._release_entry(entry)
        self.evictions += 1
        self._emit(entry.function, "eviction", now)

    def reserve_for(self, function: str, memory_mb: float | None) -> float:
        """Reservation size: declared memory_mb, else observed footprint."""
        if memory_mb is not None:
            return float(memory_mb)
        return self._footprints.get(function, self.config.default_reserve_mb)

    def admit(self, function: str, now: float, *,
              memory_mb: float | None = None) -> _Placement | None:
        """Reserve room for one new instance, evicting LRU idlers if needed.

        Returns ``None`` when capacity is exhausted (nothing idle left to
        evict) — the caller surfaces that as a capacity throttle.
        """
        reserve = self.reserve_for(function, memory_mb)
        while True:
            host = self._find_slot(reserve)
            if host is not None:
                host.used_mb += reserve
                self._used_mb += reserve
                self.placements += 1
                self._emit(function, "placement", now)
                return _Placement(host, reserve, function)
            victim = self._lru_idle(now)
            if victim is None:
                self.capacity_throttles += 1
                return None
            self._evict(victim, now)

    def bind(self, placement: _Placement, instance,
             owner: list | None = None) -> None:
        """Attach the created instance to its reservation.

        *instance* is anything with ``instance_id``/``alive``/``shutdown``
        (a real :class:`FunctionInstance` or a kernel shadow); *owner* is
        the ``function.instances`` list the instance lives in, so pool
        kills keep the emulator's warm set consistent.
        """
        entry = _Entry(
            instance,
            placement.function,
            placement.host,
            placement.reserved_mb,
            -inf,
            next(self._seq),
            owner,
        )
        self._entries[instance.instance_id] = entry
        placement.host.entries[instance.instance_id] = entry
        instance.host_id = placement.host.host_id

    def cancel(self, placement: _Placement) -> None:
        """Give back an admitted reservation that never produced an instance
        (cold-start crash during Function Initialization)."""
        placement.host.used_mb -= placement.reserved_mb
        self._used_mb -= placement.reserved_mb

    # ------------------------------------------------------------------
    # lifecycle accounting

    def observe_footprint(self, function: str, peak_mb: float) -> None:
        """Remember the largest measured footprint for future reservations."""
        rounded = float(ceil(peak_mb)) if peak_mb > 0 else 1.0
        if rounded > self._footprints.get(function, 0.0):
            self._footprints[function] = rounded

    def adjust(self, instance_id: str, peak_mb: float, now: float) -> None:
        """Correct a reservation to the measured peak; evict under pressure.

        Reservations only grow (peaks are monotone per instance).  If the
        growth pushes the host over capacity, idle LRU residents of *that
        host* are evicted — never the instance that just ran.
        """
        entry = self._entries.get(instance_id)
        if entry is None or peak_mb <= entry.reserved_mb:
            return
        delta = peak_mb - entry.reserved_mb
        entry.reserved_mb = peak_mb
        host = entry.host
        host.used_mb += delta
        self._used_mb += delta
        while host.used_mb > host.capacity_mb:
            victim = self._lru_idle(now, host, exclude=instance_id)
            if victim is None:
                break
            self._evict(victim, now)
        util = self.util()
        if util > self.peak_util:
            self.peak_util = util

    def record_use(self, instance_id: str, busy_until: float) -> None:
        """Note the instance is serving until *busy_until* (LRU recency)."""
        entry = self._entries.get(instance_id)
        if entry is None:
            return
        if busy_until > entry.busy_until:
            entry.busy_until = busy_until
        entry.seq = next(self._seq)

    def release(self, instance_id: str) -> None:
        """Drop an instance the emulator already killed (idempotent)."""
        entry = self._entries.get(instance_id)
        if entry is not None:
            self._release_entry(entry)

    def retire(self, instance_id: str) -> bool:
        """Keep-alive expiry: shut the instance down and free its slot.

        Returns ``False`` for an instance the pool never placed, which
        callers leave alone.
        """
        entry = self._entries.get(instance_id)
        if entry is None:
            return False
        instance = entry.instance
        if instance.alive:
            instance.shutdown()
        self._remove_from_owner(entry)
        self._release_entry(entry)
        return True

    def evacuate(self, function: str) -> None:
        """Release every entry of *function* (hot-swap via update_function)."""
        for entry in [e for e in self._entries.values() if e.function == function]:
            self._release_entry(entry)

    def _remove_from_owner(self, entry: _Entry) -> None:
        owner = entry.owner
        if owner is not None and entry.instance in owner:
            owner.remove(entry.instance)

    def _release_entry(self, entry: _Entry) -> None:
        instance_id = entry.instance.instance_id
        self._entries.pop(instance_id, None)
        entry.host.entries.pop(instance_id, None)
        entry.host.used_mb -= entry.reserved_mb
        if entry.host.alive:
            self._used_mb -= entry.reserved_mb
