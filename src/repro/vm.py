"""Virtual metering: the clock and memory ledger behind every measurement.

The paper measures import time with wall clocks and memory with psutil on
AWS Lambda.  This reproduction replaces both with a *virtual* meter so that
every experiment is deterministic and fast: synthetic library modules charge
declared costs (in virtual seconds and MB) to the currently active meters,
and the profiler/platform emulator read those charges back.

Virtual seconds are calibrated 1:1 with the paper's reported seconds, so a
module that the paper says takes 5.52 s to import charges 5.52 virtual
seconds here while costing microseconds of wall time.

Key concepts
------------

``Meter``
    Accumulates virtual time and tracks a memory ledger (live/peak MB,
    per-label allocations).  Records every charge as a :class:`ChargeEvent`.
    Events are immutable, so ``attribute_cost`` builds one per distinct
    (module, attribute, time, memory) and charges that same event again
    each time a module body re-runs the attribute's line.

meter stack
    Charges go to *all* active meters.  This lets the import profiler meter
    a single module while the platform emulator meters the whole invocation.

``module_cost`` / ``attribute_cost`` / ``exec_cost``
    The charge API that generated synthetic libraries call at import or call
    time.  When no meter is active the charges fall into a process-global
    default meter so imports outside an experiment never fail.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.errors import MeterError

__all__ = [
    "ChargeEvent",
    "ExternalCall",
    "MemoryLedger",
    "Meter",
    "MeterSnapshot",
    "aggregate_charges",
    "metered",
    "push_meter",
    "pop_meter",
    "active_meters",
    "current_meter",
    "module_cost",
    "attribute_cost",
    "exec_cost",
    "external_call",
    "free_cost",
    "global_meter",
    "reset_global_meter",
]

CATEGORY_IMPORT = "import"
CATEGORY_EXEC = "exec"
CATEGORY_OTHER = "other"

_VALID_CATEGORIES = frozenset({CATEGORY_IMPORT, CATEGORY_EXEC, CATEGORY_OTHER})


@dataclass(frozen=True)
class ChargeEvent:
    """A single metering event: virtual time and/or memory charged."""

    label: str
    category: str
    time_s: float = 0.0
    memory_mb: float = 0.0

    def __post_init__(self) -> None:
        if self.category not in _VALID_CATEGORIES:
            raise MeterError(f"unknown charge category: {self.category!r}")
        if self.time_s < 0:
            raise MeterError(f"negative time charge: {self.time_s}")


@dataclass(frozen=True)
class ExternalCall:
    """An intercepted call to a remote service (Section 5.3).

    Local side effects can be ignored in stateless functions; external
    calls are *the* observable side effects, so the oracle compares them
    for equivalence alongside stdout and return values.
    """

    service: str
    payload: str


@dataclass(frozen=True)
class MeterSnapshot:
    """Immutable point-in-time view of a meter, used for marginal deltas."""

    time_s: float
    live_mb: float
    peak_mb: float
    event_count: int


class MemoryLedger:
    """Tracks live virtual allocations by label.

    Allocations under the same label accumulate; ``free`` releases the whole
    label.  ``live_mb`` is the sum of live allocations, ``peak_mb`` the high
    watermark — the quantity AWS bills the memory configuration against.
    """

    def __init__(self) -> None:
        self._allocations: dict[str, float] = {}
        self._live_mb = 0.0
        self._peak_mb = 0.0

    @property
    def live_mb(self) -> float:
        return self._live_mb

    @property
    def peak_mb(self) -> float:
        return self._peak_mb

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._allocations)

    def allocated(self, label: str) -> float:
        """Return the live MB currently attributed to *label* (0 if none)."""
        return self._allocations.get(label, 0.0)

    def allocate(self, label: str, memory_mb: float) -> None:
        if memory_mb < 0:
            raise MeterError(f"negative allocation for {label!r}: {memory_mb}")
        if memory_mb == 0:
            return
        self._allocations[label] = self._allocations.get(label, 0.0) + memory_mb
        self._live_mb += memory_mb
        if self._live_mb > self._peak_mb:
            self._peak_mb = self._live_mb

    def free(self, label: str) -> float:
        """Release everything attributed to *label*; returns the MB freed."""
        freed = self._allocations.pop(label, 0.0)
        self._live_mb -= freed
        return freed


class Meter:
    """Accumulates virtual time and memory charges.

    A meter is cheap; experiments create one per scope they care about
    (per-module profile, per-invocation, per-instance lifetime).
    """

    def __init__(self, name: str = "meter") -> None:
        self.name = name
        self.ledger = MemoryLedger()
        self.events: list[ChargeEvent] = []
        self.external_calls: list[ExternalCall] = []
        self._time_s = 0.0

    # -- reading -----------------------------------------------------------

    @property
    def time_s(self) -> float:
        """Total virtual seconds charged so far."""
        return self._time_s

    @property
    def live_mb(self) -> float:
        return self.ledger.live_mb

    @property
    def peak_mb(self) -> float:
        return self.ledger.peak_mb

    def snapshot(self) -> MeterSnapshot:
        return MeterSnapshot(
            time_s=self._time_s,
            live_mb=self.ledger.live_mb,
            peak_mb=self.ledger.peak_mb,
            event_count=len(self.events),
        )

    def time_in_category(self, category: str) -> float:
        """Sum of virtual seconds charged under *category*."""
        return sum(e.time_s for e in self.events if e.category == category)

    def events_for(self, label: str) -> list[ChargeEvent]:
        return [e for e in self.events if e.label == label]

    # -- charging ----------------------------------------------------------

    def charge(self, event: ChargeEvent) -> None:
        self.events.append(event)
        self._time_s += event.time_s
        if event.memory_mb:
            self.ledger.allocate(event.label, event.memory_mb)

    def free(self, label: str) -> float:
        return self.ledger.free(label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Meter({self.name!r}, time={self._time_s:.3f}s, "
            f"live={self.live_mb:.1f}MB, peak={self.peak_mb:.1f}MB)"
        )


def aggregate_charges(
    events: list[ChargeEvent] | tuple[ChargeEvent, ...],
    category: str | None = None,
) -> list[tuple[str, float, float]]:
    """Fold a charge stream into ``(label, time_s, memory_mb)`` rows.

    Rows appear in first-charge order — the order modules actually began
    charging, which is what cost attribution and flamegraphs render.
    Repeated charges under one label (a module body plus its attribute
    constructions) accumulate into a single row.
    """
    index: dict[str, int] = {}
    rows: list[list] = []
    for event in events:
        if category is not None and event.category != category:
            continue
        slot = index.get(event.label)
        if slot is None:
            index[event.label] = len(rows)
            rows.append([event.label, event.time_s, event.memory_mb])
        else:
            row = rows[slot]
            row[1] += event.time_s
            row[2] += event.memory_mb
    return [(label, time_s, memory_mb) for label, time_s, memory_mb in rows]


class _MeterState(threading.local):
    """Per-thread meter stack plus a process-global fallback meter."""

    def __init__(self) -> None:
        self.stack: list[Meter] = []


_STATE = _MeterState()
_GLOBAL_METER = Meter("global")
_GLOBAL_LOCK = threading.Lock()


def global_meter() -> Meter:
    """The fallback meter that absorbs charges outside any scope."""
    return _GLOBAL_METER


def reset_global_meter() -> Meter:
    """Replace the global fallback meter; returns the fresh meter."""
    global _GLOBAL_METER
    with _GLOBAL_LOCK:
        _GLOBAL_METER = Meter("global")
    return _GLOBAL_METER


def push_meter(meter: Meter) -> None:
    _STATE.stack.append(meter)


def pop_meter(meter: Meter) -> None:
    if not _STATE.stack or _STATE.stack[-1] is not meter:
        raise MeterError("unbalanced meter scope: pop does not match push")
    _STATE.stack.pop()


def active_meters() -> tuple[Meter, ...]:
    """All meters that will receive the next charge (innermost last)."""
    return tuple(_STATE.stack)


def current_meter() -> Meter | None:
    """The innermost active meter, or ``None`` outside any scope."""
    return _STATE.stack[-1] if _STATE.stack else None


@contextmanager
def metered(meter: Meter | None = None) -> Iterator[Meter]:
    """Activate *meter* (or a fresh one) for the duration of the block."""
    scope = meter if meter is not None else Meter()
    push_meter(scope)
    try:
        yield scope
    finally:
        pop_meter(scope)


def _charge_all(event: ChargeEvent) -> None:
    meters = _STATE.stack
    if not meters:
        _GLOBAL_METER.charge(event)
        return
    for meter in meters:
        meter.charge(event)


def module_cost(module_name: str, time_s: float = 0.0, memory_mb: float = 0.0) -> None:
    """Charge the cost of executing a module body at import time.

    Generated synthetic modules call this as their first statement.
    """
    _charge_all(
        ChargeEvent(
            label=module_name,
            category=CATEGORY_IMPORT,
            time_s=time_s,
            memory_mb=memory_mb,
        )
    )


#: (module, attribute, time_s, memory_mb) -> the event ``attribute_cost``
#: charges for it.  Every oracle probe re-runs the generated module bodies,
#: and each attribute line would otherwise build the same event again.
#: Only exact ``str`` names and exact ``float`` costs above zero are keys:
#: ``1 == True`` and ``0 == 0.0 == -0.0`` as dict keys, and NaN never equals
#: itself.  Past ``_ATTRIBUTE_EVENTS_CAP`` entries the table is cleared;
#: entries are pure functions of their keys, so none can go stale.
_ATTRIBUTE_EVENTS: dict[tuple[str, str, float, float], ChargeEvent] = {}
_ATTRIBUTE_EVENTS_CAP = 16384


def attribute_cost(
    module_name: str, attribute: str, time_s: float = 0.0, memory_mb: float = 0.0
) -> None:
    """Charge the cost of constructing one module attribute at import time."""
    key = (module_name, attribute, time_s, memory_mb)
    interned = (
        type(module_name) is str
        and type(attribute) is str
        and type(time_s) is float
        and type(memory_mb) is float
        and time_s > 0.0
        and memory_mb > 0.0
    )
    event = _ATTRIBUTE_EVENTS.get(key) if interned else None
    if event is None:
        event = ChargeEvent(
            label=f"{module_name}.{attribute}",
            category=CATEGORY_IMPORT,
            time_s=time_s,
            memory_mb=memory_mb,
        )
        if interned:
            if len(_ATTRIBUTE_EVENTS) >= _ATTRIBUTE_EVENTS_CAP:
                _ATTRIBUTE_EVENTS.clear()
            _ATTRIBUTE_EVENTS[key] = event
    _charge_all(event)


def exec_cost(label: str, time_s: float = 0.0, memory_mb: float = 0.0) -> None:
    """Charge execution-phase work (handler compute, synthetic calls)."""
    _charge_all(
        ChargeEvent(
            label=label,
            category=CATEGORY_EXEC,
            time_s=time_s,
            memory_mb=memory_mb,
        )
    )


def external_call(service: str, payload: str) -> None:
    """Record an intercepted remote-service call on every active meter."""
    call = ExternalCall(service=service, payload=payload)
    meters = _STATE.stack or (_GLOBAL_METER,)
    for meter in meters:
        meter.external_calls.append(call)


def free_cost(label: str) -> None:
    """Release a live allocation from every active meter (or the global one)."""
    meters = _STATE.stack or (_GLOBAL_METER,)
    for meter in meters:
        meter.free(label)
