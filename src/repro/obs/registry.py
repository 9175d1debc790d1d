"""Thread-safe in-process metrics: counters and gauges.

The active recorder is process-wide, so instrumented code running on a
caller's threads bumps the same instruments; every mutation therefore
goes through a lock.  One lock per instrument (not per registry) keeps
contention negligible: distinct counters never serialize against each
other.

Counters are monotonic sums (oracle calls, cache hits, billed ms);
gauges hold the latest value of a level (instances warm, snapshot size).
Both are created lazily on first use — ``registry.counter(name)`` — so
instrumented code never has to pre-declare its metrics.
"""

from __future__ import annotations

import threading
from typing import Iterator

__all__ = ["Counter", "Gauge", "Registry"]


class Counter:
    """A monotonically increasing sum, safe under concurrent ``add``."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict:
        return {"type": "counter", "name": self.name, "value": self._value}


class Gauge:
    """The latest observation of a level; ``set`` replaces, ``max`` keeps peaks."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def record_max(self, value: float) -> None:
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict:
        return {"type": "gauge", "name": self.name, "value": self._value}


class Registry:
    """Lazily-created, name-keyed counters and gauges.

    Instrument creation takes the registry lock; mutation takes only the
    instrument's own lock.  Iteration and :meth:`snapshot` copy under the
    registry lock so exporters see a consistent instrument set.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                if name in self._gauges:
                    raise ValueError(f"{name!r} is already registered as a gauge")
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                if name in self._counters:
                    raise ValueError(f"{name!r} is already registered as a counter")
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def counters(self) -> Iterator[Counter]:
        with self._lock:
            items = list(self._counters.values())
        return iter(items)

    def gauges(self) -> Iterator[Gauge]:
        with self._lock:
            items = list(self._gauges.values())
        return iter(items)

    def snapshot(self) -> dict[str, float]:
        """Flat ``name -> value`` view of every instrument."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
        values = {c.name: c.value for c in counters}
        values.update({g.name: g.value for g in gauges})
        return values

    def __len__(self) -> int:
        with self._lock:
            return len(self._counters) + len(self._gauges)
