"""Client-side retries: exponential backoff with seeded jitter.

The emulator's failure model (:mod:`repro.platform.faults` plus the
intrinsic timeout/OOM/throttle outcomes) makes individual invocations
fail; this module is the client half that absorbs the *transient* ones.
A :class:`RetryPolicy` declares which statuses are worth retrying, how
many attempts a request gets, and how the backoff delay grows; a
:class:`RetrySession` executes the policy with a seeded RNG over the
virtual timeline — no wall clock, so a replay with the same seed backs
off identically every run — and a :class:`RetryTimeline` walks one
replay's arrivals and re-drives in serve order for both replay engines.

Requests that exhaust their attempts (or the session-wide retry budget)
are *dead-lettered*, not dropped: :class:`DeadLetter` keeps the full
attempt history so "zero lost invocations" is a checkable claim, not a
hope.
"""

from __future__ import annotations

import heapq
import random
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import PlatformError
from repro.platform.logs import InvocationRecord, InvocationStatus

__all__ = [
    "RetryPolicy",
    "RetrySession",
    "RetryTimeline",
    "DeadLetter",
    "RETRYABLE_DEFAULT",
    "check_arrivals",
]

#: Statuses that are transient by construction: a throttle clears when the
#: burst passes, a crashed instance is replaced by the next cold start.
#: Timeouts and OOMs are *deterministic* for a given bundle and input, so
#: retrying them by default would just burn the budget.
RETRYABLE_DEFAULT = frozenset({InvocationStatus.THROTTLED, InvocationStatus.CRASHED})

_INF = float("inf")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff + jitter, Lambda-client style.

    ``max_attempts`` counts the first try; ``budget`` (optional) caps the
    *total* retries a session may spend across all requests, so a hard
    outage cannot multiply load without bound.  ``jitter`` spreads each
    delay uniformly over ``[delay * (1 - jitter), delay * (1 + jitter)]``.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.2
    multiplier: float = 2.0
    max_delay_s: float = 10.0
    jitter: float = 0.25
    retryable: frozenset[InvocationStatus] = RETRYABLE_DEFAULT
    budget: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise PlatformError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise PlatformError(
                f"need 0 <= base_delay_s <= max_delay_s, got "
                f"{self.base_delay_s}/{self.max_delay_s}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise PlatformError(f"jitter must be in [0, 1]: {self.jitter}")
        object.__setattr__(
            self,
            "retryable",
            frozenset(InvocationStatus(s) for s in self.retryable),
        )

    def retries_status(self, status: InvocationStatus) -> bool:
        return InvocationStatus(status) in self.retryable

    def session(self) -> "RetrySession":
        return RetrySession(self)


@dataclass(frozen=True)
class DeadLetter:
    """One request that failed every attempt it was allowed."""

    function: str
    arrival: float
    attempts: tuple[InvocationRecord, ...]

    @property
    def last(self) -> InvocationRecord:
        return self.attempts[-1]

    def to_dict(self) -> dict:
        """JSON-safe dict with a stable field order (JSONL export)."""
        return {
            "function": self.function,
            "arrival": self.arrival,
            "attempts": [record.to_dict() for record in self.attempts],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DeadLetter":
        """Invert :meth:`to_dict`."""
        return cls(
            function=data["function"],
            arrival=float(data["arrival"]),
            attempts=tuple(
                InvocationRecord.from_dict(record) for record in data["attempts"]
            ),
        )


class RetrySession:
    """Stateful execution of one policy: seeded jitter + budget tracking."""

    def __init__(self, policy: RetryPolicy):
        self.policy = policy
        self.retries_used = 0
        self._rng = random.Random(policy.seed)

    def should_retry(self, record: InvocationRecord, attempt: int) -> bool:
        """May attempt ``attempt`` (1-based) be followed by another?"""
        if not self.policy.retries_status(record.status):
            return False
        if attempt >= self.policy.max_attempts:
            return False
        if self.policy.budget is not None and self.retries_used >= self.policy.budget:
            return False
        return True

    def next_delay_s(self, attempt: int) -> float:
        """Backoff before attempt ``attempt + 1``; consumes budget + RNG."""
        self.retries_used += 1
        delay = min(
            self.policy.base_delay_s * self.policy.multiplier ** (attempt - 1),
            self.policy.max_delay_s,
        )
        if self.policy.jitter > 0.0:
            spread = self.policy.jitter
            delay *= 1.0 - spread + 2.0 * spread * self._rng.random()
        return delay

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe jitter-RNG position + budget consumption."""
        from repro.platform.checkpoint import rng_state_to_json

        return {
            "retries_used": self.retries_used,
            "rng": rng_state_to_json(self._rng.getstate()),
        }

    def restore(self, state: dict) -> None:
        from repro.platform.checkpoint import rng_state_from_json

        self.retries_used = int(state["retries_used"])
        self._rng.setstate(rng_state_from_json(state["rng"]))


def check_arrivals(arrivals: Sequence[float]) -> None:
    """Refuse arrivals a timeline cannot walk: unsorted or non-finite.

    A linear scan, since sorting a million-arrival copy just to compare
    it costs more than the check is worth.  Starting below every finite
    float rejects ``-inf``; the chained comparison rejects NaN and
    ``+inf``.
    """
    previous = -sys.float_info.max
    for arrival in arrivals:
        if not previous <= arrival < _INF:
            raise PlatformError("arrivals must be sorted and finite")
        previous = arrival


class RetryTimeline:
    """One replay's attempts in serve order, and its failed attempts.

    Iterating yields ``(time, seq, attempt)`` for every attempt the replay
    serves (``seq`` indexes *arrivals*): a cursor walks the sorted
    arrivals as first attempts, merged with a heap of the retry re-drives
    scheduled so far.  The order is that of one heap holding every
    arrival: by time, then ``seq``, then attempt.  A re-drive that lands
    on an arrival's instant goes first, since its request arrived
    earlier.  Re-drives always land after the attempt that spawned them,
    so attempts come out in non-decreasing time order and the warm pool's
    bookkeeping stays valid.  Each request's failed attempts are kept
    until it gets a final outcome: success, or a dead letter carrying
    every attempt.

    Every non-columnar replay of both engines walks its trace through
    one timeline; without a *session* every attempt is final and the
    heap stays empty.  The cursor counts the first attempts already
    yielded, so a snapshot taken between attempts holds only the cursor
    and the pending re-drives, and a new iteration resumes from there.
    """

    def __init__(
        self,
        function: str,
        arrivals: Sequence[float],
        session: RetrySession | None,
    ) -> None:
        self.function = function
        self.arrivals = arrivals
        self.session = session
        self.cursor = 0
        self.heap: list[tuple[float, int, int]] = []
        self.failed: dict[int, list[InvocationRecord]] = {}

    def __iter__(self) -> Iterator[tuple[float, int, int]]:
        arrivals = self.arrivals
        heap = self.heap
        heappop = heapq.heappop
        for cursor in range(self.cursor, len(arrivals)):
            t = arrivals[cursor]
            # Every pending re-drive belongs to an earlier arrival, so one
            # at this very instant still goes first.
            while heap and heap[0][0] <= t:
                yield heappop(heap)
            self.cursor = cursor + 1
            yield t, cursor, 1
        while heap:
            yield heappop(heap)

    def settle(self, seq: int) -> None:
        """Request *seq* got its final record: drop its failure history."""
        self.failed.pop(seq, None)

    def fail(
        self,
        seq: int,
        attempt: int,
        record: InvocationRecord,
        completion: float,
    ) -> DeadLetter | None:
        """Retry failed *attempt* of request *seq*, or dead-letter it.

        Returns None when the session schedules the next attempt at
        ``completion + backoff``; otherwise the request is out of attempts
        (or budget, or the status is not retryable) and the returned
        :class:`DeadLetter` holds its whole attempt history.
        """
        history = self.failed.setdefault(seq, [])
        history.append(record)
        session = self.session
        if session.should_retry(record, attempt):
            delay = session.next_delay_s(attempt)
            heapq.heappush(self.heap, (completion + delay, seq, attempt + 1))
            return None
        del self.failed[seq]
        return DeadLetter(
            function=self.function,
            arrival=self.arrivals[seq],
            attempts=tuple(history),
        )

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe cursor, pending re-drives, failures and session state."""
        return {
            "cursor": self.cursor,
            "heap": [[t, seq, attempt] for t, seq, attempt in self.heap],
            "failed": {
                str(seq): [record.to_dict() for record in records]
                for seq, records in self.failed.items()
            },
            "session": self.session.snapshot() if self.session is not None else None,
        }

    def restore(self, state: dict) -> None:
        """Adopt a :meth:`snapshot`; the session resumes its RNG and budget."""
        self.cursor = int(state["cursor"])
        self.heap = [(float(t), int(s), int(a)) for t, s, a in state["heap"]]
        heapq.heapify(self.heap)
        self.failed = {
            int(seq): [InvocationRecord.from_dict(record) for record in records]
            for seq, records in state["failed"].items()
        }
        if self.session is not None:
            self.session.restore(state["session"])
