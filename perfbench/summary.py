"""The benchmark's own arithmetic: medians, tails, self time, failures.

Pure functions over plain numbers, so the tests in ``test_perfbench.py``
pin them without importing the program under test.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Mapping, Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
#: A percentile is only reported when this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """The median; a run that produced no sample is a bug, not a zero."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of *pct* among *n* samples, in exact integers
    (``0.999 * 10000`` is not 9990 in floating point)."""
    tenths = round(pct * 10)
    return max(1, -(-tenths * n // 1000))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct`` % at or below."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(pct, len(values)) - 1]


def tail(values: Sequence[float]) -> tuple[float, float] | None:
    """``(pct, value)`` for the highest ladder percentile that still has
    at least ``TAIL_MIN_BEYOND`` samples above its nearest-rank position,
    or ``None`` when even the median does not."""
    n = len(values)
    best = None
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            best = (pct, percentile(values, pct))
    return best


def describe(values: Sequence[float]) -> str:
    """``median … n=…`` plus the tail when the sample count allows one."""
    text = f"median {median(values):.6g} n={len(values)}"
    found = tail(values)
    if found is None:
        return text + f" (no tail: under {TAIL_MIN_BEYOND} samples beyond p50)"
    pct, value = found
    return text + f" p{pct:g} {value:.6g}"


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(
    spans: Sequence[tuple[int, int | None, float, float]],
    extra_child_s: Mapping[int, float] | None = None,
) -> dict[int, float]:
    """Self time per span id: its duration minus what its children cover.

    *spans* are ``(span_id, parent_id, start, end)``.  ``extra_child_s``
    adds time measured in aggregate under a span (per-row entry points
    that are timed with counters instead of one span per call).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    extra = extra_child_s or {}
    return {
        span_id: (end - start)
        - covered(children.get(span_id, ()), start, end)
        - extra.get(span_id, 0.0)
        for span_id, _, start, end in spans
    }


def replay_failures(
    arrivals: Mapping[str, int],
    outcomes: Mapping[str, tuple[int, int]],
    failed_outputs: Iterable[str] = (),
) -> int:
    """Failed arrivals of one replay call.

    *arrivals* is the trace's count per function and *outcomes* the
    replay's ``(delivered, dead_letters)`` per function.  An arrival that
    is neither delivered nor dead-lettered is lost and fails on its own;
    every arrival of a function whose output failed a check fails with
    it (so does every arrival of a function that reports more outcomes
    than arrivals, or none at all).
    """
    failed_set = set(failed_outputs)
    failed = 0
    for function, count in arrivals.items():
        if function in failed_set or function not in outcomes:
            failed += count
            continue
        delivered, dead = outcomes[function]
        accounted = delivered + dead
        failed += count if accounted > count else count - accounted
    return failed


def fail_rate(attempted: int, failed: int) -> float:
    """Failed ÷ attempted operations."""
    if attempted < 1:
        raise ValueError("fail rate of no attempted operations")
    return failed / attempted
