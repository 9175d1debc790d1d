"""Mergeable log-linear histograms with bounded relative error.

Fleet-level SLOs are judged on tail percentiles, not means (SLAM,
CLOUD'22), so the telemetry layer needs percentile estimates over
millions of invocations without storing every sample.
:class:`LogLinearHistogram` is the HDR-histogram bucketing scheme: values
land in power-of-two tiers, each tier split into a fixed number of linear
sub-buckets.  Bucket boundaries depend only on ``subbuckets`` — never on
the data — so two histograms with the same resolution merge by adding
bucket counts, which is what lets per-window rollups compose into sliding
windows and fleet-wide views.

**Error bound.**  A value in tier ``[2^t, 2^(t+1))`` falls into a linear
sub-bucket of width ``2^t / m`` (``m = subbuckets``); quantile queries
return the bucket midpoint, so the estimate is within half a bucket width
of the true value, i.e. a relative error of at most ``1 / (2 m)`` —
0.78% at the default ``m = 64``.  The property tests in
``tests/obs/test_histogram.py`` enforce this bound against exact order
statistics on random and heavy-tailed samples.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator

try:  # numpy is an optional [perf] extra; the scalar path needs nothing.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

__all__ = ["LogLinearHistogram"]

#: Quantiles the telemetry layer reports by default.
STANDARD_QUANTILES = (0.50, 0.90, 0.95, 0.99, 0.999)

#: At or below this many values ``observe_many`` folds with an inlined
#: scalar sweep: a dozen numpy kernel launches cost more than walking a
#: short list, and the scalar fold *is* the reference semantics.
_SMALL_BATCH = 128


class LogLinearHistogram:
    """Fixed-bucket log-linear histogram over non-negative values.

    ``record`` is O(1); ``quantile`` walks the (sparse) bucket table.
    Values below ``min_trackable`` (including zero) are counted exactly in
    a dedicated zero bucket and reported as ``0.0``.
    """

    __slots__ = (
        "subbuckets",
        "min_trackable",
        "_buckets",
        "_zero",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(self, *, subbuckets: int = 64, min_trackable: float = 1e-9):
        if subbuckets < 1:
            raise ValueError(f"need at least one sub-bucket: {subbuckets}")
        if min_trackable <= 0:
            raise ValueError(f"min_trackable must be positive: {min_trackable}")
        self.subbuckets = subbuckets
        self.min_trackable = min_trackable
        self._buckets: dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- recording ---------------------------------------------------------

    def _index(self, value: float) -> int:
        # value = mantissa * 2**exponent with mantissa in [0.5, 1), so the
        # tier is exponent - 1 and value / 2**tier lies in [1, 2).
        _, exponent = math.frexp(value)
        tier = exponent - 1
        ratio = value / math.ldexp(1.0, tier)
        sub = min(self.subbuckets - 1, max(0, int((ratio - 1.0) * self.subbuckets)))
        return tier * self.subbuckets + sub

    def _bucket_midpoint(self, index: int) -> float:
        tier, sub = divmod(index, self.subbuckets)
        return math.ldexp(1.0 + (sub + 0.5) / self.subbuckets, tier)

    def record(self, value: float, count: int = 1) -> None:
        """Add *count* observations of *value* (non-negative)."""
        if count < 1:
            raise ValueError(f"count must be positive: {count}")
        if value < 0 or not math.isfinite(value):
            raise ValueError(f"cannot record {value!r}: need a finite value >= 0")
        self._count += count
        self._sum += value * count
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if value < self.min_trackable:
            self._zero += count
            return
        index = self._index(value)
        self._buckets[index] = self._buckets.get(index, 0) + count

    def observe_many(self, values: Iterable[float]) -> None:
        """Bulk-record *values*, bit-identical to sequential :meth:`record` calls.

        Bucket indices are computed array-at-a-time (frexp + truncation,
        mirroring :meth:`_index`) and folded in via per-bucket counts, but
        every order-dependent float accumulation — ``_sum`` and the
        tie-keeping ``min``/``max`` folds — stays a sequential walk in
        value order, so the resulting sketch state matches N individual
        ``record`` calls bit for bit.  Unlike ``record``, validation runs
        up front: a non-finite or negative value raises before any state
        changes.  Without numpy every batch takes that scalar fold.
        """
        if _np is None:
            self._observe_small(list(values))
            return
        if isinstance(values, list) and len(values) <= _SMALL_BATCH:
            self._observe_small(values)
            return
        arr = _np.asarray(values, dtype=_np.float64).reshape(-1)
        n = int(arr.size)
        if n == 0:
            return
        if not _np.all(_np.isfinite(arr)) or _np.any(arr < 0):
            bad = next(v for v in arr.tolist() if v < 0 or not math.isfinite(v))
            raise ValueError(f"cannot record {bad!r}: need a finite value >= 0")
        # cumsum is a strict left fold, so seeding it with the running sum
        # reproduces n sequential ``+=`` additions bit for bit.  min/max
        # are exact, except that the scalar fold keeps the *first* zero's
        # sign on a ±0.0 tie — recovered via argmax when it matters.
        self._sum = float(
            _np.cumsum(_np.concatenate(((self._sum,), arr)))[-1]
        )
        lo = float(arr.min())
        if lo < self._min:
            if lo == 0.0:
                lo = float(arr[int(_np.argmax(arr == 0.0))])
            self._min = lo
        hi = float(arr.max())
        if hi > self._max:
            if hi == 0.0:
                hi = float(arr[int(_np.argmax(arr == 0.0))])
            self._max = hi
        self._count += n
        small = arr < self.min_trackable
        zero = int(small.sum())
        if zero:
            self._zero += zero
            arr = arr[~small]
            if not arr.size:
                return
        _, exponent = _np.frexp(arr)
        tier = exponent.astype(_np.int64) - 1
        ratio = arr / _np.ldexp(1.0, tier.astype(_np.int32))
        m = self.subbuckets
        sub = _np.minimum(m - 1, _np.maximum(0, ((ratio - 1.0) * m).astype(_np.int64)))
        unique, first, counts = _np.unique(
            tier * m + sub, return_index=True, return_counts=True
        )
        # New keys enter the dict in first-occurrence order, matching the
        # insertion order N sequential record() calls would produce.
        buckets = self._buckets
        for position in _np.argsort(first, kind="stable").tolist():
            index = int(unique[position])
            buckets[index] = buckets.get(index, 0) + int(counts[position])

    def _observe_small(self, values: list) -> None:
        """Inlined scalar fold for short batches — the reference semantics.

        Same state transitions as one :meth:`record` per value (strict
        ``<``/``>`` comparisons reproduce ``min``/``max`` first-on-tie
        behaviour, including ±0.0 sign keeping), with validation still up
        front so a bad value raises before any state changes.
        """
        for value in values:
            if value < 0 or not math.isfinite(value):
                raise ValueError(
                    f"cannot record {value!r}: need a finite value >= 0"
                )
        total = self._sum
        lo = self._min
        hi = self._max
        zero = self._zero
        threshold = self.min_trackable
        m = self.subbuckets
        top = m - 1
        buckets = self._buckets
        get = buckets.get
        frexp = math.frexp
        ldexp = math.ldexp
        for value in values:
            total += value
            if value < lo:
                lo = value
            if value > hi:
                hi = value
            if value < threshold:
                zero += 1
                continue
            tier = frexp(value)[1] - 1
            sub = int((value / ldexp(1.0, tier) - 1.0) * m)
            if sub < 0:
                sub = 0
            elif sub > top:
                sub = top
            index = tier * m + sub
            buckets[index] = get(index, 0) + 1
        self._count += len(values)
        self._sum = total
        self._min = lo
        self._max = hi
        self._zero = zero

    def merge(self, other: "LogLinearHistogram") -> None:
        """Fold *other* into this histogram (same resolution required)."""
        if other.subbuckets != self.subbuckets:
            raise ValueError(
                f"cannot merge histograms with different resolutions: "
                f"{self.subbuckets} vs {other.subbuckets}"
            )
        self._zero += other._zero
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count

    # -- queries -----------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    @property
    def relative_error(self) -> float:
        """Documented worst-case relative error of quantile estimates."""
        return 1.0 / (2.0 * self.subbuckets)

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (same rank convention as ``sorted[k]``
        with ``k = floor(q * (count - 1))``); 0.0 on an empty histogram."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q}")
        if self._count == 0:
            return 0.0
        target = int(math.floor(q * (self._count - 1))) + 1  # 1-based rank
        if target <= self._zero:
            return 0.0
        cumulative = self._zero
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= target:
                estimate = self._bucket_midpoint(index)
                return min(max(estimate, self._min), self._max)
        return self._max  # unreachable unless counts were mutated externally

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)

    def summary(self) -> dict[str, float]:
        """The standard percentile report plus count/mean/max."""
        report = {"count": float(self._count), "mean": self.mean, "max": self.max}
        for q in STANDARD_QUANTILES:
            report[f"p{q * 100:g}".replace(".", "_")] = self.quantile(q)
        return report

    def buckets(self) -> Iterator[tuple[float, int]]:
        """(bucket midpoint, count) pairs in value order; zero bucket first."""
        if self._zero:
            yield 0.0, self._zero
        for index in sorted(self._buckets):
            yield self._bucket_midpoint(index), self._buckets[index]

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "subbuckets": self.subbuckets,
            "min_trackable": self.min_trackable,
            "zero": self._zero,
            "count": self._count,
            "sum": self._sum,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "buckets": {str(index): count for index, count in self._buckets.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LogLinearHistogram":
        histogram = cls(
            subbuckets=int(data["subbuckets"]),
            min_trackable=float(data.get("min_trackable", 1e-9)),
        )
        histogram._zero = int(data.get("zero", 0))
        histogram._count = int(data.get("count", 0))
        histogram._sum = float(data.get("sum", 0.0))
        histogram._min = math.inf if data.get("min") is None else float(data["min"])
        histogram._max = -math.inf if data.get("max") is None else float(data["max"])
        histogram._buckets = {
            int(index): int(count) for index, count in data.get("buckets", {}).items()
        }
        return histogram

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LogLinearHistogram(count={self._count}, p50={self.p50:.4g}, "
            f"p99={self.p99:.4g}, max={self.max:.4g})"
        )
