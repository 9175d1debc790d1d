"""Execution logs: the emulator's equivalent of AWS REPORT lines.

The paper "performs 100 invocations and collects metrics from the AWS
Lambda execution log", querying per-invocation start type, init duration,
billed duration, and memory.  :class:`InvocationRecord` carries exactly
those fields (plus the unbilled phase breakdown of Figure 1), and
:class:`ExecutionLog` provides the query surface the analysis layer uses.

:class:`LogQuery` is the CloudWatch-Logs-Insights-style half of that
surface: a lazy filter / group-by / aggregate builder over REPORT fields
(``log.query().cold().group_by("function").aggregate(p95="p95:e2e_s")``),
with aggregation specs named the way an Insights query names them
(``count``, ``sum:field``, ``mean:field``, ``min:``/``max:``,
``pNN:field``).  Logs also round-trip through JSON lines so a saved run
can be re-queried offline.

**Columnar storage.**  Fleet-scale replays log millions of invocations,
so :class:`ExecutionLog` no longer keeps a Python list of dataclass
instances.  It is an append-only *columnar* store: numeric fields live in
``array('d')``/``array('q')`` columns, low-cardinality strings (function,
instance id, error type) and enums are interned into small tables, and
regular ``req-NNNNNN`` request ids are packed as integers.  Appending a
record decomposes it into columns; reading materialises a fresh
:class:`InvocationRecord` view on demand, so the query/analysis surface
is unchanged while a stored record costs ~100 bytes instead of the ~500+
of a dict-backed dataclass.

With a ``spill_threshold``, the oldest rows stream to a JSON-lines spill
file once the in-memory portion grows past the threshold, which bounds
resident memory for arbitrarily long replays; iteration and queries
transparently stream spilled rows back.  Aggregation over a query is a
single streaming pass — matching records are materialised one at a time,
never held as a list (custom callable aggregates are the one exception).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
from array import array
from itertools import repeat
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.errors import PlatformError

try:  # optional [perf] extra: only append_columns (the columnar loop) needs it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

import enum

__all__ = [
    "StartType",
    "InvocationStatus",
    "STATUSES",
    "InvocationRecord",
    "ExecutionLog",
    "LogQuery",
    "GroupedLogQuery",
    "iter_jsonl",
]


class StartType(str, enum.Enum):
    """Whether an invocation paid initialization (cold) or reused state."""

    COLD = "cold"
    WARM = "warm"
    #: The request was throttled before any instance work happened.
    THROTTLED = "throttled"


class InvocationStatus(str, enum.Enum):
    """How an invocation ended, Lambda-style.

    ``SUCCESS`` and ``ERROR`` are the application outcomes the paper's
    oracle distinguishes; the remaining four are *platform* outcomes:
    the configured ``timeout_s`` fired, the memory ceiling OOM-killed the
    instance, concurrency control rejected the request, or the instance
    crashed (injected via :mod:`repro.platform.faults`).  Timeouts and
    OOM kills are billed, throttles are not — matching AWS billing.
    """

    SUCCESS = "success"
    ERROR = "error"
    TIMEOUT = "timeout"
    OOM = "oom"
    THROTTLED = "throttled"
    CRASHED = "crashed"


#: Every status value, in a stable rendering order.
STATUSES = tuple(status.value for status in InvocationStatus)


@dataclass(frozen=True, slots=True)
class InvocationRecord:
    """One invocation's full accounting (an AWS REPORT line, enriched).

    Durations are virtual seconds.  ``instance_init_s`` and
    ``transmission_s`` are the unbilled platform phases of Figure 1 (zero
    on warm starts); ``init_duration_s`` is the billed Function
    Initialization; ``restore_duration_s`` replaces it under SnapStart.
    """

    request_id: str
    function: str
    start_type: StartType
    timestamp: float
    value: Any
    instance_id: str
    instance_init_s: float = 0.0
    transmission_s: float = 0.0
    init_duration_s: float = 0.0
    restore_duration_s: float = 0.0
    exec_duration_s: float = 0.0
    routing_s: float = 0.0
    billed_duration_s: float = 0.0
    memory_config_mb: int = 128
    peak_memory_mb: float = 0.0
    cost_usd: float = 0.0
    error_type: str | None = None
    status: InvocationStatus = InvocationStatus.SUCCESS

    def __post_init__(self) -> None:
        # Normalise: accept plain strings, and derive ERROR for records
        # built by pre-status code paths that only set ``error_type``.
        status = self.status
        if status.__class__ is not InvocationStatus:
            status = InvocationStatus(status)
        if status is InvocationStatus.SUCCESS and self.error_type is not None:
            status = InvocationStatus.ERROR
        object.__setattr__(self, "status", status)

    @property
    def e2e_s(self) -> float:
        """End-to-end latency: request to response (Section 2.2.2)."""
        return (
            self.routing_s
            + self.instance_init_s
            + self.transmission_s
            + self.init_duration_s
            + self.restore_duration_s
            + self.exec_duration_s
        )

    @property
    def is_cold(self) -> bool:
        return self.start_type is StartType.COLD

    @property
    def ok(self) -> bool:
        return self.status is InvocationStatus.SUCCESS

    @property
    def billed(self) -> bool:
        """Whether the platform charges for this invocation (throttles are
        the only unbilled outcome; timeouts and OOM kills are billed)."""
        return self.status is not InvocationStatus.THROTTLED

    def report_line(self) -> str:
        """Render like an AWS Lambda REPORT log line."""
        return (
            f"REPORT RequestId: {self.request_id}\t"
            f"Duration: {self.exec_duration_s * 1000:.2f} ms\t"
            f"Billed Duration: {self.billed_duration_s * 1000:.0f} ms\t"
            f"Memory Size: {self.memory_config_mb} MB\t"
            f"Max Memory Used: {self.peak_memory_mb:.0f} MB\t"
            + (
                f"Init Duration: {self.init_duration_s * 1000:.2f} ms"
                if self.is_cold
                else ""
            )
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict (``value`` must itself be JSON-serializable)."""
        return {
            "request_id": self.request_id,
            "function": self.function,
            "start_type": self.start_type.value,
            "timestamp": self.timestamp,
            "value": self.value,
            "instance_id": self.instance_id,
            "instance_init_s": self.instance_init_s,
            "transmission_s": self.transmission_s,
            "init_duration_s": self.init_duration_s,
            "restore_duration_s": self.restore_duration_s,
            "exec_duration_s": self.exec_duration_s,
            "routing_s": self.routing_s,
            "billed_duration_s": self.billed_duration_s,
            "memory_config_mb": self.memory_config_mb,
            "peak_memory_mb": self.peak_memory_mb,
            "cost_usd": self.cost_usd,
            "error_type": self.error_type,
            "status": self.status.value,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "InvocationRecord":
        known = {f.name for f in dataclass_fields(cls)}
        payload = {k: v for k, v in data.items() if k in known}
        payload["start_type"] = StartType(payload["start_type"])
        if "status" in payload:  # pre-status JSONL logs omit the field
            payload["status"] = InvocationStatus(payload["status"])
        return cls(**payload)


def iter_jsonl(path: Path | str) -> Iterator[InvocationRecord]:
    """Stream records from a JSON-lines log without loading it whole."""
    with Path(path).open("r", encoding="utf-8") as handle:
        for index, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                yield InvocationRecord.from_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ValueError(f"line {index + 1}: bad record: {exc}") from exc


def _percentile(values: list[float], q: float) -> float:
    """Exact order statistic at rank ``floor(q * (n - 1))`` — the same
    convention :class:`~repro.obs.histogram.LogLinearHistogram` sketches."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[int(math.floor(q * (len(ordered) - 1)))]


def _parse_spec(spec: str) -> tuple[str, str | None, float]:
    """Split an Insights-style spec into ``(op, field, quantile)``."""
    if spec == "count":
        return "count", None, 0.0
    op, _, field_name = spec.partition(":")
    if not field_name:
        raise ValueError(
            f"aggregate spec {spec!r} needs a field, e.g. '{op or 'sum'}:cost_usd'"
        )
    if op in ("sum", "mean", "min", "max"):
        return op, field_name, 0.0
    if op.startswith("p"):
        try:
            q = float(op[1:]) / 100.0
        except ValueError:
            q = -1.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"bad percentile in aggregate spec {spec!r}")
        return "quantile", field_name, q
    raise ValueError(f"unknown aggregate op {op!r} (count, sum, mean, min, max, pNN)")


class LogQuery:
    """A lazy, chainable filter / group-by / aggregate over REPORT records.

    Chaining copies the predicate list, never the records, so building up
    a query is cheap; records are only touched by the terminal calls
    (:meth:`records`, :meth:`count`, :meth:`aggregate`).  Terminal calls
    other than :meth:`records`/:meth:`group_by` stream — matching records
    are materialised one at a time, so querying a spilled multi-million
    row log never re-loads it into memory.
    """

    def __init__(
        self,
        records: Iterable[InvocationRecord],
        predicates: tuple[Callable[[InvocationRecord], bool], ...] = (),
    ):
        self._records = records
        self._predicates = predicates

    def _extend(self, predicate: Callable[[InvocationRecord], bool]) -> "LogQuery":
        return LogQuery(self._records, self._predicates + (predicate,))

    def _matching(self) -> Iterator[InvocationRecord]:
        predicates = self._predicates
        if not predicates:
            yield from self._records
            return
        for record in self._records:
            if all(predicate(record) for predicate in predicates):
                yield record

    # -- filters -----------------------------------------------------------

    def filter(self, predicate: Callable[[InvocationRecord], bool]) -> "LogQuery":
        return self._extend(predicate)

    def where(self, **equals: Any) -> "LogQuery":
        """Keep records whose fields equal the given values
        (``where(function="api", start_type=StartType.COLD)``)."""
        items = tuple(equals.items())
        return self._extend(
            lambda r: all(getattr(r, name) == value for name, value in items)
        )

    def cold(self) -> "LogQuery":
        return self._extend(lambda r: r.is_cold)

    def warm(self) -> "LogQuery":
        return self._extend(lambda r: not r.is_cold)

    def ok(self) -> "LogQuery":
        return self._extend(lambda r: r.ok)

    def failed(self) -> "LogQuery":
        return self._extend(lambda r: not r.ok)

    def with_status(self, *statuses: InvocationStatus | str) -> "LogQuery":
        """Keep records whose status is one of *statuses*."""
        wanted = frozenset(InvocationStatus(s) for s in statuses)
        return self._extend(lambda r: r.status in wanted)

    def billed(self) -> "LogQuery":
        """Keep records the platform charges for (everything but throttles)."""
        return self._extend(lambda r: r.billed)

    def between(
        self, start: float | None = None, end: float | None = None
    ) -> "LogQuery":
        """Keep records with ``start <= timestamp < end`` (virtual time)."""
        return self._extend(
            lambda r: (start is None or r.timestamp >= start)
            and (end is None or r.timestamp < end)
        )

    # -- terminals ---------------------------------------------------------

    def records(self) -> list[InvocationRecord]:
        return list(self._matching())

    def count(self) -> int:
        return sum(1 for _ in self._matching())

    def status_counts(self) -> dict[str, int]:
        """Per-status record counts over the matching records."""
        counts: dict[str, int] = {}
        for record in self._matching():
            counts[record.status.value] = counts.get(record.status.value, 0) + 1
        return counts

    def values(self, field_name: str) -> list[float]:
        return [float(getattr(r, field_name)) for r in self._matching()]

    def aggregate(
        self, **aggs: str | Callable[[list[InvocationRecord]], float]
    ) -> dict[str, float]:
        """Compute named aggregates over the matching records.

        String specs stream in a single pass; percentile and mean specs
        buffer only the float column they need.  A *callable* spec is
        handed the full matching record list, so mixing one in falls back
        to materialising the match set.
        """
        if any(callable(spec) for spec in aggs.values()):
            matched = self.records()
            result = {}
            for name, spec in aggs.items():
                if callable(spec):
                    result[name] = spec(matched)
                else:
                    result[name] = LogQuery(matched).aggregate(**{name: spec})[
                        name
                    ]
            return result

        parsed = {name: _parse_spec(spec) for name, spec in aggs.items()}
        count = 0
        sums: dict[str, float] = {}
        mins: dict[str, float] = {}
        maxs: dict[str, float] = {}
        # mean/quantile need the full column (fmean precision, exact order
        # statistics) — floats only, never record objects.
        columns: dict[str, list[float]] = {
            field: []
            for op, field, _ in parsed.values()
            if op in ("mean", "quantile")
        }
        sum_fields = {f for op, f, _ in parsed.values() if op == "sum"}
        min_fields = {f for op, f, _ in parsed.values() if op == "min"}
        max_fields = {f for op, f, _ in parsed.values() if op == "max"}

        for record in self._matching():
            count += 1
            for field in sum_fields:
                sums[field] = sums.get(field, 0.0) + float(getattr(record, field))
            for field in min_fields:
                value = float(getattr(record, field))
                if field not in mins or value < mins[field]:
                    mins[field] = value
            for field in max_fields:
                value = float(getattr(record, field))
                if field not in maxs or value > maxs[field]:
                    maxs[field] = value
            for field, column in columns.items():
                column.append(float(getattr(record, field)))

        result = {}
        for name, (op, field, q) in parsed.items():
            if op == "count":
                result[name] = float(count)
            elif op == "sum":
                result[name] = sums.get(field, 0.0)
            elif op == "mean":
                column = columns[field]
                result[name] = statistics.fmean(column) if column else 0.0
            elif op == "min":
                result[name] = mins.get(field, 0.0)
            elif op == "max":
                result[name] = maxs.get(field, 0.0)
            else:
                result[name] = _percentile(columns[field], q)
        return result

    def group_by(
        self, key: str | Callable[[InvocationRecord], Any]
    ) -> "GroupedLogQuery":
        """Partition matching records by a field name or key function."""
        fn = key if callable(key) else (lambda r, _name=key: getattr(r, _name))
        groups: dict[Any, list[InvocationRecord]] = {}
        for record in self._matching():
            groups.setdefault(fn(record), []).append(record)
        return GroupedLogQuery(groups)


class GroupedLogQuery:
    """The result of :meth:`LogQuery.group_by`: per-group aggregation."""

    def __init__(self, groups: dict[Any, list[InvocationRecord]]):
        self.groups = groups

    def aggregate(
        self, **aggs: str | Callable[[list[InvocationRecord]], float]
    ) -> dict[Any, dict[str, float]]:
        result = {}
        for key in sorted(self.groups, key=str):
            query = LogQuery(self.groups[key])
            result[key] = query.aggregate(**aggs)
        return result

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self) -> Iterator[Any]:
        return iter(sorted(self.groups, key=str))


def _intern_key(value: Any) -> Any:
    """The value-cache key of a record value: the value itself when it is
    hashable, else its canonical JSON, else ``None`` (not interned)."""
    if value is None:
        return None
    try:
        hash(value)
    except TypeError:
        try:
            return json.dumps(value, sort_keys=True)
        except (TypeError, ValueError):
            return None
    return value


class _StringTable:
    """Append-only string interner: value -> small int and back."""

    __slots__ = ("values", "_index")

    def __init__(self) -> None:
        self.values: list[str] = []
        self._index: dict[str, int] = {}

    def intern(self, value: str) -> int:
        index = self._index.get(value)
        if index is None:
            index = self._index[value] = len(self.values)
            self.values.append(value)
        return index


#: Float-valued record fields stored as ``array('d')`` columns, in
#: :meth:`InvocationRecord.to_dict` order (the spill writer relies on it).
_FLOAT_COLUMNS = (
    "timestamp",
    "instance_init_s",
    "transmission_s",
    "init_duration_s",
    "restore_duration_s",
    "exec_duration_s",
    "routing_s",
    "billed_duration_s",
    "peak_memory_mb",
    "cost_usd",
)

_START_TYPES = tuple(StartType)
_START_TYPE_INDEX = {member: i for i, member in enumerate(_START_TYPES)}
_STATUS_TYPES = tuple(InvocationStatus)
_STATUS_INDEX = {member: i for i, member in enumerate(_STATUS_TYPES)}
_COLD_START = _START_TYPE_INDEX[StartType.COLD]
_THROTTLED_STATUS = _STATUS_INDEX[InvocationStatus.THROTTLED]

#: Pre-encoded JSON fragments for the enum-valued spill fields.
_START_JSON = tuple(json.dumps(member.value) for member in _START_TYPES)
_STATUS_JSON = tuple(json.dumps(member.value) for member in _STATUS_TYPES)

def _repr_column(column) -> list[str]:
    """``repr`` strings for one float column, deduplicated when repeats win.

    Spill columns repeat heavily (routing is constant, restore is all
    zero, billed durations quantize to the ms grid), so repr-per-distinct
    plus a C gather beats repr-per-row.  Distinctness is decided on the
    raw IEEE bit patterns — ``np.unique`` on the values would conflate
    ``-0.0`` with ``0.0`` and change the rendered sign.  High-cardinality
    columns (timestamps) fall through to the plain repr sweep.
    """
    if _np is not None and len(column) >= 256:
        bits = _np.frombuffer(column, dtype=_np.int64)
        unique, inverse = _np.unique(bits, return_inverse=True)
        if len(unique) <= len(column) // 2:
            table = _np.asarray(
                [repr(v) for v in unique.view(_np.float64).tolist()],
                dtype=object,
            )
            return table[inverse].tolist()
    return list(map(repr, column))


#: One spill line with every field pre-rendered; keys mirror json.dumps of
#: :meth:`ExecutionLog._row_dict` exactly (order, separators, spacing).
_ROW_TEMPLATE = (
    '{"request_id": %s, "function": %s, "start_type": %s, "timestamp": %s'
    ', "value": %s, "instance_id": %s, "instance_init_s": %s'
    ', "transmission_s": %s, "init_duration_s": %s, "restore_duration_s": %s'
    ', "exec_duration_s": %s, "routing_s": %s, "billed_duration_s": %s'
    ', "memory_config_mb": %d, "peak_memory_mb": %s, "cost_usd": %s'
    ', "error_type": %s, "status": %s}\n'
)


class ExecutionLog:
    """Append-only columnar store of invocation records with analysis helpers.

    The public surface is record-shaped — iteration yields
    :class:`InvocationRecord` views, :meth:`query` starts a LogQuery —
    but rows live in typed columns (see the module docstring), so a
    million-invocation replay holds ~100 MB instead of half a gigabyte.

    With ``spill_threshold`` set, every time the in-memory portion
    reaches the threshold it is appended to ``spill_path`` as JSON lines
    and dropped, bounding resident memory; iteration streams the spilled
    prefix back from disk.  Spilling requires JSON-serializable record
    values (the same contract as :meth:`write_jsonl`).
    """

    def __init__(
        self,
        records: Iterable[InvocationRecord] | None = None,
        *,
        spill_threshold: int | None = None,
        spill_path: Path | str | None = None,
    ):
        if spill_threshold is not None:
            if spill_threshold < 1:
                raise PlatformError(
                    f"spill threshold must be positive: {spill_threshold}"
                )
            if spill_path is None:
                raise PlatformError("spill_threshold requires a spill_path")
        self.spill_threshold = spill_threshold
        self.spill_path = Path(spill_path) if spill_path is not None else None
        self._spilled = 0
        # Incremental per-function accounting, maintained on every append so
        # reconciliation and status counts never re-materialise records.
        # Billing entries are [cost, invocations, cold_starts, throttles,
        # throttled_cost]; costs accumulate in append order, so the sums are
        # float-identical to a streaming pass over the records.
        self._billing: dict[str, list] = {}
        self._status_totals: dict[str, dict[str, int]] = {}
        # Per-function cold-start cost, accumulated in append order — the
        # float-exact target a cold-start AttributionStore recorded by the
        # same run must sum to (see cold_start_cost_usd).
        self._cold_costs: dict[str, float] = {}
        self._reset_columns()
        if records is not None:
            for record in records:
                self.append(record)

    def _reset_columns(self) -> None:
        self._floats = {name: array("d") for name in _FLOAT_COLUMNS}
        self._memory_config = array("q")
        self._start_types = array("b")
        self._statuses = array("b")
        self._functions = array("i")
        self._instances = array("i")
        self._errors = array("i")  # -1 encodes None
        self._request_nums = array("q")  # -1 encodes an irregular id
        self._request_odd: dict[int, str] = {}
        self._function_table = _StringTable()
        self._instance_table = _StringTable()
        self._error_table = _StringTable()
        self._values: list[Any] = []
        self._value_cache: dict[Any, Any] = {}
        self._size = 0

    # -- ingestion ---------------------------------------------------------

    def append(self, record: InvocationRecord) -> None:
        floats = self._floats
        for name in _FLOAT_COLUMNS:
            floats[name].append(getattr(record, name))
        self._memory_config.append(record.memory_config_mb)
        status_index = _STATUS_INDEX[record.status]
        start_index = _START_TYPE_INDEX[record.start_type]
        self._start_types.append(start_index)
        self._statuses.append(status_index)
        self._functions.append(self._function_table.intern(record.function))
        self._instances.append(self._instance_table.intern(record.instance_id))
        error = record.error_type
        self._errors.append(-1 if error is None else self._error_table.intern(error))

        request_id = record.request_id
        num = -1
        if request_id.startswith("req-"):
            tail = request_id[4:]
            if tail.isdigit():
                candidate = int(tail)
                if f"req-{candidate:06d}" == request_id:
                    num = candidate
        self._request_nums.append(num)
        if num < 0:
            self._request_odd[self._spilled + self._size] = request_id

        value = record.value
        if value is not None:
            # Dedup repeated payloads: hashable values directly, others by
            # canonical JSON.  Interned values are shared between views.
            try:
                value = self._value_cache.setdefault(value, value)
            except TypeError:
                try:
                    key = json.dumps(value, sort_keys=True)
                except (TypeError, ValueError):
                    pass
                else:
                    value = self._value_cache.setdefault(key, value)
        self._values.append(value)
        self._account(record.function, start_index, status_index, record.cost_usd)
        self._size += 1

        if self.spill_threshold is not None and self._size >= self.spill_threshold:
            self._spill()

    def append_row(
        self,
        request_num: int,
        function: str,
        start_index: int,
        status_index: int,
        timestamp: float,
        value: Any,
        instance_id: str,
        instance_init_s: float,
        transmission_s: float,
        init_duration_s: float,
        restore_duration_s: float,
        exec_duration_s: float,
        routing_s: float,
        billed_duration_s: float,
        memory_config_mb: int,
        peak_memory_mb: float,
        cost_usd: float,
        error_type: str | None,
        value_key: Any = None,
    ) -> None:
        """Append one invocation from decomposed fields: a one-row
        :meth:`append_rows` (see there for the argument conventions)."""
        self.append_rows(
            function, routing_s, (request_num,), (start_index,),
            (status_index,), (timestamp,), (value,), (value_key,),
            (instance_id,), (instance_init_s,), (transmission_s,),
            (init_duration_s,), (exec_duration_s,), (billed_duration_s,),
            (memory_config_mb,), (peak_memory_mb,), (cost_usd,),
            (error_type,), restore_duration_s=(restore_duration_s,),
        )

    def append_rows(
        self,
        function: str,
        routing_s: float,
        request_nums: Iterable[int],
        start_indices: Iterable[int],
        status_indices: Iterable[int],
        timestamps: Iterable[float],
        values: Iterable[Any],
        value_keys: Iterable[Any],
        instance_ids: Iterable[str],
        instance_init_s: Iterable[float],
        transmission_s: Iterable[float],
        init_duration_s: Iterable[float],
        exec_duration_s: Iterable[float],
        billed_duration_s: Iterable[float],
        memory_config_mb: Iterable[int],
        peak_memory_mb: Iterable[float],
        cost_usd: Iterable[float],
        error_types: Iterable[str | None],
        *,
        restore_duration_s: Iterable[float] | None = None,
    ) -> None:
        """Append one function's batch of invocations column-at-a-time.

        The bulk twin of :meth:`append` for the fast replay engine, which
        already holds the decomposed fields: no
        :class:`InvocationRecord` is built, no enum lookups run.  Every
        ``request_nums`` entry must be the regular ``req-NNNNNN``
        integer; ``start_indices``/``status_indices`` are positions in the
        module tables (``_START_TYPE_INDEX`` / ``_STATUS_INDEX``).
        ``value_keys`` may carry precomputed interning keys (the hashable
        value itself, or its canonical JSON) so repeated payloads dedup
        without re-serialising; a ``None`` key is derived from its value.
        ``routing_s`` is constant across the batch (one function, one
        platform config); ``restore_duration_s`` defaults to all zeros
        (SnapStart functions never reach the fast engine).

        Typed columns extend in C (one call per column instead of one per
        cell), string/value interning runs through list comprehensions,
        and the per-function accounting folds in a single tight loop —
        with costs still accumulated strictly in row order, so billing
        sums stay bit-identical to appending the equivalent records one
        by one.  Rows, materialised views, and fully flushed spill bytes
        are identical to the sequential path; only *when* a spill happens
        may shift to batch boundaries, which checkpoints never see
        (:meth:`snapshot` flushes the spill before it records the
        watermark).
        """
        request_nums = list(request_nums)
        n = len(request_nums)
        if n == 0:
            return
        floats = self._floats
        floats["timestamp"].extend(timestamps)
        floats["instance_init_s"].extend(instance_init_s)
        floats["transmission_s"].extend(transmission_s)
        floats["init_duration_s"].extend(init_duration_s)
        if restore_duration_s is None:
            floats["restore_duration_s"].frombytes(bytes(8 * n))  # all 0.0
        else:
            floats["restore_duration_s"].extend(restore_duration_s)
        floats["exec_duration_s"].extend(exec_duration_s)
        floats["routing_s"].extend(repeat(routing_s, n))
        floats["billed_duration_s"].extend(billed_duration_s)
        floats["peak_memory_mb"].extend(peak_memory_mb)
        cost_column = floats["cost_usd"]
        start = len(cost_column)
        cost_column.extend(cost_usd)
        self._memory_config.extend(memory_config_mb)
        starts_column = self._start_types
        statuses_column = self._statuses
        starts_column.extend(start_indices)
        statuses_column.extend(status_indices)
        self._functions.extend(repeat(self._function_table.intern(function), n))
        intern_instance = self._instance_table.intern
        self._instances.extend([intern_instance(i) for i in instance_ids])
        intern_error = self._error_table.intern
        self._errors.extend(
            [-1 if e is None else intern_error(e) for e in error_types]
        )
        self._request_nums.extend(request_nums)
        interned = self._interned
        self._values.extend([interned(v, k) for v, k in zip(values, value_keys)])

        entry = self._billing.get(function)
        if entry is None:
            entry = self._billing[function] = [0.0, 0, 0, 0, 0.0]
        counts = self._status_totals.get(function)
        if counts is None:
            counts = self._status_totals[function] = {}
        cold_cost = self._cold_costs.get(function, 0.0)
        billed_cost = entry[0]
        billed_count = entry[1]
        cold_count = entry[2]
        batch_cold_start = cold_count
        for i in range(start, start + n):
            status_index = statuses_column[i]
            if status_index != _THROTTLED_STATUS:
                cost = cost_column[i]
                billed_cost += cost
                billed_count += 1
                if starts_column[i] == _COLD_START:
                    cold_count += 1
                    cold_cost += cost
            else:
                entry[3] += 1
                if cost_column[i]:
                    entry[4] += cost_column[i]
            status = STATUSES[status_index]
            counts[status] = counts.get(status, 0) + 1
        entry[0] = billed_cost
        entry[1] = billed_count
        entry[2] = cold_count
        if cold_count != batch_cold_start or function in self._cold_costs:
            self._cold_costs[function] = cold_cost
        self._size += n

        if self.spill_threshold is not None and self._size >= self.spill_threshold:
            self._spill()

    def append_columns(
        self,
        function: str,
        routing_s: float,
        rid_start: int,
        *,
        start_types,
        status_indices,
        timestamps,
        instance_runs,
        value_runs,
        error_runs,
        instance_init_s,
        transmission_s,
        init_duration_s,
        exec_duration_s,
        billed_duration_s,
        memory_config_mb,
        peak_memory_mb,
        cost_usd,
    ) -> None:
        """Append one function's batch straight from numpy arrays.

        The zero-copy twin of :meth:`append_rows` for the fast engine's
        columnar loop: float/int columns land via ``frombytes`` of the
        arrays' native little-endian buffers (typed columns and numpy
        share the same C layout), repetitive string-ish columns arrive
        run-length encoded — ``instance_runs`` as ``(instance_id, count)``
        pairs, ``value_runs`` as ``(value, value_key, count)`` (a ``None``
        key is derived from its value, as on :meth:`append_rows`),
        ``error_runs`` as ``(error_type_or_None, count)`` — and the
        accounting folds run as seeded ``cumsum`` left-folds,
        bit-identical to the sequential loop.  Every request id is
        regular: row *i* is ``req-{rid_start + i}``.  No row may be
        throttled (the columnar loop never serves throttles);
        ``restore_duration_s`` is zero.
        """
        n = int(len(timestamps))
        if n == 0:
            return
        floats = self._floats
        floats["timestamp"].frombytes(timestamps.tobytes())
        floats["instance_init_s"].frombytes(instance_init_s.tobytes())
        floats["transmission_s"].frombytes(transmission_s.tobytes())
        floats["init_duration_s"].frombytes(init_duration_s.tobytes())
        floats["restore_duration_s"].frombytes(bytes(8 * n))  # all 0.0
        floats["exec_duration_s"].frombytes(exec_duration_s.tobytes())
        floats["routing_s"].extend(repeat(routing_s, n))
        floats["billed_duration_s"].frombytes(billed_duration_s.tobytes())
        floats["peak_memory_mb"].frombytes(peak_memory_mb.tobytes())
        floats["cost_usd"].frombytes(cost_usd.tobytes())
        self._memory_config.frombytes(memory_config_mb.tobytes())
        self._start_types.frombytes(start_types.tobytes())
        self._statuses.frombytes(status_indices.tobytes())
        function_index = self._function_table.intern(function)
        self._functions.extend(array("i", (function_index,)) * n)
        instances_column = self._instances
        intern_instance = self._instance_table.intern
        for instance_id, count in instance_runs:
            index = intern_instance(instance_id)
            if count == 1:
                instances_column.append(index)
            else:
                instances_column.extend(array("i", (index,)) * count)
        errors_column = self._errors
        intern_error = self._error_table.intern
        for error, count in error_runs:
            index = -1 if error is None else intern_error(error)
            if count == 1:
                errors_column.append(index)
            else:
                errors_column.extend(array("i", (index,)) * count)
        self._request_nums.frombytes(
            _np.arange(rid_start, rid_start + n, dtype=_np.int64).tobytes()
        )
        values_column = self._values
        for value, value_key, count in value_runs:
            value = self._interned(value, value_key)
            if count == 1:
                values_column.append(value)
            else:
                values_column.extend([value] * count)

        entry = self._billing.get(function)
        if entry is None:
            entry = self._billing[function] = [0.0, 0, 0, 0, 0.0]
        counts = self._status_totals.get(function)
        if counts is None:
            counts = self._status_totals[function] = {}
        entry[0] = float(
            _np.cumsum(_np.concatenate(((entry[0],), cost_usd)))[-1]
        )
        entry[1] += n
        cold_mask = start_types == _COLD_START
        cold_n = int(cold_mask.sum())
        entry[2] += cold_n
        if cold_n:
            self._cold_costs[function] = float(
                _np.cumsum(
                    _np.concatenate(
                        (
                            (self._cold_costs.get(function, 0.0),),
                            cost_usd[cold_mask],
                        )
                    )
                )[-1]
            )
        unique, first, unique_counts = _np.unique(
            status_indices, return_index=True, return_counts=True
        )
        for position in _np.argsort(first, kind="stable").tolist():
            status = STATUSES[int(unique[position])]
            counts[status] = counts.get(status, 0) + int(
                unique_counts[position]
            )
        self._size += n

        if self.spill_threshold is not None and self._size >= self.spill_threshold:
            self._spill()

    def _interned(self, value: Any, key: Any) -> Any:
        """*value*, deduplicated against earlier payloads under *key* (or
        under :func:`_intern_key` of it when *key* is ``None``)."""
        if value is None:
            return None
        if key is None:
            key = _intern_key(value)
            if key is None:
                return value
        return self._value_cache.setdefault(key, value)

    def _account(
        self, function: str, start_index: int, status_index: int, cost: float
    ) -> None:
        entry = self._billing.get(function)
        if entry is None:
            entry = self._billing[function] = [0.0, 0, 0, 0, 0.0]
        if status_index != _THROTTLED_STATUS:
            entry[0] += cost
            entry[1] += 1
            if start_index == _COLD_START:
                entry[2] += 1
                self._cold_costs[function] = (
                    self._cold_costs.get(function, 0.0) + cost
                )
        else:
            entry[3] += 1
            if cost:
                entry[4] += cost
        counts = self._status_totals.get(function)
        if counts is None:
            counts = self._status_totals[function] = {}
        status = STATUSES[status_index]
        counts[status] = counts.get(status, 0) + 1

    def _row_dict(self, i: int) -> dict[str, Any]:
        """The :meth:`InvocationRecord.to_dict` payload, straight from the
        columns (identical key order, so spilled bytes match)."""
        floats = self._floats
        error_index = self._errors[i]
        return {
            "request_id": self._request_id(i),
            "function": self._function_table.values[self._functions[i]],
            "start_type": _START_TYPES[self._start_types[i]].value,
            "timestamp": floats["timestamp"][i],
            "value": self._values[i],
            "instance_id": self._instance_table.values[self._instances[i]],
            "instance_init_s": floats["instance_init_s"][i],
            "transmission_s": floats["transmission_s"][i],
            "init_duration_s": floats["init_duration_s"][i],
            "restore_duration_s": floats["restore_duration_s"][i],
            "exec_duration_s": floats["exec_duration_s"][i],
            "routing_s": floats["routing_s"][i],
            "billed_duration_s": floats["billed_duration_s"][i],
            "memory_config_mb": self._memory_config[i],
            "peak_memory_mb": floats["peak_memory_mb"][i],
            "cost_usd": floats["cost_usd"][i],
            "error_type": (
                None if error_index < 0 else self._error_table.values[error_index]
            ),
            "status": _STATUS_TYPES[self._statuses[i]].value,
        }

    def _request_id(self, i: int) -> str:
        num = self._request_nums[i]
        if num >= 0:
            return f"req-{num:06d}"
        return self._request_odd[self._spilled + i]

    def _materialize(self, i: int) -> InvocationRecord:
        floats = self._floats
        error_index = self._errors[i]
        return InvocationRecord(
            request_id=self._request_id(i),
            function=self._function_table.values[self._functions[i]],
            start_type=_START_TYPES[self._start_types[i]],
            timestamp=floats["timestamp"][i],
            value=self._values[i],
            instance_id=self._instance_table.values[self._instances[i]],
            instance_init_s=floats["instance_init_s"][i],
            transmission_s=floats["transmission_s"][i],
            init_duration_s=floats["init_duration_s"][i],
            restore_duration_s=floats["restore_duration_s"][i],
            exec_duration_s=floats["exec_duration_s"][i],
            routing_s=floats["routing_s"][i],
            billed_duration_s=floats["billed_duration_s"][i],
            memory_config_mb=self._memory_config[i],
            peak_memory_mb=floats["peak_memory_mb"][i],
            cost_usd=floats["cost_usd"][i],
            error_type=(
                None if error_index < 0 else self._error_table.values[error_index]
            ),
            status=_STATUS_TYPES[self._statuses[i]],
        )

    def _render_lines(self) -> list[str] | None:
        """Every in-memory row as its spill line (trailing newline included).

        Byte-identical to ``json.dumps(self._row_dict(i)) + "\\n"`` but an
        order of magnitude cheaper: strings encode once per interned table
        entry, enum fragments come from module tables, and the numeric
        fields go through ``repr`` — exactly what the C encoder emits for
        finite floats and ints.  Returns ``None`` when any float column
        holds a non-finite value or a record value refuses to serialize;
        callers then fall back to the general per-row encoder (which spells
        infinities the ``json`` way).  Soundness of the finiteness probe:
        IEEE addition propagates NaN, and an infinity only cancels into
        NaN, so a non-finite member always leaves ``sum()`` non-finite.
        A finite-but-overflowing sum merely wastes the fast path.
        """
        floats = self._floats
        for column in floats.values():
            total = sum(column)
            if total - total != 0.0:
                return None
        fn_json = [json.dumps(v) for v in self._function_table.values]
        inst_json = [json.dumps(v) for v in self._instance_table.values]
        err_json = [json.dumps(v) for v in self._error_table.values]
        value_json: dict[int, str] = {}
        values_col = []
        vappend = values_col.append
        vget = value_json.get
        for value in self._values:
            if value is None:
                vappend("null")
                continue
            key = id(value)
            vj = vget(key)
            if vj is None:
                try:
                    vj = value_json[key] = json.dumps(value)
                except (TypeError, ValueError):
                    return None
            vappend(vj)
        odd = self._request_odd
        spilled = self._spilled
        if not odd:
            # No odd ids anywhere in the log: every num is regular.
            rid_col = list(map('"req-%06d"'.__mod__, self._request_nums))
        else:
            rid_col = [
                f'"req-{num:06d}"' if num >= 0 else json.dumps(odd[spilled + i])
                for i, num in enumerate(self._request_nums)
            ]
        # Column-at-a-time assembly: one repr sweep per float column (the
        # dominant cost, unavoidable — it is what the C encoder would do
        # row-wise) and table lookups mapped per column, then a single
        # %-format per row over precomputed fragments.
        return list(
            map(
                _ROW_TEMPLATE.__mod__,
                zip(
                    rid_col,
                    map(fn_json.__getitem__, self._functions),
                    map(_START_JSON.__getitem__, self._start_types),
                    map(repr, floats["timestamp"]),
                    values_col,
                    map(inst_json.__getitem__, self._instances),
                    _repr_column(floats["instance_init_s"]),
                    _repr_column(floats["transmission_s"]),
                    _repr_column(floats["init_duration_s"]),
                    _repr_column(floats["restore_duration_s"]),
                    _repr_column(floats["exec_duration_s"]),
                    _repr_column(floats["routing_s"]),
                    _repr_column(floats["billed_duration_s"]),
                    self._memory_config,
                    _repr_column(floats["peak_memory_mb"]),
                    _repr_column(floats["cost_usd"]),
                    ("null" if e < 0 else err_json[e] for e in self._errors),
                    map(_STATUS_JSON.__getitem__, self._statuses),
                )
            )
        )

    def _render_payload(self) -> bytes:
        """Every in-memory row as one encoded UTF-8 chunk.

        Rendering to bytes once and writing through a binary handle skips
        the TextIOWrapper encode pass over the whole block — the bytes on
        disk are identical (UTF-8, ``\\n`` line ends on every platform).
        """
        lines = self._render_lines()
        if lines is None:
            lines = [
                json.dumps(self._row_dict(i)) + "\n" for i in range(self._size)
            ]
        return "".join(lines).encode("utf-8")

    def _spill(self) -> None:
        """Append every in-memory row to the spill file and drop them."""
        assert self.spill_path is not None
        self.spill_path.parent.mkdir(parents=True, exist_ok=True)
        with self.spill_path.open("ab") as handle:
            handle.write(self._render_payload())
        self._spilled += self._size
        self._reset_columns()

    def flush_spill(self) -> Path:
        """Push the in-memory tail to the spill file and return its path.

        Afterwards the spill file holds the complete log, byte-identical
        to :meth:`write_jsonl` — the fleet engine uses this to turn each
        shard's bounded-memory log into its on-disk per-function shard.
        """
        if self.spill_path is None:
            raise PlatformError("log has no spill_path to flush to")
        if self._size:
            self._spill()
        elif not self.spill_path.exists():
            self.spill_path.parent.mkdir(parents=True, exist_ok=True)
            self.spill_path.touch()
        return self.spill_path

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """Durable JSON-safe state for kill-and-resume replay.

        A spill-backed log pushes its in-memory tail to disk and fsyncs
        the spill first, so the recorded byte offset is a crash-safe
        watermark: on restore, anything past it (rows appended after this
        snapshot, including a torn final line) is truncated and
        re-executed.  A memory-only log snapshots just its incremental
        aggregates — row payloads are not retained across a resume, which
        the fleet path never needs (reconciliation and status counts run
        off the aggregates).
        """
        state: dict[str, Any] = {
            "rows": self._spilled + self._size,
            "billing": {k: list(v) for k, v in self._billing.items()},
            "status_totals": {
                k: dict(v) for k, v in self._status_totals.items()
            },
            "cold_costs": dict(self._cold_costs),
        }
        if self.spill_path is not None:
            self.flush_spill()
            with self.spill_path.open("rb") as handle:
                os.fsync(handle.fileno())
            state["offset"] = self.spill_path.stat().st_size
        else:
            state["offset"] = None
        return state

    def restore(self, state: dict) -> int:
        """Adopt a :meth:`snapshot`; returns re-executed row count.

        The log must be freshly constructed (same ``spill_path`` shape as
        the snapshotting run).  Spill rows past the snapshot watermark
        are truncated — they will be re-executed and re-appended.
        """
        if (state["offset"] is None) != (self.spill_path is None):
            raise PlatformError(
                "checkpointed log and resumed log disagree on spill backing"
            )
        reexecuted = 0
        if self.spill_path is not None:
            from repro.platform.checkpoint import truncate_spill

            reexecuted = truncate_spill(self.spill_path, state["offset"])
        self._reset_columns()
        self._spilled = int(state["rows"])
        self._billing = {
            name: [float(entry[0]), int(entry[1]), int(entry[2]),
                   int(entry[3]), float(entry[4])]
            for name, entry in state["billing"].items()
        }
        self._status_totals = {
            name: {status: int(count) for status, count in counts.items()}
            for name, counts in state["status_totals"].items()
        }
        self._cold_costs = {
            name: float(cost) for name, cost in state["cold_costs"].items()
        }
        return reexecuted

    # -- read side ---------------------------------------------------------

    @property
    def spilled(self) -> int:
        """How many rows live in the spill file rather than in memory."""
        return self._spilled

    @property
    def records(self) -> list[InvocationRecord]:
        """Every record, materialised as a list (compatibility surface;
        prefer iteration or :meth:`query` on large logs)."""
        return list(self)

    def query(self) -> LogQuery:
        """Start a log-insights-style query over the stored records."""
        return LogQuery(self)

    def write_jsonl(self, path: Path | str) -> Path:
        """Persist the log as one JSON object per line (streaming)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if self._spilled:
            assert self.spill_path is not None
            if path.resolve() == self.spill_path.resolve():
                raise PlatformError("cannot write_jsonl onto the live spill file")
            shutil.copyfile(self.spill_path, path)
            mode = "ab"
        else:
            mode = "wb"
        with path.open(mode) as handle:
            handle.write(self._render_payload())
        return path

    @classmethod
    def load_jsonl(cls, path: Path | str) -> "ExecutionLog":
        """Reconstruct a log saved by :meth:`write_jsonl`."""
        log = cls()
        for record in iter_jsonl(path):
            log.append(record)
        return log

    def __len__(self) -> int:
        return self._spilled + self._size

    def __iter__(self) -> Iterator[InvocationRecord]:
        if self._spilled:
            assert self.spill_path is not None
            yield from iter_jsonl(self.spill_path)
        for i in range(self._size):
            yield self._materialize(i)

    def for_function(self, name: str) -> list[InvocationRecord]:
        return [r for r in self if r.function == name]

    def cold_starts(self, function: str | None = None) -> list[InvocationRecord]:
        return [
            r
            for r in self
            if r.is_cold and (function is None or r.function == function)
        ]

    def warm_starts(self, function: str | None = None) -> list[InvocationRecord]:
        return [
            r
            for r in self
            if r.start_type is StartType.WARM
            and (function is None or r.function == function)
        ]

    def status_counts(self, function: str | None = None) -> dict[str, int]:
        """Per-status counts, optionally scoped to one function.

        Served from the incremental per-function totals — O(functions),
        never a pass over the records.
        """
        if function is not None:
            return dict(self._status_totals.get(function, {}))
        totals: dict[str, int] = {}
        for counts in self._status_totals.values():
            for status, count in counts.items():
                totals[status] = totals.get(status, 0) + count
        return totals

    def billing_summary(self) -> dict[str, tuple[float, int, int, int, float]]:
        """Per-function billing totals, maintained incrementally on append.

        Maps function name to ``(cost_usd, billed_invocations,
        cold_starts, throttles, throttled_cost_usd)``.  Costs accumulate
        in append order, so the float sums are bit-identical to a
        streaming pass over the records — the ledger reconciler relies
        on this to verify a multi-million row log in O(functions).
        """
        return {name: tuple(entry) for name, entry in self._billing.items()}

    def cold_start_cost_usd(self, function: str | None = None) -> float:
        """Billed cost of cold-start records, accumulated in append order.

        The attribution cross-check: for any one function, an
        :class:`~repro.obs.attribution.AttributionStore` recorded by the
        same run sums (:meth:`~repro.obs.attribution.AttributionStore.
        total_cost_usd`) to exactly this value, bit for bit — profiles
        and records are appended in the same order, and each profile's
        rows sum to its record's ``cost_usd`` bit-exactly.  With
        ``function=None`` the per-function totals are combined in sorted
        order (deterministic, but a different addition order than a
        single interleaved stream).
        """
        if function is not None:
            return self._cold_costs.get(function, 0.0)
        total = 0.0
        for name in sorted(self._cold_costs):
            total += self._cold_costs[name]
        return total

    def error_rate(self, function: str | None = None) -> float:
        """Fraction of invocations that did not end in ``SUCCESS``."""
        total = errors = 0
        for r in self:
            if function is None or r.function == function:
                total += 1
                if not r.ok:
                    errors += 1
        return errors / total if total else 0.0

    def total_cost(self, function: str | None = None) -> float:
        if function is None and not self._spilled:
            return sum(self._floats["cost_usd"])
        return sum(
            r.cost_usd for r in self if function is None or r.function == function
        )

    def mean_e2e_s(self, function: str | None = None) -> float:
        values = [
            r.e2e_s for r in self if function is None or r.function == function
        ]
        return statistics.fmean(values) if values else 0.0

    def mean_billed_s(self, function: str | None = None) -> float:
        values = [
            r.billed_duration_s
            for r in self
            if function is None or r.function == function
        ]
        return statistics.fmean(values) if values else 0.0

    def peak_memory_mb(self, function: str | None = None) -> float:
        values = [
            r.peak_memory_mb
            for r in self
            if function is None or r.function == function
        ]
        return max(values) if values else 0.0
