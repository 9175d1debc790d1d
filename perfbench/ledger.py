"""Outside-in tracing: the benchmark wraps each layer's public functions.

No program file records these spans; :class:`Tracer` patches the public
entry points of the repository's modules for the length of a traced run
and :meth:`Tracer.restore` puts the originals back.  Spans (name, start,
end, parent) land in a :class:`repro.obs.InMemoryRecorder`, so the
repository's own exporters write them out.

Two wrapping styles, chosen by call frequency:

* **spans** around calls made a handful of times per function or
  module (an engine's ``replay``, a log flush, a DD search);
* **aggregates** around per-row entry points (``append_row``,
  ``observe_row``, every ``HostPool`` method): one counter bump and two
  clock reads per call, charged to the innermost open span so that span
  self times stay exact.  A span per call would double a chaos replay.

A name imported elsewhere with ``from module import name`` is patched in
every ``repro`` module that bound it, not only where it is defined.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable

from repro.bundle import AppBundle
from repro.core import ast_transform, callgraph, granularity
from repro.core.debloater import ModuleDebloater
from repro.core.execution import LoadedApp
from repro.core.journal import ProbeJournal
from repro.obs import InMemoryRecorder
from repro.platform import fleet
from repro.platform.billing import BillingLedger, FunctionBill
from repro.platform.hosts import HostPool
from repro.platform.instance import FunctionInstance
from repro.platform.kernel import KernelReplayer
from repro.platform.logs import ExecutionLog
from repro.platform.replay import TraceReplayer
from repro.platform.telemetry import TelemetrySink

import summary

#: ``HostPool`` methods on the serve path (all timed as one layer).
HOST_METHODS = (
    "advance", "crash_time", "lost_in_flight", "reserve_for", "admit",
    "bind", "cancel", "observe_footprint", "adjust", "record_use",
    "release", "retire", "evacuate",
)


def _arg(fn: Callable, name: str) -> Callable[[tuple, dict], Any]:
    """Getter for parameter *name* of *fn* from a call's ``(args, kwargs)``."""
    params = list(inspect.signature(fn).parameters)
    index = params.index(name)

    def get(args: tuple, kwargs: dict) -> Any:
        return args[index] if index < len(args) else kwargs[name]

    return get


def _length_of(fn: Callable, name: str) -> Callable[[tuple, dict], int]:
    get = _arg(fn, name)
    return lambda args, kwargs: len(get(args, kwargs))


def _one(args: tuple, kwargs: dict) -> int:
    return 1


def _record_function(args: tuple, kwargs: dict) -> str:
    """The function of ``ExecutionLog.append(self, record)``."""
    return args[1].function


class Tracer:
    """Spans plus aggregate counters, recorded from outside the program."""

    def __init__(self, recorder: InMemoryRecorder | None = None) -> None:
        self.recorder = recorder if recorder is not None else InMemoryRecorder()
        #: span id (None outside any span) -> layer -> [calls, rows, seconds]
        self.agg: dict[int | None, dict[str, list]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0, 0.0])
        )
        #: function -> rows that reached ExecutionLog per ingest path
        self.paths: dict[str, dict[str, int]] = defaultdict(
            lambda: {"bulk": 0, "row": 0}
        )
        self._patches: list[tuple[Any, str, Any]] = []
        self._in_aggregate = False

    # -- patching ------------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, cls: type, name: str, make: Callable) -> None:
        self._set(cls, name, make(cls.__dict__[name]))

    def _wrap_function(self, module: Any, name: str, make: Callable) -> None:
        original = getattr(module, name)
        wrapper = make(original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, label: str | None = None) -> Callable:
        """A span per call; *label* names a parameter to record with it."""
        recorder = self.recorder

        def make(fn: Callable) -> Callable:
            get = _arg(fn, label) if label is not None else None

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                attrs = {"label": get(args, kwargs)} if get is not None else {}
                with recorder.span(name, **attrs):
                    return fn(*args, **kwargs)

            return wrapper

        return make

    def _aggregate(
        self,
        layer: str,
        rows: Callable[[tuple, dict], int] | None = None,
        path: tuple[str, Callable[[tuple, dict], str]] | None = None,
    ) -> Callable:
        """Time calls in aggregate; a call made inside another aggregated
        call is part of the outer one and is not counted again."""
        tracer = self
        current = self.recorder.current_span
        clock = time.perf_counter

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer._in_aggregate:
                    return fn(*args, **kwargs)
                tracer._in_aggregate = True
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    tracer._in_aggregate = False
                    span = current()
                    entry = tracer.agg[span.span_id if span else None][layer]
                    entry[0] += 1
                    entry[2] += elapsed
                    if rows is not None:
                        count = rows(args, kwargs)
                        entry[1] += count
                        if path is not None:
                            kind, function = path
                            tracer.paths[function(args, kwargs)][kind] += count

            return wrapper

        return make

    # -- layer sets ----------------------------------------------------------

    def install_log_paths(self) -> None:
        """``ExecutionLog`` ingest, keyed by function and by path taken."""
        log = ExecutionLog
        for method, rows, kind, function in (
            ("append", _one, "row", _record_function),
            ("append_row", _one, "row", _arg(log.append_row, "function")),
            ("append_rows", _length_of(log.append_rows, "timestamps"), "bulk",
             _arg(log.append_rows, "function")),
            ("append_columns", _length_of(log.append_columns, "timestamps"),
             "bulk", _arg(log.append_columns, "function")),
        ):
            self._wrap_method(log, method, self._aggregate(
                "logs", rows, (kind, function)
            ))

    def install_replay(self, *, inline: bool = True) -> None:
        """Fleet-level spans; with *inline*, every layer a shard runs.

        Leave *inline* off for a pooled call: workers inherit the
        wrappers but never ship their spans back.
        """
        self._wrap_function(fleet, "_run_shards_supervised", self._span("fleet.shards"))
        self._wrap_function(fleet, "_merge_report", self._span("fleet.merge_report"))
        self._wrap_function(fleet, "_merge_logs", self._span("fleet.merge_logs"))
        if not inline:
            return
        self._wrap_function(fleet, "_replay_shard", self._span("fleet.shard"))
        self._wrap_function(
            fleet, "_replay_one", self._span("fleet.function", label="name")
        )
        engine = self._span("engine.replay", label="function_name")
        self._wrap_method(KernelReplayer, "replay", engine)
        self._wrap_method(TraceReplayer, "replay", engine)
        self._wrap_method(ExecutionLog, "flush_spill", self._span("logs.flush"))
        self._wrap_method(BillingLedger, "reconcile", self._span("billing.reconcile"))
        self.install_log_paths()
        sink = TelemetrySink
        for method, rows in (
            ("observe", _one),
            ("observe_row", _one),
            ("observe_rows", _length_of(sink.observe_rows, "rows")),
            ("observe_columns", _length_of(sink.observe_columns, "statuses")),
        ):
            self._wrap_method(sink, method, self._aggregate("telemetry", rows))
        # Buffered rows are folded on read: that fold is telemetry work too.
        self._wrap_method(sink, "rollups", self._aggregate("telemetry_fold"))
        for method in ("charge_invocation", "charge_throttle"):
            self._wrap_method(BillingLedger, method, self._aggregate("billing"))
        for method in ("charge_batch", "charge_block"):
            self._wrap_method(FunctionBill, method, self._aggregate("billing"))
        for method in HOST_METHODS:
            self._wrap_method(HostPool, method, self._aggregate("hosts"))
        for method in ("initialize", "invoke"):
            self._wrap_method(FunctionInstance, method, self._aggregate("instance"))

    def install_trim(self) -> None:
        """The trim layers below the program's own pipeline/DD/oracle spans."""
        self._wrap_method(AppBundle, "clone", self._span("bundle.clone"))
        self._wrap_method(
            ModuleDebloater,
            "debloat_module",
            self._span("debloater.debloat_module", label="dotted"),
        )
        self._wrap_function(
            granularity, "decompose_module", self._span("granularity.decompose")
        )
        for name in ("build_call_graph", "build_bundle_call_graph"):
            self._wrap_function(callgraph, name, self._span("callgraph.build"))
        self._wrap_function(
            ast_transform, "rebuild_source", self._aggregate("ast_transform", _one)
        )
        self._wrap_method(ProbeJournal, "append", self._aggregate("journal", _one))
        self._wrap_method(LoadedApp, "load", self._aggregate("execution", _one))

    # -- reading the ledger --------------------------------------------------

    def tree(self) -> "SpanTree":
        return SpanTree(self)

    def annotate(self) -> None:
        """Copy aggregate counters onto their spans for the trace viewers."""
        by_id = {span.span_id: span for span in self.recorder.spans}
        for span_id, layers in self.agg.items():
            span = by_id.get(span_id)
            if span is None:
                continue
            for layer, (calls, rows, seconds) in layers.items():
                span.attrs[f"{layer}.calls"] = calls
                span.attrs[f"{layer}.rows"] = rows
                span.attrs[f"{layer}.s"] = seconds


class SpanTree:
    """Finished spans indexed for per-subtree sums and self times."""

    def __init__(self, tracer: Tracer) -> None:
        self.spans = {span.span_id: span for span in tracer.recorder.spans}
        self.agg = tracer.agg
        self.children: dict[int | None, list[int]] = defaultdict(list)
        for span in self.spans.values():
            self.children[span.parent_id].append(span.span_id)
        extra = {
            span_id: sum(entry[2] for entry in layers.values())
            for span_id, layers in tracer.agg.items()
            if span_id is not None
        }
        self.self_s = summary.self_times(
            [(s.span_id, s.parent_id, s.start_s, s.end_s) for s in self.spans.values()],
            extra,
        )

    def subtree(self, roots: list[int]) -> list[int]:
        found: list[int] = []
        stack = list(roots)
        while stack:
            span_id = stack.pop()
            found.append(span_id)
            stack.extend(self.children.get(span_id, ()))
        return found

    def named(self, ids: list[int], name: str) -> list:
        return [self.spans[i] for i in ids if self.spans[i].name == name]

    def total(self, ids: list[int], name: str) -> float:
        return sum(span.duration_s for span in self.named(ids, name))

    def self_total(self, ids: list[int], name: str) -> float:
        return sum(self.self_s[span.span_id] for span in self.named(ids, name))

    def aggregate(self, ids: list[int], layer: str) -> tuple[int, int, float]:
        calls = rows = 0
        seconds = 0.0
        for span_id in ids:
            entry = self.agg.get(span_id, {}).get(layer)
            if entry is not None:
                calls += entry[0]
                rows += entry[1]
                seconds += entry[2]
        return calls, rows, seconds

    def has_ancestor(self, span_id: int, name: str) -> bool:
        parent = self.spans[span_id].parent_id
        while parent is not None and parent in self.spans:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent_id
        return False


# -- per-layer metrics ---------------------------------------------------------


def replay_layers(tree: SpanTree, call) -> dict[str, float]:
    """Layer metrics of one traced ``replay_fleet`` call."""
    result = call.detail["result"]
    ids = tree.subtree([call.detail["root"]])
    paths = call.detail["paths"] or {}
    batch = sum(1 for p in paths.values() if p["bulk"] > p["row"])
    stats = list(result.stats.values())
    hosts = result.report.meta.get("hosts", {})
    instance = tree.aggregate(ids, "instance")
    logs = tree.aggregate(ids, "logs")
    telemetry = tree.aggregate(ids, "telemetry")
    return {
        "fleet.shard_s": tree.total(ids, "fleet.shards") or tree.total(ids, "fleet.shard"),
        "fleet.function_self_s": tree.self_total(ids, "fleet.function"),
        "fleet.merge_s": call.wall_s - result.wall_s,
        "fleet.pool_s": 0.0,
        "fleet.merged_log_mb": (
            result.merged_log.stat().st_size / 2**20 if result.merged_log else 0.0
        ),
        "engine.replay_s": tree.total(ids, "engine.replay"),
        "engine.self_s": tree.self_total(ids, "engine.replay"),
        "engine.batch_functions": batch,
        "engine.row_functions": len(paths) - batch,
        "engine.attempts_per_arrival": (
            sum(s.attempts for s in stats) / sum(s.arrivals for s in stats)
        ),
        "instance.calls": instance[0],
        "instance.s": instance[2],
        "logs.append_s": logs[2],
        "logs.calls": logs[0],
        "logs.rows": logs[1],
        "logs.flush_s": tree.total(ids, "logs.flush"),
        "logs.spill_mb": sum(p.stat().st_size for p in result.log_paths.values()) / 2**20,
        "telemetry.observe_s": telemetry[2] + tree.aggregate(ids, "telemetry_fold")[2],
        "telemetry.calls": telemetry[0],
        "telemetry.rows": telemetry[1],
        "billing.charge_s": tree.aggregate(ids, "billing")[2],
        "billing.reconcile_s": tree.total(ids, "billing.reconcile"),
        "hosts.s": tree.aggregate(ids, "hosts")[2],
        "hosts.placements": hosts.get("placements", 0),
        "hosts.capacity_throttles": hosts.get("capacity_throttles", 0),
        "hosts.instances_lost": hosts.get("instances_lost", 0),
        "faults.throttled": sum(s.throttled for s in stats),
        "faults.crashed": result.status_counts().get("crashed", 0),
        "retry.retries": sum(s.retries for s in stats),
        "retry.dead_letters": sum(s.dead_letters for s in stats),
    }


def busiest_shard_s(tree: SpanTree, call, shards) -> float:
    """Inline time of the slowest of *shards*, from a 1-worker traced call."""
    ids = tree.subtree([call.detail["root"]])
    per_function: dict[str, float] = defaultdict(float)
    for span in tree.named(ids, "fleet.function"):
        per_function[span.attrs["label"]] += span.duration_s
    return max(sum(per_function[t.function_id] for t in shard) for shard in shards)


def trim_layers(tree: SpanTree, call, phase: str) -> dict[str, float]:
    """Layer metrics of one trim phase (``trim.fresh`` or ``trim.seeded``)."""
    ids = tree.subtree(call.detail["roots"][phase])
    checks = tree.named(ids, "oracle.check")
    check_ms = [span.duration_s * 1000.0 for span in checks]
    probes = [s for s in checks if tree.has_ancestor(s.span_id, "dd.minimize")]
    index = 0 if phase == "trim.fresh" else 1
    results = [
        result
        for reports in call.detail["reports"].values()
        for result in reports[index].module_results
    ]
    execution = tree.aggregate(ids, "execution")
    journal = tree.aggregate(ids, "journal")
    found_tail = summary.tail(check_ms)
    return {
        "pipeline.analyze_s": tree.total(ids, "analyze"),
        "pipeline.profile_s": tree.total(ids, "profile"),
        "pipeline.rank_s": tree.total(ids, "rank"),
        "pipeline.verify_s": tree.total(ids, "verify"),
        "bundle.clone_s": tree.total(ids, "bundle.clone"),
        "dd.probes": len(probes),
        "dd.cache_hits": sum(r.cache_hits for r in results),
        "dd.pass_ratio": (
            sum(1 for s in probes if s.attrs.get("passed")) / len(probes)
            if probes else 0.0
        ),
        "dd.self_s": tree.self_total(ids, "dd.minimize"),
        "oracle.checks": len(checks),
        "oracle.check_s": sum(span.duration_s for span in checks),
        "oracle.check_ms.p50": summary.percentile(check_ms, 50.0) if check_ms else 0.0,
        "oracle.check_ms.tail": found_tail[1] if found_tail else 0.0,
        "execution.load_s": execution[2],
        "ast_transform.rebuild_s": tree.aggregate(ids, "ast_transform")[2],
        "journal.write_s": journal[2],
        "journal.records": journal[0],
        "granularity.decompose_s": tree.total(ids, "granularity.decompose"),
        "callgraph.build_s": tree.total(ids, "callgraph.build"),
        "debloater.debloat_s": tree.total(ids, "debloater.debloat_module"),
        "debloater.self_s": tree.self_total(ids, "debloater.debloat_module"),
    }
