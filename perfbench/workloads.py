"""The benchmark's workloads: inputs, one measured call, output checks.

Replay fleets, fault plans and retry jitter are generated from the
benchmark seed; trim runs on the fixed Table 1 bundles.  The program only
ever sees the generated bundles and traces.  Why each workload exists is
recorded in ``BENCHMARK.json``; the sizes below are chosen so that:

* ``replay-batch`` and ``replay-chaos`` replay the same fleet shape
  (about 1,000 arrivals per function, capped at 6,250) on one process,
  so the batch engine and the scalar kernel feed the same sinks, and
  ``replay-sharded`` is that shape at 600k arrivals on two workers;
* ``replay-chaos`` keeps its merged log well under the 256 MiB
  in-memory merge limit, and ``replay-sharded`` pushes its shard logs
  past it, so both of ``_merge_logs``'s paths are measured (the checks
  below fail the run if a fleet lands on the wrong side);
* ``trim`` keeps one probe-heavy app (resnet, ~420 oracle probes) and
  the large-module app (huggingface, whose seeded re-trim is dominated by
  decomposition and debloater bookkeeping); a pass over both takes about
  40 s on a 2-CPU box, which is why the list is not longer.
"""

from __future__ import annotations

import random
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.measure import measure_cold
from repro.core.incremental import IncrementalTrim, TrimLog
from repro.core.oracle import OracleRunner
from repro.core.pipeline import LambdaTrim
from repro.platform import fleet, replay_fleet
from repro.platform.faults import FaultPlan, FaultRates, HostFault
from repro.platform.hosts import HostConfig
from repro.platform.retry import RetryPolicy
from repro.traces import FleetTrace
from repro.workloads.apps import build_app
from repro.workloads.toy import build_toy_torch_app

import summary
from ledger import Tracer

EVENT = {"x": [1.0, 2.0], "y": [3.0, 4.0]}
#: ``generate_invocations`` cap: one busy function cannot dwarf the fleet.
MAX_PER_FUNCTION = 6250
SPILL_THRESHOLD = 4096
#: Functions per run re-replayed on the reference engine (under 1 s each).
REFERENCE_SAMPLE = 2
TRIM_APPS = ("resnet", "huggingface")
HOUR_S = 3600.0


def cpu_seconds() -> float:
    """User + system CPU of this process and every reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Call:
    """One measured public call (replay) or pass over the app list (trim)."""

    ops: int
    #: ``time.perf_counter()`` at the start and end of the timed region.
    start: float
    end: float
    cpu_s: float
    #: Operations that failed a check made on this call alone.
    failed: int = 0
    #: Per-function ``(delivered, dead_letters)`` of a replay call.
    outcomes: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class Verdict:
    """Checks made once per run, after the measured phase."""

    messages: list[str] = field(default_factory=list)
    #: Outputs (functions, or apps) that failed a check.
    failed_outputs: set[str] = field(default_factory=set)
    #: USD billed for the outputs: the fleet's ledger, or the trimmed
    #: apps' cold-start cost (Figure 8).
    cost_usd: float = 0.0
    #: Deterministic results printed next to the metrics.
    notes: dict = field(default_factory=dict)

    def fail(self, message: str, outputs) -> None:
        self.messages.append("FAIL " + message)
        self.failed_outputs.update(outputs)

    def ok(self, message: str) -> None:
        self.messages.append("ok   " + message)


def _phase(tracer: Tracer | None, name: str, label: str):
    return tracer.recorder.span(name, label=label) if tracer else nullcontext()


@dataclass(frozen=True)
class ReplayShape:
    arrivals: int
    workers: int
    chaos: bool = False
    merged: bool = False


class ReplayWorkload:
    """One seeded fleet replayed through ``replay_fleet``."""

    unit = "arrivals"

    def __init__(self, name: str, shape: ReplayShape, seed: int, work: Path):
        self.name = name
        self.shape = shape
        self.seed = seed
        self.work = work
        self.faults = self.hosts = self.retry = None
        if shape.chaos:
            # Each seed gets its own fault draws and retry jitter.
            self.faults = FaultPlan(
                seed=seed + 1,
                default=FaultRates(
                    cold_start_crash=0.01, exec_crash=0.01, throttle=0.02
                ),
                host_faults=(
                    HostFault(at_s=6 * HOUR_S, kind="crash", host=0),
                    HostFault(at_s=12 * HOUR_S, kind="spot", host=1),
                ),
            )
            self.hosts = HostConfig(count=3, memory_mb=128.0, placement="best-fit")
            self.retry = RetryPolicy(max_attempts=4, seed=seed + 2)
        self._first: tuple | None = None

    # -- inputs --------------------------------------------------------------

    def setup(self, tracer: Tracer | None = None) -> None:
        inputs = self.work / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        self.bundle = build_toy_torch_app(inputs / "toy")
        with tracer.recorder.span("traces.generate") if tracer else nullcontext():
            self.trace = FleetTrace.generate_invocations(
                self.shape.arrivals, seed=self.seed, max_per_function=MAX_PER_FUNCTION
            )
        self.arrivals = {t.function_id: len(t.timestamps) for t in self.trace}

    # -- the measured call ---------------------------------------------------

    def replay(self, out: Path, *, workers: int, engine: str = "auto", trace=None):
        merged = self.shape.merged
        return replay_fleet(
            self.bundle,
            trace if trace is not None else self.trace,
            EVENT,
            workers=workers,
            log_dir=out / "logs",
            merged_log=out / "merged.jsonl" if merged else None,
            dead_letters=out / "dead_letters.jsonl" if self.shape.chaos else None,
            spill_threshold=SPILL_THRESHOLD,
            faults=self.faults,
            hosts=self.hosts,
            retry=self.retry,
            engine=engine,
        )

    def call(self, tracer: Tracer | None = None, *, workers: int | None = None) -> Call:
        """Time one whole ``replay_fleet`` call, merges included."""
        workers = self.shape.workers if workers is None else workers
        out = self.work / f"call-w{workers}"
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.paths.clear()
        cpu0 = cpu_seconds()
        with _phase(tracer, "fleet.replay_fleet", f"workers={workers}") as root:
            start = time.perf_counter()
            result = self.replay(out, workers=workers)
            end = time.perf_counter()
        cpu = cpu_seconds() - cpu0
        outcomes = {
            name: (stats.delivered, stats.dead_letters)
            for name, stats in result.stats.items()
        }
        # Every call of a run must produce the same outcome as the first.
        fingerprint = (result.stats, result.ledger.total)
        if self._first is None:
            self._first = fingerprint
        differs = fingerprint != self._first
        failed = summary.replay_failures(
            self.arrivals, outcomes, self.arrivals if differs else ()
        )
        return Call(
            ops=self.trace.invocations,
            start=start,
            end=end,
            cpu_s=cpu,
            failed=failed,
            outcomes=outcomes,
            detail={
                "result": result,
                "root": root.span_id if root is not None else None,
                "paths": {k: dict(v) for k, v in tracer.paths.items()} if tracer else None,
                "workers": workers,
                "differs": differs,
            },
        )

    def peak_worker_rss_mb(self, calls: list[Call]) -> float:
        """Pool workers' own peaks (the inline path reports the parent)."""
        return max(
            (
                sum(call.detail["result"].worker_peak_rss_mb)
                for call in calls
                if call.detail["workers"] > 1
            ),
            default=0.0,
        )

    # -- checks --------------------------------------------------------------

    def check(
        self,
        calls: list[Call],
        *,
        paths: dict | None = None,
        single: Call | None = None,
    ) -> Verdict:
        """Run-level checks on the last call's outputs.

        *paths* (engine-path accounting) and *single* (a 1-worker replay
        of the sharded fleet) come from the traced run when it has them;
        otherwise they are made here, after the measured phase.
        """
        last = calls[-1].detail["result"]
        verdict = Verdict(cost_usd=last.ledger.total)
        lost = sum(call.failed for call in calls)
        if lost:
            verdict.fail(f"{lost} arrivals lost or differing between calls", ())
        else:
            verdict.ok("delivered + dead letters == arrivals, every call identical")
        self._check_reference(last, verdict)
        shard_bytes = sum(path.stat().st_size for path in last.log_paths.values())
        limit = fleet._MERGE_IN_MEMORY_BYTES
        if self.name == "replay-batch":
            if paths is None:
                paths = self._log_paths()
            rowwise = sorted(f for f, p in paths.items() if p["row"] >= p["bulk"])
            if rowwise:
                verdict.fail(f"{len(rowwise)} functions took the per-row log path", rowwise)
            else:
                verdict.ok(f"all {len(paths)} functions logged through the bulk path")
        if self.name == "replay-chaos":
            if shard_bytes > limit:
                verdict.fail("merged log exceeds the in-memory merge limit", self.arrivals)
            else:
                verdict.ok(f"merged log {shard_bytes / 2**20:.0f} MiB takes the in-memory merge")
        if self.name == "replay-sharded":
            if shard_bytes <= limit:
                verdict.fail("shard logs fit the in-memory merge limit", self.arrivals)
            else:
                verdict.ok(f"shard logs {shard_bytes / 2**20:.0f} MiB take the streaming merge")
            if single is None:
                single = self.call(workers=1)
            self._check_single(last, single.detail["result"], verdict)
        return verdict

    def _check_reference(self, last, verdict: Verdict) -> None:
        """A seeded sample of functions, replayed on the reference engine,
        must write the same per-function log shards byte for byte."""
        names = random.Random(self.seed).sample(sorted(self.arrivals), REFERENCE_SAMPLE)
        sample = FleetTrace(traces=tuple(self.trace.for_function(n) for n in names))
        out = self.work / "reference"
        shutil.rmtree(out, ignore_errors=True)
        reference = self.replay(out, workers=1, engine="reference", trace=sample)
        differ = [
            n for n in names
            if reference.log_paths[n].read_bytes() != last.log_paths[n].read_bytes()
        ]
        if differ:
            verdict.fail(f"log shards differ from the reference engine: {differ}", differ)
        else:
            verdict.ok(f"reference engine writes identical shards for {names}")

    def _log_paths(self) -> dict:
        """Which ExecutionLog path each function's rows took (untimed)."""
        tracer = Tracer()
        tracer.install_log_paths()
        try:
            self.replay(self.work / "paths", workers=1)
        finally:
            tracer.restore()
        return tracer.paths

    def _check_single(self, sharded, single, verdict: Verdict) -> None:
        """The merged log and the report must not depend on the worker count."""
        merged_same = sharded.merged_log.read_bytes() == single.merged_log.read_bytes()
        reports = []
        for tag, result in (("sharded", sharded), ("single", single)):
            path = self.work / f"report-{tag}.json"
            result.report.save(path)
            reports.append(path.read_bytes())
        if merged_same and reports[0] == reports[1]:
            verdict.ok("merged log and report identical to a 1-worker replay")
        else:
            verdict.fail("sharded merged log or report differs from 1 worker", self.arrivals)

    def failed(self, calls: list[Call], verdict: Verdict) -> int:
        """Arrivals lost, or in an output that failed a check, per call."""
        total = 0
        for call in calls:
            outputs = set(verdict.failed_outputs)
            if call.detail["differs"]:
                outputs.update(self.arrivals)
            total += summary.replay_failures(self.arrivals, call.outcomes, outputs)
        return total


class TrimWorkload:
    """λ-trim a fixed app list, then re-trim each app from its own log."""

    name = "trim"
    unit = "apps"

    def __init__(self, work: Path):
        self.work = work

    def setup(self, tracer: Tracer | None = None) -> None:
        inputs = self.work / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        self.bundles = {app: build_app(app, inputs / app) for app in TRIM_APPS}

    def call(self, tracer: Tracer | None = None) -> Call:
        """Fresh ``LambdaTrim.run`` then seeded ``IncrementalTrim.run`` per app."""
        out = self.work / "call"
        shutil.rmtree(out, ignore_errors=True)
        phases: dict[str, list[tuple[float, float]]] = {
            "trim_wall_s": [], "retrim_wall_s": []
        }
        reports: dict[str, tuple] = {}
        failed: list[str] = []
        roots: dict[str, list[int]] = {"trim.fresh": [], "trim.seeded": []}
        cpu0 = cpu_seconds()
        begin = time.perf_counter()
        for app, bundle in self.bundles.items():
            try:
                start = time.perf_counter()
                with _phase(tracer, "trim.fresh", app) as span:
                    fresh = LambdaTrim().run(bundle, out / f"{app}.fresh")
                middle = time.perf_counter()
                with _phase(tracer, "trim.seeded", app) as seeded_span:
                    seeded = IncrementalTrim(log=TrimLog.from_report(fresh)).run(
                        bundle, out / f"{app}.seeded"
                    )
                phases["trim_wall_s"].append((start, middle))
                phases["retrim_wall_s"].append((middle, time.perf_counter()))
                if tracer is not None:
                    roots["trim.fresh"].append(span.span_id)
                    roots["trim.seeded"].append(seeded_span.span_id)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed.append(app)
                continue
            reports[app] = (fresh, seeded)
        end = time.perf_counter()
        cpu = cpu_seconds() - cpu0
        for app, (fresh, seeded) in reports.items():
            if not self._passes(app, fresh, seeded):
                failed.append(app)
        return Call(
            ops=len(self.bundles),
            start=begin,
            end=end,
            cpu_s=cpu,
            failed=len(failed),
            detail={
                "phases": phases,
                "reports": reports,
                "failed_apps": failed,
                "roots": roots,
            },
        )

    def _passes(self, app: str, fresh, seeded) -> bool:
        """Both outputs verified, pass the original's oracle, and agree."""
        runner = OracleRunner(self.bundles[app])
        return (
            fresh.verify_passed is True
            and seeded.verify_passed is True
            and runner.check(fresh.output).passed
            and runner.check(seeded.output).passed
            and TrimLog.from_report(seeded).kept == TrimLog.from_report(fresh).kept
        )

    def peak_worker_rss_mb(self, calls: list[Call]) -> float:
        return 0.0

    def check(self, calls: list[Call], **_: object) -> Verdict:
        verdict = Verdict()
        bad = sorted({app for call in calls for app in call.detail["failed_apps"]})
        if bad:
            verdict.fail(f"trim failed or did not pass its checks: {bad}", bad)
        else:
            verdict.ok(
                "fresh and seeded trims verified, pass the original oracle, "
                "and keep the same attributes"
            )
        cold = [
            measure_cold(fresh.output)
            for fresh, _ in calls[-1].detail["reports"].values()
        ]
        verdict.cost_usd = sum(stats.cost_per_100k for stats in cold)
        verdict.notes["trimmed_cold_e2e_s"] = sum(stats.e2e_s for stats in cold)
        verdict.notes["trimmed_cost_usd"] = verdict.cost_usd
        return verdict

    def failed(self, calls: list[Call], verdict: Verdict) -> int:
        return sum(call.failed for call in calls)


SHAPES = {
    # 200k arrivals (~200 functions): fleet composition, which varies with
    # the seed, averages out enough to keep runs on different seeds close.
    "replay-batch": ReplayShape(arrivals=200_000, workers=1),
    "replay-chaos": ReplayShape(arrivals=200_000, workers=1, chaos=True, merged=True),
    "replay-sharded": ReplayShape(arrivals=600_000, workers=2, merged=True),
}


def make(name: str, seed: int, work: Path):
    if name == "trim":
        # The inputs are the fixed Table 1 bundles: the seed changes nothing.
        return TrimWorkload(work)
    return ReplayWorkload(name, SHAPES[name], seed, work)

