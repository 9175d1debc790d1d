"""Fleet-scale trace replay: sharded processes, deterministic merge.

The single-function :class:`~repro.platform.replay.TraceReplayer` drives
one arrival series through one emulator.  This module scales that to an
entire multi-function Azure-style fleet (millions of invocations) by
exploiting the independence already built into the platform model:

* warm-instance state, keep-alive, and instance ids are per-function;
* the fault injector draws from one seeded RNG *per emulator*, so a
  fresh emulator per function gives every function its own deterministic
  fault stream;
* request ids are per-emulator counters.

Each function is therefore replayed on its **own fresh emulator**, which
makes every per-function artifact — records, rollups, bills — a pure
function of ``(bundle, trace, seed)`` and utterly independent of which
process replayed it, in which order, next to which neighbours.  Shards
(whole functions, balanced by invocation count) run on a
``ProcessPoolExecutor``; the parent then merges deterministically:

* **telemetry** — per-function window rollups come back as dicts and the
  fleet-wide ``"*"`` windows are rebuilt by merging the per-function
  sketches in sorted-function order (mergeable histograms are exact
  under merge, so percentiles match a single-sink run).  The fleet
  ``concurrency_peak`` is the *sum* of per-function peaks — an upper
  bound on the true interleaved depth, which a sharded run cannot
  observe;
* **billing** — per-function bills are float-exact (each was summed in
  arrival order inside its worker) and the merged ledger lists them in
  sorted-function order;
* **logs** — workers stream per-function JSON-lines shards; the merged
  export is a k-way merge ordered by ``(timestamp, function, position)``.

Exports are byte-identical for the same seed at any worker count —
``workers=1`` runs the same per-function engine inline and is the serial
baseline the throughput benchmark compares against.  SLO rules are
evaluated once, on the merged windows, in the same order a live
:class:`~repro.platform.telemetry.TelemetrySink` finalizes them.

With ``checkpoint_dir`` set the fleet replay is **kill-and-resume
safe**: workers snapshot their engine state every ``checkpoint_every``
served attempts (see :mod:`repro.platform.checkpoint`), the parent
supervises the pool and automatically resumes shards whose worker dies
mid-replay, and a crashed *parent* can be resumed with ``resume=True``.
Because each function's checkpoint pins every RNG, counter, and running
float sum, the merged exports are byte-identical to an uninterrupted
same-seed run no matter where the kill landed — the only cost is
re-executing the invocations since the dead shard's last checkpoint.

Not supported here: fallback managers (their breaker couples functions
through shared mutable state, the one thing sharding forbids) — chaos
runs that need self-healing keep using ``TraceReplayer`` directly.
"""

from __future__ import annotations

import heapq
import json
import multiprocessing
import resource
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.bundle import AppBundle
from repro.core.journal import atomic_write_bytes, atomic_write_lines
from repro.errors import PlatformError
from repro.obs import InMemoryRecorder, get_recorder, use_recorder
from repro.obs.attribution import AttributionStore
from repro.platform.billing import BillingLedger, FunctionBill
from repro.platform.checkpoint import ReplayCheckpoint, sweep_stale
from repro.platform.emulator import DEFAULT_KEEP_ALIVE_S, LambdaEmulator
from repro.platform.faults import FaultPlan
from repro.platform.hosts import HostConfig
from repro.platform.kernel import KernelReplayer, TemplateStore, _np
from repro.platform.logs import ExecutionLog, InvocationRecord, iter_jsonl
from repro.platform.replay import TraceReplayer
from repro.platform.retry import DeadLetter, RetryPolicy
from repro.platform.slo import FLEET, SloPolicy, SloRule
from repro.platform.telemetry import FleetReport, TelemetrySink, WindowRollup
from repro.traces.fleet import FleetTrace

__all__ = [
    "FunctionReplayStats",
    "FleetReplayResult",
    "replay_fleet",
    "report_from_log",
]


@dataclass(frozen=True, slots=True)
class FunctionReplayStats:
    """One function's replay outcome, as reported by its shard worker."""

    function: str
    arrivals: int
    requests: int
    delivered: int
    dead_letters: int
    attempts: int
    retries: int
    throttled: int
    cold_starts: int
    warm_starts: int
    #: Total records logged (attempts, including retries and throttles).
    records: int
    #: Per-status record counts over the function's full log.
    status_counts: dict[str, int]
    cost_usd: float
    peak_concurrency: int


@dataclass
class FleetReplayResult:
    """The merged outcome of one fleet replay."""

    report: FleetReport
    ledger: BillingLedger
    stats: dict[str, FunctionReplayStats]
    workers: int
    wall_s: float
    #: Per-function JSON-lines log shards (empty without ``log_dir``).
    log_paths: dict[str, Path] = field(default_factory=dict)
    merged_log: Path | None = None
    #: Per-function cold-start profile spools (empty without
    #: ``profile_dir``) and their deterministic merge.
    profile_paths: dict[str, Path] = field(default_factory=dict)
    merged_profiles: Path | None = None
    #: Dead-letter JSONL export (``None`` unless ``dead_letters`` was
    #: passed) and per-function host-pool stats (``None`` without
    #: ``hosts``).
    dead_letters: Path | None = None
    host_stats: dict[str, dict[str, Any]] | None = None
    #: Shard executions that adopted on-disk checkpoint state (supervisor
    #: restarts plus ``resume=True`` adoptions) and the invocations that
    #: had to run twice because they landed past a dead worker's last
    #: checkpoint.  Both zero on an uninterrupted run.
    resumed_shards: int = 0
    reexecuted_invocations: int = 0
    #: Peak RSS (MB) of whichever process replayed each shard, in shard
    #: submission order — the pool workers, or this process itself on the
    #: inline ``workers=1`` path.  ``RUSAGE_CHILDREN`` in the parent only
    #: reflects reaped workers, so the benchmark's per-worker breakdown
    #: comes from here.  Informational only; never exported.
    worker_peak_rss_mb: list[float] = field(default_factory=list)

    @property
    def arrivals(self) -> int:
        return sum(s.arrivals for s in self.stats.values())

    @property
    def records(self) -> int:
        return sum(s.records for s in self.stats.values())

    @property
    def delivered(self) -> int:
        return sum(s.delivered for s in self.stats.values())

    @property
    def total_cost(self) -> float:
        return self.ledger.total

    @property
    def throughput(self) -> float:
        """Replayed arrivals per wall-clock second."""
        return self.arrivals / self.wall_s if self.wall_s > 0 else 0.0

    def status_counts(self) -> dict[str, int]:
        """Fleet-wide per-status record counts."""
        totals: dict[str, int] = {}
        for stats in self.stats.values():
            for status, count in stats.status_counts.items():
                totals[status] = totals.get(status, 0) + count
        return totals


def _replay_one(
    bundle: AppBundle,
    name: str,
    timestamps: tuple[float, ...],
    cfg: dict,
    store: TemplateStore | None = None,
) -> dict:
    """Replay one function on a fresh emulator; return picklable results."""
    # Cross-process obs: when the parent had a live recorder at
    # replay_fleet() time, each function replays under its own
    # InMemoryRecorder and ships the counter/gauge totals back for the
    # parent to fold in sorted-function order.  Spans and events stay in
    # the worker — they carry wall-clock times, which must never leak
    # into a deterministic merge.
    shard_recorder = InMemoryRecorder() if cfg.get("spool_obs") else None
    scope = (
        use_recorder(shard_recorder) if shard_recorder is not None else nullcontext()
    )
    with scope:
        payload = _replay_one_inner(bundle, name, timestamps, cfg, store)
    if shard_recorder is not None:
        registry = shard_recorder.registry
        payload["obs"] = {
            "counters": {c.name: c.value for c in registry.counters()},
            "gauges": {g.name: g.value for g in registry.gauges()},
        }
    return payload


def _count_rows(path: Path) -> int:
    """Rows in a JSONL file, counting a torn final line as one row."""
    data = path.read_bytes()
    rows = data.count(b"\n")
    if data and not data.endswith(b"\n"):
        rows += 1
    return rows


def _replay_one_inner(
    bundle: AppBundle,
    name: str,
    timestamps: tuple[float, ...],
    cfg: dict,
    store: TemplateStore | None = None,
) -> dict:
    checkpoint: ReplayCheckpoint | None = None
    resume_state: dict | None = None
    if cfg.get("checkpoint_dir") is not None:
        checkpoint = ReplayCheckpoint(
            Path(cfg["checkpoint_dir"]), name, every=cfg.get("checkpoint_every")
        )
    resuming = checkpoint is not None and bool(cfg.get("resume"))
    if resuming:
        done = checkpoint.load_done()
        if done is not None:
            # The function finished before the crash: its spill and
            # profile exports were durable before the done marker was
            # written, so the recorded payload is adopted wholesale
            # instead of replaying anything.
            checkpoint.clear()
            payload = dict(done)
            payload["stats"] = FunctionReplayStats(**payload["stats"])
            if payload.get("dead_letters"):
                # Re-canonicalize: the done file stores JSON with sorted
                # keys, but the export contract is ``DeadLetter.to_dict``
                # field order — byte-identical to an uninterrupted run.
                payload["dead_letters"] = [
                    DeadLetter(
                        function=item["function"],
                        arrival=float(item["arrival"]),
                        attempts=tuple(
                            InvocationRecord.from_dict(record)
                            for record in item["attempts"]
                        ),
                    ).to_dict()
                    for item in payload["dead_letters"]
                ]
            payload["resumed"] = True
            return payload
        resume_state = checkpoint.load()
    # Workers never build "*" rollups: the parent rebuilds the fleet
    # windows deterministically in _merge_report, so per-record fleet
    # tracking in the worker is pure waste.
    sink = TelemetrySink(
        window_s=cfg["window_s"], subbuckets=cfg["subbuckets"], track_fleet=False
    )
    log_path: Path | None = None
    reexecuted_orphan = 0
    if cfg["log_dir"] is not None:
        log_path = Path(cfg["log_dir"]) / f"{name}.jsonl"
        # On resume the spill is the journal being resumed: the engine
        # truncates it to the checkpoint watermark.  A spill with no
        # checkpoint means the worker died before its first snapshot —
        # every row it wrote is about to run again.
        if log_path.exists() and resume_state is None:
            if resuming:
                reexecuted_orphan = _count_rows(log_path)
            log_path.unlink()
        log = ExecutionLog(spill_threshold=cfg["spill_threshold"], spill_path=log_path)
    else:
        log = ExecutionLog()
    profile_path: Path | None = None
    attribution: AttributionStore | None = None
    if cfg.get("profile_dir") is not None:
        attribution = AttributionStore()
        profile_path = Path(cfg["profile_dir"]) / f"{name}.profiles.jsonl"
    emulator = LambdaEmulator(
        keep_alive_s=cfg["keep_alive_s"],
        telemetry=sink,
        faults=cfg["faults"],
        # Each function gets its own HostPool built from the shared
        # HostConfig: host state is per-function, like warm instances, so
        # placement decisions are a pure function of (trace, seed) and
        # byte-identity holds at any worker count.
        hosts=cfg.get("hosts"),
        log=log,
        record_detail=cfg["record_detail"],
        attribution=attribution,
    )
    function = emulator.deploy(bundle, name=name)
    if (
        cfg.get("engine", "auto") != "reference"
        and TemplateStore.key_for(function, cfg["event"], None) is not None
    ):
        result = KernelReplayer(emulator, store).replay(
            name,
            list(timestamps),
            cfg["event"],
            retry=cfg["retry"],
            checkpoint=checkpoint,
            resume_state=resume_state,
        )
        requests = result.requests
        dead_letters = result.dead_letters
        dead_letter_list = result.dead_letter_list
    else:
        result = TraceReplayer(emulator).replay(
            name,
            list(timestamps),
            cfg["event"],
            retry=cfg["retry"],
            checkpoint=checkpoint,
            resume_state=resume_state,
        )
        requests = len(result.requests)
        dead_letters = len(result.dead_letters)
        dead_letter_list = result.dead_letters
    if cfg["verify_ledger"]:
        emulator.ledger.reconcile(emulator.log)
    status_counts = emulator.log.status_counts()
    records = len(emulator.log)
    if log_path is not None:
        log.flush_spill()
    if attribution is not None and profile_path is not None:
        attribution.write_jsonl(profile_path)
    emulator.function(name).discard_instances()
    bill = emulator.ledger.bill_for(name)
    payload = {
        "function": name,
        "windows": [w.to_dict() for w in sink.rollups(name)],
        "bill": {
            "invocation_cost": bill.invocation_cost,
            "invocations": bill.invocations,
            "cold_starts": bill.cold_starts,
            "throttles": bill.throttles,
        },
        "stats": FunctionReplayStats(
            function=name,
            arrivals=result.arrivals,
            requests=requests,
            delivered=result.delivered,
            dead_letters=dead_letters,
            attempts=result.attempts,
            retries=result.retries,
            throttled=result.throttled,
            cold_starts=result.cold_starts,
            warm_starts=result.warm_starts,
            records=records,
            status_counts=status_counts,
            cost_usd=result.total_cost,
            peak_concurrency=result.peak_concurrency,
        ),
        "log_path": str(log_path) if log_path is not None else None,
        "profile_path": str(profile_path) if profile_path is not None else None,
        "hosts": (
            emulator.hosts.stats_dict() if emulator.hosts is not None else None
        ),
        "dead_letters": (
            [dl.to_dict() for dl in dead_letter_list]
            if cfg.get("dead_letters")
            else None
        ),
        "resumed": resume_state is not None,
        "reexecuted": result.reexecuted + reexecuted_orphan,
    }
    if checkpoint is not None:
        # Durable completion marker: written only after the spill and the
        # profile spool above, so a resume that finds it can trust every
        # export it names.  A crash between those writes and this one
        # leaves the mid-trace ckpt in place and the function resumes.
        done_payload = dict(payload)
        done_payload["stats"] = asdict(payload["stats"])
        checkpoint.write_done(done_payload)
    return payload


def _replay_shard(payload: dict) -> dict:
    """Worker entry point: replay every function in one shard, in order.

    One :class:`~repro.platform.kernel.TemplateStore` spans the shard:
    every function replays the same ``(bundle, event)`` pair, so the
    capture cost — one real cold start plus two real warm invocations —
    is paid once per shard, not once per function.  The store is scoped
    here, never module-global, so a rebuilt bundle at the same path can
    never be served stale templates.

    ``worker_peak_rss_mb`` is this process's own ``ru_maxrss`` sampled
    *after* the shard replayed — ``RUSAGE_CHILDREN`` in the parent only
    folds a worker in once it is reaped at pool shutdown, so per-worker
    peaks must ride back with the results.  On the inline ``workers=1``
    path the "worker" is the caller's process; the value is still the
    honest peak of whoever did the replay.  Purely informational: it
    feeds :attr:`FleetReplayResult.worker_peak_rss_mb` and never touches
    an export.
    """
    bundle = AppBundle(payload["bundle_root"])
    cfg = payload["cfg"]
    store = TemplateStore()
    results = [
        _replay_one(bundle, name, timestamps, cfg, store)
        for name, timestamps in payload["functions"]
    ]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "functions": results,
        "worker_peak_rss_mb": round(peak_kb / 1024, 1),
    }


def _merge_fleet_window(rollups: list[WindowRollup]) -> WindowRollup:
    """Rebuild one fleet-wide ``"*"`` window from per-function rollups.

    Callers pass rollups in sorted-function order so histogram merges
    happen in a deterministic sequence.  The fleet concurrency peak is
    the sum of per-function peaks: shards cannot observe cross-function
    interleaving, so this is the documented upper bound.
    """
    peak = 0
    fleet: WindowRollup | None = None
    for rollup in rollups:
        data = rollup.to_dict()
        data["function"] = FLEET
        copy = WindowRollup.from_dict(data)
        if fleet is None:
            fleet = copy
        else:
            fleet.merge(copy)
        peak += rollup.concurrency_peak
    assert fleet is not None
    fleet.concurrency_peak = peak
    return fleet


def _merge_report(
    payloads: list[dict],
    *,
    window_s: float,
    policy: SloPolicy,
) -> FleetReport:
    """Merge per-function windows into one report, fleet rollups included."""
    windows: dict[tuple[int, str], WindowRollup] = {}
    by_index: dict[int, list[WindowRollup]] = {}
    for payload in sorted(payloads, key=lambda p: p["function"]):
        for data in payload["windows"]:
            rollup = WindowRollup.from_dict(data)
            index = int(round(rollup.start_s / window_s))
            windows[(index, rollup.function)] = rollup
            by_index.setdefault(index, []).append(rollup)
    for index, group in by_index.items():
        # group is already in sorted-function order (payloads were sorted)
        windows[(index, FLEET)] = _merge_fleet_window(group)

    ordered = [windows[key] for key in sorted(windows)]
    # Evaluate SLOs exactly like TelemetrySink.finalize: each window once,
    # in (window, function) order, re-emitting breaches as obs events.
    recorder = get_recorder()
    breaches = []
    for rollup in ordered:
        recorder.counter_add("telemetry.windows_evaluated")
        for breach in policy.evaluate_window(rollup):
            breaches.append(breach)
            recorder.counter_add("telemetry.slo_breaches")
            recorder.event("slo.breach", breach.to_dict())
    return FleetReport(
        window_s=window_s,
        windows=ordered,
        breaches=breaches,
        slos=list(policy.rules),
        # Deterministic metadata only: worker count and timings must not
        # leak into the export, or byte-identity across pool sizes breaks.
        meta={
            "engine": "fleet-replay",
            "functions": len(payloads),
            "fleet_concurrency": "sum-of-function-peaks (upper bound)",
        },
    )


_TIMESTAMP_TAG = '"timestamp": '
_TIMESTAMP_TAG_BYTES = _TIMESTAMP_TAG.encode("ascii")

#: Above this combined shard size the merge streams line-at-a-time instead
#: of sorting in memory (the in-memory path holds every line at once).
_MERGE_IN_MEMORY_BYTES = 256 * 1024 * 1024


def _line_timestamp(line: str) -> float:
    """The merge key, sliced straight out of a ``json.dumps`` spill line.

    ``float()`` of the dumped repr round-trips exactly; anything
    surprising falls back to a full parse.
    """
    start = line.find(_TIMESTAMP_TAG)
    if start >= 0:
        start += len(_TIMESTAMP_TAG)
        end = line.find(",", start)
        if end > start:
            try:
                return float(line[start:end])
            except ValueError:
                pass
    return json.loads(line)["timestamp"]


def _line_timestamps_bytes(lines: list[bytes]) -> list[float]:
    """Merge keys for undecoded byte lines, sliced like :func:`_line_timestamp`.

    With numpy the raw repr slices convert to float64 in one C call —
    ``astype`` parses with the same correct rounding as Python's
    ``float()``, so the keys (and therefore the stable sort order) match
    the text path bit for bit.  Lines whose slice does not parse fall
    back to a full ``json.loads`` (it accepts bytes directly).
    """
    tag = _TIMESTAMP_TAG_BYTES
    tag_len = len(tag)
    raw: list[bytes] = []
    for line in lines:
        start = line.find(tag)
        end = line.find(b",", start + tag_len) if start >= 0 else -1
        raw.append(line[start + tag_len : end] if start >= 0 and end > 0 else b"")
    if _np is not None:
        try:
            return _np.asarray(raw, dtype="S").astype(_np.float64).tolist()
        except ValueError:
            pass
    keys: list[float] = []
    for line, slice_ in zip(lines, raw):
        try:
            keys.append(float(slice_.decode("ascii")))
        except (UnicodeDecodeError, ValueError):
            keys.append(json.loads(line)["timestamp"])
    return keys


def _merge_logs(shards: list[tuple[str, Path]], destination: Path) -> Path:
    """K-way merge per-function JSONL shards by (timestamp, function, seq).

    Small merges (combined shards under ~256 MB) sort in memory: shard
    lines arrive already in (function, position) order, so one *stable*
    sort on the timestamp alone reproduces the full merge key.  Larger
    merges stream through :func:`heapq.merge` with one resident line per
    shard.  Both paths write the same bytes.
    """
    ordered = sorted(shards)
    destination.parent.mkdir(parents=True, exist_ok=True)
    total = sum(path.stat().st_size for _, path in ordered)
    if total <= _MERGE_IN_MEMORY_BYTES:
        # Bytes end to end: shards were written as UTF-8, the merged
        # export is the same lines reordered, so decoding 100+ MB just to
        # re-encode it is pure overhead.
        lines: list[bytes] = []
        for _, path in ordered:
            for line in path.read_bytes().splitlines(keepends=True):
                if not line.strip():
                    continue
                if not line.endswith(b"\n"):
                    line += b"\n"
                lines.append(line)
        keys = _line_timestamps_bytes(lines)
        if _np is not None:
            order = _np.argsort(_np.asarray(keys), kind="stable").tolist()
        else:
            order = [
                i
                for _, i in sorted(
                    zip(keys, range(len(lines))), key=lambda p: p[0]
                )
            ]
        atomic_write_bytes(destination, b"".join(map(lines.__getitem__, order)))
        return destination

    def rows(name: str, path: Path):
        with path.open("r", encoding="utf-8") as handle:
            for position, line in enumerate(handle):
                if not line.strip():
                    continue
                yield (_line_timestamp(line), name, position, line)

    streams = [rows(name, path) for name, path in ordered]
    # Atomic replace: a crash mid-merge leaves the previous export (or
    # nothing) in place, never a torn half-merge, and the streaming
    # generator keeps the memory bound of the plain-write version.
    atomic_write_lines(
        destination,
        (line.rstrip("\n") for _, _, _, line in heapq.merge(*streams)),
    )
    return destination


def report_from_log(
    path: Path | str,
    *,
    window_s: float = 3600.0,
    subbuckets: int = 64,
    slos: Iterable[SloRule] | SloPolicy = (),
) -> FleetReport:
    """Rebuild a :class:`FleetReport` by streaming a record JSON-lines log.

    Records are folded one at a time through a fresh
    :class:`~repro.platform.telemetry.TelemetrySink`, so a spilled or
    merged million-record fleet log can be dashboarded without ever
    materializing the record list.  Arrivals are recovered as
    ``timestamp - e2e`` (the emulator stamps records at completion),
    matching the sink's own default.  Records carry emulator-clock
    timestamps, so windows here are emulator-time — a replay's own
    report windows by *trace* arrival time instead and will bucket
    differently; rates, percentiles, and costs still agree.
    """
    policy = slos if isinstance(slos, SloPolicy) else SloPolicy(list(slos))
    sink = TelemetrySink(window_s=window_s, subbuckets=subbuckets, slos=policy)
    count = 0
    for record in iter_jsonl(path):
        sink.observe(record)
        count += 1
    if count == 0:
        raise PlatformError(f"no records in log: {path}")
    report = sink.report()
    report.meta = {"engine": "log-replay", "source": Path(path).name}
    return report


def _pool_context(preferred: str):
    for method in (preferred, "forkserver", "spawn"):
        try:
            return multiprocessing.get_context(method)
        except ValueError:
            continue
    return multiprocessing.get_context()


def _run_shards_supervised(
    payloads: list[dict],
    cfg: dict,
    mp_context: str,
) -> tuple[list[dict], int]:
    """Run every shard on a process pool, resuming shards whose worker dies.

    A SIGKILLed/OOM-killed worker surfaces as :class:`BrokenProcessPool`
    on its future (the pool is unusable afterwards).  Completed shards
    are kept; the dead ones are resubmitted on a fresh pool with
    ``resume`` set, so each restart continues from the shard's last
    on-disk checkpoint instead of starting over.  Genuine exceptions
    raised *by* a shard (not worker death) propagate unchanged — a
    deterministic error would only recur.  Returns the per-shard results
    in submission order plus the number of shard resumptions.
    """
    pending: dict[int, dict] = dict(enumerate(payloads))
    results: dict[int, list[dict]] = {}
    resumed = 0
    budget = 3 * len(payloads)
    while pending:
        with ProcessPoolExecutor(
            max_workers=len(pending),
            mp_context=_pool_context(mp_context),
        ) as pool:
            futures = {
                pool.submit(_replay_shard, payload): index
                for index, payload in pending.items()
            }
            # Drain every future even after the pool breaks: shards that
            # finished before the crash keep their results and are never
            # re-run.
            for future in as_completed(futures):
                index = futures[future]
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    continue
                pending.pop(index)
        if not pending:
            break
        if cfg.get("checkpoint_dir") is None:
            raise PlatformError(
                f"{len(pending)} replay worker(s) died and no checkpoint_dir "
                "is set; pass checkpoint_dir= to make fleet replay resumable"
            )
        resumed += len(pending)
        if resumed > budget:
            raise PlatformError(
                f"replay workers kept dying ({resumed} shard restarts); "
                "giving up — checkpoints remain on disk for a manual resume"
            )
        # A breaking pool terminates its other workers too, so any of
        # them may have died mid-atomic-write: sweep the temp debris the
        # same way an explicit --resume entry does.
        sweep_stale(Path(cfg["checkpoint_dir"]))
        # cfg is the one dict shared by every payload: flipping it here
        # makes all resubmitted shards resume from their checkpoints.
        cfg["resume"] = True
    return [results[index] for index in range(len(payloads))], resumed


def replay_fleet(
    bundle: AppBundle | Path | str,
    trace: FleetTrace,
    event: Any = None,
    *,
    workers: int = 1,
    keep_alive_s: float = DEFAULT_KEEP_ALIVE_S,
    window_s: float = 3600.0,
    subbuckets: int = 64,
    slos: Iterable[SloRule] | SloPolicy = (),
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    hosts: HostConfig | None = None,
    dead_letters: Path | str | None = None,
    record_detail: bool = False,
    log_dir: Path | str | None = None,
    merged_log: Path | str | None = None,
    profile_dir: Path | str | None = None,
    merged_profiles: Path | str | None = None,
    spill_threshold: int | None = None,
    verify_ledger: bool = True,
    mp_context: str = "fork",
    engine: str = "auto",
    min_shard_invocations: int | None = None,
    checkpoint_dir: Path | str | None = None,
    checkpoint_every: int | None = None,
    resume: bool = False,
) -> FleetReplayResult:
    """Replay a multi-function fleet trace; merge deterministically.

    Every function in *trace* is deployed from *bundle* and replayed on
    its own fresh emulator (see the module docstring for why that is the
    determinism unit).  ``workers=1`` replays inline; ``workers>1``
    distributes whole functions across a process pool, balanced by
    invocation count.  ``log_dir`` streams each function's records to
    ``<log_dir>/<function>.jsonl`` (bounded worker memory when
    ``spill_threshold`` is set); ``merged_log`` additionally k-way merges
    the shards into one timestamp-ordered export.  ``verify_ledger``
    float-exactly reconciles each worker's ledger against its records
    before anything is merged (O(functions) via the log's incremental
    billing summary).

    ``engine`` selects the per-function replay engine: ``"auto"``
    (default) uses the fast :class:`~repro.platform.kernel.
    KernelReplayer` whenever the workload is replayable and falls back
    to the reference :class:`~repro.platform.replay.TraceReplayer` for
    the rest; ``"reference"`` forces the reference engine.  Both
    engines produce byte-identical exports, with or without numpy.

    ``profile_dir`` enables dollar attribution: each worker captures a
    :class:`~repro.obs.attribution.ColdStartProfile` per cold start and
    spools them to ``<profile_dir>/<function>.profiles.jsonl``;
    ``merged_profiles`` additionally folds the spools into one store in
    sorted-function order, so the merged file is byte-identical at any
    worker count.  When the caller has a live obs recorder, workers
    replay under their own in-memory recorders and the parent folds the
    counter/gauge totals back in sorted-function order — fleet counter
    totals match a single-process run regardless of sharding.

    ``hosts`` places every instance on a bin-packed pool of
    memory-constrained hosts (see :mod:`repro.platform.hosts`).  The pool
    is **per function**, mirroring warm-instance state: each worker
    builds its own ``HostPool`` from the shared config, so placement,
    eviction, and host-fault decisions depend only on that function's
    arrival history and the plan seed — never on which process replayed
    it.  The trade-off is that functions do not contend for the same
    hosts; ``hosts.count`` is hosts *per function*, and fleet-wide
    utilization in ``meta["hosts"]`` aggregates per-function pools.
    Host faults ride in on ``faults.host_faults``.

    ``dead_letters`` streams every dead-lettered request (with its full
    attempt history) to one JSON-lines file, in sorted-function order —
    byte-identical at any worker count.

    ``checkpoint_dir`` turns the replay into a kill-and-resume run: each
    worker snapshots its engine state to ``<checkpoint_dir>/<function>.
    ckpt.json`` every ``checkpoint_every`` served attempts (default 1000)
    and drops a ``.done.json`` payload when a function completes.  The
    parent supervises the pool: a worker killed mid-shard (SIGKILL, OOM,
    spot loss) is detected and its shard resubmitted with resume
    semantics, so only the invocations since the last checkpoint run
    twice.  ``resume=True`` does the same after the *parent* died —
    completed functions are adopted from their done payloads, partial
    ones continue from their checkpoints, and stale atomic-write temp
    debris is swept first.  Either way the merged exports stay
    byte-identical to an uninterrupted same-seed run.

    ``min_shard_invocations`` guards against the parallel-slowdown
    regime: when set, the shard count is capped so every worker receives
    at least that many invocations — below the break-even point (see
    ``benchmarks/bench_replay_throughput.py``) process startup dominates
    and extra workers make the replay *slower*.  The cap never changes
    the output, only how it is partitioned.

    Returns a :class:`FleetReplayResult` whose report, ledger totals,
    per-function stats, and log bytes are identical for identical
    ``(bundle, trace, seed)`` inputs at any worker count and either
    engine.
    """
    if workers < 1:
        raise PlatformError(f"need at least one worker: {workers}")
    if engine not in ("auto", "reference"):
        raise PlatformError(
            f"unknown engine {engine!r}: expected auto or reference"
        )
    if min_shard_invocations is not None and min_shard_invocations < 0:
        raise PlatformError(
            f"min_shard_invocations must be non-negative: {min_shard_invocations}"
        )
    if len(trace) == 0:
        raise PlatformError("fleet trace has no functions")
    if merged_log is not None and log_dir is None:
        raise PlatformError("merged_log requires log_dir")
    if merged_profiles is not None and profile_dir is None:
        raise PlatformError("merged_profiles requires profile_dir")
    if isinstance(faults, FaultPlan) is False and faults is not None:
        raise PlatformError(
            "replay_fleet takes a FaultPlan (picklable), not a FaultInjector"
        )
    if hosts is not None and not isinstance(hosts, HostConfig):
        raise PlatformError(
            "replay_fleet takes a HostConfig (picklable), not a HostPool"
        )
    if checkpoint_every is not None and checkpoint_dir is None:
        raise PlatformError("checkpoint_every requires checkpoint_dir")
    if resume and checkpoint_dir is None:
        raise PlatformError("resume requires checkpoint_dir")
    if checkpoint_dir is not None and checkpoint_every is None:
        checkpoint_every = 1000
    bundle_root = bundle.root if isinstance(bundle, AppBundle) else Path(bundle)
    policy = slos if isinstance(slos, SloPolicy) else SloPolicy(list(slos))
    if log_dir is not None:
        Path(log_dir).mkdir(parents=True, exist_ok=True)
    if profile_dir is not None:
        Path(profile_dir).mkdir(parents=True, exist_ok=True)
    if checkpoint_dir is not None:
        Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
        if resume:
            sweep_stale(Path(checkpoint_dir))

    cfg = {
        "event": event,
        "keep_alive_s": keep_alive_s,
        "window_s": float(window_s),
        "subbuckets": subbuckets,
        "retry": retry,
        "faults": faults,
        "hosts": hosts,
        "dead_letters": dead_letters is not None,
        "record_detail": record_detail,
        "log_dir": str(log_dir) if log_dir is not None else None,
        "profile_dir": str(profile_dir) if profile_dir is not None else None,
        "spill_threshold": spill_threshold,
        "verify_ledger": verify_ledger,
        "engine": engine,
        "checkpoint_dir": str(checkpoint_dir) if checkpoint_dir is not None else None,
        "checkpoint_every": checkpoint_every,
        "resume": resume,
        # Captured at call time: workers spool obs counters only when the
        # caller actually has a live recorder to fold them into.
        "spool_obs": get_recorder().enabled,
    }
    effective_workers = workers
    if min_shard_invocations:
        effective_workers = min(
            workers, max(1, trace.invocations // min_shard_invocations)
        )
    shards = trace.partition(effective_workers)
    payloads = [
        {
            "bundle_root": str(bundle_root),
            "functions": [
                (t.function_id, t.timestamps) for t in shard
            ],
            "cfg": cfg,
        }
        for shard in shards
    ]

    recorder = get_recorder()
    started = time.perf_counter()
    with recorder.span(
        "fleet.replay",
        label=f"{len(trace)} functions",
        functions=len(trace),
        arrivals=trace.invocations,
        workers=workers,
    ) as span:
        if workers == 1 or len(payloads) == 1:
            shard_results = [_replay_shard(payload) for payload in payloads]
            supervisor_resumes = 0
        else:
            shard_results, supervisor_resumes = _run_shards_supervised(
                payloads, cfg, mp_context
            )
        wall_s = time.perf_counter() - started

        worker_peaks = [shard["worker_peak_rss_mb"] for shard in shard_results]
        results = [r for shard in shard_results for r in shard["functions"]]
        results.sort(key=lambda r: r["function"])

        # Resume accounting: supervisor restarts, plus — when the caller
        # asked to resume a crashed parent — every shard that actually
        # adopted on-disk state.  Purely informational; never exported
        # (FleetReport.save drops meta["resume"] to keep dashboards
        # byte-identical across crash histories).
        reexecuted_invocations = sum(r.get("reexecuted", 0) for r in results)
        resumed_shards = supervisor_resumes
        if resume:
            adopted = {r["function"] for r in results if r.get("resumed")}
            resumed_shards += sum(
                1
                for payload in payloads
                if any(fn in adopted for fn, _ in payload["functions"])
            )

        # Fold worker obs counters back into the caller's recorder in
        # sorted-function order (results are sorted above): totals are
        # identical at any worker count.
        for result in results:
            obs = result.get("obs")
            if not obs:
                continue
            for counter_name, value in obs["counters"].items():
                recorder.counter_add(counter_name, value)
            for gauge_name, value in obs["gauges"].items():
                recorder.gauge_max(gauge_name, value)

        report = _merge_report(results, window_s=float(window_s), policy=policy)
        if checkpoint_dir is not None:
            report.meta["resume"] = {
                "resumed_shards": resumed_shards,
                "reexecuted_invocations": reexecuted_invocations,
            }
        host_stats: dict[str, dict[str, Any]] | None = None
        if hosts is not None:
            # Aggregate per-function pools in sorted-function order.
            # Counters sum; utilization peaks max (pools are disjoint, so
            # the fleet peak is the worst single pool, not a sum).
            host_stats = {}
            totals: dict[str, Any] = {
                "hosts_per_function": hosts.count,
                "memory_mb": hosts.memory_mb,
                "placement": hosts.placement,
                "placements": 0,
                "evictions": 0,
                "host_crashes": 0,
                "spot_reclaims": 0,
                "instances_lost": 0,
                "capacity_throttles": 0,
                "peak_util": 0.0,
            }
            for result in results:
                pool_stats = result["hosts"]
                host_stats[result["function"]] = pool_stats
                for key in (
                    "placements",
                    "evictions",
                    "host_crashes",
                    "spot_reclaims",
                    "instances_lost",
                    "capacity_throttles",
                ):
                    totals[key] += pool_stats[key]
                if pool_stats["peak_util"] > totals["peak_util"]:
                    totals["peak_util"] = pool_stats["peak_util"]
            report.meta["hosts"] = totals
        dead_letters_path: Path | None = None
        if dead_letters is not None:
            # Sorted-function order (results are sorted above): the JSONL
            # export is byte-identical at any worker count.
            dead_letters_path = Path(dead_letters)
            dead_letters_path.parent.mkdir(parents=True, exist_ok=True)
            letters = [
                json.dumps(letter)
                for result in results
                for letter in result["dead_letters"] or ()
            ]
            atomic_write_lines(dead_letters_path, letters)
            report.meta["dead_letters"] = len(letters)
        ledger = BillingLedger()
        stats: dict[str, FunctionReplayStats] = {}
        log_paths: dict[str, Path] = {}
        profile_paths: dict[str, Path] = {}
        for result in results:
            name = result["function"]
            bill = result["bill"]
            ledger.bills[name] = FunctionBill(
                function=name,
                invocation_cost=bill["invocation_cost"],
                invocations=bill["invocations"],
                cold_starts=bill["cold_starts"],
                throttles=bill["throttles"],
            )
            stats[name] = result["stats"]
            if result["log_path"] is not None:
                log_paths[name] = Path(result["log_path"])
            if result["profile_path"] is not None:
                profile_paths[name] = Path(result["profile_path"])

        merged_path: Path | None = None
        if merged_log is not None:
            merged_path = _merge_logs(sorted(log_paths.items()), Path(merged_log))

        merged_profiles_path: Path | None = None
        if merged_profiles is not None:
            # Sorted-function fold: the merged spool is byte-identical at
            # any worker count because each shard file already is.
            merged_store = AttributionStore.merge(
                AttributionStore.load_jsonl(path)
                for _, path in sorted(profile_paths.items())
            )
            merged_profiles_path = Path(merged_profiles)
            merged_profiles_path.parent.mkdir(parents=True, exist_ok=True)
            merged_store.write_jsonl(merged_profiles_path)

        recorder.counter_add("fleet.functions", len(results))
        recorder.counter_add("fleet.arrivals", sum(s.arrivals for s in stats.values()))
        if span is not None:
            span.set_attr("wall_s", round(wall_s, 3))
            span.set_attr("breaches", len(report.breaches))
    return FleetReplayResult(
        report=report,
        ledger=ledger,
        stats=stats,
        workers=workers,
        wall_s=wall_s,
        log_paths=log_paths,
        merged_log=merged_path,
        profile_paths=profile_paths,
        merged_profiles=merged_profiles_path,
        dead_letters=dead_letters_path,
        host_stats=host_stats,
        resumed_shards=resumed_shards,
        reexecuted_invocations=reexecuted_invocations,
        worker_peak_rss_mb=worker_peaks,
    )
