"""Fleet replay throughput: the sharded engine vs. its serial baseline.

CI's benchmark-smoke job replays one fixed Azure-style fleet twice —
inline (``workers=1``) and on a process pool — and gates on the engine's
core promise: the telemetry export, merged record log, ledger, and
per-function stats must be **byte-identical** at any worker count.  The
measured rates land in ``benchmarks/results/BENCH_replay.json``
(invocations/sec, the parallel break-even shard size, and peak RSS, self
+ pool children), uploaded as a CI artifact so throughput is tracked run
over run.

``REPRO_BENCH_INVOCATIONS`` scales the trace; the default is the CI
bench workload (50k invocations).  Set it to ``1000000`` to reproduce
the paper-scale run.  On a multi-CPU machine at the default size the
speedup assertion arms: sharding must beat serial at 2+ workers.

With ``--check-floor`` the run additionally ratchets against
``benchmarks/results/BENCH_floor.json``: serial throughput (and, with
2+ CPUs, the 2-worker speedup) may not regress more than 15% below the
committed floor.  See ``docs/performance.md`` for how the floor is
raised.
"""

from __future__ import annotations

import json
import os
import resource
from pathlib import Path

from repro.platform import replay_fleet
from repro.traces import FleetTrace
from repro.workloads.toy import build_toy_torch_app

RESULTS_DIR = Path(__file__).parent / "results"
FLOOR_PATH = RESULTS_DIR / "BENCH_floor.json"
EVENT = {"x": [1.0, 2.0], "y": [3.0, 4.0]}

INVOCATIONS = int(os.environ.get("REPRO_BENCH_INVOCATIONS", "50000"))
#: Below this size the pool's start-up cost swamps the replay itself.
#: Break-even is ``startup_s * serial_rate``; the columnar replay loop
#: roughly halved the serial wall, doubling the trace size where
#: sharding pays.
SPEEDUP_GATE_INVOCATIONS = 100_000
#: --check-floor tolerance: fail when more than 15% below the floor.
FLOOR_TOLERANCE = 0.85


def _peak_rss_mb(parallel_workers: list[float]) -> dict[str, object]:
    """Linux ``ru_maxrss`` is kilobytes; children covers the worker pool.

    ``RUSAGE_CHILDREN`` only folds a worker in once the parent reaps it,
    so it must be read *after* the pool's shutdown join — and even then
    it is just the single largest reaped child ever.  The honest
    per-worker picture is the ``worker_peak_rss_mb`` list each shard
    process measured on itself right before exiting (the parallel run's
    breakdown below); the aggregate is kept for continuity and as a
    cross-check (it must be at least the largest worker's peak).
    """
    children = round(
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1
    )
    return {
        "self": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
        "children": children,
        "workers": parallel_workers,
    }


def _break_even_shard_invocations(
    serial_wall_s: float,
    parallel_wall_s: float,
    workers: int,
    serial_rate: float,
) -> int:
    """Smallest shard worth its own worker process, in invocations.

    Model: ``parallel_wall ≈ startup_s + serial_wall / workers``, so the
    per-run startup overhead (pool spawn, interpreter fork, template
    capture) is ``parallel_wall - serial_wall / workers``.  A shard only
    pays for itself once its serial replay time exceeds that overhead:
    ``n / serial_rate > startup_s``.  Below the returned size, more
    workers make the replay *slower* — the regime behind a measured
    speedup < 1 (pass ``min_shard_invocations`` to ``replay_fleet`` to
    stay out of it).
    """
    if workers < 2 or serial_rate <= 0:
        return 0
    startup_s = max(0.0, parallel_wall_s - serial_wall_s / workers)
    return int(startup_s * serial_rate)


def test_replay_throughput(benchmark, tmp_path_factory, artifact_sink, check_floor):
    root = tmp_path_factory.mktemp("fleet-bench")
    bundle = build_toy_torch_app(root / "toy")
    trace = FleetTrace.generate_invocations(
        INVOCATIONS,
        seed=2025,
        max_per_function=max(INVOCATIONS // 8, 500),
    )
    cpus = os.cpu_count() or 1
    pool_workers = min(8, max(2, cpus))

    def run(workers: int, tag: str):
        return replay_fleet(
            bundle,
            trace,
            EVENT,
            workers=workers,
            log_dir=root / f"logs-{tag}",
            merged_log=root / f"merged-{tag}.jsonl",
            spill_threshold=4096,
        )

    serial = benchmark.pedantic(
        lambda: run(1, "serial"), rounds=1, iterations=1
    )
    parallel = run(pool_workers, "parallel")

    # The determinism gate: worker count must be unobservable.
    assert serial.arrivals == trace.invocations
    assert json.dumps(serial.report.to_dict(), sort_keys=True) == json.dumps(
        parallel.report.to_dict(), sort_keys=True
    )
    assert (
        (root / "merged-serial.jsonl").read_bytes()
        == (root / "merged-parallel.jsonl").read_bytes()
    )
    assert serial.ledger.total == parallel.ledger.total
    assert serial.stats == parallel.stats

    speedup = (
        parallel.throughput / serial.throughput if serial.throughput else 0.0
    )
    break_even = _break_even_shard_invocations(
        serial.wall_s, parallel.wall_s, pool_workers, serial.throughput
    )
    if cpus >= 2 and trace.invocations >= SPEEDUP_GATE_INVOCATIONS:
        assert speedup > 1.0, (
            f"sharding slowed a {trace.invocations}-invocation replay "
            f"down on {cpus} CPUs: {speedup:.2f}x "
            f"(break-even shard size {break_even} invocations)"
        )

    payload = {
        "functions": len(trace),
        "invocations": trace.invocations,
        "cpus": cpus,
        "serial": {
            "workers": 1,
            "wall_s": round(serial.wall_s, 3),
            "invocations_per_s": round(serial.throughput, 1),
        },
        "parallel": {
            "workers": pool_workers,
            "wall_s": round(parallel.wall_s, 3),
            "invocations_per_s": round(parallel.throughput, 1),
        },
        "speedup": round(speedup, 2),
        "break_even_shard_invocations": break_even,
        "peak_rss_mb": _peak_rss_mb(parallel.worker_peak_rss_mb),
        "deterministic": True,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_replay.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    rss = payload["peak_rss_mb"]
    artifact_sink(
        "replay_throughput",
        "\n".join([
            f"fleet: {len(trace)} functions, {trace.invocations} invocations "
            f"({cpus} CPU(s))",
            f"serial   (1 worker):  {serial.wall_s:8.2f}s  "
            f"{serial.throughput:10,.0f} inv/s",
            f"parallel ({pool_workers} workers): {parallel.wall_s:8.2f}s  "
            f"{parallel.throughput:10,.0f} inv/s",
            f"speedup: {speedup:.2f}x   peak RSS: {rss['self']}MB self, "
            f"{rss['children']}MB children "
            f"(per worker: {rss['workers']})",
            f"break-even shard size: {break_even} invocations/worker "
            "(smaller shards lose to process startup)",
        ]),
    )

    if check_floor:
        _assert_floor(serial.throughput, speedup, cpus, trace.invocations)


def _assert_floor(
    serial_rate: float, speedup: float, cpus: int, invocations: int
) -> None:
    """The CI ratchet: measured throughput may not fall >15% below the
    committed floor (``BENCH_floor.json``)."""
    assert FLOOR_PATH.exists(), (
        f"--check-floor needs a committed floor file: {FLOOR_PATH}"
    )
    floor = json.loads(FLOOR_PATH.read_text(encoding="utf-8"))
    serial_floor = floor["serial_invocations_per_s"]
    assert serial_rate >= FLOOR_TOLERANCE * serial_floor, (
        f"serial replay throughput regressed: {serial_rate:,.0f} inv/s is "
        f"more than 15% below the committed floor of {serial_floor:,.0f} "
        f"inv/s (see docs/performance.md for raising/lowering the floor)"
    )
    if cpus >= 2 and invocations >= SPEEDUP_GATE_INVOCATIONS:
        speedup_floor = floor["two_worker_speedup"]
        assert speedup >= FLOOR_TOLERANCE * speedup_floor, (
            f"sharding speedup regressed: {speedup:.2f}x is more than 15% "
            f"below the committed floor of {speedup_floor:.2f}x"
        )
