"""A 10M-invocation day, replayed end to end with bounded memory.

The scaling story the columnar replay loop exists for: a full
Azure-style day (``REPRO_BENCH_DAY_INVOCATIONS``, default 10M
invocations) streamed through ``FleetTrace.stream_invocations`` and
replayed batch-by-batch, so peak RSS is bounded by one batch of trace
state plus the engine's spill-bounded log buffers — never O(day).  The
run must finish and stay under :data:`RSS_BUDGET_MB` (measured 125 MB at
10M on the reference box — per-batch state does not grow with the day,
so the curve is flat after allocator warm-up; the budget leaves room for
platform variance).

The replay runs in a subprocess so ``ru_maxrss`` is the workload's own
high-water mark, not the bench session's.  Numbers land in
``benchmarks/results/BENCH_replay_day.json``, uploaded as a CI artifact
so day-scale throughput is tracked run over run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
INVOCATIONS = int(os.environ.get("REPRO_BENCH_DAY_INVOCATIONS", "10000000"))
#: Fixed memory budget for the whole streamed day; see module docstring.
RSS_BUDGET_MB = 256.0

_SCRIPT = """
import json, resource, sys, tempfile, time
from pathlib import Path
from repro.platform import replay_fleet
from repro.traces import FleetTrace
from repro.workloads.toy import build_toy_torch_app

target = int(sys.argv[1])
root = Path(tempfile.mkdtemp())
bundle = build_toy_torch_app(root / "toy")
started = time.perf_counter()
arrivals = 0
functions = 0
batches = 0
replay_wall = 0.0
for batch in FleetTrace.stream_invocations(
    target, seed=2025, max_per_function=6250, batch_functions=256
):
    result = replay_fleet(
        bundle, batch, {"x": [1.0, 2.0], "y": [3.0, 4.0]},
        workers=1, log_dir=root / "logs", spill_threshold=4096,
    )
    arrivals += result.arrivals
    functions += len(batch)
    batches += 1
    replay_wall += result.wall_s
wall = time.perf_counter() - started
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({
    "arrivals": arrivals,
    "functions": functions,
    "batches": batches,
    "wall_s": round(wall, 1),
    "replay_wall_s": round(replay_wall, 1),
    "peak_rss_mb": round(peak, 1),
}))
"""


def test_replay_day(artifact_sink):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(INVOCATIONS)],
        capture_output=True,
        text=True,
        env=env,
        timeout=3600,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout.strip().splitlines()[-1])

    assert run["arrivals"] >= INVOCATIONS
    assert run["batches"] > 1, "day must actually stream in batches"
    assert run["peak_rss_mb"] < RSS_BUDGET_MB, (
        f"streamed day replay peaked at {run['peak_rss_mb']} MB — over the "
        f"{RSS_BUDGET_MB} MB budget; per-batch state is growing with the day"
    )

    rate = run["arrivals"] / run["wall_s"] if run["wall_s"] else 0.0
    replay_rate = (
        run["arrivals"] / run["replay_wall_s"] if run["replay_wall_s"] else 0.0
    )
    payload = {
        **run,
        "invocations_per_s": round(rate, 1),
        "replay_invocations_per_s": round(replay_rate, 1),
        "rss_budget_mb": RSS_BUDGET_MB,
        "bounded_rss": True,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_replay_day.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    artifact_sink(
        "replay_day",
        "\n".join([
            f"day: {run['arrivals']:,} invocations across "
            f"{run['functions']} functions in {run['batches']} batches",
            f"end-to-end: {run['wall_s']:,.1f}s  {rate:10,.0f} inv/s "
            "(generation + replay + spill)",
            f"replay only: {run['replay_wall_s']:,.1f}s  "
            f"{replay_rate:10,.0f} inv/s",
            f"peak RSS: {run['peak_rss_mb']} MB "
            f"(budget {RSS_BUDGET_MB:.0f} MB — bounded, not O(day))",
        ]),
    )
