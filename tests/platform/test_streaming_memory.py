"""Memory regression gate: a streamed 1M-invocation day replays flat.

``FleetTrace.stream_invocations`` + batch-by-batch ``replay_fleet`` is
the recipe ``benchmarks/bench_replay_day.py`` scales to 10M invocations;
this test pins its memory contract at 1M — the whole run (trace
generation, replay, log spilling) must stay under a fixed RSS budget
instead of growing O(invocations).  Measured ~88 MB on the reference
box; the 192 MB budget leaves ~2x headroom for allocator and platform
variance while still catching any return to fleet materialization
(the non-streamed trace alone would hold every timestamp tuple at
once) or to unspilled in-memory logs.

The workload runs in a subprocess so ``ru_maxrss`` — a high-water mark
over the whole process lifetime — reflects this workload and not
whatever the test runner peaked at earlier.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

INVOCATIONS = 1_000_000
RSS_BUDGET_MB = 192.0

_SCRIPT = """
import json, resource, shutil, sys, tempfile
from pathlib import Path
from repro.platform import replay_fleet
from repro.traces import FleetTrace
from repro.workloads.toy import build_toy_torch_app

root = Path(tempfile.mkdtemp())
try:
    bundle = build_toy_torch_app(root / "toy")
    arrivals = 0
    batches = 0
    for batch in FleetTrace.stream_invocations(
        {invocations}, seed=2025, max_per_function=6250, batch_functions=256
    ):
        result = replay_fleet(
            bundle, batch, {{"x": [1.0, 2.0], "y": [3.0, 4.0]}},
            workers=1, log_dir=root / "logs", spill_threshold=4096,
        )
        arrivals += result.arrivals
        batches += 1
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({{
        "arrivals": arrivals, "batches": batches,
        "peak_rss_mb": round(peak, 1),
    }}))
finally:
    # The spilled logs of 1M invocations take about 460 MB.
    shutil.rmtree(root, ignore_errors=True)
"""


@pytest.mark.slow
def test_streamed_million_invocation_replay_stays_under_budget():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(invocations=INVOCATIONS)],
        capture_output=True,
        text=True,
        env=env,
        timeout=1800,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    assert payload["arrivals"] >= INVOCATIONS
    assert payload["batches"] > 1  # actually streamed, not one giant fleet
    assert payload["peak_rss_mb"] < RSS_BUDGET_MB, (
        f"streamed replay of {payload['arrivals']} invocations peaked at "
        f"{payload['peak_rss_mb']} MB — over the {RSS_BUDGET_MB} MB budget; "
        "something is materializing O(invocations) state again"
    )
