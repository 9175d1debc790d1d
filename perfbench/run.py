#!/usr/bin/env python3
"""The repository benchmark: one workload per run, from a source checkout.

    python3 perfbench/run.py --workload replay-batch --seed 2025 --seconds 10 --trace 0

``--trace 0`` sets the workload up three times (``setup_s`` is the
median, plus the imports), runs whole public calls -- ``replay_fleet``,
or a ``LambdaTrim.run`` + ``IncrementalTrim.run`` pass over the app list
-- for ``--seconds`` seconds, checks their outputs, and prints every
end-to-end metric of ``BENCHMARK.json`` with its unit and sample count.

``--trace 1`` first runs the untraced benchmark in a child process, then
runs the workload again with the layer wrappers of ``ledger.py``
installed, and prints every per-layer metric, the tracing overhead
(traced minus untraced call wall time), and where the spans went: JSON
lines with parent ids, and a Chrome trace that Perfetto loads.

The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  Without ``src/repro``
next to this directory the benchmark exits with status 2 and no result.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import summary  # noqa: E402
from speed import SpeedSampler  # noqa: E402
import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: The untraced child of a traced run must leave time for the traced half.
CHILD_TIMEOUT_S = 150


def load_spec() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_map = json.loads((BENCH / "map.json").read_text(encoding="utf-8"))
    return spec, layer_map


def parse_args(argv, spec: dict, layer_map: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=layer_map["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, tracer=None) -> list:
    """Whole calls until the next one would end past *seconds* (at least one)."""
    calls = []
    start = time.perf_counter()
    while True:
        calls.append(workload.call(tracer))
        if time.perf_counter() - start + calls[-1].wall_s > seconds:
            return calls


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def untraced(args, spec: dict, work: Path, sampler: SpeedSampler, imports_s: float) -> str:
    import workloads

    workload = workloads.make(args.workload, args.seed, work)
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        workload.setup()
        setups.append(imports_s + sampler.nominal(start, time.perf_counter()))
    calls = measure(workload, args.seconds)
    rss = peak_rss_mb() + workload.peak_worker_rss_mb(calls)
    verdict = workload.check(calls)
    samples = {
        "ops_per_s": [call.ops / sampler.nominal(call.start, call.end) for call in calls],
        "cpu_s": [sampler.nominal(call.start, call.end, call.cpu_s) for call in calls],
        "peak_rss_mb": [rss],
        "cost_usd": [verdict.cost_usd],
        "setup_s": setups,
    }
    attempted = sum(call.ops for call in calls)
    failed = workload.failed(calls, verdict)
    correct = failed == 0 and not any(m.startswith("FAIL") for m in verdict.messages)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace=0"
          " (times in nominal seconds, see perfbench/speed.py)")
    for message in verdict.messages:
        print(f"  check: {message}")
    print(f"  {'metric':<20} {'value':>14}  unit")
    for metric in spec["end_to_end"]:
        values = samples[metric["name"]]
        print(
            f"  {metric['name']:<20} {summary.median(values):>14.6g}  "
            f"{metric['unit']:<8} {summary.describe(values)}"
        )
    if args.workload == "trim":
        for name in ("trim_wall_s", "retrim_wall_s"):
            values = [
                sum(sampler.nominal(*interval) for interval in call.detail["phases"][name])
                for call in calls
            ]
            print(f"  {name:<20} {summary.median(values):>14.6g}  s        "
                  f"{summary.describe(values)}")
        for name, value in verdict.notes.items():
            print(f"  {name:<20} {value:>14.6g}  (deterministic)")
    else:
        print(f"  {'inv_per_s':<20} {summary.median(samples['ops_per_s']):>14.6g}  "
              "arrivals/s (ops_per_s: arrivals / whole replay_fleet call)")
    raw = [call.ops / call.wall_s for call in calls]
    speed = [sampler.factor(call.start, call.end) for call in calls]
    print(f"  {'wall ops_per_s':<20} {summary.median(raw):>14.6g}  ops/s    "
          f"unscaled; CPU speed factor {summary.describe(speed)}")
    print(f"  {'fail_rate':<20} {summary.fail_rate(attempted, failed):>14.6g}  "
          f"fraction ({failed} of {attempted} {workload.unit})")
    metrics = {
        m["name"]: {"value": summary.median(samples[m["name"]]), "unit": m["unit"]}
        for m in spec["end_to_end"]
    }
    return result_line(correct, attempted, failed, metrics)


def untraced_child(args) -> tuple[dict, list[str]]:
    """The untraced benchmark in its own process: no wrapper can leak."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", "0",
    ]
    child = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True
    )
    lines = child.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def traced(args, spec: dict, work: Path, sampler: SpeedSampler) -> str:
    from repro.obs import use_recorder, write_chrome_trace, write_jsonl

    import ledger
    import workloads

    baseline, child_lines = untraced_child(args)
    workload = workloads.make(args.workload, args.seed, work)
    tracer = ledger.Tracer()
    with tracer.recorder.span("setup"):
        workload.setup(tracer)
    single = None
    if args.workload == "trim":
        tracer.install_trim()
        try:
            with use_recorder(tracer.recorder):
                calls = measure(workload, args.seconds, tracer)
        finally:
            tracer.restore()
    else:
        # The recorder stays private: a global one makes replay_fleet
        # spool per-function obs, which is a different program.
        pooled = workload.shape.workers > 1
        tracer.install_replay(inline=not pooled)
        try:
            calls = measure(workload, args.seconds, tracer)
            if pooled:
                # Pool workers ship no spans back: layer numbers come
                # from a 1-worker replay, which also serves as the check.
                tracer.restore()
                tracer.install_replay()
                single = workload.call(tracer, workers=1)
        finally:
            tracer.restore()
    verdict = workload.check(calls, paths=calls[-1].detail.get("paths"), single=single)

    tree = tracer.tree()
    if args.workload == "trim":
        per_call = []
        for call in calls:
            layers = ledger.trim_layers(tree, call, "trim.fresh")
            seeded = ledger.trim_layers(tree, call, "trim.seeded")
            layers.update({f"seeded.{name}": value for name, value in seeded.items()})
            per_call.append(layers)
    else:
        per_call = [ledger.replay_layers(tree, call) for call in calls]
        if single is not None:
            # Fleet-level numbers from the pooled calls, the rest inline.
            inline = ledger.replay_layers(tree, single)
            busiest = ledger.busiest_shard_s(
                tree, single, workload.trace.partition(workload.shape.workers)
            )
            per_call = [
                {
                    **inline,
                    "fleet.shard_s": layers["fleet.shard_s"],
                    "fleet.merge_s": layers["fleet.merge_s"],
                    "fleet.merged_log_mb": layers["fleet.merged_log_mb"],
                    "fleet.pool_s": layers["fleet.shard_s"] - busiest,
                }
                for layers in per_call
            ]
    # Layers a workload does not run read 0.
    values = {metric["name"]: 0.0 for metric in spec["per_layer"]}
    for name in per_call[0]:
        values[name] = summary.median([layers[name] for layers in per_call])
    values["traces.generate_s"] = tree.total(list(tree.spans), "traces.generate")
    traced_wall = summary.median([sampler.nominal(call.start, call.end) for call in calls])
    untraced_wall = calls[0].ops / baseline["metrics"]["ops_per_s"]["value"]
    values["trace.overhead_s"] = traced_wall - untraced_wall

    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    stem = traces / f"{args.workload}-seed{args.seed}"
    tracer.annotate()
    write_jsonl(tracer.recorder, stem.with_suffix(".spans.jsonl"))
    write_chrome_trace([], stem.with_suffix(".trace.json"), spans=tracer.recorder.spans)

    attempted = sum(call.ops for call in calls)
    failed = workload.failed(calls, verdict)
    correct = (
        baseline["correct"]
        and failed == 0
        and not any(m.startswith("FAIL") for m in verdict.messages)
    )
    for line in child_lines:
        print(f"untraced| {line}")
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace=1")
    for message in verdict.messages:
        print(f"  check: {message}")
    print(f"  traced call {traced_wall:.6g} s vs untraced {untraced_wall:.6g} s (nominal) "
          f"over {len(calls)} traced call(s): overhead {values['trace.overhead_s']:.6g} s")
    print(f"  spans: {stem.with_suffix('.spans.jsonl')} (JSON lines, parent ids)")
    print(f"  trace: {stem.with_suffix('.trace.json')} (Chrome trace, loads in Perfetto)")
    for metric in spec["per_layer"]:
        print(f"  {metric['name']:<34} {values[metric['name']]:>14.6g}  {metric['unit']}")
    unknown = set(values) - {metric["name"] for metric in spec["per_layer"]}
    if unknown:
        raise KeyError(f"layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer"]
    }
    return result_line(correct, attempted, failed, metrics)


def main(argv=None) -> int:
    try:
        spec, layer_map = load_spec()
    except OSError as exc:
        print(f"perfbench: cannot read the benchmark spec: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, spec, layer_map)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src / 'repro'}", file=sys.stderr)
        return 2
    # Every timing is reported in nominal seconds (see speed.py).
    sampler = SpeedSampler()
    sampler.start()
    sys.path.insert(0, str(src))
    import workloads  # noqa: F401  (the program's imports count as set-up)

    imports_s = sampler.nominal(STARTED, time.perf_counter())
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run with this pid
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        if args.trace:
            line = traced(args, spec, work, sampler)
        else:
            line = untraced(args, spec, work, sampler, imports_s)
    finally:
        sampler.stop()
        shutil.rmtree(work, ignore_errors=True)
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
