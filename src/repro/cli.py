"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``trim``      run the λ-trim pipeline on an application bundle
``analyze``   static analysis + profiler ranking (no debloating)
``measure``   cold/warm-start metrics on the platform emulator
``invoke``    deploy a bundle and invoke it once
``oracle``    check a candidate bundle against a reference's oracle
``fuzz``      differential-fuzz an optimized bundle; optionally extend
              the oracle with the findings (Section 5.4)
``tune``      recommend a memory configuration (AWS-power-tuning-style)
``replay``    replay a multi-function fleet trace on the sharded engine
``profile``   render cold-start cost attribution (flame graphs, dollar
              tables, before/after-trim diffs)
``trace``     run the pipeline under a recorder and print the span tree
``metrics``   render counters/gauges from a JSON-lines telemetry export
``dashboard`` render a fleet-telemetry export (optionally vs. a baseline)
``report``    regenerate the full evaluation report (every artifact)
``build-app`` materialise one of the 21 Table 1 benchmark applications
``apps``      list the benchmark applications

``trim --log FILE`` enables continuous debloating (Section 9): the run is
seeded by the previous run's kept sets and the log is updated in place.

``trim --resume`` replays the write-ahead probe journal of an interrupted
run (``<output>.journal.jsonl`` by default): committed modules are adopted
wholesale, torn files are rolled back, and DD continues from the journaled
probe cache.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import __version__
from repro.analysis.measure import measure_cold, measure_warm
from repro.bundle import AppBundle
from repro.core.cost_model import ScoringMethod, rank_modules
from repro.core.oracle import OracleRunner
from repro.core.pipeline import LambdaTrim, TrimConfig
from repro.errors import ReproError
from repro.platform import LambdaEmulator

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="lambda-trim: cost-driven debloating for serverless Python",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    trim = commands.add_parser("trim", help="debloat an application bundle")
    trim.add_argument("bundle", type=Path, help="application bundle directory")
    trim.add_argument("-o", "--output", type=Path, required=True,
                      help="directory for the optimized bundle")
    trim.add_argument("--k", type=int, default=20,
                      help="number of top modules to debloat (default 20)")
    trim.add_argument("--scoring", choices=[m.value for m in ScoringMethod],
                      default="combined", help="profiler scoring method")
    trim.add_argument("--granularity", choices=["attribute", "statement"],
                      default="attribute", help="DD granularity (Section 6.1)")
    trim.add_argument("--budget", type=int, default=None,
                      help="max oracle calls per module (default unbounded)")
    trim.add_argument("--no-call-graph", action="store_true",
                      help="disable PyCG-style pre-filtering (ablation)")
    trim.add_argument("--seed", type=int, default=0, help="random-scoring seed")
    trim.add_argument("--log", type=Path, default=None,
                      help="trim log from a previous run (continuous "
                           "debloating); updated in place after the run")
    trim.add_argument("--resume", action="store_true",
                      help="resume an interrupted run from its write-ahead "
                           "probe journal instead of starting over")
    trim.add_argument("--journal", type=Path, default=None,
                      help="probe-journal path (default: "
                           "<output>.journal.jsonl next to the output)")
    trim.add_argument("--verify-probes", action="store_true",
                      help="re-check journaled verdicts live and settle "
                           "disagreements by quorum vote (flaky oracles)")

    analyze = commands.add_parser("analyze", help="static analysis + profiling")
    analyze.add_argument("bundle", type=Path)
    analyze.add_argument("--top", type=int, default=20,
                         help="show the top-N modules by marginal cost")

    measure = commands.add_parser("measure", help="cold/warm metrics")
    measure.add_argument("bundle", type=Path)
    measure.add_argument("--invocations", type=int, default=3)

    invoke = commands.add_parser("invoke", help="deploy and invoke once")
    invoke.add_argument("bundle", type=Path)
    invoke.add_argument("--event", type=str, default=None,
                        help="JSON event (default: first oracle case)")
    invoke.add_argument("--warm", action="store_true",
                        help="invoke twice and report the warm start")

    oracle = commands.add_parser("oracle", help="oracle equivalence check")
    oracle.add_argument("reference", type=Path, help="reference (pristine) bundle")
    oracle.add_argument("candidate", type=Path, help="candidate (optimized) bundle")

    fuzz = commands.add_parser(
        "fuzz", help="differential-fuzz an optimized bundle (Section 5.4)"
    )
    fuzz.add_argument("reference", type=Path, help="reference (pristine) bundle")
    fuzz.add_argument("candidate", type=Path, help="candidate (optimized) bundle")
    fuzz.add_argument("--budget", type=int, default=20,
                      help="mutants per oracle case (default 20)")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--extend-oracle", action="store_true",
                      help="append findings to the reference's oracle.json")

    tune = commands.add_parser(
        "tune", help="recommend a memory configuration (power tuning)"
    )
    tune.add_argument("bundle", type=Path)
    tune.add_argument("--strategy", choices=["cost", "speed", "balanced"],
                      default="balanced")

    trace = commands.add_parser(
        "trace", help="run the λ-trim pipeline with tracing and print the span tree"
    )
    trace.add_argument("bundle", type=Path, help="application bundle directory")
    trace.add_argument("-o", "--output", type=Path, default=None,
                       help="write the telemetry as JSON-lines to this file")
    trace.add_argument("--trim-output", type=Path, default=None,
                       help="directory for the optimized bundle "
                            "(default: a temporary directory)")
    trace.add_argument("--k", type=int, default=20,
                       help="number of top modules to debloat (default 20)")
    trace.add_argument("--granularity", choices=["attribute", "statement"],
                       default="attribute", help="DD granularity (Section 6.1)")
    trace.add_argument("--budget", type=int, default=None,
                       help="max oracle calls per module (default unbounded)")
    trace.add_argument("--metrics", action="store_true",
                       help="also print the counters/gauges table")
    trace.add_argument("--json", action="store_true",
                       help="emit one JSON object (spans, events, metrics) "
                            "instead of the rendered tree")

    metrics = commands.add_parser(
        "metrics", help="render metrics from a JSON-lines telemetry export"
    )
    metrics.add_argument("file", type=Path, help="JSON-lines file from "
                         "`repro trace -o` or the benchmark suite")
    metrics.add_argument("--json", action="store_true",
                         help="emit a single JSON object instead of a table")

    replay = commands.add_parser(
        "replay", help="replay a multi-function fleet trace (sharded engine)"
    )
    replay.add_argument("bundle", type=Path, help="application bundle directory")
    replay.add_argument("--trace", type=Path, default=None,
                        help="fleet trace JSONL from FleetTrace.save() "
                             "(default: generate an Azure-style fleet)")
    replay.add_argument("--functions", type=int, default=None,
                        help="generate a fleet with this many functions")
    replay.add_argument("--invocations", type=int, default=None,
                        help="generate a fleet totalling at least this many "
                             "invocations")
    replay.add_argument("--max-per-function", type=int, default=None,
                        help="drop generated functions busier than this")
    replay.add_argument("--seed", type=int, default=2025,
                        help="trace-generation seed (default 2025)")
    replay.add_argument("--workers", type=int, default=1,
                        help="replay processes; whole functions are sharded "
                             "across them (default 1 = inline)")
    replay.add_argument("--window", type=float, default=3600.0,
                        help="telemetry window seconds (default 3600)")
    replay.add_argument("--keep-alive", type=float, default=None,
                        help="warm keep-alive seconds (default: emulator's)")
    replay.add_argument("--event", type=str, default=None,
                        help="JSON event (default: first oracle case)")
    replay.add_argument("--export", type=Path, default=None,
                        help="save the merged FleetReport here "
                             "(renderable with `repro dashboard`)")
    replay.add_argument("--log-dir", type=Path, default=None,
                        help="stream per-function record shards to this "
                             "directory as JSON lines")
    replay.add_argument("--merged-log", type=Path, default=None,
                        help="k-way merge the shards into one "
                             "timestamp-ordered JSONL (requires --log-dir)")
    replay.add_argument("--spill-threshold", type=int, default=None,
                        help="spill worker logs to disk every N records "
                             "(bounded memory; requires --log-dir)")
    replay.add_argument("--record-detail", action="store_true",
                        help="emit the per-invocation observability event "
                             "(slower; off by default for fleet scale)")
    replay.add_argument("--engine",
                        choices=("auto", "reference"),
                        default="auto",
                        help="replay engine: auto uses the fast template "
                             "engine when the workload is replayable "
                             "(default), reference forces real execution; "
                             "exports are byte-identical either way")
    replay.add_argument("--min-shard-invocations", type=int, default=None,
                        help="cap the shard count so each worker gets at "
                             "least this many invocations (below the "
                             "break-even point extra workers slow replay "
                             "down; see benchmarks/results/BENCH_replay.json)")
    replay.add_argument("--profile-dir", type=Path, default=None,
                        help="spool per-function cold-start cost profiles "
                             "to this directory as JSON lines")
    replay.add_argument("--merged-profiles", type=Path, default=None,
                        help="merge the profile spools into one store "
                             "(requires --profile-dir; renderable with "
                             "`repro profile`)")
    replay.add_argument("--hosts", type=int, default=None,
                        help="place instances on this many memory-constrained "
                             "hosts per function (default: unconstrained)")
    replay.add_argument("--host-memory-mb", type=float, default=512.0,
                        help="memory per host in MB (default 512; "
                             "requires --hosts)")
    replay.add_argument("--placement",
                        choices=("first-fit", "best-fit", "spread"),
                        default="first-fit",
                        help="bin-packing policy for --hosts (default "
                             "first-fit)")
    replay.add_argument("--fault-plan", type=Path, default=None,
                        help="JSON FaultPlan file (FaultPlan.to_json); "
                             "includes host crash/spot faults")
    replay.add_argument("--retry-attempts", type=int, default=None,
                        help="client-side retry attempts per request "
                             "(default: no retries)")
    replay.add_argument("--dead-letters", type=Path, default=None,
                        help="write dead-lettered requests (full attempt "
                             "history) to this JSONL file")
    replay.add_argument("--checkpoint-dir", type=Path, default=None,
                        help="snapshot engine state here so a killed replay "
                             "can be resumed (workers that die mid-run are "
                             "resumed automatically)")
    replay.add_argument("--checkpoint-every", type=int, default=None,
                        help="invocations between checkpoints (default 1000; "
                             "requires --checkpoint-dir)")
    replay.add_argument("--resume", action="store_true",
                        help="resume a killed replay from --checkpoint-dir; "
                             "exports are byte-identical to an uninterrupted "
                             "run")
    replay.add_argument("--json", action="store_true",
                        help="emit the run summary as JSON")

    profile = commands.add_parser(
        "profile",
        help="cold-start cost attribution: flame graphs and dollar tables",
    )
    profile.add_argument("profiles", type=Path,
                         help="profiles JSONL from `repro replay "
                              "--profile-dir/--merged-profiles`")
    profile.add_argument("--flame", type=Path, default=None,
                         help="write folded stacks (flamegraph.pl / "
                              "speedscope) to this file")
    profile.add_argument("--chrome", type=Path, default=None,
                         help="write a Chrome trace_event JSON "
                              "(chrome://tracing, Perfetto) to this file")
    profile.add_argument("--top", type=int, default=10,
                         help="rows in the top-modules-by-cost table "
                              "(default 10)")
    profile.add_argument("--diff", type=Path, default=None,
                         help="baseline profiles JSONL: render the "
                              "dollars-saved-per-dependency table instead")
    profile.add_argument("--function", default=None,
                         help="scope to one function's cold starts")
    profile.add_argument("--json", action="store_true",
                         help="emit the summary as JSON")

    dashboard = commands.add_parser(
        "dashboard", help="render a fleet-telemetry export (tables + sparklines)"
    )
    dashboard.add_argument("export", type=Path,
                           help="telemetry export from TelemetrySink.save(), "
                                "or a record JSONL log from `repro replay "
                                "--log-dir/--merged-log` (detected and "
                                "streamed into windows)")
    dashboard.add_argument("--window", type=float, default=3600.0,
                           help="window seconds when reading a record JSONL "
                                "log (default 3600)")
    dashboard.add_argument("--baseline", type=Path, default=None,
                           help="earlier export to compare against "
                                "(before/after-debloat view)")
    dashboard.add_argument("--function", default=None,
                           help="scope to one function (default: fleet-wide)")
    dashboard.add_argument("--profiles", type=Path, default=None,
                           help="cold-start profiles JSONL from `repro replay "
                                "--merged-profiles`: breaches drill down to "
                                "their exemplars' costliest modules")
    dashboard.add_argument("--json", action="store_true",
                           help="emit the run-level summary as JSON")

    build = commands.add_parser("build-app", help="materialise a benchmark app")
    build.add_argument("name", help="Table 1 application name")
    build.add_argument("directory", type=Path, help="target directory")

    commands.add_parser("apps", help="list the 21 benchmark applications")

    report = commands.add_parser(
        "report", help="regenerate the full evaluation report (all artifacts)"
    )
    report.add_argument("-o", "--output", type=Path, default=Path("report.md"))
    report.add_argument("--quick", action="store_true",
                        help="cheap artifacts only (no app sweeps)")
    return parser


def _cmd_trim(args: argparse.Namespace) -> int:
    config = TrimConfig(
        k=args.k,
        scoring=ScoringMethod(args.scoring),
        seed=args.seed,
        use_call_graph=not args.no_call_graph,
        max_oracle_calls_per_module=args.budget,
        granularity=args.granularity,
        verify_journal_probes=args.verify_probes,
    )
    bundle = AppBundle(args.bundle)
    run_kwargs = {"resume": args.resume, "journal_path": args.journal}
    if args.log is not None:
        from repro.core.incremental import IncrementalTrim, TrimLog

        log = TrimLog.load(args.log) if args.log.exists() else None
        trimmer = IncrementalTrim(config, log=log)
        report = trimmer.run(bundle, args.output, **run_kwargs)
        trimmer.updated_log(report).save(args.log)
        seeded = sum(1 for r in report.module_results if r.seeded)
        print(f"continuous debloating: {seeded} module(s) adopted from the log")
    else:
        report = LambdaTrim(config).run(bundle, args.output, **run_kwargs)
    print(report.summary())
    if args.resume and report.resumed:
        print(f"resumed from journal {report.journal_path}: "
              f"{report.resumed_modules} module(s) adopted, "
              f"{report.journal_hits} journaled probe(s) replayed")
    print(f"optimized bundle written to {report.output_root}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.core.fuzzer import OracleFuzzer
    from repro.core.oracle import OracleSpec

    reference = AppBundle(args.reference)
    candidate = AppBundle(args.candidate)
    fuzzer = OracleFuzzer(reference, candidate, seed=args.seed)
    report = fuzzer.fuzz(budget_per_case=args.budget)
    print(f"executed {report.executed} mutants: "
          f"{len(report.findings)} divergence(s)")
    for finding in report.findings:
        marker = " [would trigger fallback]" if finding.triggers_fallback else ""
        print(f"  event {json.dumps(finding.event)}{marker}")
    if report.findings and args.extend_oracle:
        spec = OracleSpec.from_bundle(reference)
        for case in report.suggested_cases():
            spec.add_case(case)
        spec.save(reference.oracle_path)
        print(f"oracle extended with {len(report.suggested_cases())} case(s); "
              "re-run `repro trim` to harden the bundle")
    return 0 if report.clean else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    bundle = AppBundle(args.bundle)
    trim = LambdaTrim()
    external, graph = trim.analyze(bundle)
    print(f"external modules: {', '.join(external) or '(none)'}")

    report = trim.profile(bundle, external)
    print(f"initialization: {report.total_time_s:.3f}s, "
          f"{report.total_memory_mb:.1f}MB over {len(report)} modules\n")
    print(f"{'module':40s} {'t(s)':>8s} {'m(MB)':>8s} {'marginal cost':>14s}")
    for profile in rank_modules(report, k=args.top):
        print(f"{profile.module:40s} {profile.import_time_s:8.3f} "
              f"{profile.memory_mb:8.2f} {report.marginal_cost(profile):14.4f}")
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    bundle = AppBundle(args.bundle)
    cold = measure_cold(bundle, invocations=args.invocations)
    warm = measure_warm(bundle, invocations=args.invocations)
    print(f"cold start ({args.invocations} forced): "
          f"e2e {cold.e2e_s:.3f}s, init {cold.import_s:.3f}s, "
          f"exec {cold.exec_s:.3f}s, peak {cold.memory_mb:.1f}MB")
    print(f"billing: {cold.configured_mb}MB configured, "
          f"{cold.billed_s * 1000:.0f}ms billed, "
          f"${cold.cost_per_100k:.4f} per 100K invocations")
    print(f"warm start: e2e {warm.e2e_s:.3f}s")
    return 0


def _cmd_invoke(args: argparse.Namespace) -> int:
    bundle = AppBundle(args.bundle)
    if args.event is not None:
        event = json.loads(args.event)
    else:
        from repro.core.oracle import OracleSpec

        event = OracleSpec.from_bundle(bundle).cases[0].event
    emulator = LambdaEmulator()
    emulator.deploy(bundle)
    record = emulator.invoke(bundle.name, event)
    if args.warm:
        record = emulator.invoke(bundle.name, event)
    print(record.report_line())
    print(f"value: {json.dumps(record.value)}")
    return 0 if record.ok else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    runner = OracleRunner(AppBundle(args.reference))
    result = runner.check(AppBundle(args.candidate))
    for outcome in result.outcomes:
        print(outcome.describe())
    print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.platform.tuning import recommend_memory

    bundle = AppBundle(args.bundle)
    stats = measure_cold(bundle, invocations=2)
    recommendation = recommend_memory(
        init_time_s=stats.import_s,
        exec_time_s=stats.exec_s,
        footprint_mb=stats.memory_mb,
        strategy=args.strategy,
    )
    print(f"measured: init {stats.import_s:.3f}s, exec {stats.exec_s:.3f}s, "
          f"peak {stats.memory_mb:.1f}MB")
    for configured, cost, duration in recommendation.sweep:
        marker = " <-- recommended" if configured == recommendation.configured_mb else ""
        print(f"  {configured:6d} MB: ${cost:.3e}/invocation, "
              f"{duration * 1000:7.0f} ms{marker}")
    print(recommendation.describe())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import tempfile

    from repro.obs import (
        InMemoryRecorder,
        render_metrics,
        render_tree,
        use_recorder,
        write_jsonl,
    )

    bundle = AppBundle(args.bundle)
    config = TrimConfig(
        k=args.k,
        granularity=args.granularity,
        max_oracle_calls_per_module=args.budget,
    )
    trim_output = (
        args.trim_output
        if args.trim_output is not None
        else Path(tempfile.mkdtemp(prefix="repro-trace-")) / "trimmed"
    )
    recorder = InMemoryRecorder()
    with use_recorder(recorder):
        report = LambdaTrim(config).run(bundle, trim_output)

    if args.output is not None:
        try:
            path = write_jsonl(recorder, args.output)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    if args.json:
        from repro.obs import dump_from_recorder

        dump = dump_from_recorder(recorder)
        print(json.dumps({
            "verify_passed": report.verify_passed,
            "output_root": str(report.output_root),
            "spans": [span.to_dict() for span in dump.spans],
            "events": [event.to_dict() for event in dump.events],
            "counters": dump.counters,
            "gauges": dump.gauges,
        }, sort_keys=True))
        return 0 if report.verify_passed else 1
    print(render_tree(recorder))
    if args.metrics:
        print()
        print(render_metrics(recorder))
    if args.output is not None:
        print(f"\ntelemetry written to {path}")
    print(f"optimized bundle written to {report.output_root}")
    return 0 if report.verify_passed else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import load_jsonl, render_metrics

    try:
        dump = load_jsonl(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(dump.metrics, indent=2, sort_keys=True))
    else:
        print(render_metrics(dump))
        print(f"\n{len(dump.spans)} span(s), {len(dump.events)} event(s)")
    return 0


def _summarize_export(report) -> dict:
    from repro.platform.slo import FLEET
    from repro.platform.slo import metric_value as slo_metric

    summary: dict = {
        "invocations": report.invocations,
        "window_s": report.window_s,
        "windows": len(report.rollups(FLEET)),
        "functions": report.functions(),
        "breaches": [breach.to_dict() for breach in report.breaches],
    }
    if report.rollups(FLEET):
        total = report.overall(FLEET)
        summary["overall"] = {
            metric: slo_metric(total, metric)
            for metric in (
                "cold_start_rate", "error_rate", "cost_usd", "cost_per_1k",
                "concurrency_peak", "e2e_p50", "e2e_p95", "e2e_p99",
                "cold_e2e_p99",
            )
        }
        summary["status_counts"] = dict(sorted(total.status_counts.items()))
    if report.meta:
        summary["meta"] = report.meta
    return summary


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.platform.fleet import replay_fleet
    from repro.traces import FleetTrace

    bundle = AppBundle(args.bundle)
    if args.trace is not None:
        trace = FleetTrace.load(args.trace)
    elif args.invocations is not None:
        trace = FleetTrace.generate_invocations(
            args.invocations,
            seed=args.seed,
            max_per_function=args.max_per_function,
        )
    else:
        trace = FleetTrace.generate(
            args.functions if args.functions is not None else 50,
            seed=args.seed,
        )
        if args.max_per_function is not None:
            trace = trace.capped(args.max_per_function)

    if args.event is not None:
        event = json.loads(args.event)
    else:
        from repro.core.oracle import OracleSpec

        event = OracleSpec.from_bundle(bundle).cases[0].event

    faults = None
    if args.fault_plan is not None:
        from repro.platform.faults import FaultPlan

        try:
            plan_text = args.fault_plan.read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot read {args.fault_plan}: {exc}", file=sys.stderr)
            return 2
        # Malformed plans raise PlatformError -> one-line error, exit 2.
        faults = FaultPlan.from_json(plan_text)
    hosts = None
    if args.hosts is not None:
        from repro.platform.hosts import HostConfig

        hosts = HostConfig(
            count=args.hosts,
            memory_mb=args.host_memory_mb,
            placement=args.placement,
        )
    retry = None
    if args.retry_attempts is not None:
        from repro.platform.retry import RetryPolicy

        retry = RetryPolicy(max_attempts=args.retry_attempts)

    kwargs: dict = {}
    if args.keep_alive is not None:
        kwargs["keep_alive_s"] = args.keep_alive
    result = replay_fleet(
        bundle,
        trace,
        event,
        workers=args.workers,
        window_s=args.window,
        retry=retry,
        faults=faults,
        hosts=hosts,
        dead_letters=args.dead_letters,
        record_detail=args.record_detail,
        log_dir=args.log_dir,
        merged_log=args.merged_log,
        profile_dir=args.profile_dir,
        merged_profiles=args.merged_profiles,
        spill_threshold=args.spill_threshold,
        engine=args.engine,
        min_shard_invocations=args.min_shard_invocations,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        **kwargs,
    )
    if args.export is not None:
        result.report.save(args.export)

    if args.json:
        summary = {
            "functions": len(trace),
            "arrivals": result.arrivals,
            "delivered": result.delivered,
            "records": result.records,
            "status_counts": dict(sorted(result.status_counts().items())),
            "total_cost_usd": result.total_cost,
            "workers": result.workers,
            "wall_s": round(result.wall_s, 3),
            "throughput_per_s": round(result.throughput, 1),
        }
        if "hosts" in result.report.meta:
            summary["hosts"] = result.report.meta["hosts"]
        if "dead_letters" in result.report.meta:
            summary["dead_letters"] = result.report.meta["dead_letters"]
        if "resume" in result.report.meta:
            summary["resume"] = result.report.meta["resume"]
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"replayed {result.arrivals} arrivals across {len(trace)} "
              f"function(s) on {result.workers} worker(s) "
              f"in {result.wall_s:.2f}s ({result.throughput:,.0f}/s)")
        print(f"delivered {result.delivered}, {result.records} record(s), "
              f"total cost ${result.total_cost:.6f}")
        for status, count in sorted(result.status_counts().items()):
            print(f"  {status:12s} {count}")
        hosts_meta = result.report.meta.get("hosts")
        if hosts_meta is not None:
            print(f"hosts [{hosts_meta['placement']}]: "
                  f"{hosts_meta['hosts_per_function']} x "
                  f"{hosts_meta['memory_mb']:.0f}MB per function — "
                  f"{hosts_meta['placements']} placement(s), "
                  f"{hosts_meta['evictions']} eviction(s), "
                  f"{hosts_meta['instances_lost']} instance(s) lost, "
                  f"{hosts_meta['capacity_throttles']} capacity throttle(s)")
        if result.dead_letters is not None:
            print(f"{result.report.meta.get('dead_letters', 0)} dead "
                  f"letter(s) written to {result.dead_letters}")
        resume_meta = result.report.meta.get("resume")
        if resume_meta is not None:
            print(f"checkpointed: {resume_meta['resumed_shards']} shard(s) "
                  f"resumed, {resume_meta['reexecuted_invocations']} "
                  f"invocation(s) re-executed")
        if args.export is not None:
            print(f"telemetry export written to {args.export}")
        if result.merged_log is not None:
            print(f"merged record log written to {result.merged_log}")
        if result.merged_profiles is not None:
            print(f"merged cold-start profiles written to "
                  f"{result.merged_profiles} (render with `repro profile`)")
    return 0


def _load_profiles(path: Path):
    from repro.obs.attribution import AttributionStore

    return AttributionStore.load_jsonl(path)


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.analysis.dashboard import render_attribution_diff
    from repro.analysis.tables import render_table
    from repro.obs.attribution import AttributionStore
    from repro.obs.flamegraph import write_chrome_trace, write_folded

    try:
        store = _load_profiles(args.profiles)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.profiles}: {exc}", file=sys.stderr)
        return 2
    if args.function is not None:
        scoped = AttributionStore()
        for profile in store.for_function(args.function):
            scoped.record(profile)
        store = scoped

    if args.diff is not None:
        try:
            baseline = _load_profiles(args.diff)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.diff}: {exc}", file=sys.stderr)
            return 2
        print(render_attribution_diff(baseline, store, top=args.top))
        return 0

    top = store.top_modules(args.top)
    if args.json:
        print(json.dumps({
            "profiles": len(store),
            "functions": list(store.functions),
            "total_cost_usd": store.total_cost_usd(),
            "top_modules": [
                {
                    "module": label,
                    "time_s": time_s,
                    "memory_mb": memory_mb,
                    "usd": usd,
                    "cold_starts": count,
                }
                for label, time_s, memory_mb, usd, count in top
            ],
        }, indent=2, sort_keys=True))
    else:
        print(f"{len(store)} cold start(s) across "
              f"{len(store.functions)} function(s), "
              f"total billed ${store.total_cost_usd():.6f}")
        if top:
            print()
            print(render_table(
                ["module", "time", "usd", "cold starts"],
                [
                    [label, f"{time_s:.3f}s", f"${usd:.3e}", str(count)]
                    for label, time_s, _, usd, count in top
                ],
            ))
    try:
        if args.flame is not None:
            lines = write_folded(store, args.flame)
            print(f"folded stacks ({lines} line(s)) written to {args.flame}")
        if args.chrome is not None:
            events = write_chrome_trace(store, args.chrome)
            print(f"chrome trace ({events} event(s)) written to {args.chrome}")
    except OSError as exc:
        print(f"error: cannot write export: {exc}", file=sys.stderr)
        return 2
    return 0


def _looks_like_record_log(path: Path) -> bool:
    """True when *path* starts with an invocation-record JSON line."""
    try:
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                data = json.loads(line)
                return isinstance(data, dict) and "request_id" in data
    except (OSError, ValueError):
        return False
    return False


def _load_telemetry(path: Path, window_s: float):
    from repro.platform.fleet import report_from_log
    from repro.platform.telemetry import FleetReport

    if _looks_like_record_log(path):
        return report_from_log(path, window_s=window_s)
    return FleetReport.load(path)


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.analysis.dashboard import render_comparison, render_dashboard
    from repro.platform.slo import FLEET

    try:
        report = _load_telemetry(args.export, args.window)
        baseline = (
            _load_telemetry(args.baseline, args.window)
            if args.baseline is not None
            else None
        )
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: cannot read telemetry export: {exc}", file=sys.stderr)
        return 2
    profiles = None
    if args.profiles is not None:
        try:
            profiles = _load_profiles(args.profiles)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.profiles}: {exc}", file=sys.stderr)
            return 2
    function = args.function if args.function is not None else FLEET

    if args.json:
        summary = _summarize_export(report)
        if baseline is not None:
            summary = {
                "baseline": _summarize_export(baseline),
                "candidate": summary,
            }
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_dashboard(report, function=function, profiles=profiles))
        if baseline is not None:
            print()
            print("== comparison vs. baseline ==")
            print(render_comparison(baseline, report, function=function))
    # Breaches in the (candidate) export are the alarm: non-zero exit makes
    # `repro dashboard` usable as a CI regression gate.
    return 1 if report.breaches else 0


def _cmd_build_app(args: argparse.Namespace) -> int:
    from repro.workloads.apps import build_app

    bundle = build_app(args.name, args.directory)
    print(f"built {bundle.name} at {bundle.root}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import FULL_SECTIONS, QUICK_SECTIONS, write_report

    sections = QUICK_SECTIONS if args.quick else FULL_SECTIONS
    path = write_report(args.output, sections=sections)
    print(f"report with {len(sections)} artifact(s) written to {path}")
    return 0


def _cmd_apps(_: argparse.Namespace) -> int:
    from repro.workloads.apps import APP_NAMES, app_definition

    for name in APP_NAMES:
        definition = app_definition(name)
        print(f"{name:20s} [{definition.source:11s}] {definition.description}")
    return 0


_HANDLERS = {
    "trim": _cmd_trim,
    "analyze": _cmd_analyze,
    "measure": _cmd_measure,
    "invoke": _cmd_invoke,
    "oracle": _cmd_oracle,
    "fuzz": _cmd_fuzz,
    "tune": _cmd_tune,
    "trace": _cmd_trace,
    "replay": _cmd_replay,
    "profile": _cmd_profile,
    "metrics": _cmd_metrics,
    "dashboard": _cmd_dashboard,
    "build-app": _cmd_build_app,
    "apps": _cmd_apps,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`): exit quietly.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
