"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestTrimCommand:
    def test_trim_and_oracle(self, toy_app, tmp_path, capsys):
        out = tmp_path / "trimmed"
        assert main(["trim", str(toy_app.root), "-o", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "attributes removed" in stdout
        assert out.exists()

        assert main(["oracle", str(toy_app.root), str(out)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_trim_statement_granularity(self, toy_app, tmp_path, capsys):
        out = tmp_path / "stmt"
        code = main(
            ["trim", str(toy_app.root), "-o", str(out), "--granularity", "statement"]
        )
        assert code == 0
        source = (out / "site-packages" / "torch" / "__init__.py").read_text()
        assert "MSELoss" in source  # statement granularity keeps the pair

    def test_oracle_detects_divergence(self, toy_app, tmp_path, capsys):
        broken = toy_app.clone(tmp_path / "broken")
        broken.handler_path.write_text(
            broken.handler_source().replace("% 10**6", "% 3")
        )
        assert main(["oracle", str(toy_app.root), str(broken.root)]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestInspectionCommands:
    def test_analyze(self, toy_app, capsys):
        assert main(["analyze", str(toy_app.root)]) == 0
        stdout = capsys.readouterr().out
        assert "torch" in stdout
        assert "marginal cost" in stdout

    def test_measure(self, toy_app, capsys):
        assert main(["measure", str(toy_app.root), "--invocations", "1"]) == 0
        stdout = capsys.readouterr().out
        assert "cold start" in stdout
        assert "per 100K invocations" in stdout

    def test_invoke_default_event(self, toy_app, capsys):
        assert main(["invoke", str(toy_app.root)]) == 0
        stdout = capsys.readouterr().out
        assert "REPORT RequestId" in stdout
        assert "prediction" in stdout

    def test_invoke_custom_event(self, toy_app, capsys):
        event = json.dumps({"x": [9.0], "y": [1.0]})
        assert main(["invoke", str(toy_app.root), "--event", event]) == 0

    def test_invoke_warm(self, toy_app, capsys):
        assert main(["invoke", str(toy_app.root), "--warm"]) == 0
        assert "Init Duration" not in capsys.readouterr().out


class TestWorkloadCommands:
    def test_apps_listing(self, capsys):
        assert main(["apps"]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("\n") == 21
        assert "resnet" in stdout

    def test_build_app(self, tmp_path, capsys):
        assert main(["build-app", "markdown", str(tmp_path / "md")]) == 0
        assert (tmp_path / "md" / "handler.py").exists()

    def test_unknown_app_is_reported(self, tmp_path, capsys):
        assert main(["build-app", "nope", str(tmp_path / "x")]) == 2
        assert "error:" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestFuzzCommand:
    def test_clean_fuzz_exits_zero(self, toy_app, tmp_path, capsys):
        clone = toy_app.clone(tmp_path / "clone")
        code = main(["fuzz", str(toy_app.root), str(clone.root), "--budget", "6"])
        assert code == 0
        assert "0 divergence" in capsys.readouterr().out

    def test_continuous_trim_log_round_trip(self, toy_app, tmp_path, capsys):
        log = tmp_path / "log.json"
        assert main(["trim", str(toy_app.root), "-o", str(tmp_path / "t1"),
                     "--log", str(log)]) == 0
        assert log.exists()
        assert main(["trim", str(toy_app.root), "-o", str(tmp_path / "t2"),
                     "--log", str(log)]) == 0
        stdout = capsys.readouterr().out
        assert "adopted from the log" in stdout


class TestObservabilityCommands:
    def test_trace_json(self, toy_app, tmp_path, capsys):
        code = main(["trace", str(toy_app.root),
                     "--trim-output", str(tmp_path / "trimmed"), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verify_passed"] is True
        assert payload["spans"], "trace --json must include pipeline spans"
        assert any(s["name"] == "pipeline.run" for s in payload["spans"])
        assert "counters" in payload and "gauges" in payload

    def test_dashboard_renders_saved_export(self, tmp_path, capsys):
        from repro.platform import TelemetrySink
        from repro.platform.logs import InvocationRecord, StartType

        sink = TelemetrySink(window_s=60.0)
        sink.observe(InvocationRecord(
            request_id="r1", function="api", start_type=StartType.WARM,
            timestamp=1.0, value=None, instance_id="i0",
            exec_duration_s=0.1, billed_duration_s=0.1, cost_usd=1e-6,
        ))
        export = sink.save(tmp_path / "export.json")
        assert main(["dashboard", str(export)]) == 0
        stdout = capsys.readouterr().out
        assert "fleet telemetry" in stdout
        assert "SLOs: none configured" in stdout

    def test_dashboard_rejects_bad_export(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert main(["dashboard", str(bad)]) == 2
        assert "not a telemetry export" in capsys.readouterr().err

    def test_dashboard_rejects_corrupt_profiles(self, tmp_path, capsys):
        from repro.platform import TelemetrySink
        from repro.platform.logs import InvocationRecord, StartType

        sink = TelemetrySink(window_s=60.0)
        sink.observe(InvocationRecord(
            request_id="r1", function="api", start_type=StartType.WARM,
            timestamp=1.0, value=None, instance_id="i0",
            exec_duration_s=0.1, billed_duration_s=0.1, cost_usd=1e-6,
        ))
        export = sink.save(tmp_path / "export.json")
        bad = tmp_path / "bad.profiles.jsonl"
        bad.write_text("{torn", encoding="utf-8")
        assert main(["dashboard", str(export), "--profiles", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 1" in err

    def test_trace_unwritable_output_is_one_line_error(
        self, toy_app, tmp_path, capsys
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "telemetry.jsonl"  # parent is a file: unwritable
        code = main([
            "trace", str(toy_app.root),
            "--trim-output", str(tmp_path / "trimmed"),
            "-o", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write")
        assert "Traceback" not in err

    def test_metrics_rejects_corrupt_export(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span"\n', encoding="utf-8")
        assert main(["metrics", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read")
        assert "Traceback" not in err

    def test_metrics_rejects_missing_file(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "nope.jsonl")]) == 2
        assert "error: cannot read" in capsys.readouterr().err


class TestReplayCommand:
    def test_replay_generated_fleet_end_to_end(self, toy_app, tmp_path, capsys):
        export = tmp_path / "export.json"
        merged = tmp_path / "merged.jsonl"
        code = main([
            "replay", str(toy_app.root),
            "--invocations", "120", "--max-per-function", "100",
            "--seed", "11", "--workers", "2",
            "--export", str(export),
            "--log-dir", str(tmp_path / "logs"),
            "--merged-log", str(merged),
            "--spill-threshold", "32",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["arrivals"] >= 120
        assert payload["delivered"] == payload["arrivals"]
        assert payload["status_counts"]["success"] == payload["arrivals"]
        assert payload["workers"] == 2

        # The export renders on the standard dashboard...
        assert main(["dashboard", str(export)]) == 0
        assert "fleet telemetry" in capsys.readouterr().out
        # ...and the merged record log streams into one too.
        assert main(["dashboard", str(merged)]) == 0
        assert "fleet telemetry" in capsys.readouterr().out

    def test_replay_saved_trace(self, toy_app, tmp_path, capsys):
        from repro.traces import FleetTrace

        trace_path = FleetTrace.generate(3, seed=4).save(
            tmp_path / "trace.jsonl"
        )
        code = main([
            "replay", str(toy_app.root), "--trace", str(trace_path),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "3 function(s)" in stdout
        assert "1 worker(s)" in stdout

    def test_replay_missing_trace_is_a_one_line_error(
        self, toy_app, tmp_path, capsys
    ):
        code = main([
            "replay", str(toy_app.root),
            "--trace", str(tmp_path / "nope.jsonl"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read trace")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_replay_truncated_trace_is_a_one_line_error(
        self, toy_app, tmp_path, capsys
    ):
        from repro.traces import FleetTrace

        trace_path = FleetTrace.generate(3, seed=4).save(
            tmp_path / "trace.jsonl"
        )
        text = trace_path.read_text(encoding="utf-8")
        # Tear the tail mid-record, as a crashed writer would.
        trace_path.write_text(text[: len(text) - 10], encoding="utf-8")
        code = main([
            "replay", str(toy_app.root), "--trace", str(trace_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "bad trace" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_replay_non_finite_trace_is_a_one_line_error(
        self, toy_app, tmp_path, capsys
    ):
        trace_path = tmp_path / "trace.jsonl"
        trace_path.write_text(
            '{"function_id": "fn-a", "pattern": "steady", "memory_mb": 128.0, '
            '"duration_s": 60.0, "timestamps": [0.0, NaN, 2.0]}\n',
            encoding="utf-8",
        )
        code = main([
            "replay", str(toy_app.root), "--trace", str(trace_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "timestamps must be finite" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_replay_checkpointed_reports_resume_accounting(
        self, toy_app, tmp_path, capsys
    ):
        code = main([
            "replay", str(toy_app.root),
            "--invocations", "40", "--max-per-function", "30",
            "--seed", "11",
            "--checkpoint-dir", str(tmp_path / "cks"),
            "--checkpoint-every", "10",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "0 shard(s) resumed" in stdout
        assert "0 invocation(s) re-executed" in stdout

    def test_replay_resume_requires_checkpoint_dir(self, toy_app, capsys):
        code = main(["replay", str(toy_app.root), "--resume"])
        assert code == 2
        assert "checkpoint_dir" in capsys.readouterr().err

    def test_replay_resume_on_other_engine_is_a_one_line_error(
        self, toy_app, tmp_path, capsys
    ):
        from repro.platform import checkpoint as checkpoint_mod
        from repro.traces import FleetTrace, FunctionTrace

        class Crash(Exception):
            pass

        def crash(count):
            raise Crash()

        # One function, so the first durable write is a mid-trace
        # checkpoint rather than a finished function's done marker.
        timestamps = tuple(2.0 * i for i in range(40))
        trace_path = FleetTrace(
            traces=(FunctionTrace("fn-a", "steady", 128.0, 600.0, timestamps),)
        ).save(tmp_path / "trace.jsonl")
        args = [
            "replay", str(toy_app.root), "--trace", str(trace_path),
            "--checkpoint-dir", str(tmp_path / "cks"),
            "--checkpoint-every", "10",
        ]
        checkpoint_mod.set_post_checkpoint_hook(crash)
        try:
            with pytest.raises(Crash):
                main(args)
        finally:
            checkpoint_mod.set_post_checkpoint_hook(None)
        capsys.readouterr()
        code = main([*args, "--resume", "--engine", "reference"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "written by the 'kernel' engine" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("engine", ["kernel", "vector"])
    def test_replay_engine_is_auto_or_reference(self, toy_app, engine, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["replay", str(toy_app.root), "--engine", engine])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestProfileCommand:
    @pytest.fixture(scope="class")
    def merged(self, tmp_path_factory):
        """Replay the toy fleet with profiling on; yield the merged dump."""
        from repro.workloads.toy import build_toy_torch_app

        root = tmp_path_factory.mktemp("profile-cli")
        bundle = build_toy_torch_app(root / "toy")
        merged = root / "merged.profiles.jsonl"
        code = main([
            "replay", str(bundle.root),
            "--invocations", "60", "--max-per-function", "30",
            "--seed", "7", "--workers", "2",
            "--profile-dir", str(root / "profiles"),
            "--merged-profiles", str(merged),
        ])
        assert code == 0
        assert merged.exists()
        return merged

    def test_summary_table_lists_modules(self, merged, capsys):
        assert main(["profile", str(merged), "--top", "5"]) == 0
        stdout = capsys.readouterr().out
        assert "cold start(s)" in stdout
        assert "total billed $" in stdout
        assert "module" in stdout
        assert "torch" in stdout

    def test_flame_and_chrome_exports_parse(self, merged, tmp_path, capsys):
        flame = tmp_path / "flame.folded"
        chrome = tmp_path / "trace.json"
        code = main([
            "profile", str(merged),
            "--flame", str(flame), "--chrome", str(chrome),
        ])
        assert code == 0
        for line in flame.read_text(encoding="utf-8").splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert ";" in stack and int(weight) > 0
        doc = json.loads(chrome.read_text(encoding="utf-8"))
        assert doc["traceEvents"]
        assert any(e.get("cat") == "attribution" for e in doc["traceEvents"])

    def test_json_summary(self, merged, capsys):
        assert main(["profile", str(merged), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profiles"] > 0
        assert payload["functions"]
        assert payload["total_cost_usd"] > 0
        assert payload["top_modules"]

    def test_diff_renders_dollars_saved_table(self, merged, capsys):
        code = main(["profile", str(merged), "--diff", str(merged)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "dependency" in stdout
        assert "saved" in stdout

    def test_function_scope_filters_profiles(self, merged, capsys):
        assert main(["profile", str(merged), "--function", "nope",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profiles"] == 0

    def test_rejects_corrupt_profiles(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        assert main(["profile", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read")
        assert "Traceback" not in err

    def test_rejects_missing_file(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "nope.jsonl")]) == 2
        assert "error: cannot read" in capsys.readouterr().err

    def test_unwritable_export_is_one_line_error(self, merged, tmp_path,
                                                 capsys):
        flame = tmp_path / "missing-dir" / "flame.folded"
        assert main(["profile", str(merged), "--flame", str(flame)]) == 2
        assert "error: cannot write" in capsys.readouterr().err


@pytest.mark.slow
class TestProfileAllApplications:
    """Acceptance: flame/Chrome exports parse for the full 21-app fleet."""

    def test_twenty_one_app_run_exports_parse(self, tmp_path, capsys):
        from repro.obs.attribution import AttributionStore
        from repro.platform import LambdaEmulator
        from repro.workloads.apps import APP_NAMES, app_definition, build_app

        store = AttributionStore()
        emulator = LambdaEmulator(attribution=store)
        for app in APP_NAMES:
            bundle = build_app(app, tmp_path / "apps" / app)
            emulator.deploy(bundle, name=app)
            case = app_definition(app).oracle[0]
            record = emulator.invoke(app, case["event"], case.get("context"))
            assert record.start_type.value == "cold"
        assert len(store) == len(APP_NAMES)
        assert store.total_cost_usd() == emulator.log.cold_start_cost_usd()

        profiles = tmp_path / "fleet.profiles.jsonl"
        store.write_jsonl(profiles)
        flame = tmp_path / "fleet.folded"
        chrome = tmp_path / "fleet.trace.json"
        code = main([
            "profile", str(profiles),
            "--flame", str(flame), "--chrome", str(chrome), "--top", "10",
        ])
        assert code == 0
        assert "21 cold start(s) across 21 function(s)" in (
            capsys.readouterr().out
        )
        folded = flame.read_text(encoding="utf-8").splitlines()
        assert len({line.split(";", 1)[0] for line in folded}) == 21
        doc = json.loads(chrome.read_text(encoding="utf-8"))
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(meta) == 21


class TestResumeFlag:
    def test_trim_writes_journal_by_default(self, toy_app, tmp_path, capsys):
        out = tmp_path / "trimmed"
        assert main(["trim", str(toy_app.root), "-o", str(out)]) == 0
        assert (tmp_path / "trimmed.journal.jsonl").exists()

    def test_trim_resume_reports_adopted_modules(self, toy_app, tmp_path, capsys):
        out = tmp_path / "trimmed"
        assert main(["trim", str(toy_app.root), "-o", str(out)]) == 0
        capsys.readouterr()
        code = main(["trim", str(toy_app.root), "-o", str(out), "--resume"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "resumed from journal" in stdout
        assert "module(s) adopted" in stdout

    def test_trim_custom_journal_path(self, toy_app, tmp_path, capsys):
        out = tmp_path / "trimmed"
        journal = tmp_path / "elsewhere" / "probes.jsonl"
        code = main(
            ["trim", str(toy_app.root), "-o", str(out),
             "--journal", str(journal)]
        )
        assert code == 0
        assert journal.exists()
        capsys.readouterr()
        code = main(
            ["trim", str(toy_app.root), "-o", str(out),
             "--journal", str(journal), "--resume"]
        )
        assert code == 0
        assert "resumed from journal" in capsys.readouterr().out

    def test_trim_resume_with_changed_config_errors(
        self, toy_app, tmp_path, capsys
    ):
        out = tmp_path / "trimmed"
        assert main(["trim", str(toy_app.root), "-o", str(out)]) == 0
        code = main(
            ["trim", str(toy_app.root), "-o", str(out), "--resume", "--k", "1"]
        )
        assert code == 2
        assert "different" in capsys.readouterr().err

    def test_trim_verify_probes_flag_accepted(self, toy_app, tmp_path, capsys):
        out = tmp_path / "trimmed"
        code = main(
            ["trim", str(toy_app.root), "-o", str(out), "--verify-probes"]
        )
        assert code == 0
