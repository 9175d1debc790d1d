"""End-to-end instrumentation: pipeline spans, DD/oracle/emulator metrics."""

from __future__ import annotations

from repro import LambdaEmulator, LambdaTrim
from repro.cli import main
from repro.core.dd import DeltaDebugger
from repro.obs import InMemoryRecorder, load_jsonl, use_recorder


class TestPipelineSpans:
    def test_run_emits_the_stage_tree(self, toy_app, tmp_path):
        recorder = InMemoryRecorder()
        with use_recorder(recorder):
            report = LambdaTrim().run(toy_app, tmp_path / "out")

        by_name: dict[str, list] = {}
        for span in recorder.spans:
            by_name.setdefault(span.name, []).append(span)

        root = by_name["pipeline.run"][0]
        for stage in ("analyze", "profile", "rank", "verify"):
            (span,) = by_name[stage]
            assert span.parent_id == root.span_id
        debloats = by_name["debloat"]
        assert {s.attrs["label"] for s in debloats} == set(report.ranked_modules)
        assert all(s.parent_id == root.span_id for s in debloats)
        # DD searches nest under their module's debloat span
        debloat_ids = {s.span_id for s in debloats}
        assert all(s.parent_id in debloat_ids for s in by_name["dd.minimize"])

    def test_run_verifies_the_final_bundle(self, toy_app, tmp_path):
        report = LambdaTrim().run(toy_app, tmp_path / "out")
        assert report.verify_passed is True
        assert "verification: passed" in report.summary()

    def test_pipeline_counters_match_report(self, toy_app, tmp_path):
        recorder = InMemoryRecorder()
        with use_recorder(recorder):
            report = LambdaTrim().run(toy_app, tmp_path / "out")
        metrics = recorder.metrics()
        assert metrics["pipeline.modules_selected"] == len(report.ranked_modules)
        assert metrics["pipeline.attributes_removed"] == report.attributes_removed
        assert metrics["dd.oracle_calls"] == report.oracle_calls
        assert "oracle.cases_failed" not in metrics  # nothing failed on this run


class TestDDMetrics:
    def test_delta_debugger_exposes_public_cache_stats(self):
        needed = {1, 5}
        debugger = DeltaDebugger(lambda c: needed.issubset(set(c)))
        outcome = debugger.minimize(list(range(8)))
        assert set(outcome.minimal) == needed
        assert debugger.oracle_calls == outcome.oracle_calls > 0
        assert debugger.cache_hits == outcome.cache_hits
        assert debugger.cache_misses == outcome.cache_misses == outcome.oracle_calls
        assert debugger.cache_size == outcome.cache_misses
        assert outcome.cache_lookups == outcome.cache_hits + outcome.cache_misses
        assert 0.0 <= outcome.cache_hit_rate <= 1.0

    def test_minimize_reports_to_the_registry(self):
        recorder = InMemoryRecorder()
        needed = {2, 9}
        with use_recorder(recorder):
            outcome = DeltaDebugger(
                lambda c: needed.issubset(set(c))
            ).minimize(list(range(12)))
        metrics = recorder.metrics()
        assert metrics["dd.minimize_runs"] == 1
        assert metrics["dd.oracle_calls"] == outcome.oracle_calls
        assert metrics["dd.cache_hits"] == outcome.cache_hits
        assert metrics["dd.components_removed"] == 12 - len(outcome.minimal)


class TestEmulatorTelemetry:
    def test_invocations_emit_report_events_and_counters(self, toy_app):
        recorder = InMemoryRecorder()
        event = {"x": [1.0, 2.0], "y": [3.0, 4.0]}
        with use_recorder(recorder):
            emulator = LambdaEmulator()
            emulator.deploy(toy_app, name="fn")
            cold = emulator.invoke("fn", event)
            warm = emulator.invoke("fn", event)

        metrics = recorder.metrics()
        assert metrics["emulator.invocations"] == 2
        assert metrics["emulator.cold_starts"] == 1
        assert metrics["emulator.warm_starts"] == 1
        expected_billed = (cold.billed_duration_s + warm.billed_duration_s) * 1000
        assert metrics["emulator.billed_ms"] == expected_billed
        assert metrics["emulator.cost_usd"] == cold.cost_usd + warm.cost_usd
        assert metrics["emulator.peak_memory_mb"] == max(
            cold.peak_memory_mb, warm.peak_memory_mb
        )

        reports = [e for e in recorder.events if e.name == "emulator.report"]
        assert [e.attrs["start_type"] for e in reports] == ["cold", "warm"]
        assert reports[0].attrs["request_id"] == cold.request_id
        assert reports[0].attrs["billed_duration_s"] == cold.billed_duration_s
        assert reports[0].attrs["cost_usd"] == cold.cost_usd

    def test_null_recorder_leaves_no_trace(self, toy_app):
        # default recorder: invocations behave identically, nothing recorded
        emulator = LambdaEmulator()
        emulator.deploy(toy_app, name="fn")
        record = emulator.invoke("fn", {"x": [1.0], "y": [2.0]})
        assert record.ok


class TestCliSurface:
    def test_trace_prints_tree_and_writes_jsonl(self, toy_app, tmp_path, capsys):
        out = tmp_path / "obs.jsonl"
        code = main(
            ["trace", str(toy_app.root), "-o", str(out),
             "--trim-output", str(tmp_path / "trimmed"), "--metrics"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        for stage in ("pipeline.run", "analyze", "profile", "rank",
                      "debloat [torch]", "verify"):
            assert stage in stdout
        assert "dd.oracle_calls" in stdout

        dump = load_jsonl(out)
        root = next(s for s in dump.spans if s.name == "pipeline.run")
        children = {
            s.name for s in dump.spans if s.parent_id == root.span_id
        }
        assert {"analyze", "profile", "rank", "debloat", "verify"} <= children

    def test_metrics_renders_an_export(self, toy_app, tmp_path, capsys):
        out = tmp_path / "obs.jsonl"
        assert main(["trace", str(toy_app.root), "-o", str(out),
                     "--trim-output", str(tmp_path / "trimmed")]) == 0
        capsys.readouterr()
        assert main(["metrics", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "dd.oracle_calls" in stdout
        assert "span(s)" in stdout

    def test_metrics_json_mode(self, toy_app, tmp_path, capsys):
        import json

        out = tmp_path / "obs.jsonl"
        assert main(["trace", str(toy_app.root), "-o", str(out),
                     "--trim-output", str(tmp_path / "trimmed")]) == 0
        capsys.readouterr()
        assert main(["metrics", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dd.minimize_runs"] >= 1
