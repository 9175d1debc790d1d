"""End-to-end tests for the λ-trim pipeline (Figure 3)."""

from __future__ import annotations

import ast
import hashlib
import json
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.core.execution import run_once
from repro.core.incremental import IncrementalTrim, TrimLog
from repro.core.pipeline import DEFAULT_K, LambdaTrim, TrimConfig
from repro.errors import DebloatError

EVENT = {"x": [1.0, 2.0], "y": [3.0, 4.0]}


class TestTrimConfig:
    def test_paper_default_k_is_20(self):
        assert DEFAULT_K == 20
        assert TrimConfig().k == 20

    def test_negative_k_rejected(self):
        with pytest.raises(DebloatError):
            TrimConfig(k=-1)


class TestPipeline:
    def test_toy_end_to_end(self, toy_app, tmp_path):
        report = LambdaTrim().run(toy_app, tmp_path / "out")
        assert report.app == "toy-torch"
        assert report.external_modules == ["torch"]
        assert report.attributes_removed >= 2  # SGD + MSELoss at least

        before = run_once(toy_app, EVENT)
        after = run_once(report.output, EVENT)
        assert after.ok
        assert after.observable() == before.observable()
        assert after.init_time_s < before.init_time_s
        assert after.init_memory_mb < before.init_memory_mb

    def test_figure7_shape(self, toy_app, tmp_path):
        """The debloated torch omits MSELoss and skips torch.optim."""
        report = LambdaTrim().run(toy_app, tmp_path / "out")
        source = report.output.module_file("torch").read_text()
        assert "from torch.nn import Linear" in source
        assert "MSELoss" not in source
        assert "optim" not in source

    def test_k_zero_trims_nothing(self, toy_app, tmp_path):
        report = LambdaTrim(TrimConfig(k=0)).run(toy_app, tmp_path / "out")
        assert report.module_results == []
        after = run_once(report.output, EVENT)
        before = run_once(toy_app, EVENT)
        assert after.init_time_s == pytest.approx(before.init_time_s)

    def test_callgraph_ablation_same_result_more_calls(self, toy_app, tmp_path):
        with_cg = LambdaTrim(TrimConfig(use_call_graph=True)).run(
            toy_app, tmp_path / "cg"
        )
        without_cg = LambdaTrim(TrimConfig(use_call_graph=False)).run(
            toy_app, tmp_path / "nocg"
        )
        # Same final program either way (DD is the correctness mechanism)...
        assert run_once(with_cg.output, EVENT).observable() == run_once(
            without_cg.output, EVENT
        ).observable()
        # ...but the call graph prunes the search space.
        assert without_cg.oracle_calls > with_cg.oracle_calls

    def test_modules_ranked_by_marginal_cost(self, toy_app):
        trim = LambdaTrim()
        external, _ = trim.analyze(toy_app.clone(toy_app.root.parent / "rank"))
        bundle = toy_app
        report = trim.profile(bundle, external)
        selected = trim.select_modules(bundle, report)
        # torch (the root, inclusive of everything) must rank first
        assert selected[0] == "torch"
        assert set(selected) == {"torch", "torch.nn", "torch.optim"}

    def test_report_summary_mentions_modules(self, toy_app, tmp_path):
        report = LambdaTrim().run(toy_app, tmp_path / "out")
        summary = report.summary()
        assert "toy-torch" in summary
        assert "torch" in summary

    def test_representative_module(self, toy_app, tmp_path):
        report = LambdaTrim().run(toy_app, tmp_path / "out")
        representative = report.representative_module()
        assert representative is not None
        assert representative.removed_count == max(
            r.removed_count for r in report.module_results
        )

    def test_output_manifest_preserved(self, toy_app, tmp_path):
        report = LambdaTrim().run(toy_app, tmp_path / "out")
        manifest = report.output.manifest
        assert manifest.name == "toy-torch"
        assert manifest.image_size_mb == toy_app.manifest.image_size_mb
        assert manifest.platform_overhead_s == toy_app.manifest.platform_overhead_s

    def test_trim_is_deterministic(self, toy_app, tmp_path):
        a = LambdaTrim().run(toy_app, tmp_path / "a")
        b = LambdaTrim().run(toy_app, tmp_path / "b")
        assert [r.removed for r in a.module_results] == [
            r.removed for r in b.module_results
        ]
        assert a.oracle_calls == b.oracle_calls

    def test_trim_is_deterministic_with_bytecode_writing_on(
        self, toy_app, tmp_path, monkeypatch
    ):
        """Probe loads ignore ``.pyc`` files, so writing them (a default
        Python, CI) cannot change a verdict."""
        monkeypatch.setattr(sys, "dont_write_bytecode", False)

        def trim(name: str):
            report = LambdaTrim().run(toy_app, tmp_path / name, journal_fsync=False)
            kept = {r.module: r.kept for r in report.module_results}
            probes = [
                (r["module"], r["candidate"], r["verdict"], r["granularity"])
                for r in map(json.loads, report.journal_path.read_text().splitlines())
                if r["type"] == "probe"
            ]
            return kept, probes

        kept_a, probes_a = trim("a")
        kept_b, probes_b = trim("b")
        assert probes_a  # the journal recorded the DD search
        assert kept_a == kept_b
        assert probes_a == probes_b


class TestGranularityMode:
    def test_statement_granularity_keeps_from_import_whole(self, toy_app, tmp_path):
        """Section 6.1: "with statement granularity, we cannot remove
        specific attributes, as it removes all or none of them"."""
        report = LambdaTrim(TrimConfig(granularity="statement")).run(
            toy_app, tmp_path / "stmt"
        )
        source = report.output.module_file("torch").read_text()
        # the Linear/MSELoss statement survives whole (Linear is needed)
        assert "Linear" in source and "MSELoss" in source
        # the SGD statement is fully dead, so it still disappears
        assert "SGD" not in source
        # behaviour is preserved either way
        before = run_once(toy_app, EVENT)
        after = run_once(report.output, EVENT)
        assert after.observable() == before.observable()

    def test_attribute_beats_statement_on_memory(self, toy_app, tmp_path):
        attribute = LambdaTrim().run(toy_app, tmp_path / "attr")
        statement = LambdaTrim(TrimConfig(granularity="statement")).run(
            toy_app, tmp_path / "stmt2"
        )
        attr_mem = run_once(attribute.output, EVENT).init_memory_mb
        stmt_mem = run_once(statement.output, EVENT).init_memory_mb
        assert attr_mem < stmt_mem

    def test_invalid_granularity_rejected(self):
        with pytest.raises(DebloatError):
            TrimConfig(granularity="token")


class TestDebloatTelemetryMeta:
    def test_meta_is_json_safe_and_complete(self, toy_app, tmp_path):
        import json

        report = LambdaTrim().run(toy_app, tmp_path / "out", journal_fsync=False)
        meta = report.telemetry_meta()
        json.dumps(meta)  # must be export-safe
        assert meta["app"] == "toy-torch"
        assert meta["verify_passed"] is True
        assert meta["flaky_probes"] == 0
        assert meta["resumed"] is False

    def test_dashboard_renders_debloat_line(self, toy_app, tmp_path):
        from repro.analysis.dashboard import _render_debloat
        from repro.platform.telemetry import FleetReport

        first = LambdaTrim().run(toy_app, tmp_path / "out", journal_fsync=False)
        resumed = LambdaTrim().run(
            toy_app, tmp_path / "out", resume=True, journal_fsync=False
        )
        fleet = FleetReport(
            window_s=60.0, meta={"debloat": resumed.telemetry_meta()}
        )
        line = _render_debloat(fleet)
        assert "flaky probe" in line
        assert "resumed" in line
        assert str(first.attributes_removed) in line

    def test_dashboard_without_meta_renders_nothing(self):
        from repro.analysis.dashboard import _render_debloat
        from repro.platform.telemetry import FleetReport

        assert _render_debloat(FleetReport(window_s=60.0)) == ""


class TestOneParsePerFileContent:
    """Within one run, each (absolute path, content) is parsed once: the
    call graph's tree of a module is the one its decomposition uses."""

    @pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
    def test_fresh_and_seeded_trims(self, toy_app, tmp_path, monkeypatch, relative):
        parses: Counter = Counter()
        parse = ast.parse

        def counted(source, filename="<unknown>", *args, **kwargs):
            data = source if isinstance(source, bytes) else source.encode()
            key = (os.path.abspath(filename), hashlib.sha256(data).hexdigest())
            parses[key] += 1
            return parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counted)
        monkeypatch.chdir(tmp_path)
        out = Path("out") if relative else tmp_path / "out"
        fresh = LambdaTrim().run(toy_app, out / "fresh", journal_fsync=False)
        fresh_parses = dict(parses)
        parses.clear()
        seeded = IncrementalTrim(log=TrimLog.from_report(fresh)).run(
            toy_app, out / "seeded", journal_fsync=False
        )
        assert fresh.attributes_removed > 0
        assert [r.seeded for r in seeded.module_results] == [True] * 3
        for report, counts in ((fresh, fresh_parses), (seeded, dict(parses))):
            assert set(counts.values()) == {1}, counts
            # The spy saw each module's pristine bytes in the working bundle.
            for result in report.module_results:
                data = toy_app.module_file(result.module).read_bytes()
                key = (os.path.abspath(result.file), hashlib.sha256(data).hexdigest())
                assert key in counts, result.module
