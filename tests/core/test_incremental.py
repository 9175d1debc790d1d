"""Tests for continuous debloating (Section 9 future work)."""

from __future__ import annotations

import pytest

from repro.core import debloater
from repro.core.execution import run_once
from repro.core.incremental import IncrementalTrim, TrimLog, seeded_statistics
from repro.core.oracle import OracleCase, OracleSpec
from repro.core.pipeline import LambdaTrim
from repro.errors import DebloatError

EVENT = {"x": [1.0, 2.0], "y": [3.0, 4.0]}


@pytest.fixture()
def initial(toy_app, tmp_path):
    report = LambdaTrim().run(toy_app, tmp_path / "initial")
    return report, TrimLog.from_report(report)


class TestTrimLog:
    def test_round_trip(self, initial, tmp_path):
        _, log = initial
        path = tmp_path / "trim-log.json"
        log.save(path)
        loaded = TrimLog.load(path)
        assert loaded.app == log.app
        assert loaded.kept == log.kept

    def test_records_kept_sets(self, initial):
        report, log = initial
        assert "torch" in log.kept
        assert "SGD" not in log.kept["torch"]
        assert "tensor" in log.kept["torch"]

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "app": "x", "kept": {}}')
        with pytest.raises(DebloatError):
            TrimLog.load(path)


class TestIncrementalRun:
    def test_unchanged_app_adopts_seed_in_one_call_per_module(
        self, toy_app, initial, tmp_path
    ):
        report, log = initial
        rerun = IncrementalTrim(log=log).run(toy_app, tmp_path / "rerun")

        stats = seeded_statistics(rerun)
        assert stats["adopted"] >= 1
        for result in rerun.module_results:
            if result.seeded:
                assert result.oracle_calls == 1
        # every module adopted its seed: one oracle call each
        assert all(r.seeded for r in rerun.module_results if not r.skipped)
        assert rerun.oracle_calls <= report.oracle_calls / 2
        # and the same final program
        assert run_once(rerun.output, EVENT).observable() == run_once(
            report.output, EVENT
        ).observable()

    def test_adopted_seed_rebuilds_its_module_once(
        self, toy_app, initial, tmp_path, monkeypatch
    ):
        """The seed probe runs from statement code and renders no text, so
        adopting a seed renders the module once: the commit's source."""
        report, log = initial
        rebuilds = []
        rebuild_source = debloater.rebuild_source

        def spy(decomposition, keep):
            rebuilds.append(decomposition)
            return rebuild_source(decomposition, keep)

        monkeypatch.setattr(debloater, "rebuild_source", spy)
        rerun = IncrementalTrim(log=log).run(toy_app, tmp_path / "rerun")

        adopted = [r for r in rerun.module_results if r.seeded]
        assert len(adopted) == 3
        assert len(rebuilds) == len(adopted)
        for result in adopted:
            relative = result.file.relative_to(rerun.output.root)
            committed = (report.output.root / relative).read_text()
            assert result.file.read_text() == committed

    def test_statically_visible_new_usage_still_adopts_seed(
        self, toy_app, initial, tmp_path
    ):
        """A handler update that uses SGD *visibly*: the recomputed call
        graph pins SGD, so the seed composes with the new protection and
        is still adopted in one call."""
        _, log = initial
        extended = toy_app.clone(tmp_path / "visible")
        handler = extended.handler_source().replace(
            "def handler(event, context):",
            "def handler(event, context):\n"
            "    if event.get('train'):\n"
            "        return {'opt': torch.SGD(model) % 10**6}",
        )
        extended.handler_path.write_text(handler)
        spec = OracleSpec.from_bundle(extended)
        spec.add_case(OracleCase("train", {"x": [1.0], "y": [2.0], "train": True}))
        spec.save(extended.oracle_path)

        rerun = IncrementalTrim(log=log).run(extended, tmp_path / "rerun2")
        torch_result = rerun.result_for("torch")
        assert torch_result.seeded
        assert "SGD" in torch_result.kept
        assert run_once(rerun.output, {"x": [1.0], "y": [2.0], "train": True}).ok

    def test_extended_oracle_forces_research(self, toy_app, initial, tmp_path):
        """The fallback workflow: a collected input reaches SGD through a
        dynamic access the call graph cannot see — the old minimal fails
        and DD re-searches."""
        _, log = initial
        extended = toy_app.clone(tmp_path / "extended")
        handler = extended.handler_source().replace(
            "def handler(event, context):",
            "def handler(event, context):\n"
            "    if event.get('train'):\n"
            "        opt = getattr(torch, 'SG' + 'D')\n"
            "        return {'opt': opt(model) % 10**6}",
        )
        extended.handler_path.write_text(handler)
        spec = OracleSpec.from_bundle(extended)
        spec.add_case(OracleCase("train", {"x": [1.0], "y": [2.0], "train": True}))
        spec.save(extended.oracle_path)

        rerun = IncrementalTrim(log=log).run(extended, tmp_path / "rerun3")
        torch_result = rerun.result_for("torch")
        assert torch_result is not None
        assert not torch_result.seeded  # the old minimal no longer passes
        assert "SGD" in torch_result.kept
        result = run_once(rerun.output, {"x": [1.0], "y": [2.0], "train": True})
        assert result.ok

    def test_updated_log_reflects_new_run(self, toy_app, initial, tmp_path):
        _, log = initial
        trimmer = IncrementalTrim(log=log)
        rerun = trimmer.run(toy_app, tmp_path / "rerun3")
        new_log = trimmer.updated_log(rerun)
        assert new_log.kept.keys() == log.kept.keys()


    def test_without_log_behaves_like_plain_trim(self, toy_app, tmp_path):
        plain = LambdaTrim().run(toy_app, tmp_path / "plain")
        incremental = IncrementalTrim(log=None).run(toy_app, tmp_path / "inc")
        assert incremental.oracle_calls == plain.oracle_calls
