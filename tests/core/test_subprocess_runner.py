"""Tests for the subprocess oracle runner (OS-level isolation)."""

from __future__ import annotations

import pytest

from repro.core.debloater import ModuleDebloater
from repro.core.execution import run_once
from repro.core.oracle import OracleRunner
from repro.core.subprocess_runner import run_in_subprocess, subprocess_run
from repro.errors import OracleError

EVENT = {"x": [1.0, 2.0], "y": [3.0, 4.0]}


class TestRunInSubprocess:
    def test_matches_in_process_observables(self, toy_app_session):
        child = run_in_subprocess(toy_app_session, EVENT)
        local = run_once(toy_app_session, EVENT)
        assert child["observable"] == local.observable()

    def test_metering_fields_reported(self, toy_app_session):
        child = run_in_subprocess(toy_app_session, EVENT)
        assert child["init_time_s"] == pytest.approx(0.82, abs=0.01)
        assert child["init_memory_mb"] == pytest.approx(35.0, abs=0.5)

    def test_handler_error_propagates_as_observable(self, toy_app_session):
        child = run_in_subprocess(toy_app_session, {"wrong": True})
        assert child["observable"]["error_type"] == "KeyError"

    def test_missing_handler_reported_as_init_error(self, tmp_path, toy_app_session):
        broken = toy_app_session.clone(tmp_path / "gone")
        broken.handler_path.unlink()
        child = run_in_subprocess(broken, EVENT)
        assert child["observable"] == {"init_error_type": "ModuleNotFoundError"}

    def test_nonexistent_root_raises(self, tmp_path, toy_app_session):
        bundle = toy_app_session.clone(tmp_path / "will-vanish")
        import shutil

        root = bundle.root
        shutil.rmtree(root)
        with pytest.raises(OracleError):
            run_in_subprocess(bundle, EVENT)


class TestSubprocessOracleRunner:
    def test_oracle_runner_with_subprocess_strategy(self, toy_app_session):
        runner = OracleRunner(toy_app_session, run=subprocess_run)
        assert runner.check(toy_app_session).passed
        # the child's virtual time feeds debloat-time accounting
        assert runner.meter.time_s > 0

    def test_detects_divergence(self, toy_app_session, tmp_path):
        runner = OracleRunner(toy_app_session, run=subprocess_run)
        mutated = toy_app_session.clone(tmp_path / "mutated")
        mutated.handler_path.write_text(
            mutated.handler_source().replace("% 10**6", "% 13")
        )
        assert not runner.check(mutated).passed


class TestSubprocessDebloat:
    def test_module_debloater_over_subprocess_probes_matches_in_process(
        self, toy_app_session, tmp_path
    ):
        """The OS-isolation mode drives the one module debloater; it must
        reach the in-process result with the same probes."""
        protected = {"tensor", "add", "view", "Linear"}
        results = []
        for name, runner in (
            ("subprocess", OracleRunner(toy_app_session, run=subprocess_run)),
            ("in-process", OracleRunner(toy_app_session)),
        ):
            working = toy_app_session.clone(tmp_path / name)
            results.append(
                ModuleDebloater(working, runner).debloat_module(
                    "torch", protected=protected
                )
            )
        child, local = results
        assert child.removed == local.removed == ["MSELoss", "SGD"]
        assert child.kept == local.kept
        assert child.oracle_calls == local.oracle_calls
