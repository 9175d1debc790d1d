"""Tests for the per-module DD debloater (Sections 5.3, 6.3)."""

from __future__ import annotations

import pytest

from repro.core.debloater import ModuleDebloater
from repro.core.journal import LEGACY_BACKUP_SUFFIX
from repro.core.oracle import OracleRunner
from repro.errors import DebloatError


@pytest.fixture()
def working(toy_app, tmp_path):
    return toy_app.clone(tmp_path / "working")


@pytest.fixture()
def runner(toy_app):
    return OracleRunner(toy_app)


class TestModuleDebloat:
    def test_debloats_toy_torch_root(self, working, runner):
        debloater = ModuleDebloater(working, runner)
        result = debloater.debloat_module("torch")
        assert not result.skipped
        # Without call-graph guidance either torch.nn re-export alias is a
        # valid 1-minimal survivor (each triggers the nn import); SGD and
        # exactly one of Linear/MSELoss must go.
        assert "SGD" in result.removed
        assert len(set(result.removed) & {"Linear", "MSELoss"}) == 1
        assert result.attributes_before == 6
        assert result.attributes_after == 4
        source = working.module_file("torch").read_text()
        assert "SGD" not in source
        assert "torch.optim" not in source
        assert runner.check(working).passed

    def test_oracle_still_passes_after_debloat(self, working, runner):
        ModuleDebloater(working, runner).debloat_module("torch")
        assert runner.check(working).passed

    def test_protected_attributes_survive(self, working, runner):
        debloater = ModuleDebloater(working, runner)
        result = debloater.debloat_module("torch", protected={"SGD"})
        assert "SGD" in result.protected
        assert "SGD" not in result.removed
        assert "from torch.optim import SGD" in working.module_file("torch").read_text()

    def test_all_protected_skips_module(self, working, runner):
        debloater = ModuleDebloater(working, runner)
        result = debloater.debloat_module(
            "torch", protected={"tensor", "add", "view", "Linear", "MSELoss", "SGD"}
        )
        assert result.skipped
        assert result.oracle_calls == 0

    def test_backup_removed_after_success(self, working, runner):
        ModuleDebloater(working, runner).debloat_module("torch")
        assert not list(working.root.rglob(f"*{LEGACY_BACKUP_SUFFIX}"))

    def test_file_restored_when_dd_raises(self, working, runner, monkeypatch):
        original = working.module_file("torch").read_text()
        debloater = ModuleDebloater(working, runner)

        calls = 0

        def exploding_check(bundle):
            nonlocal calls
            calls += 1
            if calls > 2:
                raise RuntimeError("infrastructure failure")
            return runner.__class__.check(runner, bundle)

        monkeypatch.setattr(runner, "check", exploding_check)
        with pytest.raises(RuntimeError):
            debloater.debloat_module("torch")
        assert working.module_file("torch").read_text() == original
        assert not list(working.root.rglob(f"*{LEGACY_BACKUP_SUFFIX}"))

    def test_broken_working_bundle_raises_debloat_error(self, working, runner):
        working.handler_path.write_text("def handler(e, c):\n    return 'wrong'\n")
        with pytest.raises(DebloatError):
            ModuleDebloater(working, runner).debloat_module("torch")

    def test_debloat_time_accumulates_virtual_seconds(self, working, runner):
        result = ModuleDebloater(working, runner).debloat_module("torch")
        # every oracle call re-imports the app (~0.5+s virtual each)
        assert result.debloat_time_s > result.oracle_calls * 0.3

    def test_trace_recording(self, working, runner):
        debloater = ModuleDebloater(working, runner, record_trace=True)
        result = debloater.debloat_module("torch")
        assert result.trace
        fresh = [s for s in result.trace if not s.cached]
        assert len(fresh) == result.oracle_calls

    def test_oracle_budget_respected(self, working, runner):
        debloater = ModuleDebloater(working, runner, max_oracle_calls_per_module=2)
        result = debloater.debloat_module("torch")
        assert result.oracle_calls <= 2
        assert runner.check(working).passed  # never commits a failing config

    def test_submodule_debloating(self, working, runner):
        """After debloating the root, the torch.nn class that is no longer
        re-exported (nor used by the handler) becomes removable."""
        debloater = ModuleDebloater(working, runner)
        root_result = debloater.debloat_module("torch")
        surviving = set(root_result.kept) & {"Linear", "MSELoss"}
        result = debloater.debloat_module("torch.nn", protected={"Linear"})
        removable_class = {"Linear", "MSELoss"} - surviving - {"Linear"}
        assert set(result.removed) >= removable_class
        assert runner.check(working).passed


class TestAtomicRewrites:
    """The .bak scheme is gone: rewrites are atomic, commits durable."""

    def test_no_backup_files_during_probes(self, working, runner):
        """No probe ever materialises a .lambdatrim.orig backup."""
        file = working.module_file("torch")
        seen: list[str] = []

        original_check = runner.check

        def watching_check(bundle):
            seen.extend(
                p.name
                for p in file.parent.iterdir()
                if ".lambdatrim" in p.name
            )
            return original_check(bundle)

        runner.check = watching_check
        ModuleDebloater(working, runner).debloat_module("torch")
        assert seen == []

    def test_in_process_probes_leave_the_file_untouched_until_commit(
        self, working, runner
    ):
        """Probes run the candidate from statement code in memory: the
        module file keeps its bytes, inode and mtime until the commit."""
        file = working.module_file("torch")

        def state():
            stat = file.stat()
            return file.read_bytes(), stat.st_ino, stat.st_mtime_ns

        pristine = state()
        seen = []
        original_check = runner.check

        def watching_check(candidate):
            seen.append(state())
            result = original_check(candidate)
            seen.append(state())
            return result

        runner.check = watching_check
        result = ModuleDebloater(working, runner).debloat_module("torch")
        assert len(seen) == 2 * result.oracle_calls > 0
        assert set(seen) == {pristine}
        assert file.read_bytes() != pristine[0]  # the commit rewrote it

    def test_no_stray_files_after_failure(self, working, runner, monkeypatch):
        calls = 0

        def exploding_check(bundle):
            nonlocal calls
            calls += 1
            if calls > 2:
                raise RuntimeError("infrastructure failure")
            return runner.__class__.check(runner, bundle)

        monkeypatch.setattr(runner, "check", exploding_check)
        with pytest.raises(RuntimeError):
            ModuleDebloater(working, runner).debloat_module("torch")
        strays = [
            p for p in working.root.rglob("*") if ".lambdatrim" in p.name
        ]
        assert strays == []

    def test_result_round_trips_through_journal_dict(self, working, runner):
        from repro.core.debloater import ModuleDebloatResult

        result = ModuleDebloater(working, runner).debloat_module("torch")
        clone = ModuleDebloatResult.from_dict(result.to_dict())
        assert clone.module == result.module
        assert clone.removed == result.removed
        assert clone.kept == result.kept
        assert clone.oracle_calls == result.oracle_calls
        assert clone.debloat_time_s == result.debloat_time_s
        assert not clone.resumed  # resumed is stamped by the pipeline


class TestJournaledDebloat:
    def test_probes_and_commit_are_journaled(self, working, runner, tmp_path):
        from repro.core.journal import ProbeJournal, file_sha256

        path = tmp_path / "j.jsonl"
        with ProbeJournal.create(path, fsync=False) as journal:
            journal.run_begin("toy-torch", {})
            debloater = ModuleDebloater(working, runner, journal=journal)
            result = debloater.debloat_module("torch")
        state = ProbeJournal.replay(path)
        assert len(state.seeds_for("torch")) == result.oracle_calls
        commit = state.committed["torch"]
        assert commit.file_sha256 == file_sha256(working.module_file("torch"))

    def test_journal_seeds_replay_without_oracle_calls(
        self, toy_app, working, runner, tmp_path
    ):
        from repro.core.journal import ProbeJournal

        path = tmp_path / "j.jsonl"
        with ProbeJournal.create(path, fsync=False) as journal:
            journal.run_begin("toy-torch", {})
            first = ModuleDebloater(
                working, runner, journal=journal
            ).debloat_module("torch")
        state = ProbeJournal.replay(path)

        fresh = toy_app.clone(toy_app.root.parent / "fresh-working")
        second = ModuleDebloater(fresh, runner).debloat_module(
            "torch", journal_seeds=state.seeds_for("torch")
        )
        assert second.removed == first.removed
        assert second.oracle_calls == 0
        assert second.journal_hits == first.oracle_calls
        assert fresh.module_file("torch").read_text() == working.module_file(
            "torch"
        ).read_text()
