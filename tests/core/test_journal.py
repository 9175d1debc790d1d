"""Tests for the write-ahead probe journal and atomic rewrites."""

from __future__ import annotations

import json
import stat
from pathlib import Path

import pytest

from repro.core.journal import (
    LEGACY_BACKUP_SUFFIX,
    ProbeJournal,
    atomic_write_text,
    candidate_hash,
    cleanup_stale_artifacts,
    default_journal_path,
    file_sha256,
    recover_workspace,
    text_sha256,
)
from repro.core.pipeline import LambdaTrim
from repro.errors import JournalError


class TestAtomicWriteText:
    def test_creates_and_replaces(self, tmp_path):
        target = tmp_path / "mod.py"
        atomic_write_text(target, "a = 1\n")
        assert target.read_text() == "a = 1\n"
        atomic_write_text(target, "a = 2\n", durable=False)
        assert target.read_text() == "a = 2\n"

    def test_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "mod.py"
        atomic_write_text(target, "x\n")
        atomic_write_text(target, "y\n", durable=False)
        assert [p.name for p in tmp_path.iterdir()] == ["mod.py"]

    def test_write_failure_cleans_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "mod.py"
        target.write_text("original\n")
        import os as os_mod

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os_mod, "replace", exploding_replace)
        with pytest.raises(OSError):
            atomic_write_text(target, "new\n")
        monkeypatch.undo()
        assert target.read_text() == "original\n"
        assert [p.name for p in tmp_path.iterdir()] == ["mod.py"]

    @pytest.mark.parametrize("mode", [0o644, 0o755])
    def test_replace_keeps_the_file_mode(self, tmp_path, mode):
        target = tmp_path / "mod.py"
        target.write_text("a = 1\n")
        target.chmod(mode)
        atomic_write_text(target, "a = 2\n")
        assert stat.S_IMODE(target.stat().st_mode) == mode

    def test_new_file_gets_the_umask_mode(self, tmp_path):
        # The mode open() gives a new file: 0o666 minus the umask.
        plain = tmp_path / "plain.py"
        plain.write_text("a = 1\n")
        target = tmp_path / "mod.py"
        atomic_write_text(target, "a = 1\n")
        assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(
            plain.stat().st_mode
        )

    def test_trimmed_module_keeps_the_pristine_mode(self, toy_app, tmp_path):
        for module in toy_app.root.rglob("*.py"):
            module.chmod(0o644)
        report = LambdaTrim().run(toy_app, tmp_path / "trimmed")
        committed = [r for r in report.module_results if not r.skipped]
        assert committed
        for result in committed:
            assert stat.S_IMODE(Path(result.file).stat().st_mode) == 0o644


class TestHashing:
    def test_candidate_hash_is_order_insensitive(self):
        assert candidate_hash(["b@1.0", "a@0.0"]) == candidate_hash(
            ["a@0.0", "b@1.0"]
        )

    def test_candidate_hash_distinguishes_sets(self):
        assert candidate_hash(["a@0.0"]) != candidate_hash(["a@0.0", "b@1.0"])

    def test_text_and_file_sha_agree(self, tmp_path):
        path = tmp_path / "f.py"
        path.write_text("z = 3\n", encoding="utf-8")
        assert file_sha256(path) == text_sha256("z = 3\n")


class TestCleanupStaleArtifacts:
    def test_removes_backups_and_temps(self, tmp_path):
        keep = tmp_path / "mod.py"
        keep.write_text("x\n")
        (tmp_path / f"mod.py{LEGACY_BACKUP_SUFFIX}").write_text("old\n")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "a.py.lambdatrim.tmpXYZ").write_text("torn\n")
        removed = cleanup_stale_artifacts(tmp_path)
        assert len(removed) == 2
        assert keep.exists()
        assert [p.name for p in tmp_path.iterdir() if p.is_file()] == ["mod.py"]


class TestProbeJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        with ProbeJournal.create(path) as journal:
            journal.run_begin("app", {"k": 2})
            journal.workspace_ready()
            journal.plan(["m1", "m2"])
            journal.module_begin("m1")
            journal.record_probe("m1", "aaa", True, granularity=2, seed=0)
            journal.record_probe("m1", "bbb", False, granularity=2, seed=0)
            journal.module_commit("m1", "sha", {"module": "m1"})
        state = ProbeJournal.replay(path)
        assert state.app == "app"
        assert state.fingerprint == {"k": 2}
        assert state.workspace_ready
        assert state.plan == ["m1", "m2"]
        assert state.seeds_for("m1") == {"aaa": True, "bbb": False}
        assert "m1" in state.committed
        assert state.in_progress is None
        assert not state.run_committed
        assert not state.torn_tail

    def test_module_begin_without_commit_is_in_progress(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ProbeJournal.create(path) as journal:
            journal.run_begin("app", {})
            journal.module_begin("m1")
        state = ProbeJournal.replay(path)
        assert state.in_progress == "m1"

    def test_run_commit_recorded(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ProbeJournal.create(path) as journal:
            journal.run_begin("app", {})
            journal.run_commit({"m1": "sha"}, True)
        state = ProbeJournal.replay(path)
        assert state.run_committed
        assert state.manifest == {"m1": "sha"}
        assert state.verify_passed is True

    def test_torn_final_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ProbeJournal.create(path) as journal:
            journal.run_begin("app", {})
            journal.record_probe("m", "aaa", True, granularity=1, seed=0)
        with open(path, "ab") as handle:
            handle.write(b'{"type":"probe","module":"m","candid')
        state = ProbeJournal.replay(path)
        assert state.torn_tail
        assert state.seeds_for("m") == {"aaa": True}

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"type":"run_begin","app":"x"\n{"type":"plan"}\n')
        with pytest.raises(JournalError):
            ProbeJournal.replay(path)

    def test_conflicting_verdicts_are_poisoned(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ProbeJournal.create(path) as journal:
            journal.run_begin("app", {})
            journal.record_probe("m", "aaa", True, granularity=1, seed=0)
            journal.record_probe("m", "aaa", False, granularity=1, seed=0)
            journal.record_probe("m", "bbb", True, granularity=1, seed=0)
        state = ProbeJournal.replay(path)
        assert state.seeds_for("m") == {"bbb": True}
        assert state.conflicts == {"m": {"aaa"}}

    def test_second_run_begin_resets_state(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ProbeJournal.create(path) as journal:
            journal.run_begin("app", {"k": 1})
            journal.record_probe("m", "aaa", True, granularity=1, seed=0)
            journal.module_commit("m", "sha", {})
            journal.run_begin("app", {"k": 2})
        state = ProbeJournal.replay(path)
        assert state.fingerprint == {"k": 2}
        assert state.probes == {}
        assert state.committed == {}

    def test_resume_requires_existing_journal(self, tmp_path):
        with pytest.raises(JournalError):
            ProbeJournal.open_resume(tmp_path / "missing.jsonl")

    def test_append_after_close_raises(self, tmp_path):
        journal = ProbeJournal.create(tmp_path / "j.jsonl")
        journal.close()
        with pytest.raises(JournalError):
            journal.append({"type": "probe"})

    def test_unknown_record_types_are_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ProbeJournal.create(path) as journal:
            journal.run_begin("app", {})
            journal.append({"type": "future_extension", "data": 42})
        state = ProbeJournal.replay(path)
        assert state.records == 2

    def test_records_are_compact_single_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ProbeJournal.create(path) as journal:
            journal.record_probe("m", "aaa", True, granularity=3, seed=7)
        (line,) = path.read_text().splitlines()
        record = json.loads(line)
        assert record == {
            "type": "probe",
            "module": "m",
            "candidate": "aaa",
            "verdict": True,
            "granularity": 3,
            "seed": 7,
        }


class TestDefaultJournalPath:
    def test_lives_next_to_output(self, tmp_path):
        out = tmp_path / "trimmed"
        assert default_journal_path(out) == tmp_path / "trimmed.journal.jsonl"


class TestRecoverWorkspace:
    def _trimmed_pair(self, toy_app, tmp_path):
        working = toy_app.clone(tmp_path / "working")
        return working, toy_app

    def test_verified_commit_is_kept(self, toy_app, tmp_path):
        working, pristine = self._trimmed_pair(toy_app, tmp_path)
        file = working.module_file("torch")
        atomic_write_text(file, "tensor = None\n")
        path = tmp_path / "j.jsonl"
        with ProbeJournal.create(path) as journal:
            journal.run_begin("toy-torch", {})
            journal.module_commit("torch", text_sha256("tensor = None\n"), {})
        state = ProbeJournal.replay(path)
        report = recover_workspace(working, pristine, state)
        assert report.verified == ["torch"]
        assert file.read_text() == "tensor = None\n"
        assert "torch" in state.committed

    def test_torn_commit_rolls_back_to_pristine(self, toy_app, tmp_path):
        working, pristine = self._trimmed_pair(toy_app, tmp_path)
        file = working.module_file("torch")
        file.write_text("torn garba")
        path = tmp_path / "j.jsonl"
        with ProbeJournal.create(path) as journal:
            journal.run_begin("toy-torch", {})
            journal.module_commit("torch", text_sha256("tensor = None\n"), {})
        state = ProbeJournal.replay(path)
        report = recover_workspace(working, pristine, state)
        assert report.rolled_back == ["torch"]
        assert "torch" not in state.committed  # DD will re-run it
        assert file.read_text() == pristine.module_file("torch").read_text()

    def test_in_progress_module_restored(self, toy_app, tmp_path):
        working, pristine = self._trimmed_pair(toy_app, tmp_path)
        file = working.module_file("torch")
        file.write_text("candidate = 'mid-probe state'\n")
        path = tmp_path / "j.jsonl"
        with ProbeJournal.create(path) as journal:
            journal.run_begin("toy-torch", {})
            journal.module_begin("torch")
        state = ProbeJournal.replay(path)
        report = recover_workspace(working, pristine, state)
        assert report.restored_in_progress == "torch"
        assert file.read_text() == pristine.module_file("torch").read_text()

    def test_deleted_working_file_is_restored(self, toy_app, tmp_path):
        working, pristine = self._trimmed_pair(toy_app, tmp_path)
        working.module_file("torch").unlink()
        path = tmp_path / "j.jsonl"
        with ProbeJournal.create(path) as journal:
            journal.run_begin("toy-torch", {})
            journal.module_commit("torch", "does-not-match", {})
        state = ProbeJournal.replay(path)
        report = recover_workspace(working, pristine, state)
        assert report.rolled_back == ["torch"]
        assert (
            working.module_file("torch").read_text()
            == pristine.module_file("torch").read_text()
        )

    def test_stale_artifacts_removed(self, toy_app, tmp_path):
        working, pristine = self._trimmed_pair(toy_app, tmp_path)
        file = working.module_file("torch")
        file.with_name(file.name + LEGACY_BACKUP_SUFFIX).write_text("old\n")
        path = tmp_path / "j.jsonl"
        with ProbeJournal.create(path) as journal:
            journal.run_begin("toy-torch", {})
        state = ProbeJournal.replay(path)
        report = recover_workspace(working, pristine, state)
        assert report.stale_files_removed == 1
        assert "1 stale file(s) removed" in report.summary()
