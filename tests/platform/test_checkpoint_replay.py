"""Checkpointed replay: in-process resume semantics and failure modes.

Complements the subprocess SIGKILL harness
(:mod:`tests.platform.test_replay_crash_resume`) with the cheap,
deterministic cases: a checkpointed run must be byte-identical to a
plain one, a crash simulated by a raising post-checkpoint hook must
resume byte-identically, orphan spills (a worker that died before its
first snapshot) are counted and re-run, and every misconfiguration or
corruption is a loud typed error rather than a silent divergence.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import CheckpointError, PlatformError
from repro.platform import checkpoint as checkpoint_mod
from repro.platform.checkpoint import ReplayCheckpoint
from repro.platform.faults import FaultPlan, FaultRates
from repro.platform.fleet import replay_fleet
from repro.platform.retry import RetryPolicy
from repro.traces import FleetTrace
from repro.workloads.toy import build_toy_torch_app

EVENT = {"x": [1.0, 2.0], "y": [3.0, 4.0]}
ARTIFACTS = ("merged.jsonl", "dead.jsonl", "profiles.jsonl", "report.json")


class _Crash(Exception):
    """Stand-in for a hard worker death at a checkpoint boundary."""


def _die(payload):
    # Module-level so a fork-context pool can pickle it by reference.
    os._exit(1)


@pytest.fixture(autouse=True)
def _reset_hook():
    yield
    checkpoint_mod.set_post_checkpoint_hook(None)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt-replay")
    bundle = build_toy_torch_app(root / "toy")
    trace = FleetTrace.generate_invocations(
        160, seed=5, duration_s=600.0, max_per_function=90
    )
    return {"root": root, "bundle": bundle, "trace": trace}


def _replay(ws, tag, **kwargs):
    out = ws["root"] / tag
    out.mkdir(exist_ok=True)
    kwargs.setdefault(
        "retry",
        RetryPolicy(max_attempts=3, base_delay_s=0.05, jitter=0.3, seed=11),
    )
    kwargs.setdefault(
        "faults", FaultPlan(seed=7, default=FaultRates(throttle=0.05, exec_crash=0.2))
    )
    result = replay_fleet(
        ws["bundle"],
        ws["trace"],
        EVENT,
        dead_letters=out / "dead.jsonl",
        log_dir=out / "logs",
        merged_log=out / "merged.jsonl",
        profile_dir=out / "profiles",
        merged_profiles=out / "profiles.jsonl",
        spill_threshold=16,
        **kwargs,
    )
    result.report.save(out / "report.json")
    return result, out


def _artifacts(out):
    return {name: (out / name).read_bytes() for name in ARTIFACTS}


@pytest.fixture(scope="module")
def baseline(workspace):
    result, out = _replay(workspace, "baseline")
    return result, _artifacts(out)


class TestUninterruptedCheckpointedRun:
    def test_byte_identical_to_plain_run(self, workspace, baseline):
        _, plain = baseline
        result, out = _replay(
            workspace,
            "ckpt-clean",
            checkpoint_dir=workspace["root"] / "cks-clean",
            checkpoint_every=25,
        )
        assert _artifacts(out) == plain
        assert result.resumed_shards == 0
        assert result.reexecuted_invocations == 0

    def test_meta_carries_resume_accounting(self, workspace):
        result, _ = _replay(
            workspace,
            "ckpt-meta",
            checkpoint_dir=workspace["root"] / "cks-meta",
        )
        assert result.report.meta["resume"] == {
            "resumed_shards": 0,
            "reexecuted_invocations": 0,
        }

    def test_only_done_markers_survive_completion(self, workspace):
        cks = workspace["root"] / "cks-done"
        _replay(workspace, "ckpt-done", checkpoint_dir=cks, checkpoint_every=25)
        names = sorted(p.name for p in cks.iterdir())
        assert names, "no done markers written"
        assert all(name.endswith(".done.json") for name in names), names


class TestCrashAndResume:
    def test_resume_is_byte_identical(self, workspace, baseline):
        _, plain = baseline
        cks = workspace["root"] / "cks-crash"

        def crash_at(count):
            if count == 4:
                raise _Crash()

        checkpoint_mod.set_post_checkpoint_hook(crash_at)
        with pytest.raises(_Crash):
            _replay(
                workspace, "crash", checkpoint_dir=cks, checkpoint_every=25
            )
        checkpoint_mod.set_post_checkpoint_hook(None)

        result, out = _replay(
            workspace,
            "crash",
            checkpoint_dir=cks,
            checkpoint_every=25,
            resume=True,
        )
        assert _artifacts(out) == plain
        assert result.resumed_shards >= 1
        assert result.report.meta["resume"]["resumed_shards"] >= 1

    def test_retry_free_resume_is_byte_identical_at_every_boundary(
        self, workspace
    ):
        # Without retries the fast engine's retry-free loop writes the
        # checkpoints; the rows it buffers must reach the log before each
        # snapshot, or a resume loses them.
        plain = {"retry": None, "faults": None}
        _, out = _replay(workspace, "plain", **plain)
        expected = _artifacts(out)
        boundaries: list[int] = []
        checkpoint_mod.set_post_checkpoint_hook(boundaries.append)
        _replay(
            workspace,
            "plain-count",
            checkpoint_dir=workspace["root"] / "cks-plain-count",
            checkpoint_every=10,
            **plain,
        )
        assert len(boundaries) >= 4

        for boundary in boundaries:

            def crash_at(count, boundary=boundary):
                if count == boundary:
                    raise _Crash()

            cks = workspace["root"] / f"cks-plain-{boundary}"
            checkpoint_mod.set_post_checkpoint_hook(crash_at)
            with pytest.raises(_Crash):
                _replay(
                    workspace,
                    f"plain-{boundary}",
                    checkpoint_dir=cks,
                    checkpoint_every=10,
                    **plain,
                )
            checkpoint_mod.set_post_checkpoint_hook(None)
            result, out = _replay(
                workspace,
                f"plain-{boundary}",
                checkpoint_dir=cks,
                checkpoint_every=10,
                resume=True,
                **plain,
            )
            assert _artifacts(out) == expected, f"boundary {boundary}"
            assert result.resumed_shards >= 1

    def test_orphan_spill_is_counted_and_rerun(self, workspace, baseline):
        """A spill with no checkpoint means zero durable progress."""
        _, plain = baseline
        cks = workspace["root"] / "cks-orphan"
        cks.mkdir()
        out = workspace["root"] / "orphan"
        logs = out / "logs"
        logs.mkdir(parents=True)
        name = workspace["trace"].functions[0]
        # Three complete rows plus a torn tail the crash left behind.
        (logs / f"{name}.jsonl").write_text('{"a":1}\n{"a":2}\n{"a":3}\n{"a"')
        result, out = _replay(
            workspace, "orphan", checkpoint_dir=cks, resume=True
        )
        assert _artifacts(out) == plain
        assert result.reexecuted_invocations >= 4

    def test_resume_sweeps_stale_tmp_debris(self, workspace):
        from repro.core.journal import TMP_MARKER

        cks = workspace["root"] / "cks-sweep"
        cks.mkdir()
        debris = cks / f"f{TMP_MARKER}x1y2"
        debris.write_text("torn")
        _replay(workspace, "sweep", checkpoint_dir=cks, resume=True)
        assert not debris.exists()


class TestFailureModes:
    def test_resume_without_checkpoint_dir_is_an_error(self, workspace):
        with pytest.raises(PlatformError, match="checkpoint_dir"):
            _replay(workspace, "bad-resume", resume=True)

    def test_interval_without_checkpoint_dir_is_an_error(self, workspace):
        with pytest.raises(PlatformError, match="checkpoint_dir"):
            _replay(workspace, "bad-every", checkpoint_every=10)

    def test_corrupt_checkpoint_is_a_loud_error(self, workspace):
        cks = workspace["root"] / "cks-corrupt"
        cks.mkdir()
        name = workspace["trace"].functions[0]
        ckpt = ReplayCheckpoint(cks, name)
        ckpt.write({"clock": 1.0})
        path = cks / f"{name}.ckpt.json"
        path.write_text(path.read_text().replace('"clock": 1.0', '"clock": 2.0'))
        with pytest.raises(CheckpointError, match="hash mismatch"):
            _replay(
                workspace, "corrupt", checkpoint_dir=cks, resume=True
            )

    def test_dead_worker_without_checkpoints_is_an_error(
        self, workspace, monkeypatch
    ):
        """No checkpoint_dir: a SIGKILLed worker cannot be resumed."""
        from repro.platform import fleet as fleet_mod

        monkeypatch.setattr(fleet_mod, "_replay_shard", _die)
        with pytest.raises(PlatformError, match="no checkpoint_dir"):
            _replay(workspace, "dead-plain", workers=2)

    def test_restart_budget_bounds_crash_loops(self, workspace, monkeypatch):
        """Workers that die every round exhaust the supervisor budget."""
        from repro.platform import fleet as fleet_mod

        monkeypatch.setattr(fleet_mod, "_replay_shard", _die)
        with pytest.raises(PlatformError, match="kept dying"):
            _replay(
                workspace,
                "dead-loop",
                workers=2,
                checkpoint_dir=workspace["root"] / "cks-loop",
            )
