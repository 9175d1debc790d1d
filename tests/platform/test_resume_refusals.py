"""Resume refusals: a checkpoint only resumes the replay that wrote it.

A replay checkpoint pins one engine's state for one function's trace
under one retry and host configuration.  Resuming it under anything else
must fail with a typed :class:`~repro.errors.CheckpointError` naming the
mismatch, on both engines, instead of silently diverging from the
uninterrupted run.  Each case interrupts a checkpointed ``replay_fleet``
run with a raising post-checkpoint hook and resumes it with one thing
changed; a refused resume must leave the checkpoint resumable.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.core.fallback import FallbackManager
from repro.errors import CheckpointError
from repro.platform import checkpoint as checkpoint_mod
from repro.platform.checkpoint import CHECKPOINT_SCHEMA, ReplayCheckpoint
from repro.platform.emulator import LambdaEmulator
from repro.platform.fleet import replay_fleet
from repro.platform.hosts import HostConfig
from repro.platform.kernel import KernelReplayer
from repro.platform.replay import TraceReplayer
from repro.platform.retry import RetryPolicy
from repro.traces import FleetTrace, FunctionTrace
from repro.workloads.toy import build_toy_torch_app

EVENT = {"x": [1.0, 2.0], "y": [3.0, 4.0]}
NAME = "fn-a"
ARRIVALS = 40
EVERY = 5
RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.05, jitter=0.3, seed=3)
HOSTS = HostConfig(count=2, memory_mb=512.0)
#: The engine each ``replay_fleet(engine=...)`` run checkpoints with.
WRITTEN_BY = {"auto": "kernel", "reference": "reference"}
REPLAYERS = {"kernel": KernelReplayer, "reference": TraceReplayer}


class _Crash(Exception):
    """Stand-in for a hard worker death at a checkpoint boundary."""


def _trace(count: int = ARRIVALS) -> FleetTrace:
    # One function keeps the first durable write a mid-trace checkpoint;
    # arrivals 2 s apart keep one warm instance serving the whole trace.
    timestamps = tuple(2.0 * i for i in range(count))
    return FleetTrace(
        traces=(FunctionTrace(NAME, "steady", 128.0, 600.0, timestamps),)
    )


def _replay(bundle, out, cks, *, engine, retry=RETRY, hosts=None,
            trace=None, resume=False):
    return replay_fleet(
        bundle,
        trace if trace is not None else _trace(),
        EVENT,
        engine=engine,
        retry=retry,
        hosts=hosts,
        log_dir=out / "logs",
        merged_log=out / "merged.jsonl",
        checkpoint_dir=cks,
        checkpoint_every=EVERY,
        resume=resume,
    )


@pytest.fixture(autouse=True)
def _reset_hook():
    yield
    checkpoint_mod.set_post_checkpoint_hook(None)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    return build_toy_torch_app(tmp_path_factory.mktemp("refusals") / "toy")


@pytest.fixture(scope="module")
def interrupted(bundle, tmp_path_factory):
    """``(engine, with_hosts) -> (checkpoint dir, log dir)`` of a run
    killed at its first durable checkpoint."""
    cache: dict[tuple[str, bool], tuple] = {}

    def get(engine: str, with_hosts: bool = False):
        key = (engine, with_hosts)
        if key not in cache:
            root = tmp_path_factory.mktemp(f"crash-{engine}-{with_hosts}")

            def crash(count):
                raise _Crash()

            checkpoint_mod.set_post_checkpoint_hook(crash)
            try:
                with pytest.raises(_Crash):
                    _replay(
                        bundle, root, root / "cks", engine=engine,
                        hosts=HOSTS if with_hosts else None,
                    )
            finally:
                checkpoint_mod.set_post_checkpoint_hook(None)
            state = ReplayCheckpoint(root / "cks", NAME).load()
            assert state is not None, "the crash left no checkpoint"
            assert state["engine"] == WRITTEN_BY[engine]
            cache[key] = (root / "cks", root / "logs")
        return cache[key]

    return get


def _copy(interrupted_run, target):
    """A private copy of an interrupted run's checkpoint and spill."""
    cks, logs = interrupted_run
    shutil.copytree(cks, target / "cks")
    shutil.copytree(logs, target / "logs")
    return target / "cks"


@pytest.mark.parametrize("engine", ["auto", "reference"])
class TestFleetResumeRefusals:
    def test_other_engine_is_refused(self, bundle, interrupted, engine,
                                     tmp_path):
        cks = _copy(interrupted(engine), tmp_path)
        other = "reference" if engine == "auto" else "auto"
        written = WRITTEN_BY[engine]
        with pytest.raises(
            CheckpointError, match=f"written by the '{written}' engine"
        ):
            _replay(bundle, tmp_path, cks, engine=other, resume=True)

    def test_changed_trace_is_refused(self, bundle, interrupted, engine,
                                      tmp_path):
        cks = _copy(interrupted(engine), tmp_path)
        with pytest.raises(
            CheckpointError,
            match=f"covers {ARRIVALS} arrivals but the trace has 30",
        ):
            _replay(
                bundle, tmp_path, cks, engine=engine, trace=_trace(30),
                resume=True,
            )

    def test_retries_switched_off_are_refused(self, bundle, interrupted,
                                              engine, tmp_path):
        cks = _copy(interrupted(engine), tmp_path)
        with pytest.raises(
            CheckpointError, match="retry configuration changed"
        ):
            _replay(bundle, tmp_path, cks, engine=engine, retry=None,
                    resume=True)

    def test_added_host_pool_is_refused(self, bundle, interrupted, engine,
                                        tmp_path):
        cks = _copy(interrupted(engine), tmp_path)
        with pytest.raises(
            CheckpointError,
            match="no host-pool state but a host pool is configured",
        ):
            _replay(bundle, tmp_path, cks, engine=engine, hosts=HOSTS,
                    resume=True)

    def test_removed_host_pool_is_refused(self, bundle, interrupted, engine,
                                          tmp_path):
        cks = _copy(interrupted(engine, with_hosts=True), tmp_path)
        with pytest.raises(
            CheckpointError,
            match="carries host-pool state but no host pool is configured",
        ):
            _replay(bundle, tmp_path, cks, engine=engine, resume=True)

    def test_refused_resume_leaves_the_checkpoint_resumable(
        self, bundle, interrupted, engine, tmp_path
    ):
        plain = tmp_path / "plain"
        plain.mkdir()
        _replay(bundle, plain, tmp_path / "plain-cks", engine=engine)
        cks = _copy(interrupted(engine, with_hosts=False), tmp_path)
        with pytest.raises(CheckpointError):
            _replay(bundle, tmp_path, cks, engine=engine, hosts=HOSTS,
                    resume=True)
        result = _replay(bundle, tmp_path, cks, engine=engine, resume=True)
        assert result.resumed_shards == 1
        assert (tmp_path / "merged.jsonl").read_bytes() == (
            plain / "merged.jsonl"
        ).read_bytes()


@pytest.mark.parametrize("engine", ["auto", "reference"])
def test_other_functions_state_is_refused(bundle, interrupted, engine):
    cks, _ = interrupted(engine)
    state = ReplayCheckpoint(cks, NAME).load()
    emulator = LambdaEmulator()
    emulator.deploy(bundle, name="fn-b")
    replayer = REPLAYERS[WRITTEN_BY[engine]](emulator)
    with pytest.raises(
        CheckpointError, match="checkpoint is for 'fn-a', not 'fn-b'"
    ):
        replayer.replay(
            "fn-b", list(_trace().traces[0].timestamps), EVENT,
            retry=RETRY, resume_state=state,
        )


@pytest.mark.parametrize("with_resume_state", [False, True])
def test_checkpointed_reference_replay_refuses_fallback(
    bundle, tmp_path, with_resume_state
):
    emulator = LambdaEmulator()
    emulator.deploy(bundle, name="primary")
    emulator.deploy(bundle, name="original")
    manager = FallbackManager(emulator, "primary", "original", bundle)
    kwargs = (
        {"resume_state": {"engine": "reference"}}
        if with_resume_state
        else {"checkpoint": ReplayCheckpoint(tmp_path, "primary", every=1)}
    )
    with pytest.raises(
        CheckpointError,
        match="checkpointed replay does not compose with fallback managers",
    ):
        TraceReplayer(emulator).replay(
            "primary", [0.0, 1.0], EVENT, fallback=manager, **kwargs
        )


def test_checkpoint_of_an_older_schema_is_refused(tmp_path):
    checkpoint = ReplayCheckpoint(tmp_path, NAME)
    checkpoint.write({"engine": "kernel"})
    envelope = json.loads(checkpoint.path.read_text())
    envelope["schema"] = CHECKPOINT_SCHEMA - 1
    checkpoint.path.write_text(json.dumps(envelope))
    with pytest.raises(
        CheckpointError,
        match=f"unsupported checkpoint schema {CHECKPOINT_SCHEMA - 1}",
    ):
        checkpoint.load()
