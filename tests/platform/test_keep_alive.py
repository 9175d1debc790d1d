"""One keep-alive rule: every warm start comes from a caller-owned pool.

Direct invokes serve from the function's own
:class:`~repro.platform.instance.WarmPool`, in virtual-clock time, and
each replay call builds its own, in trace time.  The rule is the pool's:
an instance may serve again while its last request completed no more
than the keep-alive ago.  This suite pins what that means for direct
invokes: keep-alive counts from the end of the last invocation, an
expired instance is retired and frees its host slot, and an instance
only a replay's pool held never serves a direct invoke.  Reference
checkpoints carry no per-instance last-use time.
"""

from __future__ import annotations

import pytest

from repro.platform.checkpoint import ReplayCheckpoint
from repro.platform.emulator import LambdaEmulator
from repro.platform.hosts import HostConfig
from repro.platform.replay import TraceReplayer

EVENT = {"x": [1.0, 2.0], "y": [3.0, 4.0]}
KEEP_ALIVE_S = 60.0


def _emulator(bundle, **options) -> LambdaEmulator:
    emulator = LambdaEmulator(keep_alive_s=KEEP_ALIVE_S, **options)
    emulator.deploy(bundle, name="fn")
    return emulator


def test_keep_alive_counts_from_the_end_of_the_last_invocation(toy_app_session):
    emulator = _emulator(toy_app_session)
    first = emulator.invoke("fn", EVENT)
    assert first.is_cold and first.exec_duration_s > 0.0
    # Past the keep-alive counted from the start of the execution, within
    # it counted from the end.
    emulator.clock.advance(KEEP_ALIVE_S - first.exec_duration_s / 2)
    second = emulator.invoke("fn", EVENT)
    assert not second.is_cold
    assert second.instance_id == first.instance_id

    emulator.clock.advance(KEEP_ALIVE_S + 1.0)
    assert emulator.invoke("fn", EVENT).is_cold


def test_direct_invoke_after_a_reference_replay_is_cold(toy_app_session):
    emulator = _emulator(toy_app_session)
    result = TraceReplayer(emulator).replay("fn", [0.0, 5.0], EVENT)
    assert result.warm_starts == 1
    # The replay's instance is alive, but only the replay's pool held it.
    assert any(instance.alive for instance in emulator.function("fn").instances)
    assert emulator.invoke("fn", EVENT).is_cold


def test_expired_direct_invoke_instance_frees_its_host_slot(toy_app_session):
    emulator = _emulator(toy_app_session, hosts=HostConfig(count=1, memory_mb=1024.0))
    hosts = emulator.hosts
    first = emulator.invoke("fn", EVENT)
    (expired,) = emulator.function("fn").instances

    emulator.clock.advance(KEEP_ALIVE_S + 1.0)
    second = emulator.invoke("fn", EVENT)
    assert second.is_cold and second.instance_id != first.instance_id
    # The expired instance was retired at the acquire: shut down, dropped
    # from the function, and its reservation released without an eviction.
    assert not expired.alive
    instances = emulator.function("fn").instances
    assert [instance.instance_id for instance in instances] == [second.instance_id]
    assert hosts.util() * 1024.0 == pytest.approx(second.peak_memory_mb)
    assert hosts.evictions == 0


def test_reference_checkpoint_instances_carry_no_last_use_time(
    toy_app_session, tmp_path
):
    emulator = _emulator(toy_app_session)
    checkpoint = ReplayCheckpoint(tmp_path, "fn", every=1)
    TraceReplayer(emulator).replay(
        "fn", [0.0, 0.5, 100.0], EVENT, checkpoint=checkpoint
    )
    items = checkpoint.load()["instances"]
    assert items
    for item in items:
        assert "created_at" in item
        assert "last_used_at" not in item
