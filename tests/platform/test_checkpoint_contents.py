"""What a retry replay's checkpoint holds, on both engines.

The attempt timeline walks the arrivals with a cursor and keeps only
re-drives in its heap, so a checkpoint carries the cursor and the
pending retries, never the untouched tail of the trace.  Every request
whose first attempt was served is exactly one of: final, dead-lettered,
or waiting on one re-drive.
"""

from __future__ import annotations

import pytest

from repro.platform import checkpoint as checkpoint_mod
from repro.platform.checkpoint import ReplayCheckpoint
from repro.platform.emulator import LambdaEmulator
from repro.platform.faults import FaultPlan, FaultRates
from repro.platform.kernel import KernelReplayer
from repro.platform.replay import TraceReplayer
from repro.platform.retry import RetryPolicy

EVENT = {"x": [1.0, 2.0], "y": [3.0, 4.0]}
ARRIVALS = [0.05 * i for i in range(300)]
EVERY = 25
RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.05, jitter=0.3, seed=11)
FAULTS = FaultPlan(seed=7, default=FaultRates(throttle=0.1, exec_crash=0.1))


@pytest.fixture(autouse=True)
def _reset_hook():
    yield
    checkpoint_mod.set_post_checkpoint_hook(None)


def _final_count(state: dict) -> int:
    requests = state["result"]["requests"]
    return requests if isinstance(requests, int) else len(requests)


@pytest.mark.parametrize("engine", [KernelReplayer, TraceReplayer])
def test_timeline_holds_its_cursor_and_re_drives_only(
    toy_app_session, engine, tmp_path
):
    emulator = LambdaEmulator(faults=FAULTS)
    emulator.deploy(toy_app_session, name="fn")
    checkpoint = ReplayCheckpoint(tmp_path, "fn", every=EVERY)
    states: list[dict] = []
    checkpoint_mod.set_post_checkpoint_hook(
        lambda count: states.append(checkpoint.load())
    )
    result = engine(emulator).replay(
        "fn", ARRIVALS, EVENT, retry=RETRY, checkpoint=checkpoint
    )
    assert result.attempts // EVERY == len(states)
    assert any(state["timeline"]["heap"] for state in states)
    for state in states:
        timeline = state["timeline"]
        heap = timeline["heap"]
        assert all(attempt > 1 for _, _, attempt in heap)
        assert all(seq < timeline["cursor"] for _, seq, _ in heap)
        assert sorted(int(seq) for seq in timeline["failed"]) == sorted(
            seq for _, seq, _ in heap
        )
        served = (
            _final_count(state) + len(state["result"]["dead_letters"]) + len(heap)
        )
        assert timeline["cursor"] == served
        assert "cursor" not in state and "mode" not in state
