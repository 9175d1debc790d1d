"""The warm-pool decision against an independent model of who serves.

Every engine decides who serves an attempt in one place: the reference
engine and direct invokes through :meth:`LambdaEmulator._serve
<repro.platform.emulator.LambdaEmulator._serve>`, the fast engine's
general path through the same step on tape instances, and its columnar
loop through an inlined :meth:`WarmPool.acquire
<repro.platform.instance.WarmPool.acquire>`.  So that decision is checked
here against a spec written separately, in the style of one rule of the
naive operational semantics of Jangda et al. ("Formal Foundations of
Serverless Computing", PAPERS.md): a request is served warm by an idle
instance, else cold by a new one.

The spec knows nothing of pools, heaps or stacks.  It scans every
instance the function ever started.  An instance may serve an arrival
when it is alive, its last request completed at or before the arrival,
and that was no more than the keep-alive ago; the most recently freed one
serves, and on a tie the later release wins.  Otherwise the attempt is a
cold start on the next instance id.  Throttles take no instance; crashes
and OOM kills end one, timeouts do not.  With no retry policy the i-th
log row is the i-th arrival, with request id ``req-<i>``.  The spec reads
only each row's status and end-to-end time, and predicts its start type
and instance.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform import InvocationStatus, LambdaEmulator, StartType
from repro.platform.faults import FaultPlan, FaultRates
from repro.platform.kernel import KernelReplayer, TemplateStore
from repro.platform.replay import TraceReplayer

EVENT = {"x": [1.0, 2.0], "y": [3.0, 4.0]}

#: Templates are a pure function of the bundle and the event, so one
#: store serves every example.
STORE = TemplateStore()

KILLED = (InvocationStatus.CRASHED, InvocationStatus.OOM)

FAULTS = {
    "none": None,
    "throttles": FaultRates(throttle=0.3),
    "exec-crashes": FaultRates(exec_crash=0.3),
    "chaos": FaultRates(cold_start_crash=0.2, exec_crash=0.2, throttle=0.2),
}


class _Instance:
    def __init__(self, instance_id: str) -> None:
        self.instance_id = instance_id
        self.alive = True
        #: When its last request completed, and that request's position;
        #: an instance serving its first request is not free yet.
        self.free_at = float("inf")
        self.released = -1


def check_against_model(arrivals, records, keep_alive_s):
    """Assert each log row is the model's prediction for its arrival."""
    assert len(records) == len(arrivals)
    started: list[_Instance] = []
    ids = itertools.count(1)
    for i, (arrival, record) in enumerate(zip(arrivals, records)):
        assert record.request_id == f"req-{i + 1:06d}"
        if record.status is InvocationStatus.THROTTLED:
            assert record.start_type is StartType.THROTTLED
            assert record.instance_id == "-"
            continue
        idle = [
            instance
            for instance in started
            if instance.alive
            and instance.free_at <= arrival
            and arrival - instance.free_at <= keep_alive_s
        ]
        if idle:
            serving = max(idle, key=lambda c: (c.free_at, c.released))
            start = StartType.WARM
        else:
            serving = _Instance(f"fn-i{next(ids):05d}")
            started.append(serving)
            start = StartType.COLD
        assert (record.start_type, record.instance_id) == (
            start,
            serving.instance_id,
        ), f"arrival {i} at {arrival}"
        if record.status in KILLED:
            serving.alive = False
        else:
            serving.free_at = arrival + record.e2e_s
            serving.released = i


grid_gaps = st.integers(min_value=0, max_value=6).map(lambda k: k * 0.25)
float_gaps = st.floats(min_value=0.0, max_value=1.5, allow_nan=False)


@pytest.fixture(scope="module")
def bundle(toy_app_session):
    return toy_app_session


@settings(max_examples=150, deadline=None)
@given(
    gaps=st.lists(st.one_of(grid_gaps, float_gaps), min_size=1, max_size=25),
    keep_alive_s=st.sampled_from([0.25, 2.0, 900.0]),
    timeout_s=st.sampled_from([None, 1e-6]),
    faults=st.sampled_from(sorted(FAULTS)),
    seed=st.integers(min_value=0, max_value=2**16),
    engine=st.sampled_from(["reference", "kernel"]),
)
def test_every_row_is_the_models_serve(
    bundle, gaps, keep_alive_s, timeout_s, faults, seed, engine
):
    arrivals = list(itertools.accumulate(gaps))
    rates = FAULTS[faults]
    emulator = LambdaEmulator(
        keep_alive_s=keep_alive_s,
        faults=FaultPlan(seed=seed, default=rates) if rates is not None else None,
    )
    emulator.deploy(bundle, name="fn", timeout_s=timeout_s)
    if engine == "kernel":
        KernelReplayer(emulator, STORE).replay("fn", arrivals, EVENT)
    else:
        TraceReplayer(emulator).replay("fn", arrivals, EVENT)
    check_against_model(arrivals, list(emulator.log), keep_alive_s)
