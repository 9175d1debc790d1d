"""What each replay engine refuses before its first arrival.

Both engines walk a trace through one attempt timeline, whose cursor
merge relies on sorted, finite arrivals: a NaN compares false against
everything and would slip past a plain sortedness scan.  Each engine
also serves only its own kind of instance: the kernel refuses a function
holding any live instance, such as one warmed by a direct invoke, and
the reference engine refuses one holding the kernel's simulated ones.
"""

from __future__ import annotations

import pytest

from repro.errors import PlatformError
from repro.platform.emulator import LambdaEmulator
from repro.platform.kernel import KernelReplayer
from repro.platform.replay import TraceReplayer

EVENT = {"x": [1.0, 2.0], "y": [3.0, 4.0]}
ENGINES = [KernelReplayer, TraceReplayer]


def _emulator(bundle) -> LambdaEmulator:
    emulator = LambdaEmulator()
    emulator.deploy(bundle, name="fn")
    return emulator


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "arrivals",
    [
        [0.0, float("nan"), 2.0],
        [float("nan")],
        [0.0, 1.0, float("inf")],
        [float("-inf"), 0.0],
        [1.0, 0.5],
    ],
)
def test_unsorted_or_non_finite_arrivals_are_refused(
    toy_app_session, engine, arrivals
):
    emulator = _emulator(toy_app_session)
    with pytest.raises(PlatformError, match="^arrivals must be sorted"):
        engine(emulator).replay("fn", arrivals, EVENT)
    assert len(emulator.log) == 0


def test_kernel_refuses_instances_warmed_by_direct_invokes(toy_app_session):
    emulator = _emulator(toy_app_session)
    assert emulator.invoke("fn", EVENT).is_cold
    with pytest.raises(PlatformError, match="kernel cannot replay 'fn'"):
        KernelReplayer(emulator).replay("fn", [0.0, 1.0], EVENT)
    assert len(emulator.log) == 1

    # The reference engine adopts the warm instance as it is.
    result = TraceReplayer(emulator).replay("fn", [0.0, 1.0], EVENT)
    assert [request.is_cold for request in result.requests] == [False, False]


def test_reference_refuses_kernel_shadows(toy_app_session):
    emulator = _emulator(toy_app_session)
    KernelReplayer(emulator).replay("fn", [0.0, 1.0], EVENT)
    rows = len(emulator.log)
    with pytest.raises(PlatformError, match="^reference engine cannot replay 'fn'"):
        TraceReplayer(emulator).replay("fn", [0.0, 1.0], EVENT)
    assert len(emulator.log) == rows
