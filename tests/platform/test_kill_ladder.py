"""The kill ladder against an independent model of how an execution ends.

:func:`repro.platform.emulator.settle` is the one place every engine
decides how an execution ends: the reference engine, direct invokes, the
fast engine's general path and its columnar outcome tables all call it.
So it is checked here against a spec written separately, in the style of
one rule of the naive operational semantics of Jangda et al. ("Formal
Foundations of Serverless Computing", PAPERS.md): an execution ends at
the first event that lands within it.

The spec lists every kill that lands within an execution of ``exec_s``
seconds -- the timeout only when the execution runs past it, a host
crash or an instance crash at any offset up to and including the end --
orders them by time, breaking ties timeout before host before instance,
and lets the first one win.  With no kill, the memory ceiling (only an
explicit ``memory_mb`` sets one) is checked at the peak, and otherwise
the handler's own error decides between success and error.  Times are
drawn from a grid of exact multiples of 0.25 as well as from arbitrary
floats, so exact ties between kills, and kills landing exactly at the end
of the execution, occur often.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.platform import InvocationStatus
from repro.platform.emulator import settle
from repro.platform.logs import _STATUS_TYPES

INF = float("inf")

#: Kinds of kill, in the order that breaks a tie.
TIMEOUT, HOST, INSTANCE = range(3)


def spec(
    exec_s, error_type, peak_mb, memory_mb, clamped_mb, timeout_s, crash_at, host_at
):
    """``(exec_s, status, error_type, dies, host_killed)`` of the model."""
    kills = []
    if timeout_s is not None and exec_s > timeout_s:
        kills.append((timeout_s, TIMEOUT))
    if host_at <= exec_s:
        kills.append((host_at, HOST))
    if crash_at <= exec_s:
        kills.append((crash_at, INSTANCE))
    if kills:
        at, kind = min(kills)
        if kind == TIMEOUT:
            return at, InvocationStatus.TIMEOUT, "TimeoutError", False, False
        if kind == HOST:
            return at, InvocationStatus.CRASHED, "HostCrash", True, True
        return at, InvocationStatus.CRASHED, "InstanceCrash", True, False
    if memory_mb is not None and peak_mb > clamped_mb:
        return exec_s, InvocationStatus.OOM, "OutOfMemoryError", True, False
    if error_type is None:
        return exec_s, InvocationStatus.SUCCESS, None, False, False
    return exec_s, InvocationStatus.ERROR, error_type, False, False


grid = st.integers(min_value=0, max_value=16).map(lambda k: k * 0.25)
anywhere = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
times = st.one_of(grid, anywhere)
#: A kill offset into the execution, or no such kill at all.
kill_offsets = st.one_of(times, st.just(INF))
positive = st.one_of(
    grid.filter(lambda t: t > 0.0),
    st.floats(min_value=1e-6, max_value=4.0, allow_nan=False),
)


@settings(max_examples=3000, deadline=None)
@given(
    exec_s=times,
    error_type=st.sampled_from([None, "ValueError"]),
    peak_mb=st.one_of(st.integers(100, 200).map(float), st.floats(100.0, 200.0)),
    memory_mb=st.one_of(st.none(), st.integers(100, 200)),
    clamped_mb=st.integers(100, 200),
    timeout_s=st.one_of(st.none(), positive),
    crash_at=kill_offsets,
    host_at=kill_offsets,
)
# A host crash and an instance crash at the same instant: the host wins.
@example(1.0, None, 150.0, None, 128, None, 0.5, 0.5)
# A kill at the timeout instant: the timeout wins.
@example(1.0, None, 150.0, None, 128, 0.5, 0.5, INF)
@example(1.0, None, 150.0, None, 128, 0.5, INF, 0.5)
# A kill landing exactly at the end of the execution still kills.
@example(1.0, None, 150.0, None, 128, None, 1.0, INF)
@example(1.0, None, 150.0, None, 128, None, INF, 1.0)
# An execution that ends exactly at the timeout is not timed out.
@example(1.0, "ValueError", 150.0, 128, 128, 1.0, INF, INF)
def test_settle_matches_the_model(
    exec_s, error_type, peak_mb, memory_mb, clamped_mb, timeout_s, crash_at, host_at
):
    args = (exec_s, error_type, peak_mb, memory_mb, clamped_mb, timeout_s)
    assert ladder(*args, crash_at, host_at) == spec(*args, crash_at, host_at)


def test_defaults_are_no_crash_and_no_host():
    """Without kill offsets only the timeout and the ceiling can fire."""
    for args in (
        (2.0, None, 150.0, None, 128, 1.0),
        (0.5, None, 150.0, 128, 128, 1.0),
        (0.5, "ValueError", 150.0, 256, 256, None),
    ):
        assert ladder(*args) == spec(*args, INF, INF)


def ladder(*args):
    """:func:`settle` with its status index read as an ``InvocationStatus``."""
    ended_at, status, error_type, dies, host_killed = settle(*args)
    return ended_at, _STATUS_TYPES[status], error_type, dies, host_killed
