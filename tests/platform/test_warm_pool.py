"""The warm pool and retry timeline both replay engines drive.

The engine parity suites check these through whole replays; here each
rule is pinned on its own: MRU reuse, expiry of the whole idle stack
(retiring host slots), lazy adoption, and the retry-or-dead-letter
decision, plus checkpoint round trips that continue identically.

The timeline walks the sorted arrivals with a cursor and keeps only
retry re-drives in a heap.  Its order must be the one a single heap
holding every arrival gives: by time, then request, then attempt.
``TestRetryTimelineOrder`` keeps that heap as its own model and drives
both with the same random fail-or-settle decisions.  Arrival gaps,
completion offsets and backoff delays are multiples of 0.25 s, so ties
between arrivals, and re-drives landing on an arrival's instant, are
common and exact.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.instance import WarmPool
from repro.platform.logs import InvocationRecord, InvocationStatus, StartType
from repro.platform.retry import DeadLetter, RetryPolicy, RetryTimeline

KEEP_ALIVE = 10.0


def _instance(name: str, alive: bool = True) -> SimpleNamespace:
    return SimpleNamespace(instance_id=name, alive=alive)


class _Hosts:
    """Records the pool's host-layer calls."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def retire(self, instance_id):
        self.calls.append(("retire", instance_id))

    def record_use(self, instance_id, until):
        self.calls.append(("use", instance_id, until))


class TestWarmPool:
    def test_most_recently_freed_instance_serves_first(self):
        pool = WarmPool()
        a, b = _instance("a"), _instance("b")
        pool.release(a, 1.0)
        pool.release(b, 2.0)
        assert pool.acquire([], 1.5, KEEP_ALIVE) is a
        pool.release(a, 1.6)
        assert pool.acquire([], 3.0, KEEP_ALIVE) is b
        assert pool.acquire([], 3.0, KEEP_ALIVE) is a
        assert pool.acquire([], 3.0, KEEP_ALIVE) is None

    def test_busy_instances_do_not_serve(self):
        pool = WarmPool()
        pool.release(_instance("a"), 5.0)
        assert pool.acquire([], 4.9, KEEP_ALIVE) is None

    def test_stale_top_expires_the_whole_stack_and_retires_slots(self):
        pool = WarmPool()
        hosts = _Hosts()
        pool.release(_instance("a"), 1.0, hosts)
        pool.release(_instance("b"), 2.0, hosts)
        assert pool.acquire([], 2.0 + KEEP_ALIVE + 0.5, KEEP_ALIVE, hosts) is None
        assert hosts.calls == [
            ("use", "a", 1.0),
            ("use", "b", 2.0),
            ("retire", "a"),
            ("retire", "b"),
        ]
        assert pool.idle == [] and pool.busy == []

    def test_keep_alive_boundary_is_inclusive(self):
        # Served exactly the keep-alive after its release, expired one ulp
        # past it.  Replays rarely land on the boundary exactly, so the
        # serve model in test_serve_model.py cannot pin it.
        pool = WarmPool()
        a = _instance("a")
        pool.release(a, 1.0)
        assert pool.acquire([], 1.0 + KEEP_ALIVE, KEEP_ALIVE) is a
        pool.release(a, 2.0)
        just_past = math.nextafter(2.0 + KEEP_ALIVE, math.inf)
        assert pool.acquire([], just_past, KEEP_ALIVE) is None

    def test_dead_members_are_discarded(self):
        pool = WarmPool()
        a, b = _instance("a"), _instance("b")
        pool.release(a, 1.0)
        pool.release(b, 2.0)
        b.alive = False
        assert pool.acquire([], 3.0, KEEP_ALIVE) is a
        assert pool.acquire([], 3.0, KEEP_ALIVE) is None

    def test_adopts_alive_instances_once_as_they_are(self):
        pool = WarmPool()
        x, y = _instance("x"), _instance("y")
        existing = [x, _instance("dead", alive=False), y]
        assert pool.acquire(existing, 5.0, KEEP_ALIVE) is y
        assert pool.acquire(existing, 6.0, KEEP_ALIVE) is x
        assert pool.acquire(existing, 7.0, KEEP_ALIVE) is None

    def test_snapshot_round_trip_continues_identically(self):
        instances = {name: _instance(name) for name in "abcd"}
        pool = WarmPool()
        for until, name in ((1.0, "a"), (3.0, "b"), (2.0, "c"), (4.0, "d")):
            pool.release(instances[name], until)
        assert pool.acquire([], 2.5, KEEP_ALIVE) is instances["c"]
        restored = WarmPool()
        restored.restore(json.loads(json.dumps(pool.snapshot())), instances)
        assert restored.snapshot() == pool.snapshot()
        for t in (2.6, 3.5, 4.5, 4.5, 4.5):
            assert restored.acquire([], t, KEEP_ALIVE) is pool.acquire(
                [], t, KEEP_ALIVE
            )


def _failure(status=InvocationStatus.THROTTLED) -> InvocationRecord:
    return InvocationRecord(
        request_id="r",
        function="f",
        start_type=StartType.THROTTLED,
        timestamp=0.0,
        value=None,
        instance_id="-",
        error_type="Throttled",
        status=status,
    )


class TestRetryTimeline:
    def test_pops_arrivals_in_time_order(self):
        timeline = RetryTimeline("f", [0.0, 1.0, 1.0], None)
        assert list(timeline) == [
            (0.0, 0, 1),
            (1.0, 1, 1),
            (1.0, 2, 1),
        ]
        assert list(timeline) == []

    def test_retries_then_dead_letters_with_full_history(self):
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.5, jitter=0.0)
        timeline = RetryTimeline("f", [3.0], policy.session())
        attempts = iter(timeline)
        t, seq, attempt = next(attempts)
        first, second = _failure(), _failure()
        assert timeline.fail(seq, attempt, first, completion=t + 1.0) is None
        assert next(attempts) == (4.5, 0, 2)
        letter = timeline.fail(0, 2, second, completion=5.0)
        assert letter == DeadLetter("f", 3.0, (first, second))
        assert timeline.failed == {} and list(attempts) == []

    def test_non_retryable_status_dead_letters_at_once(self):
        timeline = RetryTimeline("f", [0.0], RetryPolicy().session())
        next(iter(timeline))
        letter = timeline.fail(0, 1, _failure(InvocationStatus.TIMEOUT), 1.0)
        assert letter is not None and len(letter.attempts) == 1

    def test_settle_drops_the_failure_history(self):
        timeline = RetryTimeline("f", [0.0], RetryPolicy().session())
        next(iter(timeline))
        timeline.fail(0, 1, _failure(), 1.0)
        timeline.settle(0)
        assert timeline.failed == {}

    def test_snapshot_round_trip_continues_identically(self):
        policy = RetryPolicy(max_attempts=4, jitter=0.5, seed=9)
        arrivals = [0.0, 0.5, 2.0]
        timeline = RetryTimeline("f", arrivals, policy.session())
        attempts = iter(timeline)
        for _ in range(2):
            seq, attempt = next(attempts)[1:]
            timeline.fail(seq, attempt, _failure(), completion=1.0)
        restored = RetryTimeline("f", arrivals, policy.session())
        restored.restore(json.loads(json.dumps(timeline.snapshot())))
        assert restored.snapshot() == timeline.snapshot()
        resumed = iter(restored)
        for popped in attempts:
            assert next(resumed) == popped
            seq, attempt = popped[1:]
            outcomes = [
                line.fail(seq, attempt, _failure(), completion=popped[0] + 1.0)
                for line in (timeline, restored)
            ]
            assert outcomes[0] == outcomes[1]
        assert list(resumed) == []


# -- the timeline against the heap it replaced ---------------------------------

SETTINGS = settings(max_examples=200, deadline=None)
STEPS = [0.0, 0.25, 0.5]

_ARRIVALS = st.lists(
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.5]), max_size=25
).map(lambda gaps: list(itertools.accumulate(gaps)))
_POLICIES = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=4),
    base_delay_s=st.sampled_from(STEPS),
    multiplier=st.just(1.0),
    jitter=st.just(0.0),
)
#: Cycled per attempt: whether it fails, and its completion offset.
_DECISIONS = st.lists(
    st.tuples(st.booleans(), st.sampled_from(STEPS)), min_size=1, max_size=12
)


def _model(arrivals, policy, decisions) -> list[tuple[float, int, int]]:
    """The order one heap of every arrival plus its re-drives gives."""
    heap = [(t, seq, 1) for seq, t in enumerate(arrivals)]
    heapq.heapify(heap)
    order = []
    while heap:
        t, seq, attempt = heapq.heappop(heap)
        fail, offset = decisions[len(order) % len(decisions)]
        order.append((t, seq, attempt))
        if fail and attempt < policy.max_attempts:
            retry_at = t + offset + policy.base_delay_s
            heapq.heappush(heap, (retry_at, seq, attempt + 1))
    return order


def _walk(attempts, timeline, decisions, order, policy) -> None:
    """Serve *attempts* from *timeline*, appending each to *order*."""
    for t, seq, attempt in attempts:
        fail, offset = decisions[len(order) % len(decisions)]
        order.append((t, seq, attempt))
        if fail:
            letter = timeline.fail(seq, attempt, _failure(), completion=t + offset)
            assert (letter is None) == (attempt < policy.max_attempts)
        else:
            timeline.settle(seq)


class TestRetryTimelineOrder:
    @SETTINGS
    @given(arrivals=_ARRIVALS, policy=_POLICIES, decisions=_DECISIONS)
    def test_matches_the_heap_of_every_arrival(self, arrivals, policy, decisions):
        timeline = RetryTimeline("f", arrivals, policy.session())
        order: list = []
        _walk(timeline, timeline, decisions, order, policy)
        assert order == _model(arrivals, policy, decisions)
        assert timeline.heap == [] and timeline.failed == {}
        assert timeline.cursor == len(arrivals)

    @SETTINGS
    @given(
        arrivals=_ARRIVALS,
        policy=_POLICIES,
        decisions=_DECISIONS,
        data=st.data(),
    )
    def test_matches_after_a_json_snapshot_and_restore(
        self, arrivals, policy, decisions, data
    ):
        expected = _model(arrivals, policy, decisions)
        split = data.draw(st.integers(min_value=0, max_value=len(expected)))
        timeline = RetryTimeline("f", arrivals, policy.session())
        order: list = []
        _walk(
            itertools.islice(timeline, split), timeline, decisions, order, policy
        )
        state = json.loads(json.dumps(timeline.snapshot()))
        # The snapshot holds the first attempts served and re-drives only.
        assert state["cursor"] == sum(attempt == 1 for _, _, attempt in order)
        assert all(attempt > 1 for _, _, attempt in state["heap"])
        restored = RetryTimeline("f", arrivals, policy.session())
        restored.restore(state)
        _walk(restored, restored, decisions, order, policy)
        assert order == expected

    def test_re_drive_on_an_arrivals_instant_goes_first(self):
        policy = RetryPolicy(base_delay_s=0.5, multiplier=1.0, jitter=0.0)
        timeline = RetryTimeline("f", [0.0, 1.0], policy.session())
        attempts = iter(timeline)
        assert next(attempts) == (0.0, 0, 1)
        assert timeline.fail(0, 1, _failure(), completion=0.5) is None
        assert list(attempts) == [(1.0, 0, 2), (1.0, 1, 1)]
