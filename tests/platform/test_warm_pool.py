"""The warm pool and retry timeline both replay engines drive.

The engine parity suites check these through whole replays; here each
rule is pinned on its own: MRU reuse, expiry of the whole idle stack
(retiring host slots), lazy adoption, and the retry-or-dead-letter
decision, plus checkpoint round trips that continue identically.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

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

    def test_dead_members_are_discarded(self):
        pool = WarmPool()
        a, b = _instance("a"), _instance("b")
        pool.release(a, 1.0)
        pool.release(b, 2.0)
        b.alive = False
        assert pool.acquire([], 3.0, KEEP_ALIVE) is a
        assert pool.acquire([], 3.0, KEEP_ALIVE) is None

    def test_adopts_alive_instances_once_through_adopt(self):
        wrapped = []

        def adopt(existing):
            wrapped.append(existing.instance_id)
            return existing

        pool = WarmPool(adopt=adopt)
        existing = [_instance("x"), _instance("dead", alive=False), _instance("y")]
        assert pool.acquire(existing, 5.0, KEEP_ALIVE).instance_id == "y"
        assert pool.acquire(existing, 6.0, KEEP_ALIVE).instance_id == "x"
        assert pool.acquire(existing, 7.0, KEEP_ALIVE) is None
        assert wrapped == ["x", "y"]

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
        assert [timeline.pop() for _ in range(3)] == [
            (0.0, 0, 1),
            (1.0, 1, 1),
            (1.0, 2, 1),
        ]
        assert not timeline

    def test_retries_then_dead_letters_with_full_history(self):
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.5, jitter=0.0)
        timeline = RetryTimeline("f", [3.0], policy.session())
        t, seq, attempt = timeline.pop()
        first, second = _failure(), _failure()
        assert timeline.fail(seq, attempt, first, completion=t + 1.0) is None
        assert timeline.pop() == (4.5, 0, 2)
        letter = timeline.fail(0, 2, second, completion=5.0)
        assert letter == DeadLetter("f", 3.0, (first, second))
        assert timeline.failed == {} and not timeline

    def test_non_retryable_status_dead_letters_at_once(self):
        timeline = RetryTimeline("f", [0.0], RetryPolicy().session())
        timeline.pop()
        letter = timeline.fail(0, 1, _failure(InvocationStatus.TIMEOUT), 1.0)
        assert letter is not None and len(letter.attempts) == 1

    def test_settle_drops_the_failure_history(self):
        timeline = RetryTimeline("f", [0.0], RetryPolicy().session())
        timeline.pop()
        timeline.fail(0, 1, _failure(), 1.0)
        timeline.settle(0)
        assert timeline.failed == {}

    def test_snapshot_round_trip_continues_identically(self):
        policy = RetryPolicy(max_attempts=4, jitter=0.5, seed=9)
        arrivals = [0.0, 0.5, 2.0]
        timeline = RetryTimeline("f", arrivals, policy.session())
        for _ in range(2):
            seq, attempt = timeline.pop()[1:]
            timeline.fail(seq, attempt, _failure(), completion=1.0)
        restored = RetryTimeline("f", arrivals, policy.session())
        restored.restore(json.loads(json.dumps(timeline.snapshot())))
        assert restored.snapshot() == timeline.snapshot()
        while timeline:
            popped = timeline.pop()
            assert restored.pop() == popped
            seq, attempt = popped[1:]
            outcomes = [
                line.fail(seq, attempt, _failure(), completion=popped[0] + 1.0)
                for line in (timeline, restored)
            ]
            assert outcomes[0] == outcomes[1]
        assert not restored
