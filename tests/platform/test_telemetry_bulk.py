"""Property: bulk sink ingestion is state-identical to the record path.

The fast replay engine publishes telemetry through two bulk doors —
``observe_rows`` (tuple batches, throttle-capable) and ``observe_columns``
(all-billed numpy columns) — and both promise sink state *bit-identical*
to one ``observe(record)`` per invocation, the reference engine's path:
same window counters, same histogram sketches (sums as sequential left
folds), same exemplars, same concurrency high-water marks.  Hypothesis
drives random traces across window boundaries, both sides of the
small-run cutoff, zero-e2e rows (which entangle heap pop order), and
throttled/unbilled rows.

The in-flight heaps are compared as multisets: the columnar path
rebuilds each heap as its sorted surviving completions, which is a
different *array layout* than incremental heappush produces but the same
heap contents — pop order, and therefore every future observation, is
identical.  Everything else must match byte for byte.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.logs import InvocationRecord, StartType
from repro.platform.telemetry import _SMALL_RUN, TelemetrySink

SETTINGS = settings(max_examples=40, deadline=None)

STATUS_NAMES = ("success", "error", "timeout", "oom")
WINDOW_S = 10.0


def _canon(sink: TelemetrySink) -> str:
    state = sink.snapshot()
    state["in_flight"] = {
        name: sorted(heap) for name, heap in state["in_flight"].items()
    }
    return json.dumps(state, sort_keys=True)


def _sink() -> TelemetrySink:
    return TelemetrySink(window_s=WINDOW_S, subbuckets=16)


def _record(row: tuple) -> InvocationRecord:
    """The record an engine would log for a decomposed telemetry *row*;
    its ``e2e_s`` is exactly the row's (a sum of zeros plus routing)."""
    function, status, _, billed, is_cold, _, e2e, cost, billed_s, rid = row
    if not billed:
        start = StartType.THROTTLED
    else:
        start = StartType.COLD if is_cold else StartType.WARM
    return InvocationRecord(
        request_id=f"req-{rid:06d}",
        function=function,
        start_type=start,
        timestamp=0.0,
        value=None,
        instance_id="-",
        routing_s=e2e,
        billed_duration_s=billed_s,
        cost_usd=cost,
        status=status,
    )


def _observe_records(sink: TelemetrySink, rows, arrivals) -> None:
    for row, arrival in zip(rows, arrivals):
        sink.observe(_record(row), arrival=float(arrival))


# -- observe_rows (tuple batches, throttles allowed) -------------------------

# (function, status_idx, billed, is_cold, e2e, cost, billed_s, delta)
row_fields = st.tuples(
    st.sampled_from(["fn-a", "fn-b"]),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.booleans(),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=30.0)),
    st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    st.one_of(
        st.floats(min_value=0.0, max_value=0.05),
        st.floats(min_value=0.0, max_value=25.0),
    ),
)


def _build_rows(raw):
    rows, arrivals, clock = [], [], 0.0
    for i, (fn, sidx, billed, cold, e2e, cost, billed_s, delta) in enumerate(raw):
        clock += delta
        status = "throttled" if not billed else STATUS_NAMES[sidx]
        ok = billed and sidx == 0
        rows.append(
            (fn, status, ok, billed, billed and cold,
             billed and not cold, e2e, cost, billed_s, i)
        )
        arrivals.append(clock)
    return rows, arrivals


class TestObserveRowsIdentity:
    @SETTINGS
    @given(raw=st.lists(row_fields, max_size=150))
    def test_matches_per_row_path(self, raw):
        rows, arrivals = _build_rows(raw)
        reference = _sink()
        _observe_records(reference, rows, arrivals)
        bulk = _sink()
        bulk.observe_rows(rows, arrivals=arrivals)
        assert _canon(bulk) == _canon(reference)

    @SETTINGS
    @given(
        raw=st.lists(row_fields, max_size=150),
        split=st.integers(min_value=0, max_value=150),
    )
    def test_batch_boundaries_are_unobservable(self, raw, split):
        rows, arrivals = _build_rows(raw)
        split = min(split, len(rows))
        one_shot = _sink()
        one_shot.observe_rows(rows, arrivals=arrivals)
        resumed = _sink()
        resumed.observe_rows(rows[:split], arrivals=arrivals[:split])
        resumed.observe_rows(rows[split:], arrivals=arrivals[split:])
        assert _canon(resumed) == _canon(one_shot)

    def test_length_mismatch_is_rejected(self):
        from repro.errors import PlatformError

        with pytest.raises(PlatformError, match="one arrival per row"):
            _sink().observe_rows(
                [("fn", "success", True, True, True, False, 1.0, 0.0, 1.0)],
                arrivals=[0.0, 1.0],
            )


# -- observe_columns (all-billed numpy columns) ------------------------------

# (status_idx, is_cold, e2e, cost, billed_s, delta)
col_fields = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=30.0)),
    st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    st.one_of(
        st.floats(min_value=0.0, max_value=0.02),
        st.floats(min_value=0.0, max_value=25.0),
    ),
)


class TestObserveColumnsIdentity:
    def _columns(self, raw):
        np = pytest.importorskip("numpy", reason="observe_columns needs numpy")
        sidx = np.asarray([f[0] for f in raw], dtype=np.int64)
        cold = np.asarray([f[1] for f in raw], dtype=bool)
        e2e = np.asarray([f[2] for f in raw], dtype=np.float64)
        cost = np.asarray([f[3] for f in raw], dtype=np.float64)
        billed = np.asarray([f[4] for f in raw], dtype=np.float64)
        arrivals = np.cumsum(np.asarray([f[5] for f in raw], dtype=np.float64))
        return sidx, cold, e2e, cost, billed, arrivals

    def _rows(self, raw, rid_start):
        return [
            ("fn-a", STATUS_NAMES[sidx], sidx == 0, True, cold, not cold,
             e2e, cost, billed_s, rid_start + i)
            for i, (sidx, cold, e2e, cost, billed_s, _) in enumerate(raw)
        ]

    def _reference(self, raw, arrivals, rid_start):
        sink = _sink()
        _observe_records(sink, self._rows(raw, rid_start), arrivals)
        return sink

    @SETTINGS
    @given(
        raw=st.lists(col_fields, min_size=1, max_size=2 * _SMALL_RUN),
        rid_start=st.integers(min_value=0, max_value=10_000),
    )
    def test_matches_per_row_path(self, raw, rid_start):
        sidx, cold, e2e, cost, billed, arrivals = self._columns(raw)
        reference = self._reference(raw, arrivals, rid_start)
        bulk = _sink()
        bulk.observe_columns(
            "fn-a",
            statuses=sidx,
            status_names=STATUS_NAMES,
            ok=sidx == 0,
            is_cold=cold,
            e2e=e2e,
            cost=cost,
            billed_s=billed,
            arrivals=arrivals,
            rid_start=rid_start,
        )
        assert _canon(bulk) == _canon(reference)

    @SETTINGS
    @given(raw=st.lists(col_fields, min_size=1, max_size=80))
    def test_interleaves_with_scalar_observations(self, raw):
        # A columnar flush followed by a row batch (the seam between the
        # engine's two serve loops) must leave the same state as the
        # per-record timeline — the heap handoff works both ways.
        sidx, cold, e2e, cost, billed, arrivals = self._columns(raw)
        half = len(raw) // 2
        reference = self._reference(raw, arrivals, 0)
        mixed = _sink()
        mixed.observe_columns(
            "fn-a",
            statuses=sidx[:half],
            status_names=STATUS_NAMES,
            ok=(sidx == 0)[:half],
            is_cold=cold[:half],
            e2e=e2e[:half],
            cost=cost[:half],
            billed_s=billed[:half],
            arrivals=arrivals[:half],
            rid_start=0,
        )
        mixed.observe_rows(
            self._rows(raw, 0)[half:], arrivals=arrivals[half:].tolist()
        )
        assert _canon(mixed) == _canon(reference)
