"""Columnar ExecutionLog internals: lazy views, spill, streaming, memory."""

from __future__ import annotations

import dataclasses
import tracemalloc

import pytest

from repro.errors import PlatformError
from repro.platform.logs import (
    _START_TYPE_INDEX,
    _STATUS_INDEX,
    ExecutionLog,
    InvocationStatus,
    StartType,
)

from tests.platform.test_logs_query import make_record


def _fill(log: ExecutionLog, n: int, *, packed_ids: bool = True) -> None:
    for i in range(n):
        request_id = f"req-{i:06d}" if packed_ids else f"weird:{i}"
        log.append(make_record(
            request_id,
            timestamp=float(i),
            start_type=StartType.COLD if i % 7 == 0 else StartType.WARM,
            exec_duration_s=0.1 + (i % 5) * 0.01,
            billed_duration_s=0.1,
            cost_usd=1e-6,
        ))


class TestColumnarRoundTrip:
    def test_lazy_views_reconstruct_records_exactly(self):
        log = ExecutionLog()
        originals = [
            make_record("req-000001", timestamp=1.0, cost_usd=2e-6),
            make_record(
                "irregular-id", function="etl",
                start_type=StartType.COLD, timestamp=2.0,
                init_duration_s=0.5, error_type="OSError",
            ),
            dataclasses.replace(
                make_record("req-999999", timestamp=3.0),
                value={"y": [1, 2]},
            ),
        ]
        for record in originals:
            log.append(record)
        assert list(log) == originals
        assert log.records == originals

    def test_unhashable_values_round_trip(self):
        log = ExecutionLog()
        payload = {"tensor": [1.0, 2.0], "meta": {"ok": True}}
        for request_id in ("req-000001", "req-000002"):
            log.append(dataclasses.replace(
                make_record(request_id), value=payload
            ))
        assert [r.value for r in log] == [payload, payload]

    def test_totals_match_record_iteration(self):
        log = ExecutionLog()
        _fill(log, 50)
        assert log.total_cost() == pytest.approx(
            sum(r.cost_usd for r in log)
        )
        assert len(log.cold_starts()) == sum(1 for r in log if r.is_cold)
        assert log.status_counts() == {"success": 50}


def _append_bulk(log: ExecutionLog, values, value_keys) -> None:
    """Warm successes carrying *values*, through ``append_rows``."""
    n = len(values)
    log.append_rows(
        "fn", 0.0, range(n),
        [_START_TYPE_INDEX[StartType.WARM]] * n,
        [_STATUS_INDEX[InvocationStatus.SUCCESS]] * n,
        [float(i) for i in range(n)], values, value_keys, ["fn-i00000"] * n,
        [0.0] * n, [0.0] * n, [0.0] * n, [0.1] * n, [0.1] * n, [128] * n,
        [1.0] * n, [1e-6] * n, [None] * n,
    )


class TestBulkValueInterning:
    """Bulk appends dedup payloads exactly like record appends do."""

    def test_uninternable_values_stay_distinct(self):
        # Unhashable and not JSON: no interning key at all.
        log = ExecutionLog()
        _append_bulk(log, [{1, 2}, {3}], [None, None])
        assert [r.value for r in log] == [{1, 2}, {3}]

    def test_missing_keys_are_derived_from_the_values(self):
        bulk = ExecutionLog()
        values = [{"a": [1]}, {"a": [1]}, "x", None, {5}, {6}]
        _append_bulk(bulk, values, [None] * len(values))
        record = ExecutionLog()
        for i, value in enumerate(values):
            record.append(dataclasses.replace(
                make_record(f"req-{i:06d}"), value=value
            ))
        assert [r.value for r in bulk] == [r.value for r in record] == values
        # Equal JSON payloads share one interned object, as on append().
        assert bulk._values[0] is bulk._values[1]

    def test_columns_keep_uninternable_values_distinct(self):
        np = pytest.importorskip("numpy", reason="append_columns needs numpy")
        log = ExecutionLog()
        log.append_columns(
            "fn", 0.0, 0,
            start_types=np.full(2, _START_TYPE_INDEX[StartType.WARM], np.int8),
            status_indices=np.zeros(2, np.int8),
            timestamps=np.asarray([0.0, 1.0]),
            instance_runs=[("fn-i00000", 2)],
            value_runs=[({1, 2}, None, 1), ({3}, None, 1)],
            error_runs=[(None, 2)],
            instance_init_s=np.zeros(2),
            transmission_s=np.zeros(2),
            init_duration_s=np.zeros(2),
            exec_duration_s=np.full(2, 0.1),
            billed_duration_s=np.full(2, 0.1),
            memory_config_mb=np.full(2, 128, np.int64),
            peak_memory_mb=np.ones(2),
            cost_usd=np.full(2, 1e-6),
        )
        assert [r.value for r in log] == [{1, 2}, {3}]


class TestSpill:
    def test_spill_requires_path(self):
        with pytest.raises(PlatformError):
            ExecutionLog(spill_threshold=4)

    def test_spill_bytes_match_write_jsonl(self, tmp_path):
        spilled = ExecutionLog(
            spill_threshold=3, spill_path=tmp_path / "spilled.jsonl"
        )
        plain = ExecutionLog()
        _fill(spilled, 10)
        _fill(plain, 10)
        spilled.flush_spill()
        reference = plain.write_jsonl(tmp_path / "plain.jsonl")
        assert (
            (tmp_path / "spilled.jsonl").read_bytes()
            == reference.read_bytes()
        )

    def test_spilled_log_still_iterates_everything(self, tmp_path):
        spilled = ExecutionLog(
            spill_threshold=3, spill_path=tmp_path / "log.jsonl"
        )
        plain = ExecutionLog()
        _fill(spilled, 10, packed_ids=False)
        _fill(plain, 10, packed_ids=False)
        assert spilled.spilled >= 3
        assert len(spilled) == 10
        assert list(spilled) == list(plain)

    def test_queries_agree_after_spill(self, tmp_path):
        spilled = ExecutionLog(
            spill_threshold=4, spill_path=tmp_path / "log.jsonl"
        )
        plain = ExecutionLog()
        _fill(spilled, 25)
        _fill(plain, 25)
        aggs = dict(
            n="count", cost="sum:cost_usd", p95="p95:exec_duration_s",
            mean="mean:e2e_s",
        )
        assert spilled.query().aggregate(**aggs) == plain.query().aggregate(**aggs)
        assert (
            spilled.query().cold().count() == plain.query().cold().count()
        )

    def test_callable_aggregate_on_spilled_log(self, tmp_path):
        log = ExecutionLog(
            spill_threshold=2, spill_path=tmp_path / "log.jsonl"
        )
        _fill(log, 9)
        stats = log.query().aggregate(
            span=lambda records: max(r.timestamp for r in records)
            - min(r.timestamp for r in records)
        )
        assert stats["span"] == 8.0

    def test_write_jsonl_onto_live_spill_file_raises(self, tmp_path):
        log = ExecutionLog(
            spill_threshold=2, spill_path=tmp_path / "log.jsonl"
        )
        _fill(log, 5)
        with pytest.raises(PlatformError, match="live spill file"):
            log.write_jsonl(tmp_path / "log.jsonl")

    def test_flush_spill_completes_the_export(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = ExecutionLog(spill_threshold=100, spill_path=path)
        _fill(log, 5)  # below threshold: nothing on disk yet
        log.flush_spill()
        assert len(ExecutionLog.load_jsonl(path)) == 5


class TestMemory:
    def test_columnar_store_is_smaller_than_record_list(self):
        n = 4000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = ExecutionLog()
            _fill(log, n)
            columnar = tracemalloc.get_traced_memory()[0] - before

            before = tracemalloc.get_traced_memory()[0]
            records = []
            for i in range(n):
                records.append(make_record(f"req-{i:06d}", timestamp=float(i)))
            as_list = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # The point of the columnar layout: numeric columns + interning
        # must be far cheaper than a list of record objects.
        assert columnar < 0.5 * as_list, (columnar, as_list)
        assert len(records) == len(log)
