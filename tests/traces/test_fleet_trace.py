"""FleetTrace: generation, partitioning, and JSONL round-trips."""

from __future__ import annotations

import pytest

from repro.errors import TraceError
from repro.traces import FleetTrace
from repro.traces.azure import FunctionTrace


def _trace(function_id: str, n: int) -> FunctionTrace:
    return FunctionTrace(
        function_id=function_id,
        pattern="steady",
        memory_mb=128.0,
        duration_s=0.1,
        timestamps=tuple(float(i) for i in range(n)),
    )


class TestGeneration:
    def test_generate_is_deterministic(self):
        first = FleetTrace.generate(6, seed=3)
        second = FleetTrace.generate(6, seed=3)
        assert first.traces == second.traces
        assert len(first) == 6

    def test_different_seeds_differ(self):
        assert (
            FleetTrace.generate(6, seed=3).traces
            != FleetTrace.generate(6, seed=4).traces
        )

    def test_generate_invocations_meets_target(self):
        fleet = FleetTrace.generate_invocations(500, seed=9)
        assert fleet.invocations >= 500
        # Minimal: dropping the last function would undershoot.
        assert fleet.invocations - fleet.traces[-1].invocations < 500

    def test_generate_invocations_respects_cap(self):
        fleet = FleetTrace.generate_invocations(
            400, seed=9, max_per_function=200
        )
        assert fleet.invocations >= 400
        assert all(t.invocations <= 200 for t in fleet)

    def test_generate_invocations_rejects_bad_target(self):
        with pytest.raises(TraceError, match="positive invocation target"):
            FleetTrace.generate_invocations(0)

    def test_duplicate_functions_rejected(self):
        with pytest.raises(TraceError, match="duplicate function"):
            FleetTrace(traces=(_trace("fn-a", 3), _trace("fn-a", 5)))


class TestViews:
    def test_for_function(self):
        fleet = FleetTrace(traces=(_trace("fn-a", 3), _trace("fn-b", 5)))
        assert fleet.for_function("fn-b").invocations == 5
        with pytest.raises(TraceError, match="no such function"):
            fleet.for_function("fn-c")

    def test_capped_drops_busy_functions(self):
        fleet = FleetTrace(traces=(_trace("fn-a", 3), _trace("fn-b", 50)))
        assert fleet.capped(10).functions == ("fn-a",)


class TestPartition:
    def test_partition_preserves_every_function(self):
        fleet = FleetTrace.generate(10, seed=1)
        shards = fleet.partition(3)
        names = [t.function_id for shard in shards for t in shard]
        assert sorted(names) == sorted(fleet.functions)

    def test_partition_is_deterministic(self):
        fleet = FleetTrace.generate(10, seed=1)
        assert fleet.partition(4) == fleet.partition(4)

    def test_partition_balances_load(self):
        fleet = FleetTrace.generate(12, seed=2)
        loads = [
            sum(t.invocations for t in shard)
            for shard in fleet.partition(3)
        ]
        # Greedy LPT bound: no shard exceeds the mean by more than the
        # single biggest function.
        biggest = max(t.invocations for t in fleet)
        assert max(loads) <= fleet.invocations / 3 + biggest

    def test_empty_shards_are_dropped(self):
        fleet = FleetTrace(traces=(_trace("fn-a", 3), _trace("fn-b", 5)))
        shards = fleet.partition(8)
        assert len(shards) == 2

    def test_partition_rejects_zero_shards(self):
        with pytest.raises(TraceError, match="at least one shard"):
            FleetTrace.generate(2, seed=1).partition(0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        fleet = FleetTrace.generate(5, seed=7)
        path = fleet.save(tmp_path / "fleet" / "trace.jsonl")
        assert FleetTrace.load(path).traces == fleet.traces

    def test_load_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"function_id": "x"}\n', encoding="utf-8")
        with pytest.raises(TraceError, match="line 1"):
            FleetTrace.load(path)

    def test_load_missing_file_is_trace_error(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read trace"):
            FleetTrace.load(tmp_path / "nope.jsonl")

    def test_load_truncated_record_is_trace_error(self, tmp_path):
        fleet = FleetTrace.generate(3, seed=7)
        path = fleet.save(tmp_path / "trace.jsonl")
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) - 10], encoding="utf-8")
        with pytest.raises(TraceError, match="bad trace"):
            FleetTrace.load(path)

    def test_load_non_object_line_is_trace_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(TraceError, match="line 1"):
            FleetTrace.load(path)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", '"nan"'])
    def test_load_rejects_non_finite_timestamps(self, tmp_path, bad):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"function_id": "f", "pattern": "steady", "memory_mb": 128.0, '
            f'"duration_s": 60.0, "timestamps": [0.0, {bad}]}}\n',
            encoding="utf-8",
        )
        with pytest.raises(TraceError, match="line 1: bad trace: .*finite"):
            FleetTrace.load(path)

    def test_load_skips_blank_lines(self, tmp_path):
        fleet = FleetTrace.generate(3, seed=7)
        path = fleet.save(tmp_path / "trace.jsonl")
        path.write_text(
            path.read_text(encoding="utf-8") + "\n\n", encoding="utf-8"
        )
        assert len(FleetTrace.load(path)) == 3


class TestStreaming:
    def test_stream_reproduces_generate_invocations(self):
        whole = FleetTrace.generate_invocations(
            2000, seed=11, max_per_function=400
        )
        streamed = [
            t
            for batch in FleetTrace.stream_invocations(
                2000, seed=11, max_per_function=400, batch_functions=7
            )
            for t in batch
        ]
        assert tuple(streamed) == whole.traces

    def test_batches_respect_size_bound(self):
        batches = list(
            FleetTrace.stream_invocations(1500, seed=3, batch_functions=4)
        )
        assert all(len(b) <= 4 for b in batches)
        assert sum(len(b) for b in batches) >= len(batches)  # none empty
        assert all(len(b) == 4 for b in batches[:-1])  # only the tail is short

    def test_stream_rejects_bad_arguments(self):
        with pytest.raises(TraceError, match="positive invocation target"):
            next(FleetTrace.stream_invocations(0))
        with pytest.raises(TraceError, match="positive batch size"):
            next(FleetTrace.stream_invocations(10, batch_functions=0))

    def test_iter_batches_reassembles_fleet(self):
        fleet = FleetTrace.generate(10, seed=5)
        chunks = list(fleet.iter_batches(3))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert tuple(t for c in chunks for t in c) == fleet.traces
        with pytest.raises(TraceError, match="positive batch size"):
            next(fleet.iter_batches(0))
