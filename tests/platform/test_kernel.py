"""The fast replay engine must be unobservable except in wall-clock time.

The contract pinned down here: for any replayable workload, the fast
engine (:class:`~repro.platform.kernel.KernelReplayer`) produces
**byte-identical** exports — logs, ledgers, telemetry, stats — to the
reference :class:`~repro.platform.replay.TraceReplayer`, across seeds,
under throttle-only faults, under chaos with retries, on host pools,
under timeout/OOM kills and warm-pool churn, and regardless of worker
count.  The parity suite runs twice: as is (homogeneous runs take the
columnar loop) and with the engine's numpy gate off and a tiny emission
chunk (every run takes the general path, flushing mid-replay), so both
serve loops are pinned on the same workloads
(``tests/platform/test_vector.py`` asserts which loop served each one).
Plus: the general path reaches the sinks only through their bulk entry
points, the vectorized peak-concurrency sweep equals the pure-Python
reference, and non-replayable workloads are rejected (or silently fall
back) rather than silently diverging.
"""

from __future__ import annotations

import json

import pytest

from pathlib import Path

from repro.bundle import AppBundle, BundleManifest
from repro.errors import PlatformError
from repro.platform import LambdaEmulator, replay_fleet
from repro.platform import kernel as kernel_mod
from repro.platform.faults import FaultPlan, FaultRates
from repro.platform.hosts import HostConfig
from repro.platform.kernel import KernelReplayer, TemplateStore, peak_concurrency
from repro.platform.logs import ExecutionLog
from repro.platform.replay import TraceReplayer
from repro.platform.retry import RetryPolicy
from repro.platform.telemetry import TelemetrySink
from repro.traces import FleetTrace
from repro.workloads.synthlib import LibrarySpec, ModuleSpec, func, generate_library
from repro.workloads.toy import build_toy_torch_app

EVENT = {"x": [1.0, 2.0], "y": [3.0, 4.0]}


def build_fat_app(root: Path) -> AppBundle:
    """An app whose import charges ~200 MB of virtual memory.

    The toy torch app peaks at 35 MB — below the provider's 128 MB
    configuration floor, so it can never be OOM-killed.  This one can.
    """
    site = root / "site-packages"
    site.mkdir(parents=True, exist_ok=True)
    spec = LibrarySpec(
        name="fatlib",
        disk_size_mb=5.0,
        modules=(
            ModuleSpec(
                name="",
                body_time_s=0.05,
                body_memory_mb=200.0,
                attributes=(func("work", time_s=0.01, memory_mb=1.0),),
            ),
        ),
    )
    generate_library(spec, site)
    (root / "handler.py").write_text(
        "import fatlib\n\n\ndef handler(event, context):\n"
        '    return {"out": fatlib.work()}\n',
        encoding="utf-8",
    )
    bundle = AppBundle(root)
    bundle.write_manifest(
        BundleManifest(
            name="fat",
            image_size_mb=5.0,
            external_modules=["fatlib"],
            platform_overhead_s=0.1,
        )
    )
    return bundle


def _fleet_exports(bundle, trace, root, engine, **kwargs):
    """Replay a fleet with one engine and return its comparable artifacts."""
    result = replay_fleet(
        bundle,
        trace,
        EVENT,
        engine=engine,
        log_dir=root / f"logs-{engine}",
        merged_log=root / f"merged-{engine}.jsonl",
        **kwargs,
    )
    return {
        "log": (root / f"merged-{engine}.jsonl").read_bytes(),
        "report": json.dumps(result.report.to_dict(), sort_keys=True),
        "ledger": (result.ledger.total, dict(result.ledger.bills)),
        "stats": result.stats,
        "status_counts": result.status_counts(),
    }


class TestKernelVsReferenceFleet:
    """Property: engine choice is unobservable in every export."""

    @pytest.mark.parametrize("seed", [3, 11, 2025])
    def test_exports_byte_identical_across_seeds(self, tmp_path, seed):
        bundle = build_toy_torch_app(tmp_path / "toy")
        trace = FleetTrace.generate_invocations(
            300, seed=seed, max_per_function=200
        )
        kernel = _fleet_exports(bundle, trace, tmp_path, "auto")
        reference = _fleet_exports(bundle, trace, tmp_path, "reference")
        assert kernel["log"] == reference["log"]
        assert kernel["report"] == reference["report"]
        assert kernel["ledger"] == reference["ledger"]
        assert kernel["stats"] == reference["stats"]

    def test_throttle_only_fleet_byte_identical(self, tmp_path):
        # Throttles consult the injector per serve (RNG draw order and
        # injection counters are observable), so throttled rows share the
        # general path's chunk with billed ones.
        bundle = build_toy_torch_app(tmp_path / "toy")
        trace = FleetTrace.generate_invocations(
            300, seed=21, max_per_function=200
        )
        plan = FaultPlan(seed=23, default=FaultRates(throttle=0.10))
        kernel = _fleet_exports(bundle, trace, tmp_path, "auto", faults=plan)
        reference = _fleet_exports(
            bundle, trace, tmp_path, "reference", faults=plan
        )
        assert kernel["log"] == reference["log"]
        assert kernel["report"] == reference["report"]
        assert kernel["ledger"] == reference["ledger"]
        assert kernel["stats"] == reference["stats"]
        assert kernel["status_counts"].get("throttled", 0) > 0

    def test_hosts_fleet_byte_identical(self, tmp_path):
        # Host placement threads per-invocation pool state through the
        # serve: the general path runs the same pool hooks in the same
        # order as the reference engine.
        bundle = build_toy_torch_app(tmp_path / "toy")
        trace = FleetTrace.generate_invocations(
            200, seed=9, max_per_function=120
        )
        hosts = HostConfig(count=3, memory_mb=1024.0)
        kernel = _fleet_exports(bundle, trace, tmp_path, "auto", hosts=hosts)
        reference = _fleet_exports(
            bundle, trace, tmp_path, "reference", hosts=hosts
        )
        assert kernel["log"] == reference["log"]
        assert kernel["report"] == reference["report"]
        assert kernel["ledger"] == reference["ledger"]
        assert kernel["stats"] == reference["stats"]

    def test_chaos_with_retries_byte_identical(self, tmp_path):
        bundle = build_toy_torch_app(tmp_path / "toy")
        trace = FleetTrace.generate_invocations(
            300, seed=21, max_per_function=200
        )
        plan = FaultPlan(
            seed=23,
            default=FaultRates(
                throttle=0.08, exec_crash=0.04, cold_start_crash=0.03
            ),
        )
        retry = RetryPolicy(max_attempts=3, seed=5)
        kernel = _fleet_exports(
            bundle, trace, tmp_path, "auto", faults=plan, retry=retry
        )
        reference = _fleet_exports(
            bundle, trace, tmp_path, "reference", faults=plan, retry=retry
        )
        assert kernel["log"] == reference["log"]
        assert kernel["report"] == reference["report"]
        assert kernel["ledger"] == reference["ledger"]
        assert kernel["stats"] == reference["stats"]
        # The plan actually injected faults, or this test is vacuous.
        counts = kernel["status_counts"]
        assert sum(counts.values()) > counts.get("success", 0)

    def test_worker_count_unobservable_with_kernel(self, tmp_path):
        bundle = build_toy_torch_app(tmp_path / "toy")
        trace = FleetTrace.generate_invocations(
            400, seed=7, max_per_function=300
        )
        exports = {}
        for workers in (1, 8):
            result = replay_fleet(
                bundle,
                trace,
                EVENT,
                workers=workers,
                log_dir=tmp_path / f"logs-{workers}",
                merged_log=tmp_path / f"merged-{workers}.jsonl",
            )
            exports[workers] = (
                (tmp_path / f"merged-{workers}.jsonl").read_bytes(),
                json.dumps(result.report.to_dict(), sort_keys=True),
                result.ledger.total,
            )
        assert exports[1] == exports[8]


class TestKernelVsReferenceDirect:
    """Record-level identity on a bare emulator, including kill paths."""

    def _run(self, tmp_path, engine_cls, arrivals, *, store=None, **deploy):
        emulator = LambdaEmulator(
            keep_alive_s=deploy.pop("keep_alive_s", 60.0),
            faults=deploy.pop("faults", None),
        )
        builder = deploy.pop("builder", build_toy_torch_app)
        retry = deploy.pop("retry", None)
        bundle = builder(tmp_path / f"app-{engine_cls.__name__}")
        function = emulator.deploy(bundle, name="fn", **deploy)
        if engine_cls is KernelReplayer:
            replayer = KernelReplayer(emulator, store)
        else:
            replayer = TraceReplayer(emulator)
        replayer.replay("fn", list(arrivals), EVENT, retry=retry)
        assert function is emulator.function("fn")
        return emulator

    def _assert_identical(self, ref, ker):
        assert ref.log.records == ker.log.records
        assert ref.log.status_counts() == ker.log.status_counts()
        assert ref.log.billing_summary() == ker.log.billing_summary()
        assert ref.ledger.total == ker.ledger.total
        assert dict(ref.ledger.bills) == dict(ker.ledger.bills)

    def test_plain_replay_identical(self, tmp_path):
        arrivals = [i * 0.25 for i in range(60)]
        ref = self._run(tmp_path, TraceReplayer, arrivals)
        ker = self._run(tmp_path, KernelReplayer, arrivals)
        self._assert_identical(ref, ker)
        assert ker.log.status_counts().get("success", 0) > 0

    def test_timeout_kills_identical(self, tmp_path):
        # A timeout below the toy app's exec duration: every invocation
        # is killed, on both the capture and the synthesized path.
        arrivals = [i * 0.25 for i in range(40)]
        ref = self._run(tmp_path, TraceReplayer, arrivals, timeout_s=1e-6)
        ker = self._run(tmp_path, KernelReplayer, arrivals, timeout_s=1e-6)
        self._assert_identical(ref, ker)
        assert ref.log.status_counts().get("timeout", 0) == len(arrivals)

    def test_oom_kills_identical(self, tmp_path):
        # A memory config below the measured peak: the enforcement
        # ceiling OOM-kills instances, identically under both engines.
        arrivals = [i * 0.25 for i in range(40)]
        ref = self._run(
            tmp_path, TraceReplayer, arrivals, memory_mb=150, builder=build_fat_app
        )
        ker = self._run(
            tmp_path, KernelReplayer, arrivals, memory_mb=150, builder=build_fat_app
        )
        self._assert_identical(ref, ker)
        assert ref.log.status_counts().get("oom", 0) > 0

    def test_warm_pool_churn_identical(self, tmp_path):
        # Dense bursts grow the warm pool; the gaps between bursts
        # exceed keep-alive, so the whole pool expires and re-colds.
        # MRU reuse, expiry sweeps, and instance-id sequencing must all
        # match the reference engine exactly.
        # 0.05 s spacing sits below the cold-start latency (pool grows
        # while the first instances initialize) but above the warm
        # service time (later arrivals reuse the MRU instance).
        arrivals = []
        for burst in range(8):
            base = burst * 300.0
            arrivals.extend(base + i * 0.05 for i in range(40))
        ref = self._run(tmp_path, TraceReplayer, arrivals, keep_alive_s=30.0)
        ker = self._run(tmp_path, KernelReplayer, arrivals, keep_alive_s=30.0)
        self._assert_identical(ref, ker)
        cold = ref.log.status_counts()
        assert len(ref.log.cold_starts()) > 8, cold  # pool grew per burst
        assert len(ref.log.warm_starts()) > 0


@pytest.fixture
def general_path_only(monkeypatch):
    """Gate the columnar loop off, and shrink the general path's chunk so
    flush boundaries land inside every replay."""
    monkeypatch.setattr(kernel_mod, "HAVE_NUMPY", False)
    monkeypatch.setattr(kernel_mod, "_CHUNK_ROWS", 7)


@pytest.mark.usefixtures("general_path_only")
class TestGeneralPathVsReferenceFleet(TestKernelVsReferenceFleet):
    """The fleet parity suite again, on the general path only."""


@pytest.mark.usefixtures("general_path_only")
class TestGeneralPathVsReferenceDirect(TestKernelVsReferenceDirect):
    """The direct parity suite again, on the general path only."""


class TestBulkEmission:
    def test_chaos_fleet_never_takes_the_per_row_entry_points(
        self, tmp_path, monkeypatch
    ):
        # Crash faults, hosts, and retries keep every function on the
        # general path; its rows must still reach the log and the sink
        # through their bulk doors only.
        calls = {"append_row": 0, "observe_row": 0}
        for cls, name in (
            (ExecutionLog, "append_row"),
            (TelemetrySink, "observe_row"),
        ):
            original = getattr(cls, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cls, name, counted)
        bundle = build_toy_torch_app(tmp_path / "toy")
        trace = FleetTrace.generate_invocations(
            200, seed=21, max_per_function=120
        )
        result = replay_fleet(
            bundle,
            trace,
            EVENT,
            workers=1,
            faults=FaultPlan(
                seed=23,
                default=FaultRates(
                    throttle=0.05, exec_crash=0.05, cold_start_crash=0.05
                ),
            ),
            hosts=HostConfig(count=3, memory_mb=1024.0),
            retry=RetryPolicy(max_attempts=3, seed=5),
            log_dir=tmp_path / "logs",
        )
        counts = result.status_counts()
        assert counts.get("crashed", 0) > 0  # the fleet really is chaotic
        assert calls == {"append_row": 0, "observe_row": 0}


class TestPeakConcurrency:
    def test_empty_is_zero(self):
        assert peak_concurrency([], []) == 0

    @pytest.mark.parametrize(
        "arrivals, completions, expected",
        [
            ([0.0], [1.0], 1),
            ([0.0, 0.5, 1.0], [2.0, 2.0, 2.0], 3),
            # Departure ties arrival: the reference sweep drains the
            # departure first, so a back-to-back handoff does not stack.
            ([0.0, 1.0], [1.0, 2.0], 1),
            ([0.0, 0.0, 0.0], [0.0, 5.0, 5.0], 2),
            ([0.0, 1.0, 2.0, 3.0], [1.5, 2.5, 3.5, 4.5], 2),
        ],
    )
    def test_vectorized_matches_pure(self, arrivals, completions, expected):
        pure = peak_concurrency(arrivals, completions, vectorized=False)
        assert pure == expected
        numpy = pytest.importorskip("numpy", reason="vectorized path")
        assert numpy is not None
        assert peak_concurrency(arrivals, completions, vectorized=True) == pure

    def test_unsorted_input_is_handled(self):
        arrivals = [3.0, 0.0, 1.0, 2.0]
        completions = [4.5, 1.5, 2.5, 3.5]
        assert peak_concurrency(arrivals, completions, vectorized=False) == 2


class TestRejection:
    """Non-replayable workloads must be rejected, not silently diverge."""

    def _emulator(self, tmp_path, **deploy):
        emulator = LambdaEmulator()
        bundle = build_toy_torch_app(tmp_path / "toy")
        emulator.deploy(bundle, name="fn", **deploy)
        return emulator

    def test_context_is_rejected(self, tmp_path):
        emulator = self._emulator(tmp_path)
        with pytest.raises(PlatformError, match="cannot replay"):
            KernelReplayer(emulator).replay(
                "fn", [0.0], EVENT, context={"request": 1}
            )

    def test_snapstart_is_rejected(self, tmp_path):
        emulator = self._emulator(tmp_path, snapstart=True)
        with pytest.raises(PlatformError, match="cannot replay"):
            KernelReplayer(emulator).replay("fn", [0.0], EVENT)

    def test_non_json_event_is_rejected(self, tmp_path):
        emulator = self._emulator(tmp_path)
        with pytest.raises(PlatformError, match="cannot replay"):
            KernelReplayer(emulator).replay("fn", [0.0], {"x": {1, 2}})

    def test_replayer_is_bound_to_one_function(self, tmp_path):
        emulator = LambdaEmulator()
        bundle = build_toy_torch_app(tmp_path / "toy")
        emulator.deploy(bundle, name="a")
        emulator.deploy(bundle, name="b")
        replayer = KernelReplayer(emulator)
        replayer.replay("a", [0.0], EVENT)
        with pytest.raises(PlatformError, match="bound"):
            replayer.replay("b", [0.0], EVENT)

    def test_fleet_engine_auto_falls_back(self, tmp_path):
        # auto must quietly use the reference engine when the event is
        # not JSON-serializable (the set under "tag"); the handler only
        # reads "x"/"y", so the replay itself still succeeds.
        bundle = build_toy_torch_app(tmp_path / "toy")
        trace = FleetTrace.generate_invocations(40, seed=1, max_per_function=20)
        event = dict(EVENT, tag={1, 2})
        result = replay_fleet(bundle, trace, event, engine="auto", workers=1)
        assert result.delivered == result.arrivals

    def test_fleet_rejects_unknown_engine(self, tmp_path):
        bundle = build_toy_torch_app(tmp_path / "toy")
        trace = FleetTrace.generate_invocations(10, seed=1, max_per_function=5)
        with pytest.raises(PlatformError, match="engine"):
            replay_fleet(bundle, trace, EVENT, engine="warp")

    @pytest.mark.parametrize("engine", ["kernel", "vector"])
    def test_fleet_rejects_retired_engine_names(self, tmp_path, engine):
        bundle = build_toy_torch_app(tmp_path / "toy")
        trace = FleetTrace.generate_invocations(10, seed=1, max_per_function=5)
        with pytest.raises(PlatformError, match="expected auto or reference"):
            replay_fleet(bundle, trace, EVENT, engine=engine)


class TestTemplateStoreSharing:
    def test_store_is_shared_across_functions(self, tmp_path):
        # One shard-level store: capture runs once for the bundle+event
        # pair, every sibling function synthesizes from the start.
        emulators = []
        store = TemplateStore()
        bundle = build_toy_torch_app(tmp_path / "toy")
        for name in ("a", "b"):
            emulator = LambdaEmulator()
            emulator.deploy(bundle, name=name)
            KernelReplayer(emulator, store).replay(
                name, [i * 0.5 for i in range(10)], EVENT
            )
            emulators.append(emulator)
        key = TemplateStore.key_for(
            emulators[0].function("a"), EVENT, None
        )
        entry = store.entry(key)
        assert entry.ready
        # Both functions billed identically off the shared templates.
        assert (
            emulators[0].ledger.bills["a"].invocation_cost
            == emulators[1].ledger.bills["b"].invocation_cost
        )
