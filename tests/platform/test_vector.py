"""The fast engine's columnar loop must be unobservable except in wall-clock time.

:class:`~repro.platform.kernel.KernelReplayer` serves a homogeneous,
retry-free run on its numpy columnar loop from the first arrival, and
everything else on the general path.  This suite pins that choice on
the parity workloads of ``tests/platform/test_kernel.py``:
each test asserts which loop served the run, with the columnar loop's
flush size shrunk so flush boundaries land inside every columnar run, and
that the exports — logs, ledgers, telemetry, stats — stay
**byte-identical** to the reference
:class:`~repro.platform.replay.TraceReplayer`, to the general path, and
across worker counts.  Plus the engine plumbing: ``auto`` without numpy,
one replayer serving several functions, and every columnar cold start
served by the emulator's own cold start.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.attribution import AttributionStore
from repro.platform import LambdaEmulator, replay_fleet
from repro.platform import kernel as kernel_mod
from repro.platform.faults import FaultPlan, FaultRates
from repro.platform.hosts import HostConfig
from repro.platform.kernel import KernelReplayer
from repro.platform.replay import TraceReplayer
from repro.platform.retry import RetryPolicy
from repro.traces import FleetTrace
from repro.workloads.toy import build_toy_torch_app

from .test_kernel import EVENT, _fleet_exports, build_fat_app

needs_numpy = pytest.mark.skipif(
    not kernel_mod.HAVE_NUMPY, reason="the columnar loop requires numpy"
)


@pytest.fixture
def columnar(monkeypatch):
    """Record the arrival count of every run the columnar loop serves,
    flushing its columns every five rows."""
    runs = []
    run_columnar = KernelReplayer._run_columnar

    def spy(self, arrivals, *rest):
        runs.append(len(arrivals))
        return run_columnar(self, arrivals, *rest)

    monkeypatch.setattr(KernelReplayer, "_run_columnar", spy)
    monkeypatch.setattr(kernel_mod, "_FLUSH_ROWS", 5)
    return runs


@needs_numpy
class TestVectorVsReferenceFleet:
    """Property: the columnar loop is unobservable in every export."""

    @pytest.mark.parametrize("seed", [3, 11, 2025])
    def test_exports_byte_identical_across_seeds(self, tmp_path, columnar, seed):
        bundle = build_toy_torch_app(tmp_path / "toy")
        trace = FleetTrace.generate_invocations(
            300, seed=seed, max_per_function=200
        )
        fast = _fleet_exports(bundle, trace, tmp_path, "auto", workers=1)
        assert columnar
        reference = _fleet_exports(bundle, trace, tmp_path, "reference")
        assert fast["log"] == reference["log"]
        assert fast["report"] == reference["report"]
        assert fast["ledger"] == reference["ledger"]
        assert fast["stats"] == reference["stats"]

    def test_vector_matches_kernel_exactly(
        self, tmp_path, columnar, monkeypatch
    ):
        # The two loops agree with each other on the same fleet, not just
        # each separately with the reference.
        bundle = build_toy_torch_app(tmp_path / "toy")
        trace = FleetTrace.generate_invocations(
            300, seed=11, max_per_function=200
        )
        vector = _fleet_exports(
            bundle, trace, tmp_path / "vector", "auto", workers=1
        )
        assert columnar
        monkeypatch.setattr(kernel_mod, "HAVE_NUMPY", False)
        runs = len(columnar)
        kernel = _fleet_exports(
            bundle, trace, tmp_path / "kernel", "auto", workers=1
        )
        assert len(columnar) == runs
        assert vector == kernel

    def test_chaos_with_retries_byte_identical(self, tmp_path, columnar):
        # Crash rates and retries keep every function off the columnar
        # loop; the general path must still be byte-identical end to end.
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
        fast = _fleet_exports(
            bundle, trace, tmp_path, "auto", faults=plan, retry=retry, workers=1
        )
        reference = _fleet_exports(
            bundle, trace, tmp_path, "reference", faults=plan, retry=retry
        )
        assert columnar == []
        assert fast["log"] == reference["log"]
        assert fast["report"] == reference["report"]
        assert fast["ledger"] == reference["ledger"]
        assert fast["stats"] == reference["stats"]
        counts = fast["status_counts"]
        assert sum(counts.values()) > counts.get("success", 0)

    def test_hosts_fleet_falls_back_byte_identical(self, tmp_path, columnar):
        # A host pool threads per-invocation placement state through the
        # serve, so the columnar loop must disqualify itself — and the
        # general path must still match the reference.
        bundle = build_toy_torch_app(tmp_path / "toy")
        trace = FleetTrace.generate_invocations(
            200, seed=9, max_per_function=120
        )
        hosts = HostConfig(count=3, memory_mb=1024.0)
        fast = _fleet_exports(
            bundle, trace, tmp_path, "auto", hosts=hosts, workers=1
        )
        reference = _fleet_exports(
            bundle, trace, tmp_path, "reference", hosts=hosts
        )
        assert columnar == []
        assert fast["log"] == reference["log"]
        assert fast["report"] == reference["report"]
        assert fast["ledger"] == reference["ledger"]

    def test_worker_count_unobservable_with_vector(self, tmp_path, columnar):
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
        # Only the one-worker replay runs in this process.
        assert columnar
        assert exports[1] == exports[8]


@needs_numpy
class TestVectorVsReferenceDirect:
    """Record-level identity on a bare emulator, including kill paths."""

    def _run(self, tmp_path, engine_cls, arrivals, **deploy):
        emulator = LambdaEmulator(
            keep_alive_s=deploy.pop("keep_alive_s", 60.0),
            faults=deploy.pop("faults", None),
        )
        builder = deploy.pop("builder", build_toy_torch_app)
        retry = deploy.pop("retry", None)
        bundle = builder(tmp_path / f"app-{engine_cls.__name__}")
        emulator.deploy(bundle, name="fn", **deploy)
        if engine_cls is TraceReplayer:
            replayer = TraceReplayer(emulator)
        else:
            replayer = engine_cls(emulator, None)
        replayer.replay("fn", list(arrivals), EVENT, retry=retry)
        return emulator

    def _assert_identical(self, ref, vec):
        assert ref.log.records == vec.log.records
        assert ref.log.status_counts() == vec.log.status_counts()
        assert ref.log.billing_summary() == vec.log.billing_summary()
        assert ref.ledger.total == vec.ledger.total
        assert dict(ref.ledger.bills) == dict(vec.ledger.bills)

    def test_plain_replay_identical(self, tmp_path, columnar):
        arrivals = [i * 0.25 for i in range(60)]
        ref = self._run(tmp_path, TraceReplayer, arrivals)
        vec = self._run(tmp_path, KernelReplayer, arrivals)
        assert columnar
        self._assert_identical(ref, vec)
        assert vec.log.status_counts().get("success", 0) > 0

    def test_vector_matches_scalar_kernel_directly(
        self, tmp_path, columnar, monkeypatch
    ):
        arrivals = [i * 0.25 for i in range(60)]
        vec = self._run(tmp_path / "vector", KernelReplayer, arrivals)
        assert columnar
        monkeypatch.setattr(kernel_mod, "HAVE_NUMPY", False)
        runs = len(columnar)
        ker = self._run(tmp_path / "kernel", KernelReplayer, arrivals)
        assert len(columnar) == runs
        self._assert_identical(ker, vec)

    def test_timeout_kills_identical(self, tmp_path, columnar):
        # A timeout below the toy app's exec duration: every invocation
        # is killed; the timeout ladder is per-spec math in the columnar
        # loop, so the kill columns must still match row for row.
        arrivals = [i * 0.25 for i in range(40)]
        ref = self._run(tmp_path, TraceReplayer, arrivals, timeout_s=1e-6)
        vec = self._run(tmp_path, KernelReplayer, arrivals, timeout_s=1e-6)
        assert columnar
        self._assert_identical(ref, vec)
        assert ref.log.status_counts().get("timeout", 0) == len(arrivals)

    def test_oom_kills_identical(self, tmp_path, columnar):
        # Every instance is OOM-killed at its cold start and never serves
        # warm; the warm tape comes from the scratch capture, so the
        # columnar loop serves the whole run.
        arrivals = [i * 0.25 for i in range(40)]
        ref = self._run(
            tmp_path, TraceReplayer, arrivals, memory_mb=150, builder=build_fat_app
        )
        vec = self._run(
            tmp_path, KernelReplayer, arrivals, memory_mb=150, builder=build_fat_app
        )
        assert columnar == [len(arrivals)]
        self._assert_identical(ref, vec)
        assert ref.log.status_counts().get("oom", 0) > 0

    def test_outcome_table_keyed_by_settings(self, tmp_path, columnar):
        # One bundle on one emulator under four settings, replayed through
        # one TemplateStore: the outcome table is shared per template and
        # settings, so each setting that enters an entry must key it, and
        # the repeated plain setting must reuse the first one's table.
        bundle = build_toy_torch_app(tmp_path / "toy")
        settings = {
            "plain": {},
            "big": {"memory_mb": 1024},
            "timeout": {"timeout_s": 1e-6},
            "plain-again": {},
        }
        arrivals = [i * 0.25 for i in range(30)]
        store = kernel_mod.TemplateStore()
        emulators = []
        for engine in ("reference", "columnar"):
            emulator = LambdaEmulator(keep_alive_s=60.0)
            for name, deploy in settings.items():
                emulator.deploy(bundle, name=name, **deploy)
                if engine == "reference":
                    TraceReplayer(emulator).replay(name, list(arrivals), EVENT)
                else:
                    KernelReplayer(emulator, store).replay(
                        name, list(arrivals), EVENT
                    )
            emulators.append(emulator)
        ref, vec = emulators
        assert columnar == [len(arrivals)] * len(settings)
        self._assert_identical(ref, vec)
        assert ref.log.status_counts().get("timeout", 0) == len(arrivals)
        key = kernel_mod.TemplateStore.key_for(vec.function("plain"), EVENT, None)
        assert len(store.entry(key).tables) == 3

    def test_warm_pool_churn_identical(self, tmp_path, columnar):
        # Dense bursts grow the warm pool; the gaps between bursts
        # exceed keep-alive, so the whole pool expires and re-colds.
        # MRU reuse, expiry sweeps, and instance-id sequencing (the
        # run-length instance runs of the columnar loop) must all match
        # exactly.
        arrivals = []
        for burst in range(8):
            base = burst * 300.0
            arrivals.extend(base + i * 0.05 for i in range(40))
        ref = self._run(tmp_path, TraceReplayer, arrivals, keep_alive_s=30.0)
        vec = self._run(tmp_path, KernelReplayer, arrivals, keep_alive_s=30.0)
        assert columnar
        self._assert_identical(ref, vec)
        assert len(ref.log.cold_starts()) > 8  # pool grew per burst
        assert len(ref.log.warm_starts()) > 0


@needs_numpy
class TestColumnarColdStarts:
    """Every cold start the columnar loop serves is the emulator's own."""

    @pytest.fixture
    def cold_starts(self, monkeypatch):
        """Record the function name of every emulator cold start."""
        calls = []
        cold_start = LambdaEmulator._cold_start

        def spy(self, function, *rest):
            calls.append(function.name)
            return cold_start(self, function, *rest)

        monkeypatch.setattr(LambdaEmulator, "_cold_start", spy)
        return calls

    def test_cold_starts_go_through_the_emulator(
        self, tmp_path, columnar, cold_starts
    ):
        # Two gaps past keep-alive: three cold starts, four warm hits,
        # and one attribution profile per cold start.
        store = AttributionStore()
        emulator = LambdaEmulator(keep_alive_s=60.0, attribution=store)
        emulator.deploy(build_toy_torch_app(tmp_path / "toy"), name="fn")
        arrivals = [0.0, 5.0, 10.0, 15.0, 300.0, 305.0, 600.0]
        result = KernelReplayer(emulator).replay("fn", arrivals, EVENT)
        assert columnar == [len(arrivals)]
        assert (result.cold_starts, result.warm_starts) == (3, 4)
        assert cold_starts == ["fn"] * result.cold_starts
        assert len(store) == result.cold_starts

    def test_oom_cold_starts_go_through_the_emulator(
        self, tmp_path, columnar, cold_starts
    ):
        # Every instance dies at its cold start, so every arrival is one.
        emulator = LambdaEmulator(keep_alive_s=60.0)
        emulator.deploy(build_fat_app(tmp_path / "fat"), name="fn", memory_mb=150)
        arrivals = [i * 0.25 for i in range(12)]
        result = KernelReplayer(emulator).replay("fn", arrivals, EVENT)
        assert columnar == [len(arrivals)]
        assert result.cold_starts == len(arrivals)
        assert len(cold_starts) == len(arrivals)
        assert emulator.function("fn").instances == []


class TestVectorEngineSelection:
    """Engine plumbing: the no-numpy gate and several functions per replayer."""

    def test_fleet_engine_auto_degrades_without_numpy(
        self, tmp_path, monkeypatch
    ):
        # Without numpy auto still serves every replayable function on the
        # fast engine's general path — same exports, no error.
        monkeypatch.setattr(kernel_mod, "HAVE_NUMPY", False)
        bundle = build_toy_torch_app(tmp_path / "toy")
        trace = FleetTrace.generate_invocations(
            40, seed=1, max_per_function=20
        )
        result = replay_fleet(bundle, trace, EVENT, engine="auto", workers=1)
        assert result.delivered == result.arrivals

    @needs_numpy
    def test_one_replayer_replays_several_functions(self, tmp_path, columnar):
        # A run the columnar loop served leaves nothing behind that
        # changes the next function's replay on the same replayer.
        bundle = build_toy_torch_app(tmp_path / "toy")
        exports = []
        for shared in (True, False):
            emulator = LambdaEmulator()
            replayer = KernelReplayer(emulator)
            for name, count in (("a", 20), ("b", 12)):
                emulator.deploy(bundle, name=name)
                engine = replayer if shared else KernelReplayer(emulator)
                engine.replay(name, [i * 0.25 for i in range(count)], EVENT)
            exports.append((emulator.log.records, dict(emulator.ledger.bills)))
        assert columnar == [20, 12, 20, 12]
        assert exports[0] == exports[1]
