"""The fast engine's columnar loop must be unobservable except in wall-clock time.

:class:`~repro.platform.kernel.KernelReplayer` hands a homogeneous,
retry-free run to its numpy columnar loop once the template is captured,
and serves everything else on the general path.  This suite pins that
hand-off on the parity workloads of ``tests/platform/test_kernel.py``:
each test asserts which loop served the run, with the columnar loop's
flush size shrunk so flush boundaries land inside every columnar run, and
that the exports — logs, ledgers, telemetry, stats — stay
**byte-identical** to the reference
:class:`~repro.platform.replay.TraceReplayer`, to the general path, and
across worker counts.  Plus the engine plumbing: ``auto`` without numpy
and a replayer bound to one function.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import PlatformError
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
    """Record the start index of every run the columnar loop takes over,
    flushing its columns every five rows."""
    runs = []
    run_columnar = KernelReplayer._run_columnar

    def spy(self, arrivals, index, *rest):
        runs.append(index)
        return run_columnar(self, arrivals, index, *rest)

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
        # warm, so no warm tape is captured and the general path serves
        # the whole run.
        arrivals = [i * 0.25 for i in range(40)]
        ref = self._run(
            tmp_path, TraceReplayer, arrivals, memory_mb=150, builder=build_fat_app
        )
        vec = self._run(
            tmp_path, KernelReplayer, arrivals, memory_mb=150, builder=build_fat_app
        )
        assert columnar == []
        self._assert_identical(ref, vec)
        assert ref.log.status_counts().get("oom", 0) > 0

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


class TestVectorEngineSelection:
    """Engine plumbing: the no-numpy gate and one function per replayer."""

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
    def test_replayer_is_bound_to_one_function(self, tmp_path, columnar):
        # Binding survives a run the columnar loop took over.
        emulator = LambdaEmulator()
        bundle = build_toy_torch_app(tmp_path / "toy")
        emulator.deploy(bundle, name="a")
        emulator.deploy(bundle, name="b")
        replayer = KernelReplayer(emulator)
        replayer.replay("a", [i * 0.25 for i in range(20)], EVENT)
        assert columnar
        with pytest.raises(PlatformError, match="bound"):
            replayer.replay("b", [0.0], EVENT)
