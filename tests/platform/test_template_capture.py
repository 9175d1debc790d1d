"""Template capture: the fast engine's only contact with application code.

:class:`~repro.platform.kernel.TemplateStore` captures each ``(bundle,
event)`` pair once, on a scratch instance, before the first arrival.
This suite pins what follows from that:

* a pair whose capture fails verification — a handler whose return value
  changes between invocations, or one that frees memory it allocated —
  or whose bundle fails to initialize is refused by
  :class:`~repro.platform.kernel.KernelReplayer` and served by the
  reference engine under ``engine="auto"``, with the reference engine's
  exports and errors;
* the capture never makes a fleet raise before an arrival reaches a cold
  start (a total outage throttles every arrival first);
* a kernel replay loads the application exactly once per pair and store,
  however many cold starts it serves.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bundle import AppBundle, BundleManifest
from repro.core.execution import LoadedApp
from repro.errors import InvocationError, PlatformError
from repro.platform import LambdaEmulator, replay_fleet
from repro.platform.faults import FaultPlan, Outage
from repro.platform.kernel import KernelReplayer, TemplateStore
from repro.platform.replay import TraceReplayer
from repro.traces import FleetTrace
from repro.workloads.toy import build_toy_torch_app

from .test_kernel import EVENT, _fleet_exports, build_fat_app

#: Returns a module-level counter: the two warm values differ.
COUNTER = (
    "calls = 0\n\n\n"
    "def handler(event, context):\n"
    "    global calls\n"
    "    calls += 1\n"
    "    return {'calls': calls}\n"
)
#: Frees what it allocated: the memory deltas miss the live footprint.
FREES_MEMORY = (
    "from repro.vm import exec_cost, free_cost\n\n\n"
    "def handler(event, context):\n"
    "    exec_cost('scratch', time_s=0.01, memory_mb=5.0)\n"
    "    free_cost('scratch')\n"
    "    return {'ok': True}\n"
)
#: Fails Function Initialization.
BROKEN_INIT = "raise RuntimeError('no such model')\n"


def build_handler_app(root: Path, source: str) -> AppBundle:
    """A dependency-free bundle whose handler module is *source*."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "handler.py").write_text(source, encoding="utf-8")
    bundle = AppBundle(root)
    bundle.write_manifest(
        BundleManifest(
            name="handler-app", image_size_mb=1.0, platform_overhead_s=0.1
        )
    )
    return bundle


@pytest.fixture
def engines(monkeypatch):
    """Count the replays each engine serves."""
    calls = {"kernel": 0, "reference": 0}
    for engine, cls in (("kernel", KernelReplayer), ("reference", TraceReplayer)):
        original = cls.replay

        def spy(self, *args, _engine=engine, _original=original, **kwargs):
            calls[_engine] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "replay", spy)
    return calls


@pytest.fixture
def loads(monkeypatch):
    """Record the bundle root of every application load."""
    roots = []
    original = LoadedApp.load

    def spy(self):
        roots.append(self.bundle.root)
        return original(self)

    monkeypatch.setattr(LoadedApp, "load", spy)
    return roots


TRACE = FleetTrace.generate_invocations(60, seed=4, max_per_function=30)


@pytest.mark.parametrize(
    "source", [COUNTER, FREES_MEMORY], ids=["changing-value", "frees-memory"]
)
class TestUnverifiableTemplate:
    def test_auto_fleet_is_the_reference_fleet(self, tmp_path, engines, source):
        bundle = build_handler_app(tmp_path / "app", source)
        auto = _fleet_exports(bundle, TRACE, tmp_path, "auto", workers=1)
        assert engines == {"kernel": 0, "reference": len(TRACE)}
        reference = _fleet_exports(bundle, TRACE, tmp_path, "reference", workers=1)
        assert auto["log"] == reference["log"]
        assert auto["report"] == reference["report"]
        assert auto["ledger"] == reference["ledger"]
        assert auto["stats"] == reference["stats"]

    def test_kernel_refuses_it(self, tmp_path, source):
        bundle = build_handler_app(tmp_path / "app", source)
        emulator = LambdaEmulator()
        emulator.deploy(bundle, name="fn")
        with pytest.raises(PlatformError, match="cannot replay"):
            KernelReplayer(emulator).replay("fn", [0.0, 1.0, 2.0], EVENT)
        assert len(emulator.log) == 0


class TestBundleThatFailsToInitialize:
    def test_kernel_refuses_it(self, tmp_path):
        bundle = build_handler_app(tmp_path / "app", BROKEN_INIT)
        emulator = LambdaEmulator()
        emulator.deploy(bundle, name="fn")
        with pytest.raises(PlatformError, match="cannot replay"):
            KernelReplayer(emulator).replay("fn", [0.0], EVENT)

    @pytest.mark.parametrize("engine", ["auto", "reference"])
    def test_fleet_raises_at_the_first_cold_start(self, tmp_path, engines, engine):
        bundle = build_handler_app(tmp_path / "app", BROKEN_INIT)
        with pytest.raises(InvocationError, match="failed to initialize"):
            replay_fleet(bundle, TRACE, EVENT, engine=engine, workers=1)
        assert engines["kernel"] == 0

    def test_total_outage_never_reaches_a_cold_start(self, tmp_path):
        bundle = build_handler_app(tmp_path / "app", BROKEN_INIT)
        outage = FaultPlan(seed=1, outages=(Outage(0.0, 1e12),))
        auto = _fleet_exports(bundle, TRACE, tmp_path, "auto", faults=outage)
        reference = _fleet_exports(
            bundle, TRACE, tmp_path, "reference", faults=outage
        )
        assert auto == reference
        assert auto["status_counts"] == {"throttled": TRACE.invocations}


class TestKernelLoadsOncePerTemplate:
    """A kernel replay runs the application only to capture its template."""

    def test_oom_killed_cold_starts(self, tmp_path, loads):
        # Every cold start is OOM-killed, so no instance ever serves warm.
        emulator = LambdaEmulator(keep_alive_s=60.0)
        emulator.deploy(build_fat_app(tmp_path / "fat"), name="fn", memory_mb=150)
        KernelReplayer(emulator).replay("fn", [i * 0.25 for i in range(40)], EVENT)
        assert emulator.log.status_counts() == {"oom": 40}
        assert len(loads) == 1

    def test_burst_of_cold_starts_at_time_zero(self, tmp_path, loads):
        bundle = build_toy_torch_app(tmp_path / "toy")
        arrivals = [0.0] * 10 + [1.0 + i * 0.5 for i in range(20)]
        emulator = LambdaEmulator()
        emulator.deploy(bundle, name="fn")
        KernelReplayer(emulator).replay("fn", arrivals, EVENT)
        assert len(emulator.log.cold_starts()) >= 10
        assert len(loads) == 1

    def test_functions_sharing_a_store_load_once(self, tmp_path, loads):
        bundle = build_toy_torch_app(tmp_path / "toy")
        store = TemplateStore()
        for name in ("a", "b"):
            emulator = LambdaEmulator()
            emulator.deploy(bundle, name=name)
            KernelReplayer(emulator, store).replay(
                name, [i * 5.0 for i in range(10)], EVENT
            )
        assert loads == [bundle.root]


class TestSecondReplayerOnOneFunction:
    """Each kernel replay serves only the shadows it creates, so it refuses
    a function an earlier replay left warm; the reference engine's pool
    adopts the instances its earlier replay left warm."""

    def test_kernel_refuses_reuse(self, tmp_path):
        bundle = build_toy_torch_app(tmp_path / "toy")
        runs = ([i * 0.5 for i in range(10)], [10.0 + i * 0.5 for i in range(10)])

        kernel = LambdaEmulator()
        kernel.deploy(bundle, name="fn")
        KernelReplayer(kernel).replay("fn", runs[0], EVENT)
        rows = len(kernel.log)
        with pytest.raises(PlatformError, match="kernel cannot replay 'fn'"):
            KernelReplayer(kernel).replay("fn", runs[1], EVENT)
        assert len(kernel.log) == rows

        reference = LambdaEmulator()
        reference.deploy(bundle, name="fn")
        replayer = TraceReplayer(reference)
        for arrivals in runs:
            replayer.replay("fn", arrivals, EVENT)
        assert len(reference.log.warm_starts()) > 10  # the second run reused them
