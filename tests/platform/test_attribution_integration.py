"""Cost attribution through the platform: emulator, kernel, fleet, SLOs.

Pins the three tentpole invariants end to end:

* every emulated cold start yields a profile whose rows sum bit-exactly
  to the record's billed cost, and the store total matches the execution
  log's cold-start cost accumulator;
* attribution is **unobservable** in the deterministic exports — kernel
  vs reference engines and 1 vs 8 workers produce byte-identical profile
  dumps (and byte-identical telemetry, attribution on or off);
* SLO breaches carry exemplar invocation ids that resolve to profiles,
  powering the dashboard drill-down.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.dashboard import render_dashboard
from repro.obs.attribution import AttributionStore
from repro.platform import LambdaEmulator, SloRule, TraceReplayer
from repro.platform.faults import FaultPlan, FaultRates
from repro.platform.fleet import replay_fleet
from repro.platform.kernel import KernelReplayer
from repro.platform.logs import StartType
from repro.traces import FleetTrace
from repro.workloads.toy import build_toy_torch_app

EVENT = {"x": [1.0, 2.0], "y": [3.0, 4.0]}


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    return build_toy_torch_app(tmp_path_factory.mktemp("attr") / "toy")


class TestEmulatorAttribution:
    def test_every_cold_start_is_profiled_float_exactly(self, bundle):
        store = AttributionStore()
        emulator = LambdaEmulator(attribution=store, keep_alive_s=30.0)
        emulator.deploy(bundle, name="fn")
        # Two cold starts (keep-alive expiry) and a warm invocation.
        emulator.invoke("fn", EVENT)
        emulator.invoke("fn", EVENT)
        emulator.clock.advance(60.0)
        emulator.invoke("fn", EVENT)

        cold = [r for r in emulator.log if r.start_type is StartType.COLD]
        assert len(store) == len(cold) == 2
        for record in cold:
            profile = store.find("fn", record.request_id)
            assert profile is not None
            assert profile.attributed_usd == record.cost_usd
            assert profile.module_entries()  # real imports were metered
        assert store.total_cost_usd() == emulator.log.cold_start_cost_usd("fn")

    def test_warm_invocations_are_not_profiled(self, bundle):
        store = AttributionStore()
        emulator = LambdaEmulator(attribution=store)
        emulator.deploy(bundle, name="fn")
        emulator.invoke("fn", EVENT)
        for _ in range(5):
            emulator.invoke("fn", EVENT)
        assert len(store) == 1

    def test_snapstart_profiles_are_exact_with_free_modules(self, bundle):
        store = AttributionStore()
        emulator = LambdaEmulator(attribution=store)
        emulator.deploy(bundle, name="snap", snapstart=True)
        record = emulator.invoke("snap", EVENT)
        profile = store.find("snap", record.request_id)
        assert profile is not None
        assert profile.attributed_usd == record.cost_usd
        # Restore replaced billed init: module rows are informational.
        assert all(e.usd == 0.0 for e in profile.module_entries())
        assert any(e.label == "(restore)" for e in profile.entries)

    def test_cold_crash_profiles_are_exact_without_execution(self, bundle):
        store = AttributionStore()
        plan = FaultPlan(seed=5, default=FaultRates(cold_start_crash=1.0))
        emulator = LambdaEmulator(attribution=store, faults=plan)
        emulator.deploy(bundle, name="fn")
        record = emulator.invoke("fn", EVENT)
        assert record.status.value == "crashed"
        profile = store.find("fn", record.request_id)
        assert profile is not None
        assert profile.attributed_usd == record.cost_usd
        assert all(e.label != "(execution)" for e in profile.entries)


class TestEnginesAgree:
    def _dump(self, tmp_path, engine, arrivals, faults=None):
        store = AttributionStore()
        emulator = LambdaEmulator(
            attribution=store, keep_alive_s=60.0, faults=faults
        )
        bundle = build_toy_torch_app(tmp_path / f"app-{engine}")
        emulator.deploy(bundle, name="fn")
        if engine == "kernel":
            KernelReplayer(emulator).replay("fn", list(arrivals), EVENT)
        else:
            TraceReplayer(emulator).replay("fn", list(arrivals), EVENT)
        assert store.total_cost_usd() == emulator.log.cold_start_cost_usd("fn")
        return "\n".join(store.dump_lines())

    def test_kernel_and_reference_profiles_byte_identical(self, tmp_path):
        # Gaps beyond keep-alive force synthesized cold starts mid-replay.
        arrivals = [0.0, 0.5, 1.0, 300.0, 300.5, 600.0]
        assert self._dump(tmp_path, "reference", arrivals) == self._dump(
            tmp_path, "kernel", arrivals
        )

    def test_crashed_cold_start_profiles_byte_identical(self, tmp_path):
        # Cold starts that die in init (no execution row) and in exec.
        plan = FaultPlan(
            seed=7, default=FaultRates(cold_start_crash=0.3, exec_crash=0.3)
        )
        arrivals = [i * 120.0 for i in range(12)]
        reference = self._dump(tmp_path, "reference", arrivals, plan)
        assert reference == self._dump(tmp_path, "kernel", arrivals, plan)
        assert '"(execution)"' in reference


class TestFleetAttribution:
    @pytest.fixture(scope="class")
    def runs(self, bundle, tmp_path_factory):
        root = tmp_path_factory.mktemp("fleet-attr")
        trace = FleetTrace.generate_invocations(150, seed=13, max_per_function=60)
        results = {}
        for workers in (1, 8):
            results[workers] = replay_fleet(
                bundle,
                trace,
                EVENT,
                workers=workers,
                profile_dir=root / f"profiles-{workers}",
                merged_profiles=root / f"merged-{workers}.jsonl",
                slos=[SloRule(name="cold", metric="cold_e2e_p99", threshold=0.01)],
            )
        return results

    def test_merged_profiles_byte_identical_across_workers(self, runs):
        assert (
            runs[1].merged_profiles.read_bytes()
            == runs[8].merged_profiles.read_bytes()
        )

    def test_telemetry_export_identical_with_attribution_on(self, runs):
        exports = {
            w: json.dumps(r.report.to_dict(), sort_keys=True)
            for w, r in runs.items()
        }
        assert exports[1] == exports[8]

    def test_profiles_cover_every_cold_start(self, runs):
        result = runs[1]
        store = AttributionStore.load_jsonl(result.merged_profiles)
        assert len(store) == sum(s.cold_starts for s in result.stats.values())
        assert store.total_cost_usd() > 0

    def test_breaches_carry_exemplars_that_resolve_to_profiles(self, runs):
        result = runs[1]
        assert result.report.breaches  # 10ms cold p99 always breaches
        store = AttributionStore.load_jsonl(result.merged_profiles)
        resolved = 0
        for breach in result.report.breaches:
            assert breach.exemplars
            for ref in breach.exemplars:
                function, _, request_id = ref.partition("/")
                if store.find(function, request_id) is not None:
                    resolved += 1
        assert resolved > 0

    def test_exemplars_survive_export_round_trip(self, runs, tmp_path):
        path = tmp_path / "report.json"
        runs[1].report.save(path)
        from repro.platform.telemetry import FleetReport

        reloaded = FleetReport.load(path)
        originals = [b.exemplars for b in runs[1].report.breaches]
        assert [b.exemplars for b in reloaded.breaches] == originals

    def test_dashboard_drills_down_to_modules(self, runs):
        store = AttributionStore.load_jsonl(runs[1].merged_profiles)
        rendered = render_dashboard(runs[1].report, profiles=store)
        assert "worst:" in rendered
        assert "top modules:" in rendered
        # Without profiles the refs still render, minus the drill-down.
        plain = render_dashboard(runs[1].report)
        assert "worst:" in plain
        assert "top modules:" not in plain
