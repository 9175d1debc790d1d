"""Host failure domains: the 10k-invocation chaos acceptance scenario.

An Azure-style fleet replays onto memory-constrained hosts while one host
crashes and another is reclaimed as spot capacity.  The properties pinned
down here:

* nothing is silently lost — every arrival is delivered or dead-lettered;
* the billing ledger reconciles float-exactly against the merged log;
* the kernel and reference engines produce byte-identical exports;
* worker count (1 vs 8) is unobservable in every export, including the
  dead-letter JSONL;
* debloated bundles reserve less memory and therefore suffer measurably
  fewer memory-pressure evictions than their bloated originals.
"""

from __future__ import annotations

import json

import pytest

from repro.bundle import AppBundle
from repro.core.pipeline import LambdaTrim, TrimConfig
from repro.platform import (
    FaultPlan,
    FaultRates,
    HostConfig,
    HostFault,
    LambdaEmulator,
    RetryPolicy,
    replay_fleet,
)
from repro.traces import FleetTrace
from repro.workloads.toy import build_toy_torch_app

EVENT = {"x": [1.0, 2.0], "y": [3.0, 4.0]}

# A tight retry budget against ~10% transient faults: most arrivals
# deliver, but a measurable tail exhausts both attempts and dead-letters.
RETRY = RetryPolicy(
    max_attempts=2, base_delay_s=0.5, max_delay_s=30.0, jitter=0.25, seed=5
)

PLAN = FaultPlan(
    seed=7,
    default=FaultRates(throttle=0.05, exec_crash=0.05),
    host_faults=(
        HostFault(at_s=600.0, kind="crash", host=0),
        HostFault(at_s=1800.0, kind="spot", host=1),
    ),
)

HOSTS = HostConfig(count=3, memory_mb=320.0)


@pytest.fixture(scope="module")
def toy_bundles(tmp_path_factory):
    """(original, trimmed) toy bundles, built once for the module."""
    root = tmp_path_factory.mktemp("host-chaos-bundles")
    original = build_toy_torch_app(root / "toy")
    LambdaTrim(TrimConfig(k=5)).run(original, root / "trimmed")
    return original, AppBundle(root / "trimmed")


@pytest.fixture(scope="module")
def chaos_runs(toy_bundles, tmp_path_factory):
    """The fleet under host chaos: both engines, 1 and 8 workers."""
    original, _ = toy_bundles
    trace = FleetTrace.generate_invocations(
        10_000, seed=11, max_per_function=1500
    )
    total = sum(t.invocations for t in trace.traces)
    assert total >= 10_000
    root = tmp_path_factory.mktemp("host-chaos")
    runs = {}
    for key, engine, workers in (
        ("kernel-1", "auto", 1),
        ("kernel-8", "auto", 8),
        ("reference-1", "reference", 1),
    ):
        runs[key] = replay_fleet(
            original,
            trace,
            EVENT,
            workers=workers,
            retry=RETRY,
            faults=PLAN,
            hosts=HOSTS,
            engine=engine,
            log_dir=root / f"logs-{key}",
            merged_log=root / f"merged-{key}.jsonl",
            dead_letters=root / f"dead-{key}.jsonl",
        )
    return trace, total, runs, root


class TestHostChaosAcceptance:
    def test_zero_lost_invocations(self, chaos_runs):
        _, total, runs, _ = chaos_runs
        for key, result in runs.items():
            stats = result.stats
            assert sum(s.arrivals for s in stats.values()) == total, key
            for name, s in stats.items():
                assert s.delivered + s.dead_letters == s.arrivals, (key, name)

    def test_hosts_actually_failed(self, chaos_runs):
        _, _, runs, _ = chaos_runs
        for key, result in runs.items():
            totals = result.report.meta["hosts"]
            assert totals["host_crashes"] > 0, key
            assert totals["spot_reclaims"] > 0, key
            assert totals["instances_lost"] > 0, key
            assert totals["placements"] > 0, key
            # Per-function pools never contend across functions, so
            # memory-pressure evictions cannot fire here (see
            # docs/robustness.md); the shared-pool scenario below covers
            # them.
            assert totals["evictions"] == 0, key

    def test_host_losses_reach_telemetry_windows(self, chaos_runs):
        _, _, runs, _ = chaos_runs
        report = runs["kernel-1"].report
        rollups = report.rollups()
        assert sum(w.host_losses for w in rollups) > 0
        assert max(w.host_util_peak for w in rollups) > 0.0

    def test_ledger_reconciles_and_totals_match(self, chaos_runs):
        # Every worker already reconciled its ledger float-exactly before
        # the merge; here we pin the merged totals across runs.
        _, _, runs, _ = chaos_runs
        totals = {key: r.ledger.total for key, r in runs.items()}
        assert totals["kernel-1"] > 0.0
        assert len(set(totals.values())) == 1, totals

    def test_engines_are_byte_identical(self, chaos_runs):
        _, _, runs, root = chaos_runs
        exports = {
            key: json.dumps(runs[key].report.to_dict(), sort_keys=True)
            for key in ("kernel-1", "reference-1")
        }
        assert exports["kernel-1"] == exports["reference-1"]
        merged = {
            key: (root / f"merged-{key}.jsonl").read_bytes()
            for key in ("kernel-1", "reference-1")
        }
        assert merged["kernel-1"] == merged["reference-1"]

    def test_worker_count_is_unobservable(self, chaos_runs):
        _, _, runs, root = chaos_runs
        exports = {
            key: json.dumps(runs[key].report.to_dict(), sort_keys=True)
            for key in ("kernel-1", "kernel-8")
        }
        assert exports["kernel-1"] == exports["kernel-8"]
        for name in ("merged-{}.jsonl", "dead-{}.jsonl"):
            one = (root / name.format("kernel-1")).read_bytes()
            eight = (root / name.format("kernel-8")).read_bytes()
            assert one == eight, name

    def test_dead_letters_export_with_stable_field_order(self, chaos_runs):
        _, _, runs, root = chaos_runs
        result = runs["kernel-1"]
        path = root / "dead-kernel-1.jsonl"
        assert result.dead_letters == path
        lines = path.read_text().splitlines()
        assert len(lines) == result.report.meta["dead_letters"]
        assert lines, "host chaos must dead-letter something"
        decoder = json.JSONDecoder(object_pairs_hook=list)
        functions = []
        for line in lines:
            pairs = decoder.decode(line)
            assert [k for k, _ in pairs] == ["function", "arrival", "attempts"]
            functions.append(dict(pairs)["function"])
        # Sorted by function, arrivals ascending within one function.
        assert functions == sorted(functions)


class TestDebloatReducesEvictions:
    """Shared-pool scenario: trimmed bundles evict measurably less.

    Memory-pressure evictions need functions *contending* for the same
    hosts, so this runs several functions on one emulator (one shared
    pool) rather than through ``replay_fleet``'s per-function pools.
    Reservations are footprint-driven (no declared memory), so the
    trimmed bundle's smaller import set directly shrinks what each
    instance pins on its host.
    """

    N_FUNCTIONS = 4
    ROUNDS = 25

    def _evictions(self, bundle, capacity_mb: float) -> tuple[int, float]:
        emulator = LambdaEmulator(
            hosts=HostConfig(
                count=1, memory_mb=capacity_mb, default_reserve_mb=1.0
            )
        )
        names = [f"fn-{i}" for i in range(self.N_FUNCTIONS)]
        for name in names:
            emulator.deploy(bundle, name=name)
        for _ in range(self.ROUNDS):
            for name in names:
                record = emulator.invoke(name, EVENT)
                assert record.ok
        emulator.ledger.reconcile(list(emulator.log))
        peak = max(r.peak_memory_mb for r in emulator.log)
        return emulator.hosts.evictions, peak

    def test_trimmed_bundle_evicts_less(self, toy_bundles):
        original, trimmed = toy_bundles
        # Size the host so the bloated fleet cannot all stay resident:
        # room for ~2.5 bloated footprints across 4 functions.
        probe = LambdaEmulator()
        probe.deploy(original, name="probe")
        bloated_peak = probe.invoke("probe", EVENT).peak_memory_mb
        capacity = bloated_peak * 2.5
        bloated_evictions, _ = self._evictions(original, capacity)
        trimmed_evictions, trimmed_peak = self._evictions(trimmed, capacity)
        assert bloated_evictions > 0
        assert trimmed_peak < bloated_peak
        assert trimmed_evictions < bloated_evictions
