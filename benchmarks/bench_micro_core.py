"""Micro-benchmarks for the hot paths of the λ-trim machinery.

These are conventional pytest-benchmark timings (many iterations) of the
operations the DD loop executes thousands of times per application:
decomposition, a run's first graph refresh, statement selection, source
rebuilding, oracle probes and their loads, DD itself, the platform
emulator's invocation path, the reference replay engine's serve step,
the fast replay engine's general serve loop, and its columnar loop on
one long-lived instance.
"""

from __future__ import annotations

import itertools
import os

import pytest

from repro.core.ast_transform import rebuild_code, rebuild_source
from repro.core.callgraph import CallGraphCache, build_bundle_call_graph
from repro.core.dd import ddmin_keep
from repro.core.debloater import decompose_file
from repro.core.execution import LoadedApp
from repro.core.granularity import decompose_module
from repro.core.oracle import ModuleCandidate, OracleRunner
from repro.core.pipeline import LambdaTrim
from repro.platform import LambdaEmulator
from repro.platform import kernel as kernel_mod
from repro.platform.faults import FaultPlan, FaultRates
from repro.platform.hosts import HostConfig
from repro.platform.kernel import KernelReplayer, TemplateStore
from repro.platform.replay import TraceReplayer
from repro.platform.retry import RetryPolicy
from repro.workloads.apps import build_app
from repro.workloads.catalog import library_spec
from repro.workloads.synthlib import render_module


def _numpy_source() -> str:
    spec = library_spec("numpy")
    return render_module(spec, spec.module(""))


def test_decompose_numpy_root(benchmark):
    """Parsing + decomposing a 537-attribute module (per DD run)."""
    source = _numpy_source()
    decomposition = benchmark(lambda: decompose_module(source))
    assert decomposition.attribute_count == 537


def test_rebuild_numpy_root(benchmark):
    """Rebuilding the module with half its attributes (per oracle call)."""
    decomposition = decompose_module(_numpy_source())
    half = decomposition.components[::2]
    source = benchmark(lambda: rebuild_source(decomposition, half))
    assert source


def test_cold_refresh_then_decompose_huggingface(benchmark, tmp_path):
    """A run's first, cold graph refresh of the pristine huggingface
    bundle, then each module the trim selects decomposed from the tree
    that refresh parsed: each file is parsed once for both."""
    bundle = build_app("huggingface", tmp_path / "huggingface")
    trim = LambdaTrim()
    external, _ = trim.analyze(bundle)
    files = [
        bundle.module_file(module)
        for module in trim.select_modules(bundle, trim.profile(bundle, external))
    ]

    def refresh_and_decompose():
        cache = CallGraphCache()
        cache.refresh(bundle)
        return [decompose_file(file, trees=cache) for file in files]

    decompositions = benchmark(refresh_and_decompose)
    assert len(decompositions) == len(files) > 5
    assert [d.components for d in decompositions] == [
        decompose_file(file).components for file in files
    ]


def test_select_half_of_synth_torch(benchmark, tmp_path):
    """A DD probe's statement selection alone: ``rebuild_code`` with the
    first half of ``synth_torch``'s components kept, from a built plan.
    It compiles nothing; the probe's load calls the function it returns."""
    bundle = build_app("resnet", tmp_path / "resnet")
    decomposition = decompose_file(bundle.module_file("synth_torch"))
    components = decomposition.components
    half = components[: len(components) // 2]
    rebuild_code(decomposition, half)  # builds the plan
    code = benchmark(lambda: rebuild_code(decomposition, half))
    kept = {index for index, _ in code.args[0]}
    assert kept == {*decomposition.pinned_statements, *(c.stmt_index for c in half)}


def test_bundle_graph_refresh_after_one_rewrite(benchmark, tmp_path):
    """The minor, post-commit path of a trim's graph refresh: after one
    module commit a warm per-file cache reads and hashes every file and
    re-analyses only the rewritten one.  A run's first, cold refresh is
    where its graph time goes (``test_cold_refresh_then_decompose_*``)."""
    bundle = build_app("huggingface", tmp_path / "huggingface")
    cache = CallGraphCache()
    cache.refresh(bundle)
    path = bundle.module_file("synth_torch")
    original = path.read_text(encoding="utf-8")
    variants = itertools.cycle([original + "# rewritten\n", original])

    def rewrite_and_refresh():
        path.write_text(next(variants), encoding="utf-8")
        return cache.refresh(bundle)

    graph = benchmark(rewrite_and_refresh)
    assert graph == build_bundle_call_graph(bundle)


def test_dd_search_64_components(benchmark):
    """A full DD minimization over 64 components with 6 needed."""
    needed = {3, 17, 31, 32, 49, 60}

    outcome = benchmark(
        lambda: ddmin_keep(list(range(64)), lambda c: needed.issubset(set(c)))
    )
    assert set(outcome.minimal) == needed


def test_oracle_probe_toy_app(benchmark, toy_session_app):
    """One oracle probe: cold-import the app and compare observables."""
    runner = OracleRunner(toy_session_app)
    result = benchmark(lambda: runner.check(toy_session_app))
    assert result.passed


def test_probe_load_resnet(benchmark, tmp_path):
    """A probe's load minus its compile: Function Initialization of a
    pristine resnet bundle whose code objects are already cached."""
    bundle = build_app("resnet", tmp_path / "resnet")

    def load_and_close():
        app = LoadedApp(bundle)
        app.load()
        app.close()
        return app

    load_and_close()  # compile once; every timed load reuses the code
    app = benchmark(load_and_close)
    assert app.init_error is None
    assert app.init_time_s > 0


def test_probe_resnet_from_plan(benchmark, tmp_path):
    """One DD probe of resnet: an in-process oracle check with the first
    half of ``synth_torch``'s attributes kept (a candidate the oracle
    accepts), run from the rebuild plan's statement code.  The first check
    compiles the kept statements; every timed one reuses them and writes
    no file."""
    bundle = build_app("resnet", tmp_path / "resnet")
    runner = OracleRunner(bundle)
    file = bundle.module_file("synth_torch")
    decomposition = decompose_module(
        file.read_text(encoding="utf-8"), filename=os.path.abspath(file)
    )
    components = decomposition.components
    candidate = ModuleCandidate(
        bundle, decomposition, components[: len(components) // 2]
    )
    assert runner.check(candidate).passed
    result = benchmark(lambda: runner.check(candidate))
    assert result.passed


def test_emulator_warm_invocation(benchmark, toy_session_app):
    """Warm-start invocation throughput on the emulator."""
    emulator = LambdaEmulator()
    emulator.deploy(toy_session_app, name="bench")
    event = {"x": [1.0, 2.0], "y": [3.0, 4.0]}
    emulator.invoke("bench", event)  # warm it

    record = benchmark(lambda: emulator.invoke("bench", event))
    assert not record.is_cold


def test_emulator_cold_invocation(benchmark, toy_session_app):
    """Forced cold-start invocation cost (instance load each time)."""
    emulator = LambdaEmulator()
    emulator.deploy(toy_session_app, name="cold")
    event = {"x": [1.0], "y": [2.0]}

    record = benchmark(lambda: emulator.invoke("cold", event, force_cold=True))
    assert record.is_cold


#: 20k arrivals 50 ms apart: one steady function on the kernel.
KERNEL_ARRIVALS = [i * 0.05 for i in range(20_000)]
#: The first 2k of them: the reference engine runs the handler for each.
REFERENCE_ARRIVALS = KERNEL_ARRIVALS[:2_000]


def test_reference_serve_step_on_hosts(benchmark, toy_session_app):
    """The reference engine's per-attempt path on a host pool: every
    arrival of a 2k-arrival replay goes through the emulator's one serve
    step and runs the toy handler for real."""
    event = {"x": [1.0, 2.0], "y": [3.0, 4.0]}

    def replay():
        emulator = LambdaEmulator(hosts=HostConfig(count=3, memory_mb=1024.0))
        emulator.deploy(toy_session_app, name="replay")
        return TraceReplayer(emulator).replay("replay", REFERENCE_ARRIVALS, event)

    result = benchmark(replay)
    assert result.lost == 0
    assert len(result.requests) == len(REFERENCE_ARRIVALS)


def _kernel_replay(bundle, store, faults=None, retry=None):
    emulator = LambdaEmulator(
        hosts=HostConfig(count=3, memory_mb=1024.0), faults=faults
    )
    emulator.deploy(bundle, name="replay")
    event = {"x": [1.0, 2.0], "y": [3.0, 4.0]}
    return KernelReplayer(emulator, store).replay(
        "replay", KERNEL_ARRIVALS, event, retry=retry
    )


def test_kernel_general_path_on_hosts(benchmark, toy_session_app):
    """A host pool keeps the kernel off the columnar loop: every arrival
    goes through the general serve loop over the attempt timeline, with
    no retries.  No perfbench workload takes this path."""
    store = TemplateStore()
    result = benchmark(lambda: _kernel_replay(toy_session_app, store))
    assert result.lost == 0
    assert result.requests == len(KERNEL_ARRIVALS)


def test_kernel_general_path_with_retries(benchmark, toy_session_app):
    """The same replay with 1% exec crashes, 2% throttles and up to four
    attempts: re-drives merge into the timeline's arrival walk."""
    store = TemplateStore()
    faults = FaultPlan(seed=7, default=FaultRates(exec_crash=0.01, throttle=0.02))
    retry = RetryPolicy(max_attempts=4)
    result = benchmark(
        lambda: _kernel_replay(toy_session_app, store, faults=faults, retry=retry)
    )
    assert result.lost == 0
    assert result.retries > 0


#: 20k arrivals 1 s apart.  The first cold start is still running when the
#: second request arrives, so a second instance starts; from the fourth
#: arrival on, that second instance serves every request.
SERIAL_ARRIVALS = [float(i) for i in range(20_000)]


@pytest.mark.skipif(
    not kernel_mod.HAVE_NUMPY, reason="the columnar loop requires numpy"
)
def test_kernel_columnar_one_instance(benchmark, toy_session_app, monkeypatch):
    """The columnar loop on one function whose second instance serves
    almost all of its 20k arrivals, so the outcome table grows to 20k
    entries: the table's worst case.  Each call captures into a fresh
    template store, so each builds its table from scratch."""
    served = []
    last = {}
    run_columnar = KernelReplayer._run_columnar

    def spy(self, arrivals, *rest):
        served.append(len(arrivals))
        return run_columnar(self, arrivals, *rest)

    monkeypatch.setattr(KernelReplayer, "_run_columnar", spy)
    event = {"x": [1.0, 2.0], "y": [3.0, 4.0]}

    def replay():
        emulator = LambdaEmulator()
        function = emulator.deploy(toy_session_app, name="serial")
        last["key"] = TemplateStore.key_for(function, event, None)
        last["store"] = TemplateStore()
        return KernelReplayer(emulator, last["store"]).replay(
            "serial", SERIAL_ARRIVALS, event
        )

    result = benchmark(replay)
    assert served and set(served) == {len(SERIAL_ARRIVALS)}
    assert result.cold_starts == 2
    assert result.warm_starts == len(SERIAL_ARRIVALS) - 2
    (table,) = last["store"].entry(last["key"]).tables.values()
    assert len(table.specs) == len(SERIAL_ARRIVALS) - 2
