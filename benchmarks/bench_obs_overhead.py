"""Observability overhead on the DD hot path.

The instrumentation contract (docs/observability.md) is that with the
default :class:`~repro.obs.NullRecorder` installed, the tracing hooks cost
less than 2% of DD search wall-clock.  ``test_null_recorder_overhead``
enforces that bound by timing the same 64-component search through
``DeltaDebugger.minimize`` (instrumented entry point, null recorder) and
``DeltaDebugger._minimize`` (the raw algorithm, i.e. the instrumentation
calls removed).  The two sides are timed in interleaved pairs, the side
that runs first alternating from pair to pair, and the gate reads the
median of the per-pair ratios: slow drift (frequency scaling, a noisy
neighbour) then hits both sides of a pair alike, and one lucky or
unlucky block cannot decide the verdict the way a comparison of two
separately taken minima can.

The remaining benchmarks record absolute timings under the null and the
in-memory recorder for the pytest-benchmark artifact.
"""

from __future__ import annotations

import statistics
import time

from repro.core.dd import DeltaDebugger
from repro.obs import InMemoryRecorder, NullRecorder, use_recorder

NEEDED = {3, 17, 31, 32, 49, 60}
COMPONENTS = list(range(64))

# SAMPLES interleaved (instrumented, raw) pairs, RUNS_PER_SAMPLE fresh
# searches per side of a pair; odd, so the median is one pair's ratio
SAMPLES = 101
RUNS_PER_SAMPLE = 10
MAX_OVERHEAD = 0.02


def _oracle(candidate) -> bool:
    return NEEDED.issubset(set(candidate))


def _run_instrumented() -> None:
    DeltaDebugger(_oracle).minimize(COMPONENTS)


def _run_raw() -> None:
    DeltaDebugger(_oracle)._minimize(COMPONENTS)


def _sample(run) -> float:
    """Mean seconds per search over one block of RUNS_PER_SAMPLE."""
    start = time.perf_counter()
    for _ in range(RUNS_PER_SAMPLE):
        run()
    return (time.perf_counter() - start) / RUNS_PER_SAMPLE


def _paired_ratios() -> tuple[list[float], list[float], list[float]]:
    """Per-pair instrumented/raw ratios, plus each side's samples."""
    instrumented: list[float] = []
    raw: list[float] = []
    for i in range(SAMPLES):
        if i % 2:
            raw.append(_sample(_run_raw))
            instrumented.append(_sample(_run_instrumented))
        else:
            instrumented.append(_sample(_run_instrumented))
            raw.append(_sample(_run_raw))
    ratios = [a / b for a, b in zip(instrumented, raw)]
    return ratios, instrumented, raw


def test_null_recorder_overhead():
    """Instrumented minimize() vs the raw algorithm: <2% under NullRecorder."""
    with use_recorder(NullRecorder()):
        # warm both paths (bytecode, caches) before timing
        _run_instrumented()
        _run_raw()
        ratios, instrumented, raw = _paired_ratios()

    overhead = statistics.median(ratios) - 1.0
    quartiles = statistics.quantiles(ratios, n=4)
    detail = (
        f"median raw {statistics.median(raw) * 1e6:.1f}us, "
        f"instrumented {statistics.median(instrumented) * 1e6:.1f}us, "
        f"pair ratios IQR {(quartiles[0] - 1) * 100:+.2f}%.."
        f"{(quartiles[2] - 1) * 100:+.2f}% over {SAMPLES} pairs"
    )
    print(f"\nnull-recorder overhead {overhead * 100:+.2f}% ({detail})")
    assert overhead < MAX_OVERHEAD, (
        f"null-recorder instrumentation overhead {overhead:.2%} exceeds "
        f"{MAX_OVERHEAD:.0%} ({detail})"
    )


def test_dd_search_null_recorder(benchmark):
    """DD search throughput with instrumentation disabled (the default)."""
    with use_recorder(NullRecorder()):
        outcome = benchmark(
            lambda: DeltaDebugger(_oracle).minimize(COMPONENTS)
        )
    assert set(outcome.minimal) == NEEDED


def test_dd_search_active_recorder(benchmark):
    """DD search throughput while an InMemoryRecorder captures everything."""
    with use_recorder(InMemoryRecorder()):
        outcome = benchmark(
            lambda: DeltaDebugger(_oracle).minimize(COMPONENTS)
        )
    assert set(outcome.minimal) == NEEDED
