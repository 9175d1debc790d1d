"""Experiment drivers: one function per table/figure of the evaluation.

Every driver takes a shared :class:`~repro.analysis.workspace.Workspace`
(so the expensive λ-trim runs are built once per session) and returns
plain rows the renderers in :mod:`repro.analysis.tables` print.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.analysis.measure import ColdStartStats, measure_cold, measure_warm
from repro.analysis.workspace import Workspace
from repro.baselines import FaasLight, vulture_trim
from repro.checkpoint import CriuSimulator
from repro.core.cost_model import ScoringMethod
from repro.core.dd import DDOutcome, DeltaDebugger
from repro.platform import LambdaEmulator
from repro.traces import AzureTraceGenerator, TraceSimulator, match_function
from repro.workloads.apps import APP_NAMES, app_definition

__all__ = [
    "FAASLIGHT_APPS",
    "REPRESENTATIVE_APPS",
    "FALLBACK_APPS",
    "AppImprovement",
    "fig1_breakdown",
    "table1_applications",
    "fig2_cold_start_costs",
    "fig6_dd_walkthrough",
    "fig8_improvements",
    "table2_baselines",
    "fig9_scoring_ablation",
    "table3_debloating",
    "fig10_varying_k",
    "fig11_warm_starts",
    "fig12_checkpoint_restore",
    "fig13_snapstart_cdf",
    "fig14_amortized_costs",
    "table4_fallback",
]

# The eight applications Table 2 compares against FaaSLight/Vulture.
FAASLIGHT_APPS = (
    "huggingface",
    "image-resize",
    "lightgbm",
    "lxml",
    "scikit",
    "skimage",
    "tensorflow",
    "wine",
)

# The representative small/medium/large trio of Figures 9 and 10.
REPRESENTATIVE_APPS = ("dna-visualization", "lightgbm", "spacy")

# The applications of Table 4, plus the event that reaches trimmed code.
FALLBACK_APPS = {
    "dna-visualization": {"sequence": "ACGT", "mode": "interactive"},
    "lightgbm": {"features": [1.0], "explain": True},
    "spacy": {"text": "match this", "match_rules": True},
    "huggingface": {"text": "generate", "generate": True},
}


def _improvement(before: float, after: float) -> float:
    """Relative improvement in percent (positive = better)."""
    if before == 0:
        return 0.0
    return (before - after) / before * 100.0


# -- Figure 1 ------------------------------------------------------------------


def fig1_breakdown(ws: Workspace, app: str = "resnet") -> dict:
    """Cold/warm phase breakdown for one application (Figure 1)."""
    bundle = ws.bundle(app)
    cold = measure_cold(bundle, invocations=2)
    warm = measure_warm(bundle, invocations=2)
    billed = cold.import_s + cold.exec_s
    return {
        "app": app,
        "instance_init_s": cold.instance_init_s,
        "image_transmission_s": cold.transmission_s,
        "function_init_s": cold.import_s,
        "function_exec_s": cold.exec_s,
        "cold_e2e_s": cold.e2e_s,
        "warm_e2e_s": warm.e2e_s,
        "init_share_of_e2e": cold.import_s / cold.e2e_s,
        "init_share_of_billed": cold.import_s / billed if billed else 0.0,
    }


# -- Table 1 ---------------------------------------------------------------------


def table1_applications(ws: Workspace, apps: tuple[str, ...] | None = None) -> list[dict]:
    """Application characteristics: size, import/exec/E2E (Table 1)."""
    rows = []
    for app in apps or APP_NAMES:
        definition = app_definition(app)
        stats = measure_cold(ws.bundle(app), invocations=2)
        rows.append(
            {
                "app": app,
                "source": definition.source,
                "modules": ", ".join(
                    lib for lib, _ in definition.libraries
                ),
                "size_mb": definition.paper.size_mb,
                "import_s": stats.import_s,
                "exec_s": stats.exec_s,
                "e2e_s": stats.e2e_s,
                "paper_import_s": definition.paper.import_s,
                "paper_exec_s": definition.paper.exec_s,
                "paper_e2e_s": definition.paper.e2e_s,
            }
        )
    return rows


# -- Figure 2 ---------------------------------------------------------------------


def fig2_cold_start_costs(ws: Workspace, apps: tuple[str, ...] | None = None) -> list[dict]:
    """Billed duration split and cost per 100K cold starts (Figure 2)."""
    rows = []
    for app in apps or APP_NAMES:
        stats = measure_cold(ws.bundle(app), invocations=2)
        rows.append(
            {
                "app": app,
                "import_s": stats.import_s,
                "exec_s": stats.exec_s,
                "billed_s": stats.billed_s,
                "import_share": stats.import_share,
                "configured_mb": stats.configured_mb,
                "cost_per_100k": stats.cost_per_100k,
            }
        )
    return rows


# -- Figure 6 ---------------------------------------------------------------------


def fig6_dd_walkthrough() -> DDOutcome:
    """DD on the simplified torch attribute set (Figure 6).

    Components and the needed subset mirror Section 6.2: the application
    uses tensor/add/view/Linear; SGD and MSELoss are redundant.
    """
    needed = {"tensor", "add", "view", "Linear"}

    def oracle(candidate) -> bool:
        return needed.issubset(set(candidate))

    debugger = DeltaDebugger(oracle, record_trace=True)
    outcome = debugger.minimize(["tensor", "add", "view", "Linear", "SGD", "MSELoss"])
    return outcome


# -- Figure 8 ----------------------------------------------------------------------


@dataclass(frozen=True)
class AppImprovement:
    """Original-vs-trimmed measurements for one application (Figure 8)."""

    app: str
    original: ColdStartStats
    trimmed: ColdStartStats

    @property
    def e2e_speedup(self) -> float:
        return self.original.e2e_s / self.trimmed.e2e_s if self.trimmed.e2e_s else 1.0

    @property
    def memory_improvement(self) -> float:
        return _improvement(self.original.memory_mb, self.trimmed.memory_mb)

    @property
    def cost_improvement(self) -> float:
        return _improvement(self.original.cost_per_100k, self.trimmed.cost_per_100k)


def fig8_improvements(
    ws: Workspace, apps: tuple[str, ...] | None = None
) -> list[AppImprovement]:
    """λ-trim's E2E / memory / cost improvements per application (Figure 8)."""
    results = []
    for app in apps or APP_NAMES:
        original = measure_cold(ws.bundle(app), invocations=2)
        trimmed = measure_cold(ws.trimmed_bundle(app), invocations=2)
        results.append(AppImprovement(app=app, original=original, trimmed=trimmed))
    return results


# -- Table 2 -----------------------------------------------------------------------


def table2_baselines(
    ws: Workspace, apps: tuple[str, ...] = FAASLIGHT_APPS
) -> list[dict]:
    """λ-trim vs FaaSLight vs Vulture improvements (Table 2)."""
    rows = []
    for app in apps:
        bundle = ws.bundle(app)
        original = measure_cold(bundle, invocations=2)

        trimmed = measure_cold(ws.trimmed_bundle(app), invocations=2)
        faaslight = FaasLight().run(bundle, ws.root / "faaslight" / app)
        faaslight_stats = measure_cold(faaslight.output, invocations=2)
        vulture = vulture_trim(bundle, ws.root / "vulture" / app)
        vulture_stats = measure_cold(vulture.output, invocations=2)

        rows.append(
            {
                "app": app,
                "lambda_trim_memory": -_improvement(
                    original.memory_mb, trimmed.memory_mb
                ),
                "faaslight_memory": -_improvement(
                    original.memory_mb, faaslight_stats.memory_mb
                ),
                "lambda_trim_import": -_improvement(
                    original.import_s, trimmed.import_s
                ),
                "faaslight_import": -_improvement(
                    original.import_s, faaslight_stats.import_s
                ),
                "vulture_import": -_improvement(
                    original.import_s, vulture_stats.import_s
                ),
                "lambda_trim_e2e": -_improvement(original.e2e_s, trimmed.e2e_s),
                "faaslight_e2e": -_improvement(original.e2e_s, faaslight_stats.e2e_s),
            }
        )
    return rows


# -- Figure 9 -----------------------------------------------------------------------


def fig9_scoring_ablation(
    ws: Workspace,
    apps: tuple[str, ...] = REPRESENTATIVE_APPS,
    methods: tuple[ScoringMethod, ...] = tuple(ScoringMethod),
    random_seeds: tuple[int, ...] = (1, 2, 3),
    k: int = 2,
) -> list[dict]:
    """Cost/memory/E2E improvement per scoring method (Figure 9).

    The ablation runs with ``k`` *below* each application's module count —
    the paper's applications import well over 20 modules, so its K = 20
    leaves ranking decisions binding; our synthetic apps have 5-20 modules
    and would trim everything at K = 20 regardless of scoring.
    """
    rows = []
    for app in apps:
        original = measure_cold(ws.bundle(app), invocations=2)
        for method in methods:
            seeds = random_seeds if method is ScoringMethod.RANDOM else (0,)
            cost, memory, e2e = [], [], []
            for seed in seeds:
                config = ws.variant_config(scoring=method, seed=seed, k=k)
                trimmed = measure_cold(
                    ws.trimmed_bundle(app, config=config), invocations=2
                )
                cost.append(_improvement(original.cost_per_100k, trimmed.cost_per_100k))
                memory.append(_improvement(original.memory_mb, trimmed.memory_mb))
                e2e.append(_improvement(original.e2e_s, trimmed.e2e_s))
            rows.append(
                {
                    "app": app,
                    "method": method.value,
                    "cost_improvement": statistics.fmean(cost),
                    "memory_improvement": statistics.fmean(memory),
                    "e2e_improvement": statistics.fmean(e2e),
                }
            )
    return rows


# -- Table 3 -------------------------------------------------------------------------


def table3_debloating(ws: Workspace, apps: tuple[str, ...] | None = None) -> list[dict]:
    """Debloat time, representative-module attributes, ckpt sizes (Table 3)."""
    criu = CriuSimulator()
    rows = []
    for app in apps or APP_NAMES:
        report = ws.trim(app)
        original = measure_cold(ws.bundle(app), invocations=2)
        trimmed = measure_cold(report.output, invocations=2)
        image_mb = ws.bundle(app).manifest.image_size_mb
        representative = report.representative_module()
        rows.append(
            {
                "app": app,
                "debloat_time_s": report.debloat_time_s,
                "oracle_calls": report.oracle_calls,
                "example_module": representative.module if representative else "-",
                "attrs_removed": representative.removed_count if representative else 0,
                "attrs_before": representative.attributes_before if representative else 0,
                "ckpt_pre_mb": criu.checkpoint_size_mb(original.memory_mb, image_mb),
                "ckpt_post_mb": criu.checkpoint_size_mb(trimmed.memory_mb, image_mb),
            }
        )
    return rows


# -- Figure 10 --------------------------------------------------------------------------


def fig10_varying_k(
    ws: Workspace,
    apps: tuple[str, ...] = REPRESENTATIVE_APPS,
    ks: tuple[int, ...] = (1, 5, 10, 15, 20, 30, 40, 50),
) -> list[dict]:
    """Improvement as a function of K, the number of modules to debloat."""
    rows = []
    for app in apps:
        original = measure_cold(ws.bundle(app), invocations=2)
        for k in ks:
            config = ws.variant_config(k=k)
            trimmed = measure_cold(ws.trimmed_bundle(app, config=config), invocations=2)
            rows.append(
                {
                    "app": app,
                    "k": k,
                    "memory_improvement": _improvement(
                        original.memory_mb, trimmed.memory_mb
                    ),
                    "e2e_improvement": _improvement(original.e2e_s, trimmed.e2e_s),
                    "cost_improvement": _improvement(
                        original.cost_per_100k, trimmed.cost_per_100k
                    ),
                }
            )
    return rows


# -- Figure 11 ----------------------------------------------------------------------------


def fig11_warm_starts(ws: Workspace, apps: tuple[str, ...] | None = None) -> list[dict]:
    """Warm-start E2E latency, original vs trimmed (Figure 11)."""
    rows = []
    for app in apps or APP_NAMES:
        original = measure_warm(ws.bundle(app), invocations=3)
        trimmed = measure_warm(ws.trimmed_bundle(app), invocations=3)
        impact = _improvement(original.e2e_s, trimmed.e2e_s)
        rows.append(
            {
                "app": app,
                "original_e2e_s": original.e2e_s,
                "trimmed_e2e_s": trimmed.e2e_s,
                "impact_pct": -impact,  # negative = trimmed slower
            }
        )
    return rows


# -- Figure 12 -----------------------------------------------------------------------------


def fig12_checkpoint_restore(
    ws: Workspace, apps: tuple[str, ...] | None = None
) -> list[dict]:
    """Initialization time: original / C/R / λ-trim / C/R + λ-trim."""
    criu = CriuSimulator()
    rows = []
    for app in apps or APP_NAMES:
        original = measure_cold(ws.bundle(app), invocations=2)
        trimmed = measure_cold(ws.trimmed_bundle(app), invocations=2)
        image_mb = ws.bundle(app).manifest.image_size_mb

        ckpt = criu.checkpoint(app, memory_mb=original.memory_mb, image_size_mb=image_mb)
        ckpt_trim = criu.checkpoint(
            app, memory_mb=trimmed.memory_mb, image_size_mb=image_mb
        )
        rows.append(
            {
                "app": app,
                "original_init_s": original.import_s,
                "cr_init_s": criu.restore_time_s(ckpt),
                "trim_init_s": trimmed.import_s,
                "cr_trim_init_s": criu.restore_time_s(ckpt_trim),
                "ckpt_mb": ckpt.size_mb,
                "ckpt_trim_mb": ckpt_trim.size_mb,
            }
        )
    return rows


# -- Figure 13 -------------------------------------------------------------------------------


def fig13_snapstart_cdf(
    *,
    n_functions: int = 400,
    keep_alive_minutes: tuple[int, ...] = (1, 15, 100),
    seed: int = 2025,
) -> dict[int, list[float]]:
    """CDF of SnapStart cost share over total cost (Figure 13).

    Returns, per keep-alive setting, the sorted per-function ratios
    (plot them against rank/n for the CDF).
    """
    generator = AzureTraceGenerator(seed=seed)
    traces = generator.generate(n_functions)
    result: dict[int, list[float]] = {}
    for minutes in keep_alive_minutes:
        simulator = TraceSimulator(keep_alive_s=minutes * 60)
        shares = [
            simulator.simulate(
                trace, window_s=generator.duration_s, snapstart=True
            ).snapstart_share
            for trace in traces
        ]
        result[minutes] = sorted(shares)
    return result


# -- Figure 14 --------------------------------------------------------------------------------


def fig14_amortized_costs(
    ws: Workspace,
    apps: tuple[str, ...] | None = None,
    *,
    n_functions: int = 400,
    keep_alive_minutes: int = 15,
    seed: int = 2025,
) -> list[dict]:
    """Amortized invocation + SnapStart costs per app (Figure 14).

    Each benchmarked application is matched to its most similar trace
    function (L2 on memory/duration), then simulated over 24 hours with
    SnapStart, original vs λ-trim.
    """
    generator = AzureTraceGenerator(seed=seed)
    traces = generator.generate(n_functions)
    simulator = TraceSimulator(keep_alive_s=keep_alive_minutes * 60)

    rows = []
    for app in apps or APP_NAMES:
        original = measure_cold(ws.bundle(app), invocations=2)
        trimmed = measure_cold(ws.trimmed_bundle(app), invocations=2)
        image_mb = ws.bundle(app).manifest.image_size_mb
        trace = match_function(
            traces, memory_mb=original.memory_mb, duration_s=original.exec_s
        )
        invocations = max(trace.invocations, 1)

        def amortized(stats: ColdStartStats) -> dict:
            # The pricing model floors billable memory at 128 MB itself;
            # the snapshot is sized from the *actual* footprint, which is
            # where λ-trim's savings come from (Figure 14).
            breakdown = simulator.simulate(
                trace,
                window_s=generator.duration_s,
                snapstart=True,
                image_size_mb=image_mb,
                memory_mb=stats.memory_mb,
                duration_s=max(stats.exec_s, 0.001),
            )
            return {
                "invocation": breakdown.invocation / invocations,
                "cache_restore": breakdown.snapstart / invocations,
            }

        rows.append(
            {
                "app": app,
                "trace_fn": trace.function_id,
                "invocations": invocations,
                "original": amortized(original),
                "trimmed": amortized(trimmed),
            }
        )
    return rows


# -- Table 4 -----------------------------------------------------------------------------------


def table4_fallback(
    ws: Workspace, apps: tuple[str, ...] | None = None, *, setup_overhead_s: float = 0.05
) -> list[dict]:
    """Fallback E2E latencies for warm/cold combinations (Table 4)."""
    rows = []
    for app in apps or tuple(FALLBACK_APPS):
        bad_event = FALLBACK_APPS[app]
        original_bundle = ws.bundle(app)
        trimmed_bundle = ws.trimmed_bundle(app)

        orig_cold = measure_cold(original_bundle, invocations=2)
        orig_warm = measure_warm(original_bundle, invocations=2)
        trim_cold = measure_cold(trimmed_bundle, invocations=2)
        trim_warm = measure_warm(trimmed_bundle, invocations=2)

        def fallback_e2e(trim_is_cold: bool, fallback_is_cold: bool) -> float:
            emu = LambdaEmulator()
            emu.deploy(trimmed_bundle, name="primary")
            emu.deploy(original_bundle, name="fallback")
            if not trim_is_cold:
                # warm the primary with an oracle-safe event first
                event = {k: v for k, v in bad_event.items()
                         if k in ("sequence", "features", "text")}
                emu.invoke("primary", event)
            if not fallback_is_cold:
                event = {k: v for k, v in bad_event.items()
                         if k in ("sequence", "features", "text")}
                emu.invoke("fallback", event)
            failing = emu.invoke("primary", bad_event)
            assert failing.error_type == "AttributeError", (
                f"{app}: expected the trimmed function to raise, "
                f"got {failing.error_type!r}"
            )
            recovered = emu.invoke("fallback", bad_event)
            assert recovered.ok
            return failing.e2e_s + setup_overhead_s + recovered.e2e_s

        rows.append(
            {
                "app": app,
                "original_cold_s": orig_cold.e2e_s,
                "original_warm_s": orig_warm.e2e_s,
                "trim_cold_s": trim_cold.e2e_s,
                "trim_warm_s": trim_warm.e2e_s,
                "fallback_cold_warm_s": fallback_e2e(True, False),
                "fallback_cold_cold_s": fallback_e2e(True, True),
                "fallback_warm_warm_s": fallback_e2e(False, False),
                "fallback_warm_cold_s": fallback_e2e(False, True),
            }
        )
    return rows
