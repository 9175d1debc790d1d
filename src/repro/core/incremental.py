"""Continuous debloating (the Section 9 future-work pipeline).

"We plan to implement a continuous debloating pipeline for both function
updates and inputs that are collected through our fallback mechanism.
This pipeline will make use of logs collected during the initial
debloating to drive the subsequent debloating more efficiently."

:class:`TrimLog` is that log: the per-module kept attribute sets of a
previous λ-trim run, serialisable next to the bundle.
:class:`IncrementalTrim` replays a new run seeded by the log:

* if the previously-kept set still satisfies the (possibly extended)
  oracle, it is adopted after a **single** oracle call per module;
* otherwise DD re-runs with the previously-kept components ordered first,
  which clusters the likely-needed attributes and speeds convergence
  (DD partitions contiguously).

Typical uses: a fallback notification added a case to the oracle
(Section 5.4), or the handler was updated and redeployed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.bundle import AppBundle
from repro.core.pipeline import DebloatReport, LambdaTrim, TrimConfig
from repro.errors import DebloatError

__all__ = ["TrimLog", "IncrementalTrim"]

LOG_VERSION = 1


@dataclass
class TrimLog:
    """Persisted record of a debloating run: module -> kept attribute names."""

    app: str
    kept: dict[str, list[str]] = field(default_factory=dict)
    version: int = LOG_VERSION

    @classmethod
    def from_report(cls, report: DebloatReport) -> "TrimLog":
        kept = {
            result.module: list(result.kept)
            for result in report.module_results
            if not result.skipped
        }
        return cls(app=report.app, kept=kept)

    # -- serialisation ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"version": self.version, "app": self.app, "kept": self.kept},
            indent=2,
        )

    def save(self, path: Path | str) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Path | str) -> "TrimLog":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if data.get("version") != LOG_VERSION:
            raise DebloatError(
                f"unsupported trim-log version: {data.get('version')!r}"
            )
        return cls(app=data["app"], kept=dict(data["kept"]))


class IncrementalTrim(LambdaTrim):
    """λ-trim seeded by a previous run's :class:`TrimLog`."""

    def __init__(self, config: TrimConfig | None = None, *, log: TrimLog | None = None):
        super().__init__(config)
        self.log = log

    def run(
        self, bundle: AppBundle, output_dir: Path | str, **kwargs
    ) -> DebloatReport:
        seeds = dict(self.log.kept) if self.log is not None else None
        report = super().run(bundle, output_dir, seeds=seeds, **kwargs)
        return report

    def updated_log(self, report: DebloatReport) -> TrimLog:
        """The log to persist for the *next* incremental run."""
        return TrimLog.from_report(report)


def seeded_statistics(report: DebloatReport) -> dict[str, int]:
    """How many modules were adopted straight from the seed vs re-searched."""
    adopted = sum(1 for r in report.module_results if getattr(r, "seeded", False))
    searched = sum(
        1
        for r in report.module_results
        if not r.skipped and not getattr(r, "seeded", False)
    )
    return {"adopted": adopted, "searched": searched}
