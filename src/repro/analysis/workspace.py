"""Shared experiment workspace: builds and trims each app exactly once.

Running λ-trim on all 21 applications is the expensive step shared by most
figures (8, 9, 10, 11, 12, 14 and Tables 2-4).  :class:`Workspace` builds
each application bundle once under its root directory and memoises the
λ-trim run (pristine bundle + debloated bundle + report), so benchmark
files can share work within a session.
"""

from __future__ import annotations

import dataclasses
import enum
import shutil
import tempfile
from pathlib import Path

from repro.bundle import AppBundle
from repro.core.journal import text_sha256
from repro.core.pipeline import DebloatReport, LambdaTrim, TrimConfig
from repro.workloads.apps import build_app

__all__ = ["Workspace", "DEFAULT_ORACLE_BUDGET"]

# Per-module DD budget used by the experiment harness.  The paper lets DD
# run for hours; this budget preserves the removals (the search finds the
# trimmed configuration early) and only truncates the final 1-minimality
# certificate sweep on 500+-attribute modules.
DEFAULT_ORACLE_BUDGET = 600


class Workspace:
    """A directory tree holding built apps and their trimmed variants."""

    def __init__(self, root: Path | str | None = None, *, config: TrimConfig | None = None):
        self.root = Path(root) if root is not None else Path(tempfile.mkdtemp(prefix="repro-ws-"))
        self.root.mkdir(parents=True, exist_ok=True)
        self.config = config if config is not None else TrimConfig(
            max_oracle_calls_per_module=DEFAULT_ORACLE_BUDGET
        )
        self._bundles: dict[str, AppBundle] = {}
        self._reports: dict[tuple[str, TrimConfig], DebloatReport] = {}

    # -- pristine bundles --------------------------------------------------------

    def bundle(self, app: str) -> AppBundle:
        """The pristine (original) bundle for *app*, built on first use."""
        if app not in self._bundles:
            target = self.root / "apps" / app
            if target.exists():
                self._bundles[app] = AppBundle(target)
            else:
                self._bundles[app] = build_app(app, target)
        return self._bundles[app]

    # -- trimmed bundles ------------------------------------------------------------

    @staticmethod
    def _label(app: str, config: TrimConfig) -> str:
        """The output directory name of *app* trimmed under *config*.

        The readable axes, then a digest of every config field: each
        distinct config gets its own directory, and the name is stable
        across processes, so a resumed workspace finds its journal.
        """
        fields = []
        for item in dataclasses.fields(config):
            value = getattr(config, item.name)
            if isinstance(value, frozenset):
                value = sorted(value)
            elif isinstance(value, enum.Enum):
                value = value.value
            fields.append(f"{item.name}={value!r}")
        digest = text_sha256("\n".join(fields))[:10]
        return f"{app}-k{config.k}-{config.scoring.value}-s{config.seed}-{digest}"

    def trim(
        self,
        app: str,
        *,
        config: TrimConfig | None = None,
        resume: bool = False,
    ) -> DebloatReport:
        """λ-trim *app* (memoised per configuration).

        With ``resume=True`` an interrupted run's journal under the
        workspace is replayed instead of starting over.  Journals are
        written without per-record fsync here: workspaces are throwaway
        experiment trees, and the speedup across 21 apps is substantial.
        """
        cfg = config if config is not None else self.config
        key = (app, cfg)
        if key not in self._reports:
            target = self.root / "trimmed" / self._label(app, cfg)
            if target.exists() and not resume:
                shutil.rmtree(target)
            pipeline = LambdaTrim(cfg)
            self._reports[key] = pipeline.run(
                self.bundle(app), target, resume=resume, journal_fsync=False
            )
        return self._reports[key]

    def trimmed_bundle(self, app: str, *, config: TrimConfig | None = None) -> AppBundle:
        return self.trim(app, config=config).output

    def variant_config(self, **overrides) -> TrimConfig:
        """A copy of the workspace config with fields replaced."""
        return dataclasses.replace(self.config, **overrides)

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
