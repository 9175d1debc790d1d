"""The DD-based module debloater (Sections 5.3 and 6.3).

For each module the profiler selects, the debloater:

1. loads the module's file and decomposes it into attribute components
   (Section 6.1);
2. journals a BEGIN record so an interrupted search is recoverable;
3. builds the set of potentially redundant attributes — everything except
   the attributes in the call-graph output and the magic attributes;
4. runs DD: each query rewrites the file with the candidate attribute set
   (a single AST traversal) and re-runs the oracle, appending the verdict
   to the write-ahead probe journal;
5. commits the winning configuration with an atomic write-temp + fsync +
   rename, followed by a journaled COMMIT record carrying the final
   file's content hash.

Module rewrites are transactional: a crash at any boundary leaves the
file either pristine (recovered from the journal on resume) or exactly
the committed content — never a torn mix.  The legacy in-place ``.bak``
backup scheme (``backup_path`` / ``restore_module``) is kept only as a
compatibility shim; orphaned backups from old interrupted runs are
removed by :func:`repro.core.journal.cleanup_stale_artifacts`.

The winning configuration is left on disk; a
:class:`ModuleDebloatResult` records the attribute counts before/after
(Table 3), the oracle statistics, and the virtual time the DD search spent
executing oracle probes (Table 3's debloating time).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.bundle import AppBundle
from repro.core.ast_transform import rebuild_source
from repro.core.dd import DDTraceStep, DeltaDebugger
from repro.core.granularity import (
    GRANULARITY_ATTRIBUTE,
    AttributeComponent,
    decompose_module,
)
from repro.core.journal import (
    ProbeJournal,
    atomic_write_text,
    candidate_hash,
    text_sha256,
)
from repro.core.oracle import OracleRunner
from repro.errors import DebloatError

__all__ = ["ModuleDebloatResult", "ModuleDebloater", "restore_module"]

BACKUP_SUFFIX = ".lambdatrim.orig"

#: Journal granularity marker for the single seed-adoption probe
#: (continuous debloating), which runs outside the DD partition loop.
SEED_PROBE_GRANULARITY = 0


@dataclass
class ModuleDebloatResult:
    """Outcome of debloating a single module."""

    module: str
    file: Path
    attributes_before: int
    attributes_after: int
    protected: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    kept: list[str] = field(default_factory=list)
    oracle_calls: int = 0
    cache_hits: int = 0
    dd_iterations: int = 0
    debloat_time_s: float = 0.0  # virtual seconds of oracle execution
    wall_time_s: float = 0.0
    skipped_reason: str | None = None
    seeded: bool = False  # adopted a previous run's kept set (Section 9)
    trace: list[DDTraceStep] = field(default_factory=list)
    #: Probes answered from the write-ahead journal instead of a live
    #: oracle run (kill-and-resume accounting: journal_hits +
    #: oracle_calls equals the uninterrupted run's probe count).
    journal_hits: int = 0
    #: Live probes that disagreed with a journaled verdict and were
    #: adjudicated by the quorum vote.
    flaky_probes: int = 0
    #: True when the whole result was reconstructed from a journaled
    #: COMMIT record (the module was finished before the crash).
    resumed: bool = False

    @property
    def removed_count(self) -> int:
        return len(self.removed)

    @property
    def skipped(self) -> bool:
        return self.skipped_reason is not None

    def summary(self) -> str:
        if self.skipped:
            return f"{self.module}: skipped ({self.skipped_reason})"
        line = (
            f"{self.module}: {self.attributes_after}/{self.attributes_before} "
            f"attributes kept, {self.oracle_calls} oracle calls"
        )
        if self.resumed:
            line += " (resumed from journal)"
        elif self.journal_hits:
            line += f" ({self.journal_hits} journal hits)"
        return line

    # -- journal serialisation --------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form stored in the journal's COMMIT record.

        The DD trace is deliberately dropped — it can be megabytes and a
        resumed run never replays it.
        """
        return {
            "module": self.module,
            "file": str(self.file),
            "attributes_before": self.attributes_before,
            "attributes_after": self.attributes_after,
            "protected": list(self.protected),
            "removed": list(self.removed),
            "kept": list(self.kept),
            "oracle_calls": self.oracle_calls,
            "cache_hits": self.cache_hits,
            "dd_iterations": self.dd_iterations,
            "debloat_time_s": self.debloat_time_s,
            "wall_time_s": self.wall_time_s,
            "skipped_reason": self.skipped_reason,
            "seeded": self.seeded,
            "journal_hits": self.journal_hits,
            "flaky_probes": self.flaky_probes,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ModuleDebloatResult":
        return cls(
            module=data["module"],
            file=Path(data["file"]),
            attributes_before=int(data["attributes_before"]),
            attributes_after=int(data["attributes_after"]),
            protected=list(data.get("protected", [])),
            removed=list(data.get("removed", [])),
            kept=list(data.get("kept", [])),
            oracle_calls=int(data.get("oracle_calls", 0)),
            cache_hits=int(data.get("cache_hits", 0)),
            dd_iterations=int(data.get("dd_iterations", 0)),
            debloat_time_s=float(data.get("debloat_time_s", 0.0)),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
            skipped_reason=data.get("skipped_reason"),
            seeded=bool(data.get("seeded", False)),
            journal_hits=int(data.get("journal_hits", 0)),
            flaky_probes=int(data.get("flaky_probes", 0)),
        )


def backup_path(file: Path) -> Path:
    """Legacy ``.bak`` location (compatibility shim; no longer written)."""
    return file.with_name(file.name + BACKUP_SUFFIX)


def restore_module(file: Path) -> bool:
    """Restore a module from a legacy λ-trim backup; True if one existed.

    Kept as a compatibility shim for callers of the pre-journal backup
    scheme.  New code recovers interrupted runs through
    :func:`repro.core.journal.recover_workspace`, which also removes any
    orphaned backups this shim's era left behind.
    """
    backup = backup_path(file)
    if not backup.exists():
        return False
    atomic_write_text(file, backup.read_text(encoding="utf-8"), durable=True)
    backup.unlink()
    return True


class ModuleDebloater:
    """Runs attribute-level DD over modules of a working bundle.

    Parameters
    ----------
    bundle:
        The *working* bundle whose files are rewritten in place.  Callers
        clone the pristine bundle first (see
        :class:`repro.core.pipeline.LambdaTrim`).
    runner:
        Oracle runner whose expected outputs came from the pristine bundle.
    record_trace:
        Keep the full DD trace per module (Figure 6 walkthroughs).
    max_oracle_calls_per_module:
        Budget for each module's DD search; the best candidate found within
        the budget is kept.
    journal:
        Write-ahead probe journal; when set, every live probe and each
        module's BEGIN/COMMIT are durably recorded so a killed run can
        resume without losing work.
    seed:
        The run's scoring seed, stamped into probe records for provenance.
    verify_seeds / quorum:
        Flaky-oracle defence: with ``verify_seeds=True`` journal-sourced
        verdicts are re-checked live and disagreements decided by a
        majority vote over up to ``quorum`` runs (see
        :class:`~repro.core.dd.DeltaDebugger`).
    """

    def __init__(
        self,
        bundle: AppBundle,
        runner: OracleRunner,
        *,
        record_trace: bool = False,
        max_oracle_calls_per_module: int | None = None,
        granularity: str = GRANULARITY_ATTRIBUTE,
        journal: ProbeJournal | None = None,
        seed: int = 0,
        verify_seeds: bool = False,
        quorum: int = 3,
    ):
        self.bundle = bundle
        self.runner = runner
        self._record_trace = record_trace
        self._max_calls = max_oracle_calls_per_module
        self._granularity = granularity
        self._journal = journal
        self._seed = seed
        self._verify_seeds = verify_seeds
        self._quorum = quorum

    @staticmethod
    def component_key(components: Sequence[AttributeComponent]) -> str:
        """Stable candidate hash: what the journal stores per probe."""
        return candidate_hash(c.key for c in components)

    def debloat_module(
        self,
        dotted: str,
        protected: set[str] | frozenset[str] = frozenset(),
        *,
        extra_protected: Callable[[AttributeComponent], bool] | None = None,
        seed_keep: list[str] | None = None,
        journal_seeds: Mapping[str, bool] | None = None,
    ) -> ModuleDebloatResult:
        """Debloat one module, leaving the minimized file on disk.

        ``extra_protected`` lets the caller pin additional components by
        inspection — the pipeline uses it to protect from-import aliases
        whose origin attribute the call graph marks as accessed (e.g.
        keep ``from torch.nn import Linear`` because the application uses
        ``torch.nn.Linear``).

        ``seed_keep`` drives continuous debloating (Section 9): names kept
        by a previous run.  If the seeded configuration still satisfies
        the oracle it is adopted after one probe; otherwise the seeded
        components are ordered first so the new DD search converges fast.

        ``journal_seeds`` replays a crashed run's probe verdicts
        (candidate hash → verdict) into the DD cache, so resume continues
        the search instead of re-probing.
        """
        file = self.bundle.module_file(dotted)
        original_source = file.read_text(encoding="utf-8")
        decomposition = decompose_module(
            original_source, filename=str(file), granularity=self._granularity
        )

        removable = decomposition.removable(set(protected))
        if extra_protected is not None:
            removable = [c for c in removable if not extra_protected(c)]
        removable_set = set(removable)
        pinned = [c for c in decomposition.components if c not in removable_set]

        if not removable:
            return ModuleDebloatResult(
                module=dotted,
                file=file,
                attributes_before=decomposition.attribute_count,
                attributes_after=decomposition.attribute_count,
                protected=sorted(protected),
                kept=[c.name for c in decomposition.components],
                skipped_reason="no removable attributes",
            )

        journal_seeds = dict(journal_seeds or {})
        if self._journal is not None:
            self._journal.module_begin(dotted)

        virtual_before = self.runner.meter.time_s
        wall_before = time.perf_counter()

        def oracle(candidate: Sequence[AttributeComponent]) -> bool:
            kept_components = pinned + list(candidate)
            source = rebuild_source(decomposition, kept_components)
            # Atomic rename (no fsync): a probe rewrite may be lost to a
            # crash — the journal replays it — but never observed torn.
            atomic_write_text(file, source, durable=False)
            return self.runner.check(self.bundle).passed

        def journal_probe(key: str, verdict: bool, granularity: int) -> None:
            if self._journal is not None:
                self._journal.record_probe(
                    dotted, key, verdict, granularity=granularity, seed=self._seed
                )

        seed_journal_hits = 0
        if seed_keep is not None:
            seed_set = set(seed_keep)
            seed_components = [c for c in removable if c.name in seed_set]
            if len(seed_components) < len(removable):
                seed_key = self.component_key(seed_components)
                seed_verdict = journal_seeds.get(seed_key)
                if seed_verdict is None:
                    seed_verdict = oracle(seed_components)
                    journal_probe(
                        seed_key, seed_verdict, SEED_PROBE_GRANULARITY
                    )
                    seed_calls = 1
                else:
                    seed_calls = 0
                    seed_journal_hits = 1
                if seed_verdict:
                    # The previous minimal still passes: adopt it directly.
                    return self._commit(
                        dotted,
                        file,
                        decomposition,
                        protected,
                        final_keep=pinned + seed_components,
                        oracle_calls=seed_calls,
                        journal_hits=seed_journal_hits,
                        virtual_before=virtual_before,
                        wall_before=wall_before,
                        seeded=True,
                    )
            # Seed rejected (oracle extended / handler changed): restore the
            # original and re-search with seeded components ordered first.
            atomic_write_text(file, original_source, durable=False)
            removable = seed_components + [
                c for c in removable if c.name not in seed_set
            ]

        try:
            debugger = DeltaDebugger(
                oracle,
                record_trace=self._record_trace,
                max_oracle_calls=self._max_calls,
                key_fn=self.component_key,
                seed_verdicts=journal_seeds,
                verify_seeds=self._verify_seeds,
                quorum=self._quorum,
                on_probe=journal_probe,
            )
            outcome = debugger.minimize(removable)
        except ValueError as exc:
            # The full set failed: the working bundle no longer matches the
            # oracle (e.g. a previous module broke it).  Restore and report.
            atomic_write_text(file, original_source, durable=False)
            raise DebloatError(f"oracle rejects unmodified {dotted}: {exc}") from exc
        except BaseException:
            atomic_write_text(file, original_source, durable=False)
            raise

        return self._commit(
            dotted,
            file,
            decomposition,
            protected,
            final_keep=pinned + list(outcome.minimal),
            oracle_calls=outcome.oracle_calls,
            cache_hits=outcome.cache_hits,
            journal_hits=outcome.journal_hits + seed_journal_hits,
            flaky_probes=outcome.flaky_probes,
            dd_iterations=outcome.iterations,
            virtual_before=virtual_before,
            wall_before=wall_before,
            trace=outcome.trace,
        )

    def _commit(
        self,
        dotted: str,
        file: Path,
        decomposition,
        protected,
        *,
        final_keep: list[AttributeComponent],
        oracle_calls: int,
        cache_hits: int = 0,
        journal_hits: int = 0,
        flaky_probes: int = 0,
        dd_iterations: int = 0,
        virtual_before: float,
        wall_before: float,
        seeded: bool = False,
        trace: list[DDTraceStep] | None = None,
    ) -> ModuleDebloatResult:
        """Transactionally materialize the winning configuration.

        The durable atomic write lands first; the journal COMMIT record
        (with the final content hash) follows, making the rewrite
        all-or-nothing: a crash before the COMMIT rolls the module back
        to pristine on resume, a crash after it keeps the committed file.
        """
        final_source = rebuild_source(decomposition, final_keep)
        atomic_write_text(file, final_source, durable=True)
        keep_set = set(final_keep)
        result = ModuleDebloatResult(
            module=dotted,
            file=file,
            attributes_before=decomposition.attribute_count,
            attributes_after=len(final_keep),
            protected=sorted(protected),
            removed=sorted(
                c.name for c in decomposition.components if c not in keep_set
            ),
            kept=sorted(c.name for c in final_keep),
            oracle_calls=oracle_calls,
            cache_hits=cache_hits,
            dd_iterations=dd_iterations,
            debloat_time_s=self.runner.meter.time_s - virtual_before,
            wall_time_s=time.perf_counter() - wall_before,
            seeded=seeded,
            trace=list(trace or []),
            journal_hits=journal_hits,
            flaky_probes=flaky_probes,
        )
        if self._journal is not None:
            self._journal.module_commit(
                dotted, text_sha256(final_source), result.to_dict()
            )
        return result
