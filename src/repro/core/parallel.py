"""Intra-module parallel delta debugging (Section 9 future work).

"First, we will parallelize DD both intra-(multiple sets of attributes of
the same module in parallel) and inter-(multiple modules in parallel)
modules."

This module implements the *intra* direction:

* :class:`BatchDeltaDebugger` restates Algorithm 1 so that each phase's
  probes — the ``n`` subsets, then the ``n`` complements — are evaluated
  as one batch.  The search is semantically identical to the sequential
  algorithm (the first passing probe *in index order* wins), but a batch
  may evaluate probes the sequential algorithm would have skipped: extra
  oracle calls traded for wall-clock time.

* :class:`ParallelModuleDebloater` supplies the batch oracle: ``workers``
  clones of the working bundle, each probe rewriting its own clone's
  module file and executing in a **separate OS process** (the in-process
  executor shares an interpreter, so real parallelism needs real
  processes).

Inter-module parallelism is intentionally left out, as the paper notes it
"requires very meticulous handling of module dependencies".
"""

from __future__ import annotations

import queue
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Generic, Hashable, Mapping, Sequence, TypeVar

from repro.bundle import AppBundle
from repro.core.ast_transform import rebuild_source
from repro.core.dd import DDOutcome, split_partitions
from repro.core.granularity import GRANULARITY_ATTRIBUTE, decompose_module
from repro.core.debloater import ModuleDebloatResult
from repro.core.journal import (
    ProbeJournal,
    atomic_write_text,
    candidate_hash,
    text_sha256,
)
from repro.core.oracle import OracleSpec
from repro.core.subprocess_runner import run_in_subprocess
from repro.errors import DebloatError, OracleError
from repro.obs import get_recorder

__all__ = ["BatchDeltaDebugger", "ParallelModuleDebloater"]

T = TypeVar("T")

BatchOracleFn = Callable[[list[list[T]]], list[bool]]


class BatchDeltaDebugger(Generic[T]):
    """Algorithm 1 with per-phase batch evaluation.

    Accepts the same journal plumbing as the sequential
    :class:`~repro.core.dd.DeltaDebugger`: a ``key_fn`` to key the cache
    by content hash, journal-sourced ``seed_verdicts`` (always trusted —
    the quorum adjudication is sequential-only), and an ``on_probe``
    listener feeding the write-ahead journal.  Journal hits consume the
    oracle-call budget so a resumed search truncates where the
    uninterrupted one would.
    """

    def __init__(
        self,
        batch_oracle: BatchOracleFn,
        *,
        max_oracle_calls: int | None = None,
        key_fn: Callable[[Sequence[T]], Hashable] | None = None,
        seed_verdicts: Mapping[Hashable, bool] | None = None,
        on_probe: Callable[[Hashable, bool, int], None] | None = None,
    ):
        self._batch_oracle = batch_oracle
        self._max_calls = max_oracle_calls
        self._key_fn = key_fn if key_fn is not None else frozenset
        self._on_probe = on_probe
        self._cache: dict[Hashable, bool] = dict(seed_verdicts or {})
        self._seed_pending: set[Hashable] = set(self._cache)
        self.oracle_calls = 0
        self.cache_hits = 0
        self.journal_hits = 0
        self.batches = 0

    @property
    def cache_misses(self) -> int:
        """Cache lookups that went to the batch oracle (== oracle calls)."""
        return self.oracle_calls

    @property
    def cache_size(self) -> int:
        """Distinct configurations tested (and remembered) so far."""
        return len(self._cache)

    def _query_batch(
        self, candidates: list[list[T]], granularity: int = 0
    ) -> list[bool]:
        """Evaluate candidates, consulting the cache; preserves order."""
        fresh: list[list[T]] = []
        fresh_keys: list[Hashable] = []
        seen_in_batch: set[Hashable] = set()
        for candidate in candidates:
            key = self._key_fn(candidate)
            if key in self._cache:
                if key in self._seed_pending:
                    self._seed_pending.discard(key)
                    self.journal_hits += 1
                else:
                    self.cache_hits += 1
            elif key not in seen_in_batch:
                fresh.append(candidate)
                fresh_keys.append(key)
                seen_in_batch.add(key)

        if fresh:
            if (
                self._max_calls is not None
                and self.oracle_calls + self.journal_hits + len(fresh)
                > self._max_calls
            ):
                raise _BudgetExhausted()
            self.batches += 1
            self.oracle_calls += len(fresh)
            recorder = get_recorder()
            with recorder.span("dd.batch", probes=len(fresh)):
                results = self._batch_oracle(fresh)
            recorder.counter_add("batch_dd.batches")
            recorder.counter_add("batch_dd.probes", len(fresh))
            if len(results) != len(fresh):
                raise DebloatError(
                    "batch oracle returned a result count mismatch"
                )
            for key, passed in zip(fresh_keys, results):
                self._cache[key] = bool(passed)
                if self._on_probe is not None:
                    self._on_probe(key, bool(passed), granularity)

        return [self._cache[self._key_fn(c)] for c in candidates]

    def minimize(self, components: Sequence[T]) -> DDOutcome[T]:
        recorder = get_recorder()
        if not recorder.enabled:
            return self._minimize(components)
        calls_before, hits_before = self.oracle_calls, self.cache_hits
        with recorder.span("batch_dd.minimize", components=len(components)) as span:
            outcome = self._minimize(components)
            if span is not None:
                span.set_attr("minimal", len(outcome.minimal))
                span.set_attr("oracle_calls", outcome.oracle_calls)
            recorder.counter_add("dd.minimize_runs")
            recorder.counter_add("dd.oracle_calls", self.oracle_calls - calls_before)
            recorder.counter_add("dd.cache_hits", self.cache_hits - hits_before)
            recorder.counter_add("dd.cache_misses", self.oracle_calls - calls_before)
            recorder.counter_add("dd.journal_hits", self.journal_hits)
            recorder.counter_add(
                "dd.components_removed", len(components) - len(outcome.minimal)
            )
        return outcome

    def _minimize(self, components: Sequence[T]) -> DDOutcome[T]:
        candidate = list(components)
        iterations = 0
        try:
            initial = self._query_batch([candidate], 1)[0]
            if not initial:
                raise ValueError(
                    "oracle rejects the full component set; the baseline "
                    "program does not satisfy the specification"
                )
            if candidate and self._query_batch([[]], len(candidate))[0]:
                candidate = []

            n = 2
            while len(candidate) >= 2:
                iterations += 1
                n = min(n, len(candidate))
                partitions = split_partitions(candidate, n)

                verdicts = self._query_batch([list(p) for p in partitions], n)
                winner = next(
                    (i for i, passed in enumerate(verdicts) if passed), None
                )
                if winner is not None:
                    candidate = partitions[winner]
                    n = 2
                    continue

                if n > 2:
                    complements = [
                        [
                            item
                            for j, part in enumerate(partitions)
                            for item in part
                            if j != i
                        ]
                        for i in range(n)
                    ]
                    verdicts = self._query_batch(complements, n)
                    winner = next(
                        (i for i, passed in enumerate(verdicts) if passed), None
                    )
                    if winner is not None:
                        candidate = complements[winner]
                        n = max(n - 1, 2)
                        continue

                if n >= len(candidate):
                    break
                n = min(2 * n, len(candidate))
        except _BudgetExhausted:
            pass

        return DDOutcome(
            minimal=candidate,
            oracle_calls=self.oracle_calls,
            cache_hits=self.cache_hits,
            iterations=iterations,
            cache_misses=self.oracle_calls,
            journal_hits=self.journal_hits,
        )


class _BudgetExhausted(Exception):
    """Internal: the oracle-call budget was hit mid-search."""


class ParallelModuleDebloater:
    """Debloats one module at a time with parallel subprocess probes.

    Parameters
    ----------
    working:
        The bundle whose files the winning configuration lands in.
    reference:
        The pristine bundle defining expected outputs.
    workers:
        Concurrent probes (= worker bundle clones = OS processes in flight).
    """

    def __init__(
        self,
        working: AppBundle,
        reference: AppBundle,
        *,
        spec: OracleSpec | None = None,
        workers: int = 4,
        granularity: str = GRANULARITY_ATTRIBUTE,
        max_oracle_calls_per_module: int | None = None,
        journal: ProbeJournal | None = None,
        seed: int = 0,
    ):
        if workers < 1:
            raise DebloatError(f"need at least one worker, got {workers}")
        self.working = working
        self.workers = workers
        self._granularity = granularity
        self._max_calls = max_oracle_calls_per_module
        self._journal = journal
        self._seed = seed
        self.spec = spec if spec is not None else OracleSpec.from_bundle(reference)

        self._expected: dict[str, dict] = {}
        for case in self.spec:
            result = run_in_subprocess(reference, case.event, case.context)
            observable = result["observable"]
            if observable.get("error_type") or observable.get("init_error_type"):
                raise OracleError(
                    f"reference bundle fails oracle case {case.name!r}"
                )
            self._expected[case.name] = observable

    # -- probe machinery --------------------------------------------------

    def _probe(self, worker: AppBundle, module: str, source: str) -> bool:
        """One candidate: rewrite the worker's module file and run all cases."""
        worker.module_file(module).write_text(source, encoding="utf-8")
        for case in self.spec:
            result = run_in_subprocess(worker, case.event, case.context)
            if result["observable"] != self._expected[case.name]:
                return False
        return True

    def debloat_module(
        self,
        dotted: str,
        protected: set[str] | frozenset[str] = frozenset(),
        *,
        journal_seeds: Mapping[str, bool] | None = None,
    ) -> ModuleDebloatResult:
        file = self.working.module_file(dotted)
        original_source = file.read_text(encoding="utf-8")
        decomposition = decompose_module(
            original_source, filename=str(file), granularity=self._granularity
        )
        removable = decomposition.removable(set(protected))
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

        wall_before = time.perf_counter()
        # One clone of the current working state per worker slot.
        clone_root = self.working.root.parent / f".parallel-{self.working.name}"
        shutil.rmtree(clone_root, ignore_errors=True)
        slots: queue.Queue[AppBundle] = queue.Queue()
        for i in range(self.workers):
            slots.put(self.working.clone(clone_root / f"worker-{i}"))

        def evaluate_one(candidate: list) -> bool:
            source = rebuild_source(decomposition, pinned + list(candidate))
            worker = slots.get()
            try:
                return self._probe(worker, dotted, source)
            except OracleError:
                # A hanging or probe-crashing candidate (OracleTimeout /
                # OracleError) is just a failing candidate: report False so
                # the batch DD keeps reducing instead of aborting the module.
                return False
            finally:
                slots.put(worker)

        def batch_oracle(candidates: list[list]) -> list[bool]:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                return list(pool.map(evaluate_one, candidates))

        def component_key(candidate: Sequence) -> str:
            return candidate_hash(c.key for c in candidate)

        on_probe = None
        if self._journal is not None:
            self._journal.module_begin(dotted)

            def on_probe(key, verdict, granularity):
                self._journal.record_probe(
                    dotted, key, verdict, granularity=granularity, seed=self._seed
                )

        try:
            debugger = BatchDeltaDebugger(
                batch_oracle,
                max_oracle_calls=self._max_calls,
                key_fn=component_key,
                seed_verdicts=journal_seeds,
                on_probe=on_probe,
            )
            with get_recorder().span(
                "debloat", label=dotted, workers=self.workers
            ) as span:
                outcome = debugger.minimize(removable)
                if span is not None:
                    span.set_attr("batches", debugger.batches)
        except ValueError as exc:
            raise DebloatError(f"oracle rejects unmodified {dotted}: {exc}") from exc
        finally:
            shutil.rmtree(clone_root, ignore_errors=True)

        final_keep = pinned + list(outcome.minimal)
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
            oracle_calls=outcome.oracle_calls,
            cache_hits=outcome.cache_hits,
            journal_hits=outcome.journal_hits,
            dd_iterations=outcome.iterations,
            wall_time_s=time.perf_counter() - wall_before,
        )
        if self._journal is not None:
            self._journal.module_commit(
                dotted, text_sha256(final_source), result.to_dict()
            )
        return result
