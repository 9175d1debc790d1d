"""The generic Delta Debugging algorithm (Algorithm 1 of the paper).

Given a list of program components ``A`` and an oracle ``O`` that returns
``True`` when the program assembled from a candidate subset still behaves
correctly, DD finds a *1-minimal* subset: removing any single remaining
component makes the oracle fail.

The divide-and-conquer loop follows Algorithm 1 exactly:

1. split the candidate ``A`` into ``n`` partitions;
2. if some partition ``a_i`` alone passes the oracle, recurse on it with
   ``n = 2`` ("reduce to subset");
3. else if some complement ``A \\ a_i`` passes, recurse on it with
   ``n = n - 1`` ("reduce to complement");
4. else double the granularity (``n = 2n``) until ``n`` exceeds ``|A|``.

Every tested configuration is cached (as in the paper's Figure 6, where
already-tested ``n = 2`` sets are skipped), and an optional trace records
each step for visualisation and testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, Hashable, Mapping, Sequence, TypeVar

from repro.errors import OracleError
from repro.obs import get_recorder

__all__ = ["DeltaDebugger", "DDOutcome", "DDTraceStep", "ddmin_keep", "split_partitions"]

T = TypeVar("T", bound=Hashable)

OracleFn = Callable[[Sequence[T]], bool]

#: Maps a candidate component sequence to its cache key.  The default is
#: ``frozenset``; the debloater substitutes a content hash so journaled
#: verdicts survive process restarts (components are re-derived on resume).
KeyFn = Callable[[Sequence[T]], Hashable]

#: Probe listener ``(key, verdict, granularity)`` invoked after every
#: *live* oracle run — the write-ahead journal's feed.
ProbeListener = Callable[[Hashable, bool, int], None]


def split_partitions(items: Sequence[T], n: int) -> list[list[T]]:
    """Split *items* into *n* contiguous partitions of near-equal size.

    The first ``len(items) % n`` partitions get one extra element, matching
    the canonical ddmin partitioning.  Requires ``1 <= n <= len(items)``.
    """
    if n < 1:
        raise ValueError(f"partition count must be >= 1, got {n}")
    if n > len(items):
        raise ValueError(f"cannot split {len(items)} items into {n} partitions")
    base, extra = divmod(len(items), n)
    partitions: list[list[T]] = []
    start = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        partitions.append(list(items[start : start + size]))
        start += size
    return partitions


@dataclass(frozen=True)
class DDTraceStep:
    """One oracle query in the DD search, for walkthroughs (Figure 6)."""

    step: int
    granularity: int
    kind: str  # "subset" | "complement" | "initial"
    tested: tuple[T, ...]
    passed: bool
    cached: bool = False


@dataclass
class DDOutcome(Generic[T]):
    """Result of a DD minimization run."""

    minimal: list[T]
    oracle_calls: int
    cache_hits: int
    iterations: int
    trace: list[DDTraceStep] = field(default_factory=list)
    cache_misses: int = 0
    #: Probes answered from a journal-seeded cache (first lookup of each
    #: seeded candidate): these were real oracle calls in the run that
    #: wrote the journal, so ``journal_hits + oracle_calls`` equals the
    #: uninterrupted run's probe count after a kill-and-resume.
    journal_hits: int = 0
    #: Live probes whose verdict disagreed with a journaled/cached verdict
    #: and were adjudicated by the quorum re-run vote.
    flaky_probes: int = 0

    @property
    def cache_lookups(self) -> int:
        """Total configuration-cache queries (hits + misses)."""
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups served without an oracle run."""
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups else 0.0


class DeltaDebugger(Generic[T]):
    """Algorithm 1: DD-based program minimization with configuration caching.

    Parameters
    ----------
    oracle:
        Callable receiving the candidate *kept* component sequence and
        returning ``True`` when the resulting program is still correct.
    record_trace:
        Record every oracle query as a :class:`DDTraceStep`.
    max_oracle_calls:
        Abort the search (returning the best candidate so far) after this
        many oracle invocations; ``None`` means unbounded.
    check_initial:
        Verify the full component set passes the oracle before minimizing
        (a failing baseline means the oracle spec itself is broken).
    treat_as_failure:
        Exception types from the oracle that mean "this *candidate* is
        bad", not "the search is broken".  A debloated candidate can hang
        (infinite loop where a guard used to be) or crash the probe
        harness — :class:`~repro.errors.OracleTimeout` /
        :class:`~repro.errors.OracleError` — and the right response is to
        record the candidate as failing and keep reducing, exactly as if
        the oracle had returned ``False``.  The verdict is cached like
        any other, so the hanging configuration is never probed twice.
    key_fn:
        Maps a candidate to its cache key (default ``frozenset``).  The
        debloater passes a content hash so the cache can be seeded from a
        write-ahead journal across process restarts.
    seed_verdicts:
        Journal-sourced cache (key → verdict) replayed into the search.
        The first lookup of each seeded key is counted as a *journal hit*
        and — because it stands in for a real oracle call of the crashed
        run — consumes ``max_oracle_calls`` budget, so a resumed search
        truncates at exactly the same point as an uninterrupted one.
    verify_seeds:
        Treat seeded verdicts as advisory instead of authoritative: the
        probe still runs live, and a disagreement triggers the flaky
        quorum (re-run up to ``quorum`` times, majority vote, ties
        resolve to *failing* — the safe direction, keeping components).
    quorum:
        Total live runs used to adjudicate a seed disagreement.
    on_probe:
        ``(key, verdict, granularity)`` listener invoked after every live
        oracle run — the write-ahead journal's append hook.
    """

    def __init__(
        self,
        oracle: OracleFn,
        *,
        record_trace: bool = False,
        max_oracle_calls: int | None = None,
        check_initial: bool = True,
        treat_as_failure: tuple[type[BaseException], ...] = (OracleError,),
        key_fn: KeyFn | None = None,
        seed_verdicts: Mapping[Hashable, bool] | None = None,
        verify_seeds: bool = False,
        quorum: int = 3,
        on_probe: ProbeListener | None = None,
    ) -> None:
        self._oracle = oracle
        self._record_trace = record_trace
        self._max_oracle_calls = max_oracle_calls
        self._check_initial = check_initial
        self._treat_as_failure = tuple(treat_as_failure)
        self._key_fn: KeyFn = key_fn if key_fn is not None else frozenset
        self._verify_seeds = verify_seeds
        self._quorum = max(quorum, 1)
        self._on_probe = on_probe
        self._cache: dict[Hashable, bool] = {}
        self._seeds: dict[Hashable, bool] = dict(seed_verdicts or {})
        self._seed_pending: set[Hashable] = set(self._seeds)
        if not verify_seeds:
            # Trusted seeds answer lookups directly from the cache.
            self._cache.update(self._seeds)
        self._calls = 0
        self._cache_hits = 0
        self._journal_hits = 0
        self._flaky = 0
        self._trace: list[DDTraceStep] = []
        self._step = 0

    # -- public statistics ---------------------------------------------------

    @property
    def oracle_calls(self) -> int:
        """Oracle invocations so far (cache hits excluded)."""
        return self._calls

    @property
    def cache_hits(self) -> int:
        """Configuration-cache lookups answered without an oracle run."""
        return self._cache_hits

    @property
    def cache_misses(self) -> int:
        """Configuration-cache lookups that required an oracle run."""
        return self._calls

    @property
    def cache_size(self) -> int:
        """Distinct configurations tested (and remembered) so far."""
        return len(self._cache)

    @property
    def journal_hits(self) -> int:
        """Lookups answered by the journal-seeded cache (first hit each)."""
        return self._journal_hits

    @property
    def flaky_probes(self) -> int:
        """Seed disagreements adjudicated by the quorum vote."""
        return self._flaky

    # -- oracle plumbing ----------------------------------------------------

    def _query(self, candidate: Sequence[T], granularity: int, kind: str) -> bool:
        key = self._key_fn(candidate)
        cached = key in self._cache
        if cached:
            if key in self._seed_pending:
                # First lookup of a journaled probe: it stands in for a
                # real oracle call of the crashed run (budget included).
                self._seed_pending.discard(key)
                self._journal_hits += 1
            else:
                self._cache_hits += 1
            result = self._cache[key]
        else:
            if (
                self._max_oracle_calls is not None
                and self._calls + self._journal_hits >= self._max_oracle_calls
            ):
                raise _OracleBudgetExhausted()
            self._calls += 1
            try:
                result = bool(self._oracle(candidate))
            except self._treat_as_failure:
                result = False
            result = self._reconcile_seed(key, candidate, result)
            self._cache[key] = result
            if self._on_probe is not None:
                self._on_probe(key, result, granularity)
        if self._record_trace:
            self._step += 1
            self._trace.append(
                DDTraceStep(
                    step=self._step,
                    granularity=granularity,
                    kind=kind,
                    tested=tuple(candidate),
                    passed=result,
                    cached=cached,
                )
            )
        return result

    def _reconcile_seed(self, key: Hashable, candidate: Sequence[T], live: bool) -> bool:
        """Adjudicate a live verdict against an advisory seeded verdict.

        Only active with ``verify_seeds=True``.  Agreement adopts the live
        verdict; disagreement marks the probe flaky and re-runs the oracle
        up to ``quorum`` times total, deciding by majority over the live
        runs plus the seeded vote.  A tie resolves to ``False`` — the
        conservative direction: a wrong "fail" merely keeps a component,
        a wrong "pass" would remove needed code.
        """
        if not self._verify_seeds or key not in self._seeds:
            return live
        seed = self._seeds.pop(key)
        self._seed_pending.discard(key)
        if live == seed:
            return live
        self._flaky += 1
        votes = [live, seed]
        for _ in range(self._quorum - 1):
            self._calls += 1
            try:
                votes.append(bool(self._oracle(candidate)))
            except self._treat_as_failure:
                votes.append(False)
        get_recorder().counter_add("dd.flaky_probes")
        return votes.count(True) > votes.count(False)

    # -- the algorithm -------------------------------------------------------

    def minimize(self, components: Sequence[T]) -> DDOutcome[T]:
        """Run Algorithm 1 over *components*; returns the 1-minimal subset."""
        recorder = get_recorder()
        if not recorder.enabled:
            return self._minimize(components)
        calls_before, hits_before = self._calls, self._cache_hits
        journal_before = self._journal_hits
        with recorder.span("dd.minimize", components=len(components)) as span:
            outcome = self._minimize(components)
            if span is not None:
                span.set_attr("minimal", len(outcome.minimal))
                span.set_attr("oracle_calls", outcome.oracle_calls)
                if outcome.journal_hits:
                    span.set_attr("journal_hits", outcome.journal_hits)
            recorder.counter_add("dd.minimize_runs")
            recorder.counter_add("dd.oracle_calls", self._calls - calls_before)
            recorder.counter_add("dd.cache_hits", self._cache_hits - hits_before)
            recorder.counter_add("dd.cache_misses", self._calls - calls_before)
            recorder.counter_add(
                "dd.journal_hits", self._journal_hits - journal_before
            )
            recorder.counter_add(
                "dd.components_removed", len(components) - len(outcome.minimal)
            )
        return outcome

    def _minimize(self, components: Sequence[T]) -> DDOutcome[T]:
        candidate = list(components)
        iterations = 0

        try:
            if self._check_initial and not self._query(candidate, 1, "initial"):
                raise ValueError(
                    "oracle rejects the full component set; the baseline "
                    "program does not satisfy the specification"
                )

            # An empty program that still passes is trivially minimal and
            # common in debloating (no redundant attribute is needed).
            if candidate and self._query([], len(candidate), "subset"):
                candidate = []

            n = 2
            while len(candidate) >= 2:
                iterations += 1
                n = min(n, len(candidate))
                partitions = split_partitions(candidate, n)

                reduced = False
                # Step 1: try each partition alone (lines 4-6 of Algorithm 1).
                for part in partitions:
                    if self._query(part, n, "subset"):
                        candidate = part
                        n = 2
                        reduced = True
                        break

                # Step 2: try each complement (lines 7-8).
                if not reduced and n > 2:
                    for i in range(n):
                        complement = [
                            item
                            for j, part in enumerate(partitions)
                            for item in part
                            if j != i
                        ]
                        if self._query(complement, n, "complement"):
                            candidate = complement
                            n = max(n - 1, 2)
                            reduced = True
                            break

                # Step 3: increase granularity or stop (lines 9-12).
                if not reduced:
                    if n >= len(candidate):
                        break
                    n = min(2 * n, len(candidate))
        except _OracleBudgetExhausted:
            pass

        outcome = DDOutcome(
            minimal=candidate,
            oracle_calls=self._calls,
            cache_hits=self._cache_hits,
            iterations=iterations,
            trace=list(self._trace),
            cache_misses=self._calls,
            journal_hits=self._journal_hits,
            flaky_probes=self._flaky,
        )
        return outcome


class _OracleBudgetExhausted(Exception):
    """Internal: raised when ``max_oracle_calls`` is hit mid-search."""


def ddmin_keep(
    components: Sequence[T],
    oracle: OracleFn,
    *,
    record_trace: bool = False,
    max_oracle_calls: int | None = None,
) -> DDOutcome[T]:
    """Convenience wrapper: minimize *components* under *oracle*."""
    debugger = DeltaDebugger(
        oracle,
        record_trace=record_trace,
        max_oracle_calls=max_oracle_calls,
    )
    return debugger.minimize(components)
