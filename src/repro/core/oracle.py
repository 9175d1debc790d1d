"""Oracle specifications and equivalence checking (Sections 4 and 5.3).

λ-trim's correctness contract is the *oracle specification*: a set of
(event, context) test cases for which the debloated program must produce
the same output as the original.  "In most cases, just ensuring the
matching of standard output is sufficient" — we compare the handler's
return value, its standard output, and (when the run fails) the error
type, so removing a needed attribute is always detected.

:class:`OracleRunner` captures the expected observables by running the
pristine bundle once per case, then answers DD queries by re-running a
candidate and comparing.  A DD candidate is a :class:`ModuleCandidate`:
the working bundle with one module rebuilt from a keep set.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.bundle import AppBundle
from repro.core.ast_transform import rebuild_code, rebuild_source
from repro.core.execution import module_overlay, run_once
from repro.core.granularity import AttributeComponent, ModuleDecomposition
from repro.core.journal import atomic_write_bytes, atomic_write_text
from repro.errors import OracleError
from repro.obs import get_recorder
from repro.vm import ChargeEvent, Meter, metered

__all__ = [
    "CaseOutcome",
    "ModuleCandidate",
    "OracleCase",
    "OracleResult",
    "OracleRunner",
    "OracleSpec",
]


@dataclass(frozen=True)
class OracleCase:
    """One test case: an event payload and an invocation context."""

    name: str
    event: Any
    context: Any = None

    def to_dict(self) -> dict:
        return {"name": self.name, "event": self.event, "context": self.context}

    @classmethod
    def from_dict(cls, data: dict, *, index: int = 0) -> "OracleCase":
        if "event" not in data:
            raise OracleError(f"oracle case {index} missing 'event'")
        return cls(
            name=data.get("name", f"case-{index}"),
            event=data["event"],
            context=data.get("context"),
        )


@dataclass
class OracleSpec:
    """The full oracle: the cases the debloated program must preserve."""

    cases: list[OracleCase] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.cases:
            raise OracleError("oracle specification must contain at least one case")
        names = [case.name for case in self.cases]
        if len(set(names)) != len(names):
            raise OracleError(f"duplicate oracle case names: {names}")

    def __len__(self) -> int:
        return len(self.cases)

    def __iter__(self):
        return iter(self.cases)

    def add_case(self, case: OracleCase) -> None:
        """Extend the oracle (the fuzz-then-rerun workflow of Section 5.4)."""
        if any(existing.name == case.name for existing in self.cases):
            raise OracleError(f"duplicate oracle case name: {case.name}")
        self.cases.append(case)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps([case.to_dict() for case in self.cases], indent=2)

    def save(self, path: Path | str) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def from_json(cls, text: str) -> "OracleSpec":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise OracleError(f"oracle specification is not valid JSON: {exc}") from exc
        if not isinstance(raw, list):
            raise OracleError("oracle specification must be a JSON list of cases")
        return cls(
            cases=[OracleCase.from_dict(item, index=i) for i, item in enumerate(raw)]
        )

    @classmethod
    def load(cls, path: Path | str) -> "OracleSpec":
        path = Path(path)
        if not path.exists():
            raise OracleError(f"oracle specification not found: {path}")
        return cls.from_json(path.read_text(encoding="utf-8"))

    @classmethod
    def from_bundle(cls, bundle: AppBundle) -> "OracleSpec":
        return cls.load(bundle.oracle_path)


@dataclass
class CaseOutcome:
    """Comparison result for a single oracle case."""

    case: str
    passed: bool
    expected: dict | None = None
    actual: dict | None = None

    def describe(self) -> str:
        if self.passed:
            return f"{self.case}: ok"
        return f"{self.case}: expected {self.expected!r}, got {self.actual!r}"


@dataclass
class OracleResult:
    """Aggregate verdict over every oracle case."""

    outcomes: list[CaseOutcome]

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    @property
    def failures(self) -> list[CaseOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.passed]

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class ModuleCandidate:
    """A DD candidate: *bundle* with the module that *decomposition* was
    parsed from rebuilt to keep only the components in *keep*."""

    bundle: AppBundle
    decomposition: ModuleDecomposition
    keep: list[AttributeComponent]


RunFn = Callable[[AppBundle, Any, Any], dict]


def _default_run(bundle: AppBundle, event: Any, context: Any) -> dict:
    return run_once(bundle, event, context).observable()


class _ProbeMeter(Meter):
    """The oracle's meter: it sums virtual time and keeps nothing else.

    It is active through every probe, so a plain :class:`Meter` would
    hold each probe's charge events, external calls and memory ledger for
    the runner's lifetime, while only ``time_s`` is ever read.  Time is
    still added charge by charge, in event order, so the sum rounds
    exactly as a plain meter's does.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.external_calls = deque(maxlen=0)  # appends are dropped

    def charge(self, event: ChargeEvent) -> None:
        self._time_s += event.time_s


class OracleRunner:
    """Answers "does this candidate bundle still satisfy the oracle?".

    Parameters
    ----------
    reference:
        The pristine bundle whose behaviour defines correctness.
    spec:
        Oracle cases; defaults to the bundle's ``oracle.json``.
    run:
        Strategy producing a run's observable dict — the in-process
        executor by default, a subprocess executor for OS-level isolation.
    fail_fast:
        Stop at the first failing case (the common DD configuration).
    """

    def __init__(
        self,
        reference: AppBundle,
        spec: OracleSpec | None = None,
        *,
        run: RunFn = _default_run,
        fail_fast: bool = True,
    ):
        self.spec = spec if spec is not None else OracleSpec.from_bundle(reference)
        self._run = run
        self._fail_fast = fail_fast
        self.checks_performed = 0
        # Accumulates the virtual time spent executing oracle probes — the
        # quantity behind Table 3's per-application debloating time.
        self.meter: Meter = _ProbeMeter("oracle")
        self._expected: dict[str, dict] = {}
        with metered(self.meter):
            for case in self.spec:
                observable = self._run(reference, case.event, case.context)
                if observable.get("error_type") or observable.get("init_error_type"):
                    raise OracleError(
                        f"reference bundle fails oracle case {case.name!r}: {observable}"
                    )
                self._expected[case.name] = observable

    @property
    def expected(self) -> dict[str, dict]:
        return dict(self._expected)

    def check(self, candidate: AppBundle | ModuleCandidate) -> OracleResult:
        """Run every case against *candidate* and compare observables.

        A :class:`ModuleCandidate` leaves its module's file alone under
        the in-process executor: the check's loads run the module from its
        rebuild plan's statement code (:func:`module_overlay`).  A custom
        ``run`` may read the disk, as a subprocess does, so for it the
        rebuilt text replaces the file for the length of the check and
        the file's previous bytes are put back afterwards.
        """
        if isinstance(candidate, AppBundle):
            return self._check(candidate)
        decomposition, keep = candidate.decomposition, candidate.keep
        if self._run is _default_run:
            with module_overlay(
                decomposition.filename, rebuild_code(decomposition, keep)
            ):
                return self._check(candidate.bundle)
        file = Path(decomposition.filename)
        previous = file.read_bytes()
        atomic_write_text(file, rebuild_source(decomposition, keep), durable=False)
        try:
            return self._check(candidate.bundle)
        finally:
            atomic_write_bytes(file, previous, durable=False)

    def _check(self, candidate: AppBundle) -> OracleResult:
        self.checks_performed += 1
        recorder = get_recorder()
        outcomes: list[CaseOutcome] = []
        with recorder.span("oracle.check", cases=len(self.spec)) as span:
            with metered(self.meter):
                for case in self.spec:
                    virtual_before = self.meter.time_s
                    actual = self._run(candidate, case.event, case.context)
                    expected = self._expected[case.name]
                    passed = actual == expected
                    outcomes.append(
                        CaseOutcome(
                            case=case.name,
                            passed=passed,
                            expected=expected,
                            actual=actual,
                        )
                    )
                    if recorder.enabled:
                        recorder.event(
                            "oracle.case",
                            {
                                "case": case.name,
                                "passed": passed,
                                "virtual_s": self.meter.time_s - virtual_before,
                            },
                        )
                        recorder.counter_add(
                            "oracle.cases_passed" if passed else "oracle.cases_failed"
                        )
                    if not passed and self._fail_fast:
                        break
            result = OracleResult(outcomes=outcomes)
            if span is not None:
                span.set_attr("passed", result.passed)
            recorder.counter_add("oracle.checks")
        return result
