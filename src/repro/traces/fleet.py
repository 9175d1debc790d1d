"""Multi-function fleet traces: the unit the fleet replay engine drives.

A :class:`FleetTrace` is an immutable set of per-function
:class:`~repro.traces.azure.FunctionTrace` series — the whole population
a replay run serves.  It knows how to generate itself from the seeded
Azure-style generator (growing the population until an invocation target
is met), round-trip through JSON lines so a trace can be pinned as a test
fixture or CI artifact, and partition itself into balanced shards for the
multi-process engine in :mod:`repro.platform.fleet`.

Partitioning is by *function*: warm-instance state, fault streams, and
request ids are all per-function, so functions are the natural
independent unit.  The greedy longest-processing-time split only balances
wall-clock across workers — replay results never depend on which shard a
function landed in.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.errors import TraceError
from repro.traces.azure import DAY_S, AzureTraceGenerator, FunctionTrace

__all__ = ["FleetTrace"]


@dataclass(frozen=True)
class FleetTrace:
    """A population of function traces replayed as one fleet."""

    traces: tuple[FunctionTrace, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for trace in self.traces:
            if trace.function_id in seen:
                raise TraceError(f"duplicate function: {trace.function_id}")
            seen.add(trace.function_id)

    # -- construction ------------------------------------------------------

    @classmethod
    def generate(
        cls,
        n_functions: int,
        *,
        seed: int = 2025,
        duration_s: float = DAY_S,
    ) -> "FleetTrace":
        """A seeded Azure-style population of *n_functions* traces."""
        generator = AzureTraceGenerator(seed=seed, duration_s=duration_s)
        return cls(traces=tuple(generator.generate(n_functions)))

    @classmethod
    def generate_invocations(
        cls,
        target: int,
        *,
        seed: int = 2025,
        duration_s: float = DAY_S,
        max_per_function: int | None = None,
    ) -> "FleetTrace":
        """Grow the population until it totals >= *target* invocations.

        ``max_per_function`` skips traces busier than the cap (the same
        guard the acceptance tests use to keep one hyperactive steady
        function from dwarfing the rest of the fleet).  Generation is a
        pure function of ``(seed, duration_s)`` — the walk over candidate
        indices is deterministic, so the same arguments always produce
        the same fleet.
        """
        if target <= 0:
            raise TraceError(f"need a positive invocation target: {target}")
        generator = AzureTraceGenerator(seed=seed, duration_s=duration_s)
        traces: list[FunctionTrace] = []
        total = 0
        index = 0
        while total < target:
            trace = generator.generate_function(index)
            index += 1
            if (
                max_per_function is not None
                and trace.invocations > max_per_function
            ):
                continue
            traces.append(trace)
            total += trace.invocations
        return cls(traces=tuple(traces))

    @classmethod
    def stream_invocations(
        cls,
        target: int,
        *,
        seed: int = 2025,
        duration_s: float = DAY_S,
        max_per_function: int | None = None,
        batch_functions: int = 256,
    ):
        """The streaming twin of :meth:`generate_invocations`.

        Yields the *same* population — identical deterministic walk,
        identical skip rule — as successive :class:`FleetTrace` batches
        of at most *batch_functions* functions, so a 10M-invocation day
        replays with bounded RSS: only one batch of timestamp tuples is
        alive at a time instead of the whole O(target) fleet.
        Concatenating every batch's traces reproduces
        ``generate_invocations(target, ...)`` exactly.
        """
        if target <= 0:
            raise TraceError(f"need a positive invocation target: {target}")
        if batch_functions < 1:
            raise TraceError(
                f"need a positive batch size: {batch_functions}"
            )
        generator = AzureTraceGenerator(seed=seed, duration_s=duration_s)
        batch: list[FunctionTrace] = []
        total = 0
        index = 0
        while total < target:
            trace = generator.generate_function(index)
            index += 1
            if (
                max_per_function is not None
                and trace.invocations > max_per_function
            ):
                continue
            batch.append(trace)
            total += trace.invocations
            if len(batch) >= batch_functions:
                yield cls(traces=tuple(batch))
                batch = []
        if batch:
            yield cls(traces=tuple(batch))

    # -- views -------------------------------------------------------------

    @property
    def functions(self) -> tuple[str, ...]:
        return tuple(trace.function_id for trace in self.traces)

    @property
    def invocations(self) -> int:
        return sum(trace.invocations for trace in self.traces)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self):
        return iter(self.traces)

    def for_function(self, name: str) -> FunctionTrace:
        for trace in self.traces:
            if trace.function_id == name:
                return trace
        raise TraceError(f"no such function in fleet trace: {name}")

    def iter_batches(self, n: int):
        """Yield the fleet as successive chunks of at most *n* functions.

        Each chunk is itself a :class:`FleetTrace` (replayable directly by
        :func:`~repro.platform.fleet.replay_fleet`), in fleet order, so
        ``[t for b in trace.iter_batches(n) for t in b] == list(trace)``.
        """
        if n < 1:
            raise TraceError(f"need a positive batch size: {n}")
        for start in range(0, len(self.traces), n):
            yield FleetTrace(traces=self.traces[start:start + n])

    def capped(self, max_per_function: int) -> "FleetTrace":
        """Drop functions busier than *max_per_function* invocations."""
        return FleetTrace(
            traces=tuple(
                t for t in self.traces if t.invocations <= max_per_function
            )
        )

    def partition(self, shards: int) -> list[tuple[FunctionTrace, ...]]:
        """Split into at most *shards* balanced groups of whole functions.

        Greedy LPT: biggest function first onto the least-loaded shard.
        Ties break on shard index, so the split is deterministic.  Empty
        shards are dropped (a 3-function fleet on 8 workers yields 3).
        """
        if shards < 1:
            raise TraceError(f"need at least one shard: {shards}")
        bins: list[list[FunctionTrace]] = [[] for _ in range(shards)]
        loads = [0] * shards
        ordered = sorted(
            self.traces, key=lambda t: (-t.invocations, t.function_id)
        )
        for trace in ordered:
            target = min(range(shards), key=lambda i: (loads[i], i))
            bins[target].append(trace)
            loads[target] += trace.invocations
        return [tuple(group) for group in bins if group]

    # -- persistence -------------------------------------------------------

    def save(self, path: Path | str) -> Path:
        """One JSON object per function, in fleet order."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for trace in self.traces:
                handle.write(
                    json.dumps(
                        {
                            "function_id": trace.function_id,
                            "pattern": trace.pattern,
                            "memory_mb": trace.memory_mb,
                            "duration_s": trace.duration_s,
                            "timestamps": list(trace.timestamps),
                        }
                    )
                    + "\n"
                )
        return path

    @classmethod
    def load(cls, path: Path | str) -> "FleetTrace":
        traces = []
        try:
            handle = Path(path).open("r", encoding="utf-8")
        except OSError as exc:
            raise TraceError(f"cannot read trace {path}: {exc}") from exc
        with handle:
            for index, line in enumerate(handle):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    timestamps = tuple(float(t) for t in data["timestamps"])
                    # Outside input enters here: a NaN or infinite
                    # timestamp would pass the sorted check and poison
                    # every replay downstream.
                    if not all(map(math.isfinite, timestamps)):
                        raise ValueError("timestamps must be finite")
                    traces.append(
                        FunctionTrace(
                            function_id=data["function_id"],
                            pattern=data["pattern"],
                            memory_mb=float(data["memory_mb"]),
                            duration_s=float(data["duration_s"]),
                            timestamps=timestamps,
                        )
                    )
                except (
                    json.JSONDecodeError,
                    KeyError,
                    TypeError,
                    ValueError,
                ) as exc:
                    raise TraceError(
                        f"{path} line {index + 1}: bad trace: {exc}"
                    ) from exc
        return cls(traces=tuple(traces))
