"""Checkpointed replay: atomic kill-and-resume snapshots for the engines.

A multi-hour fleet replay used to be run-to-completion: a SIGKILL or OOM
at invocation 9,999,990 of a 10M-invocation trace threw everything away.
This module gives both replay engines — the reference
:class:`~repro.platform.replay.TraceReplayer` and the template
:class:`~repro.platform.kernel.KernelReplayer` — a durable mid-trace
save point, using the same idioms as the crash-safe probe journal
(:mod:`repro.core.journal`): fsync + ``os.replace`` writes, a
content-hash manifest, and a process-wide crash-injection hook so the
test harness can SIGKILL at every checkpoint boundary.

Checkpoint layout (one flat directory, function names are unique
fleet-wide)::

    <checkpoint_dir>/<function>.ckpt.json   mid-trace engine snapshot,
                                            rewritten every N attempts,
                                            deleted when the function
                                            completes
    <checkpoint_dir>/<function>.done.json   the finished function's full
                                            worker payload; resume adopts
                                            it wholesale instead of
                                            replaying

A ``.ckpt.json`` snapshot carries everything needed to continue the
trace bit-exactly: the virtual clock, the
:class:`~repro.platform.retry.RetryTimeline` every non-columnar replay
walks (the trace cursor, the pending re-drives, failed attempts and the
retry RNG), the :class:`~repro.platform.instance.WarmPool` and its
members, :class:`~repro.platform.hosts.HostPool` dynamic state (the
static ``crash_at`` schedule is re-derived from the plan and seed),
the :class:`~repro.platform.faults.FaultInjector` RNG state,
:class:`~repro.platform.telemetry.TelemetrySink` window/sketch state,
the :class:`~repro.platform.billing.BillingLedger`, the
:class:`~repro.obs.attribution.AttributionStore` spool, and the
:class:`~repro.platform.logs.ExecutionLog` spill watermark — torn spill
tails past the watermark are truncated on restore and counted as
re-executed invocations.  Both engines write it with
:func:`snapshot_replay_state` and check and adopt it with
:func:`restore_replay_state`, adding only their own instance
(de)serialization and result counters.

Restores assume the run is *deterministic per invocation* (the same
assumption the kernel engine's template synthesis already makes): the
emulator is freshly constructed, the bundle redeployed, and warm
instances rebuilt by re-running their init silently and overwriting the
meter with the snapshot state, so subsequent invocations add the same
per-invocation deltas onto the same running sums and every downstream
float is bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable

from repro.core.journal import (
    atomic_write_text,
    cleanup_stale_artifacts,
    text_sha256,
)
from repro.errors import CheckpointError

__all__ = [
    "CHECKPOINT_SCHEMA",
    "ReplayCheckpoint",
    "SerialCounter",
    "load_state",
    "restore_platform_state",
    "restore_replay_state",
    "rng_state_from_json",
    "rng_state_to_json",
    "set_post_checkpoint_hook",
    "snapshot_platform_state",
    "snapshot_replay_state",
    "sweep_stale",
    "truncate_spill",
    "write_state",
]

CHECKPOINT_SCHEMA = 4
_KIND = "repro-replay-checkpoint"

# Crash-injection hook for the kill-and-resume harness: called after every
# durable checkpoint/done write with the process-wide running write count.
# Tests install a hook that SIGKILLs the process at a chosen boundary,
# which exercises every resume edge deterministically.  ``None`` is free.
_post_checkpoint_hook: Callable[[int], None] | None = None
_checkpoint_count = 0


def set_post_checkpoint_hook(hook: Callable[[int], None] | None) -> None:
    """Install (or clear) the crash-injection hook; resets the counter."""
    global _post_checkpoint_hook, _checkpoint_count
    _post_checkpoint_hook = hook
    _checkpoint_count = 0


class SerialCounter:
    """``itertools.count`` with a readable (and restorable) position.

    The emulator and both engines hand out request ids, instance ids, and
    LRU sequence numbers from monotone counters; ``itertools.count`` hides
    its position, which makes the emitted streams impossible to resume.
    This drop-in twin exposes ``value`` so a checkpoint can capture and
    restore exactly where each stream left off.
    """

    __slots__ = ("value",)

    def __init__(self, start: int = 0) -> None:
        self.value = start

    def __iter__(self) -> "SerialCounter":
        return self

    def __next__(self) -> int:
        value = self.value
        self.value = value + 1
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SerialCounter({self.value})"


# -- RNG state ----------------------------------------------------------------


def rng_state_to_json(state: tuple) -> list:
    """``random.Random.getstate()`` → JSON-safe nested lists."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def rng_state_from_json(data: list) -> tuple:
    """Invert :func:`rng_state_to_json` for ``Random.setstate``."""
    version, internal, gauss_next = data
    return (version, tuple(internal), gauss_next)


# -- atomic state files -------------------------------------------------------


def write_state(path: Path, state: dict) -> None:
    """Atomically persist *state* with a content-hash manifest.

    The envelope embeds the SHA-256 of the canonical (sorted-keys) state
    JSON; :func:`load_state` re-canonicalizes and verifies, so interior
    corruption — only possible through external tampering, never a crash,
    thanks to the atomic replace — is always detected.
    """
    global _checkpoint_count
    body = json.dumps(state, sort_keys=True)
    envelope = {
        "kind": _KIND,
        "schema": CHECKPOINT_SCHEMA,
        "sha256": text_sha256(body),
        "state": state,
    }
    atomic_write_text(Path(path), json.dumps(envelope, sort_keys=True) + "\n")
    if _post_checkpoint_hook is not None:
        _checkpoint_count += 1
        _post_checkpoint_hook(_checkpoint_count)


def load_state(path: Path) -> dict | None:
    """Load and verify a state file; ``None`` if it does not exist."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("kind") != _KIND:
        raise CheckpointError(f"{path}: not a replay checkpoint")
    if envelope.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path}: unsupported checkpoint schema {envelope.get('schema')!r}"
        )
    state = envelope.get("state")
    body = json.dumps(state, sort_keys=True)
    if text_sha256(body) != envelope.get("sha256"):
        raise CheckpointError(f"{path}: checkpoint hash mismatch")
    return state


def sweep_stale(directory: Path) -> list[Path]:
    """Remove atomic-write temp debris left by an interrupted run."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return cleanup_stale_artifacts(directory)


def truncate_spill(path: Path, offset: int) -> int:
    """Truncate a spill file to the checkpoint watermark *offset* (bytes).

    Rows past the watermark were appended after the last checkpoint and
    died with the crashed process's in-memory state; they are dropped and
    will be re-executed.  Returns how many rows were dropped (a torn
    final line counts: its invocation ran before the crash and runs
    again).
    """
    path = Path(path)
    if not path.exists():
        if offset:
            raise CheckpointError(
                f"{path}: spill file missing but checkpoint expects "
                f"{offset} byte(s)"
            )
        return 0
    size = path.stat().st_size
    if size < offset:
        raise CheckpointError(
            f"{path}: spill file shorter ({size}B) than the checkpoint "
            f"watermark ({offset}B)"
        )
    if size == offset:
        return 0
    with path.open("rb+") as handle:
        handle.seek(offset)
        tail = handle.read()
        handle.seek(offset)
        handle.truncate()
        handle.flush()
        os.fsync(handle.fileno())
    dropped = tail.count(b"\n")
    if tail and not tail.endswith(b"\n"):
        dropped += 1
    return dropped


# -- per-function checkpoint session ------------------------------------------


class ReplayCheckpoint:
    """One function's checkpoint session inside a checkpoint directory.

    Owns the ``<function>.ckpt.json`` / ``<function>.done.json`` pair,
    the write interval (every *every* served attempts), and the resume
    loads.  Both engines drive it the same way: :meth:`tick` after every
    served attempt, :meth:`write` when it says so and the engine state is
    snapshot-safe, :meth:`clear` + a ``.done.json`` when the function
    completes.
    """

    def __init__(
        self, directory: Path, function: str, *, every: int | None = None
    ) -> None:
        if every is not None and every < 1:
            raise CheckpointError(f"checkpoint interval must be >= 1: {every}")
        self.directory = Path(directory)
        self.function = function
        self.every = every
        slug = function.replace(os.sep, "_")
        self.path = self.directory / f"{slug}.ckpt.json"
        self.done_path = self.directory / f"{slug}.done.json"
        self._since = 0

    # -- write side --------------------------------------------------------

    def tick(self) -> bool:
        """Count one served attempt; True when a checkpoint is due."""
        self._since += 1
        return self.every is not None and self._since >= self.every

    def write(self, state: dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        write_state(self.path, state)
        self._since = 0

    def write_done(self, payload: dict) -> None:
        """Persist the completed function's payload and drop the ckpt."""
        self.directory.mkdir(parents=True, exist_ok=True)
        write_state(self.done_path, payload)
        self.clear()

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)

    # -- read side ---------------------------------------------------------

    def load(self) -> dict | None:
        return load_state(self.path)

    def load_done(self) -> dict | None:
        return load_state(self.done_path)


# -- emulator-level snapshot/restore ------------------------------------------

# The engine-agnostic half of a checkpoint: everything owned by the
# LambdaEmulator rather than the replayer.


def snapshot_platform_state(emulator: Any, function: Any) -> dict:
    """Snapshot the emulator-owned state for one deployed *function*.

    The log's in-memory tail is spilled (and the spill fsync'd) first
    when the log is disk-backed, so the recorded byte offset is a durable
    watermark.
    """
    state: dict[str, Any] = {
        "clock": emulator.clock.snapshot(),
        "request_ids": emulator._request_ids.value,
        "instance_seq": function.instance_seq.value,
        "ledger": emulator.ledger.snapshot(),
        "telemetry": emulator.telemetry.snapshot()
        if emulator.telemetry is not None
        else None,
        "log": emulator.log.snapshot(),
        "faults": emulator.faults.snapshot()
        if emulator.faults is not None
        else None,
        "attribution": emulator.attribution.snapshot()
        if emulator.attribution is not None
        else None,
    }
    return state


def restore_platform_state(emulator: Any, function: Any, state: dict) -> int:
    """Restore the emulator-owned state; returns re-executed row count.

    The emulator must be freshly constructed with *function* deployed and
    never invoked.  Torn spill tails past the checkpoint watermark are
    truncated here (their rows are about to be re-executed).
    """
    emulator.clock.restore(state["clock"])
    emulator._request_ids.value = state["request_ids"]
    function.instance_seq.value = state["instance_seq"]
    emulator.ledger.restore(state["ledger"])
    if state["telemetry"] is not None:
        emulator.telemetry.restore(state["telemetry"])
    reexecuted = emulator.log.restore(state["log"])
    if state["faults"] is not None:
        emulator.faults.restore(state["faults"])
    if state["attribution"] is not None:
        emulator.attribution.restore(state["attribution"])
    return reexecuted


# -- replay-level snapshot/restore --------------------------------------------

# Everything a replay checkpoint holds beyond the emulator and that both
# engines share: the attempt timeline
# (:class:`~repro.platform.retry.RetryTimeline`: the trace cursor, the
# pending re-drives, failure histories and the retry session), the host
# pool, the warm pool (:class:`~repro.platform.instance.WarmPool`) and its
# members.  An engine adds only how it (de)serializes one instance and its
# result.


def snapshot_replay_state(
    engine: str,
    emulator: Any,
    function: Any,
    *,
    arrivals: int,
    timeline: Any,
    pool: Any,
    instance_state: Callable[[Any, bool], dict],
) -> dict:
    """Snapshot one replay of *function* at a loop boundary, JSON-safe.

    Taken between attempts, after the engine emitted its buffered rows:
    none is in flight, and the log's spill offset marks exactly the rows
    already durable.  The *timeline* snapshot carries where the
    loop continues.  *instance_state* serializes one instance and whether
    ``function.instances`` owns it: owned instances come first, in list
    order (the cold-start recovery check reads ``function.instances[-1]``,
    so order is behaviour), then any pool member already dropped from that
    list but still awaiting lazy discard in the busy heap or idle stack.
    """
    items = []
    seen: set[str] = set()
    for instance in function.instances:
        seen.add(instance.instance_id)
        items.append(instance_state(instance, True))
    for member in pool.members():
        if member.instance_id not in seen:
            seen.add(member.instance_id)
            items.append(instance_state(member, False))
    hosts = emulator.hosts
    return {
        "engine": engine,
        "function": function.name,
        "arrivals": arrivals,
        "timeline": timeline.snapshot(),
        "platform": snapshot_platform_state(emulator, function),
        "hosts": hosts.snapshot() if hosts is not None else None,
        "instances": items,
        "pool": pool.snapshot(),
    }


def restore_replay_state(
    state: dict,
    engine: str,
    emulator: Any,
    function: Any,
    *,
    arrivals: int,
    timeline: Any,
    pool: Any,
    instance_from_state: Callable[[dict], Any],
) -> int:
    """Check that *state* resumes this replay, then adopt it.

    Refuses, before touching any state, a snapshot written by the other
    engine, for another function, over a trace of another length, with a
    retry session added or removed, or with a host pool added or removed.
    Then restores the emulator, rebuilds every instance through
    *instance_from_state* (back into ``function.instances`` when owned),
    and re-binds the host placements, the warm pool and the *timeline*
    (its cursor and re-drives; its session continues its RNG and budget).
    Returns how many spilled rows past the durable watermark run again.
    """
    written = state.get("engine")
    if written != engine:
        raise CheckpointError(
            f"checkpoint was written by the {written!r} engine; "
            f"cannot resume with the {engine!r} engine"
        )
    if state.get("function") != function.name:
        raise CheckpointError(
            f"checkpoint is for {state.get('function')!r}, "
            f"not {function.name!r}"
        )
    if state.get("arrivals") != arrivals:
        raise CheckpointError(
            f"checkpoint covers {state.get('arrivals')} arrivals but the "
            f"trace has {arrivals}: trace changed since the snapshot"
        )
    if (state["timeline"]["session"] is None) != (timeline.session is None):
        raise CheckpointError(
            "retry configuration changed since the checkpoint was written"
        )
    hosts = emulator.hosts
    if hosts is not None and state.get("hosts") is None:
        raise CheckpointError(
            "checkpoint has no host-pool state but a host pool is configured"
        )
    if hosts is None and state.get("hosts") is not None:
        raise CheckpointError(
            "checkpoint carries host-pool state but no host pool is configured"
        )

    reexecuted = restore_platform_state(emulator, function, state["platform"])
    by_id: dict[str, Any] = {}
    owners: dict[str, list | None] = {}
    instances = function.instances
    instances.clear()
    for item in state["instances"]:
        instance = instance_from_state(item)
        by_id[instance.instance_id] = instance
        if item["owned"]:
            instances.append(instance)
            owners[instance.instance_id] = instances
        else:
            owners[instance.instance_id] = None
    if hosts is not None:
        hosts.restore(state["hosts"], by_id, owners)
    pool.restore(state["pool"], by_id)
    timeline.restore(state["timeline"])
    return reexecuted
