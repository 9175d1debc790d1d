"""Crash-safe debloating: the write-ahead probe journal and atomic rewrites.

Delta debugging is the dominant cost of λ-trim (hundreds of oracle calls
per module at K=20), and a crash mid-minimization used to discard every
probe and could strand a bundle with half-rewritten modules.  This module
makes the pipeline transactional:

* :class:`ProbeJournal` — an fsync'd, append-only JSONL journal recording
  every DD probe as ``(module, candidate-hash, verdict, granularity,
  seed)`` plus per-module BEGIN/COMMIT records and a run-level
  content-hash manifest.  Replaying the journal
  (:meth:`ProbeJournal.replay`) reconstructs the DD cache so a resumed
  run continues from the last committed module instead of re-probing.

* :func:`atomic_write_text` — write-temp + fsync + atomic rename, so a
  module file is always either the old or the new content, never a torn
  mix.

* :func:`recover_workspace` — integrity verification on resume: committed
  modules are hash-checked against the journal's manifest, torn or
  corrupted files are rolled back to the pristine source, the in-progress
  module is restored, and orphaned ``.lambdatrim.orig`` / temp files from
  interrupted runs are removed.

Journal durability contract: records are appended with ``flush + fsync``
(configurable), so after a crash the journal is a valid JSONL prefix of
the run, except possibly for a torn final line — which
:meth:`ProbeJournal.replay` detects and skips.  Interior corruption (only
possible through external tampering, never a crash) raises
:class:`~repro.errors.JournalError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import stat
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.errors import JournalError

__all__ = [
    "JOURNAL_VERSION",
    "ProbeJournal",
    "JournalState",
    "ModuleCommit",
    "RecoveryReport",
    "atomic_write_bytes",
    "atomic_write_lines",
    "atomic_write_text",
    "candidate_hash",
    "cleanup_stale_artifacts",
    "default_journal_path",
    "file_sha256",
    "recover_workspace",
    "text_sha256",
]

JOURNAL_VERSION = 1

#: Suffix of the legacy in-place backups and of atomic-write temp files;
#: both are cleaned up by :func:`cleanup_stale_artifacts` on resume.
LEGACY_BACKUP_SUFFIX = ".lambdatrim.orig"
TMP_MARKER = ".lambdatrim.tmp"

# Crash-injection hook for the kill-and-resume harness: called after every
# append with the process-wide running append count.  Tests install a hook
# that SIGKILLs the process at a chosen boundary, which exercises every
# probe/commit edge deterministically.  ``None`` (the default) is free.
_post_append_hook: Callable[[int], None] | None = None
_append_count = 0


def set_post_append_hook(hook: Callable[[int], None] | None) -> None:
    """Install (or clear) the crash-injection hook; returns nothing."""
    global _post_append_hook, _append_count
    _post_append_hook = hook
    _append_count = 0


# -- hashing ----------------------------------------------------------------


def text_sha256(text: str) -> str:
    """Full SHA-256 hex digest of *text* (UTF-8)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_sha256(path: Path) -> str:
    """Full SHA-256 hex digest of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def candidate_hash(keys: Iterable[str]) -> str:
    """Order-insensitive digest of a candidate's component keys.

    The journal stores candidates by this hash rather than by component
    list: it is stable across process restarts (components are re-derived
    from the pristine source on resume) and independent of probe order.
    """
    joined = "\n".join(sorted(keys))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:20]


# -- atomic file rewrites ----------------------------------------------------


def atomic_write_text(path: Path, text: str, *, durable: bool = True) -> None:
    """Replace *path* with *text* via write-temp + (fsync) + atomic rename.

    With ``durable=True`` the temp file is fsync'd before the rename and
    the parent directory after it, so the replacement survives power loss.
    ``durable=False`` keeps only the atomicity guarantee (readers never
    observe a torn file) — used when a probe whose oracle reads the disk
    writes its candidate and then puts the previous bytes back; a crash in
    between leaves an untorn candidate, which resume restores.
    """
    _atomic_replace(path, "w", lambda handle: handle.write(text), durable)


def atomic_write_bytes(path: Path, data: bytes, *, durable: bool = True) -> None:
    """Binary twin of :func:`atomic_write_text`: same temp + fsync + rename.

    Used for already-encoded payloads (merged record logs assembled as
    UTF-8 byte lines) where a text-mode handle would force a redundant
    decode/encode round trip over the whole export.
    """
    _atomic_replace(path, "wb", lambda handle: handle.write(data), durable)


def atomic_write_lines(
    path: Path, lines: Iterable[str], *, durable: bool = True
) -> None:
    """Stream *lines* (no trailing newlines) to *path* atomically.

    The streaming twin of :func:`atomic_write_text` for exports too large
    to join in memory (merged record logs, dead-letter spools): lines are
    written to a temp file in the destination directory, fsync'd, then
    renamed over *path* — readers never observe a torn or partial export.
    """

    def write(handle) -> None:
        for line in lines:
            handle.write(line)
            handle.write("\n")

    _atomic_replace(path, "w", write, durable)


def _atomic_replace(
    path: Path, mode: str, write: Callable[[Any], Any], durable: bool
) -> None:
    """The one atomic-replace body behind the ``atomic_write_*`` front ends.

    *write* fills a temp file opened with *mode* (``"w"`` is UTF-8 text)
    next to *path*, which is then renamed over *path*; with *durable* the
    temp is fsync'd before the rename and the directory after it.  Any
    failure unlinks the temp and re-raises, leaving *path* untouched.
    """
    path = Path(path)
    try:
        keep_mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        keep_mode = None
    fd, tmp_name = _create_temp(path)
    try:
        if keep_mode is not None:
            # The rename keeps the temp file's mode: give it the mode of
            # the file it replaces.
            os.fchmod(fd, keep_mode)
        encoding = None if "b" in mode else "utf-8"
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            write(handle)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if durable:
        _fsync_dir(path.parent)


def _create_temp(path: Path) -> tuple[int, str]:
    """Create an empty temp file next to *path*; returns ``(fd, name)``.

    Created like :func:`open` creates a file, with mode 0o666 minus the
    umask — :func:`tempfile.mkstemp` would make it 0o600, which the
    rename would carry over to *path*.
    """
    while True:
        name = f"{path}{TMP_MARKER}{secrets.token_hex(4)}"
        try:
            return os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), name
        except FileExistsError:
            continue


def _fsync_dir(directory: Path) -> None:
    """Best-effort fsync of a directory (rename durability)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystem without dir fsync
        pass
    finally:
        os.close(fd)


def cleanup_stale_artifacts(root: Path) -> list[Path]:
    """Remove orphaned backup/temp files left by an interrupted run.

    Deletes every ``*.lambdatrim.orig`` legacy backup and every
    ``*.lambdatrim.tmp*`` atomic-write temp file under *root*; returns the
    removed paths (for recovery reporting).
    """
    removed: list[Path] = []
    root = Path(root)
    for pattern in (f"*{LEGACY_BACKUP_SUFFIX}", f"*{TMP_MARKER}*"):
        for stale in sorted(root.rglob(pattern)):
            if stale.is_file():
                stale.unlink()
                removed.append(stale)
    return removed


def default_journal_path(output_dir: Path) -> Path:
    """Where a trim run journals by default: next to the output bundle.

    The journal deliberately lives *outside* the bundle tree, so the
    optimized bundle stays byte-identical to an unjournalled run and
    deploys unchanged.
    """
    output_dir = Path(output_dir)
    return output_dir.parent / f"{output_dir.name}.journal.jsonl"


# -- replayed state ----------------------------------------------------------


@dataclass
class ModuleCommit:
    """A per-module COMMIT record: the transactional rewrite boundary."""

    module: str
    file_sha256: str
    result: dict


@dataclass
class JournalState:
    """Everything :meth:`ProbeJournal.replay` reconstructs from disk."""

    path: Path
    app: str | None = None
    fingerprint: dict | None = None
    workspace_ready: bool = False
    plan: list[str] | None = None
    committed: dict[str, ModuleCommit] = field(default_factory=dict)
    probes: dict[str, dict[str, bool]] = field(default_factory=dict)
    #: Candidate hashes journaled with *conflicting* verdicts — excluded
    #: from the replay cache so resume re-probes them live (and the flaky
    #: quorum, if enabled, adjudicates).
    conflicts: dict[str, set[str]] = field(default_factory=dict)
    in_progress: str | None = None
    run_committed: bool = False
    manifest: dict[str, str] | None = None
    verify_passed: bool | None = None
    torn_tail: bool = False
    records: int = 0

    def seeds_for(self, module: str) -> dict[str, bool]:
        """The journal-sourced DD cache for *module* (hash → verdict)."""
        return dict(self.probes.get(module, {}))


# -- the journal -------------------------------------------------------------


class ProbeJournal:
    """Append-only, fsync'd JSONL write-ahead journal for one trim run.

    Use :meth:`create` to start a fresh run (truncates any previous
    journal at *path*) or :meth:`open_resume` to append to an existing
    one.  Every record is one JSON object per line with a ``type`` field;
    appends are flushed and fsync'd so the journal survives SIGKILL at any
    boundary with at most a torn final line.
    """

    def __init__(self, path: Path, *, fsync: bool = True, _mode: str = "ab"):
        self.path = Path(path)
        self.fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, _mode)
        self._closed = False
        if self.fsync:
            _fsync_dir(self.path.parent)

    @classmethod
    def create(cls, path: Path, *, fsync: bool = True) -> "ProbeJournal":
        """Open a fresh journal, truncating whatever was at *path*."""
        return cls(path, fsync=fsync, _mode="wb")

    @classmethod
    def open_resume(cls, path: Path, *, fsync: bool = True) -> "ProbeJournal":
        """Open an existing journal for appending (resume)."""
        path = Path(path)
        if not path.exists():
            raise JournalError(f"cannot resume: journal not found: {path}")
        return cls(path, fsync=fsync, _mode="ab")

    # -- low-level append --------------------------------------------------

    def append(self, record: dict) -> None:
        """Durably append one record (one JSON line)."""
        global _append_count
        if self._closed:
            raise JournalError(f"journal is closed: {self.path}")
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._handle.write(line.encode("utf-8") + b"\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        if _post_append_hook is not None:
            _append_count += 1
            _post_append_hook(_append_count)

    def close(self) -> None:
        if not self._closed:
            self._handle.close()
            self._closed = True

    def __enter__(self) -> "ProbeJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- record constructors -----------------------------------------------

    def run_begin(self, app: str, fingerprint: Mapping) -> None:
        self.append(
            {
                "type": "run_begin",
                "version": JOURNAL_VERSION,
                "app": app,
                "fingerprint": dict(fingerprint),
            }
        )

    def workspace_ready(self) -> None:
        """The working bundle clone is complete; probes may start."""
        self.append({"type": "workspace_ready"})

    def plan(self, modules: list[str]) -> None:
        """The ranked module list this run will debloat, in order."""
        self.append({"type": "plan", "modules": list(modules)})

    def module_begin(self, module: str) -> None:
        self.append({"type": "module_begin", "module": module})

    def record_probe(
        self,
        module: str,
        candidate: str,
        verdict: bool,
        *,
        granularity: int,
        seed: int,
    ) -> None:
        self.append(
            {
                "type": "probe",
                "module": module,
                "candidate": candidate,
                "verdict": bool(verdict),
                "granularity": granularity,
                "seed": seed,
            }
        )

    def module_commit(self, module: str, file_sha256: str, result: dict) -> None:
        self.append(
            {
                "type": "module_commit",
                "module": module,
                "file_sha256": file_sha256,
                "result": result,
            }
        )

    def run_commit(self, manifest: Mapping[str, str], verify_passed: bool) -> None:
        self.append(
            {
                "type": "run_commit",
                "manifest": dict(manifest),
                "verify_passed": bool(verify_passed),
            }
        )

    # -- replay -------------------------------------------------------------

    @classmethod
    def replay(cls, path: Path) -> JournalState:
        """Parse *path* into a :class:`JournalState`.

        Replay is idempotent and — for probe records — order-insensitive:
        the reconstructed cache maps each ``(module, candidate)`` to its
        journaled verdict regardless of record order or duplication.  A
        candidate journaled with *conflicting* verdicts is dropped from
        the cache (and reported in ``state.conflicts``) so it re-probes
        live.  A torn final line (the only tear a crash can produce under
        the append+fsync discipline) is skipped and flagged; a malformed
        interior line raises :class:`~repro.errors.JournalError`.
        """
        path = Path(path)
        if not path.exists():
            raise JournalError(f"journal not found: {path}")
        raw = path.read_bytes()
        lines = raw.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()

        state = JournalState(path=path)
        verdict_sets: dict[tuple[str, str], set[bool]] = {}
        last = len(lines) - 1
        for i, line in enumerate(lines):
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict) or "type" not in record:
                    raise ValueError("record is not an object with a 'type'")
            except (ValueError, UnicodeDecodeError) as exc:
                if i == last:
                    # Torn final record: the crash hit mid-append.
                    state.torn_tail = True
                    break
                raise JournalError(
                    f"corrupt journal record at {path}:{i + 1}: {exc}"
                ) from exc
            # A complete final record without its newline is intact —
            # only a parse failure above marks the tail as torn.
            cls._apply(state, record, verdict_sets)
            state.records += 1

        # Conflicting duplicate verdicts poison the hash (flaky oracle or
        # tampering): keep only unanimously-journaled candidates.
        for (module, candidate), verdicts in verdict_sets.items():
            if len(verdicts) == 1:
                state.probes.setdefault(module, {})[candidate] = next(
                    iter(verdicts)
                )
            else:
                state.conflicts.setdefault(module, set()).add(candidate)
        return state

    @staticmethod
    def _apply(
        state: JournalState,
        record: dict,
        verdict_sets: dict[tuple[str, str], set[bool]],
    ) -> None:
        kind = record.get("type")
        if kind == "run_begin":
            # A restart within the same file resets everything before it.
            state.app = record.get("app")
            state.fingerprint = record.get("fingerprint")
            state.workspace_ready = False
            state.plan = None
            state.committed.clear()
            state.in_progress = None
            state.run_committed = False
            state.manifest = None
            verdict_sets.clear()
            state.probes.clear()
            state.conflicts.clear()
        elif kind == "workspace_ready":
            state.workspace_ready = True
        elif kind == "plan":
            state.plan = list(record.get("modules", []))
        elif kind == "module_begin":
            module = record.get("module")
            if module not in state.committed:
                state.in_progress = module
        elif kind == "probe":
            module = record.get("module", "")
            candidate = record.get("candidate", "")
            verdict_sets.setdefault((module, candidate), set()).add(
                bool(record.get("verdict"))
            )
        elif kind == "module_commit":
            module = record.get("module", "")
            state.committed[module] = ModuleCommit(
                module=module,
                file_sha256=record.get("file_sha256", ""),
                result=record.get("result", {}),
            )
            if state.in_progress == module:
                state.in_progress = None
        elif kind == "run_commit":
            state.run_committed = True
            state.manifest = dict(record.get("manifest", {}))
            state.verify_passed = record.get("verify_passed")
        # Unknown record types are ignored (forward compatibility).


# -- recovery ----------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What integrity verification found (and fixed) on resume."""

    verified: list[str] = field(default_factory=list)
    rolled_back: list[str] = field(default_factory=list)
    restored_in_progress: str | None = None
    stale_files_removed: int = 0

    def summary(self) -> str:
        return (
            f"{len(self.verified)} module(s) verified, "
            f"{len(self.rolled_back)} rolled back, "
            f"{self.stale_files_removed} stale file(s) removed"
        )


def recover_workspace(working, pristine, state: JournalState) -> RecoveryReport:
    """Verify and repair a crashed working bundle before resuming.

    * every journaled COMMIT is hash-checked against the file on disk; a
      torn/corrupted module is rolled back to the pristine source and its
      commit dropped (so DD re-runs it against the journaled probe cache);
    * the in-progress module (BEGIN without COMMIT) is restored to the
      pristine source — a crash mid-DD leaves it in an arbitrary candidate
      state;
    * orphaned backup/temp files from interrupted runs are removed.

    After recovery every module in the bundle is either pristine or
    exactly its committed content: the per-module atomicity guarantee.
    """
    report = RecoveryReport()
    report.stale_files_removed = len(cleanup_stale_artifacts(working.root))

    for module, commit in list(state.committed.items()):
        try:
            on_disk = file_sha256(working.module_file(module))
        except Exception:
            on_disk = None
        if on_disk != commit.file_sha256:
            _restore_pristine(working, pristine, module)
            del state.committed[module]
            report.rolled_back.append(module)
        else:
            report.verified.append(module)

    if state.in_progress and state.in_progress not in state.committed:
        _restore_pristine(working, pristine, state.in_progress)
        report.restored_in_progress = state.in_progress
    return report


def _restore_pristine(working, pristine, module: str) -> None:
    """Overwrite *module* in the working bundle with its pristine source.

    The target path is derived from the pristine layout, so restoration
    works even when the working copy of the file was deleted outright.
    """
    pristine_file = pristine.module_file(module)
    source = pristine_file.read_text(encoding="utf-8")
    target = working.root / pristine_file.relative_to(pristine.root)
    target.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(target, source, durable=True)
