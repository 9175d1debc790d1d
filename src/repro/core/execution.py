"""Isolated execution of application bundles (module isolation, Section 7).

The paper spawns a fresh process for each profiling/DD run so Python's
module cache cannot leak state between measurements.  This module provides
the same guarantee in-process — the default, fast path — by snapshotting
``sys.modules``/``sys.path`` around each load and evicting every module the
load introduced from the bundle.  Evicted module objects stay alive while a
:class:`LoadedApp` references them, which is exactly how a warm serverless
instance behaves: the initialized state persists, invisible to other
instances.

Loads compile each bundle source from its current bytes and never
consult ``__pycache__``: CPython trusts a ``.pyc`` whose recorded source
size and whole-second mtime match, so a same-size rewrite within one
second — a commit, or a probe whose oracle reads the disk — would
otherwise run the previous content's bytecode.  An in-process DD probe
writes nothing: for the length of one oracle check, its candidate module
runs from code held in memory (:func:`module_overlay`).

A subprocess runner with identical semantics lives in
:mod:`repro.core.subprocess_runner` for callers that want real OS-level
isolation (the paper's faithful mode).
"""

from __future__ import annotations

import hashlib
import importlib
import io
import os
import sys
import traceback
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from importlib.machinery import ModuleSpec, PathFinder, SourceFileLoader
from itertools import islice
from types import CodeType
from typing import Any, Callable, Iterator, Sequence

from repro.bundle import AppBundle
from repro.errors import InvocationError
from repro.vm import Meter, metered

__all__ = [
    "ExecutionResult",
    "InvocationOutput",
    "LoadedApp",
    "module_overlay",
    "run_once",
]


@dataclass
class InvocationOutput:
    """Observable effects of a single handler invocation."""

    value: Any
    stdout: str
    exec_time_s: float
    error: str | None = None
    error_type: str | None = None
    external_calls: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None

    def observable(self) -> dict:
        """What the oracle compares: return value, stdout, and the
        intercepted external-service calls (Section 5.3)."""
        return {
            "value": self.value,
            "stdout": self.stdout,
            "error_type": self.error_type,
            "external": [
                [call.service, call.payload] for call in self.external_calls
            ],
        }


@dataclass
class ExecutionResult:
    """Full cold-start execution: initialization plus one invocation."""

    init_time_s: float
    init_memory_mb: float
    peak_memory_mb: float
    invocation: InvocationOutput | None
    init_error: str | None = None
    init_error_type: str | None = None
    init_external_calls: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.init_error is None and (
            self.invocation is not None and self.invocation.ok
        )

    @property
    def exec_time_s(self) -> float:
        return self.invocation.exec_time_s if self.invocation else 0.0

    def observable(self) -> dict:
        """What the oracle compares across original/debloated runs."""
        if self.init_error is not None:
            return {"init_error_type": self.init_error_type}
        assert self.invocation is not None
        observed = self.invocation.observable()
        observed["init_external"] = list(self.init_external_calls)
        return observed


#: File path -> (SHA-256 of its source, the code compiled from it), least
#: recently loaded first.  One entry per path: a rewrite replaces it, so a
#: trim keeps one code object per module file rather than one per
#: committed version.  Past ``_CODE_FILES`` paths (about ten bundles) the
#: oldest goes, so a long-lived process does not keep every bundle it ran.
_CODE: dict[str, tuple[bytes, CodeType]] = {}
_CODE_FILES = 256

#: Absolute file path -> the code sequence its module runs instead of the
#: file's text; set by :func:`module_overlay` for one oracle check.  It is
#: module state because the import system, not the caller, creates loaders.
_OVERLAY: dict[str, Callable[[], Sequence[CodeType]]] = {}


@contextmanager
def module_overlay(
    path: str, code: Callable[[], Sequence[CodeType]]
) -> Iterator[None]:
    """Within this scope, a load of the module at *path* runs the code
    objects ``code()`` returns, one after another in the module's
    namespace, and never reads the file.  That covers the loads and the
    lazy imports of every instance the scope starts."""
    key = os.path.abspath(path)
    _OVERLAY[key] = code
    try:
        yield
    finally:
        del _OVERLAY[key]


class _FreshSourceLoader(SourceFileLoader):
    """Compiles from the file's current bytes; never reads or writes
    ``__pycache__``.  Unchanged files reuse their cached code object, and
    a file under :func:`module_overlay` runs its overlay code instead."""

    def exec_module(self, module) -> None:
        code = _OVERLAY.get(os.path.abspath(self.path)) if _OVERLAY else None
        if code is None:
            super().exec_module(module)
            return
        namespace = module.__dict__
        for statement in code():
            exec(statement, namespace)

    def get_code(self, fullname: str) -> CodeType:
        path = self.get_filename(fullname)
        source = self.get_data(path)
        digest = hashlib.sha256(source).digest()
        cached = _CODE.pop(path, None)
        if cached is None or cached[0] != digest:
            cached = (digest, self.source_to_code(source, path))
        _CODE[path] = cached
        if len(_CODE) > _CODE_FILES:
            del _CODE[next(iter(_CODE))]
        return cached[1]


def _roots(paths: list[str]) -> tuple[str, ...]:
    """*paths* as absolute directory prefixes."""
    return tuple(os.path.join(os.path.abspath(root), "") for root in paths)


def _loaded_from(module: Any, roots: tuple[str, ...]) -> bool:
    """Whether *module*'s spec lies under *roots*: its origin, or for a
    namespace package its search locations."""
    spec = getattr(module, "__spec__", None)
    if not isinstance(spec, ModuleSpec):
        return False
    if spec.has_location:
        places = [spec.origin]
    else:
        places = list(spec.submodule_search_locations or ())
    return any(os.path.abspath(place).startswith(roots) for place in places)


class _FreshSourceFinder:
    """Routes ``.py`` modules under *paths* to :class:`_FreshSourceLoader`;
    anything else falls through to the regular import system."""

    def __init__(self, paths: list[str]):
        self._roots = _roots(paths)

    def find_spec(self, fullname, path=None, target=None):
        spec = PathFinder.find_spec(fullname, path, target)
        if spec is None or type(spec.loader) is not SourceFileLoader:
            return None
        if not os.path.abspath(spec.origin).startswith(self._roots):
            return None
        spec.loader = _FreshSourceLoader(fullname, spec.origin)
        return spec


@contextmanager
def _bundle_sources(paths: list[str]) -> Iterator[None]:
    """Put *paths* first on ``sys.path``; their ``.py`` files load through
    :class:`_FreshSourceLoader`.

    On exit the path-entry finders the scope cached are dropped again:
    ``sys.path_importer_cache`` would otherwise keep one per bundle
    directory ever loaded, and ``importlib.invalidate_caches()`` walks it
    on every load.
    """
    saved_path = list(sys.path)
    cached = set(sys.path_importer_cache)
    sys.path[:0] = paths
    finder = _FreshSourceFinder(paths)
    # Just ahead of PathFinder, so built-in and frozen modules still win.
    sys.meta_path.insert(sys.meta_path.index(PathFinder), finder)
    try:
        yield
    finally:
        sys.meta_path.remove(finder)
        sys.path[:] = saved_path
        for entry in [e for e in sys.path_importer_cache if e not in cached]:
            del sys.path_importer_cache[entry]


@contextmanager
def isolated_imports(paths: list[str]) -> Iterator[dict[str, Any]]:
    """Import-isolation scope: fresh module cache for *paths*.

    Yields a dict that, on exit, holds every module the scope introduced
    from under *paths* (the scope's private module cache), taken out of
    ``sys.modules``.  Everything else stays imported: pre-existing modules
    and any module the scope imported from elsewhere — the stdlib, or the
    synthetic runtime every generated library imports — so the next scope
    does not import it again.  Sources under *paths* compile from their
    current bytes (:class:`_FreshSourceLoader`).
    """
    before = set(sys.modules)
    roots = _roots(paths)
    introduced: dict[str, Any] = {}
    with _bundle_sources(paths):
        importlib.invalidate_caches()
        try:
            yield introduced
        finally:
            for name in [n for n in sys.modules if n not in before]:
                if _loaded_from(sys.modules[name], roots):
                    introduced[name] = sys.modules.pop(name)


class LoadedApp:
    """A loaded function instance: initialized state plus a callable handler.

    Mirrors a warm serverless instance.  ``load()`` performs Function
    Initialization (imports, init code) under the instance meter;
    ``invoke()`` runs the handler on an event.  The instance keeps its
    imported modules privately so concurrent instances never share state.
    """

    def __init__(self, bundle: AppBundle, *, meter: Meter | None = None):
        self.bundle = bundle
        self.meter = meter if meter is not None else Meter(f"app:{bundle.name}")
        self._modules: dict[str, Any] = {}
        self._handler = None
        self._loaded = False
        self.init_error: str | None = None
        self.init_error_type: str | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def loaded(self) -> bool:
        return self._loaded and self.init_error is None

    @property
    def init_time_s(self) -> float:
        return self._init_time_s if self._loaded else 0.0

    @property
    def init_memory_mb(self) -> float:
        return self._init_memory_mb if self._loaded else 0.0

    @property
    def peak_memory_mb(self) -> float:
        return self.meter.peak_mb

    def _paths(self) -> list[str]:
        return [str(self.bundle.site_packages), str(self.bundle.root)]

    def load(self) -> None:
        """Run Function Initialization: import the handler module."""
        if self._loaded:
            raise InvocationError("instance already initialized")
        manifest = self.bundle.manifest
        stdout = io.StringIO()
        with isolated_imports(self._paths()) as introduced:
            with metered(self.meter):
                try:
                    with redirect_stdout(stdout):
                        module = importlib.import_module(manifest.handler_module)
                    self._handler = getattr(module, manifest.handler_function)
                except BaseException as exc:  # import errors must not kill the host
                    self.init_error = "".join(
                        traceback.format_exception_only(type(exc), exc)
                    ).strip()
                    self.init_error_type = type(exc).__name__
        self._modules = introduced
        self._init_time_s = self.meter.time_s
        self._init_memory_mb = self.meter.live_mb
        self.init_stdout = stdout.getvalue()
        self.init_external_calls = [
            [call.service, call.payload] for call in self.meter.external_calls
        ]
        self._loaded = True

    def invoke(self, event: Any, context: Any = None) -> InvocationOutput:
        """Invoke the handler on *event* (a warm start once loaded)."""
        if not self._loaded:
            raise InvocationError("instance not initialized; call load() first")
        if self.init_error is not None:
            raise InvocationError(f"instance failed to initialize: {self.init_error}")

        before = self.meter.time_s
        external_before = len(self.meter.external_calls)
        stdout = io.StringIO()
        error: str | None = None
        error_type: str | None = None
        value: Any = None

        # Re-expose the instance's private modules so lazy imports inside the
        # handler resolve against this instance's state.
        overlap = {
            name: sys.modules[name] for name in self._modules if name in sys.modules
        }
        sys.modules.update(self._modules)
        known = len(sys.modules)
        paths = self._paths()
        try:
            with _bundle_sources(paths), metered(self.meter):
                try:
                    with redirect_stdout(stdout):
                        value = self._handler(event, context if context is not None else {})
                except BaseException as exc:
                    error = "".join(
                        traceback.format_exception_only(type(exc), exc)
                    ).strip()
                    error_type = type(exc).__name__
        finally:
            # sys.modules keeps insertion order, so modules the handler
            # imported lazily sit past ``known``: those from the bundle join
            # this instance's private state instead of leaking into the next
            # instance, by the rule of :func:`isolated_imports`.
            lazies = list(islice(sys.modules, known, None))
            roots = _roots(paths) if lazies else ()
            for name in lazies:
                if _loaded_from(sys.modules[name], roots):
                    self._modules[name] = sys.modules.pop(name)
            for name in self._modules:
                if name in overlap:
                    sys.modules[name] = overlap[name]
                else:
                    sys.modules.pop(name, None)

        return InvocationOutput(
            value=value,
            stdout=stdout.getvalue(),
            exec_time_s=self.meter.time_s - before,
            error=error,
            error_type=error_type,
            external_calls=list(self.meter.external_calls[external_before:]),
        )

    def close(self) -> None:
        """Tear the instance down, releasing its initialized state."""
        self._modules.clear()
        self._handler = None


def run_once(bundle: AppBundle, event: Any, context: Any = None) -> ExecutionResult:
    """Cold start + single invocation + teardown (one oracle probe)."""
    app = LoadedApp(bundle)
    app.load()
    if app.init_error is not None:
        result = ExecutionResult(
            init_time_s=app.init_time_s,
            init_memory_mb=app.init_memory_mb,
            peak_memory_mb=app.peak_memory_mb,
            invocation=None,
            init_error=app.init_error,
            init_error_type=app.init_error_type,
        )
        app.close()
        return result
    invocation = app.invoke(event, context)
    result = ExecutionResult(
        init_time_s=app.init_time_s,
        init_memory_mb=app.init_memory_mb,
        peak_memory_mb=app.peak_memory_mb,
        invocation=invocation,
        init_external_calls=app.init_external_calls,
    )
    app.close()
    return result
