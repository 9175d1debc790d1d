"""Runtime support for generated synthetic libraries.

Generated modules import this module under the magic binding
``__synthapi__`` (magic names are pinned, so DD never removes the support
import) and use its factories to build their attributes:

* :func:`synth_function` — a callable attribute; constructing it charges
  import-time cost, calling it charges execution cost and returns a
  deterministic token derived from the attribute identity and arguments.
* :func:`synth_class` — a class attribute whose instances behave like
  deterministic models/objects (callable, with generated methods).
* :func:`synth_value` — a data attribute (lookup tables, constants) whose
  construction charges import-time memory.

Determinism is the load-bearing property: the oracle compares handler
outputs across original and debloated bundles, so every synthetic behaviour
must be a pure function of (attribute identity, arguments).
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.vm import attribute_cost, exec_cost, external_call, module_cost

__all__ = [
    "module_cost",
    "stable_token",
    "synth_function",
    "synth_class",
    "synth_value",
    "SynthInstance",
]


def _encode(value: Any) -> str:
    """Stable textual encoding of common argument types."""
    cls = type(value)
    if cls is str or cls is int:  # the common parts; subclasses go below
        return repr(value)
    if isinstance(value, dict):
        items = ",".join(f"{_encode(k)}:{_encode(v)}" for k, v in sorted(value.items()))
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_encode(v) for v in value) + "]"
    if isinstance(value, SynthInstance):
        return repr(value)
    if isinstance(value, float):
        return f"{value:.10g}"
    if isinstance(value, type):
        return f"<class {value.__module__}.{value.__qualname__}>"
    if callable(value):
        qualname = getattr(value, "__qualname__", getattr(value, "__name__", "?"))
        return f"<fn {getattr(value, '__module__', '?')}.{qualname}>"
    return repr(value)


def stable_token(*parts: Any) -> int:
    """A deterministic 48-bit token derived from *parts*.

    Used as the "result" of synthetic computations: stable across runs and
    interpreters, sensitive to every input.
    """
    digest = hashlib.sha256("|".join([_encode(p) for p in parts]).encode()).digest()
    return int.from_bytes(digest[:6], "big")


#: (module, name) -> ``synth_value``'s default token.  Every oracle probe
#: re-runs the generated module bodies, whose data attributes would
#: otherwise hash the same two literals again.  Only exact ``str`` pairs
#: are keys (``1 == True`` as dict keys, yet they encode differently).
#: Past ``_TOKENS_CAP`` entries the table is cleared; tokens are pure
#: functions of their keys, so none can go stale.
_TOKENS: dict[tuple[str, str], int] = {}
_TOKENS_CAP = 16384


def synth_function(
    module: str,
    name: str,
    *,
    init_time_s: float = 0.0,
    init_memory_mb: float = 0.0,
    call_time_s: float = 0.0,
    call_memory_mb: float = 0.0,
    external: bool = False,
):
    """Create a function attribute; construction charges import cost.

    ``external`` marks the function as a remote-service call: every
    invocation is recorded on the active meters so the oracle can compare
    side effects for equivalence (Section 5.3).
    """
    attribute_cost(module, name, time_s=init_time_s, memory_mb=init_memory_mb)
    qualname = f"{module}.{name}"

    def call(*args: Any, **kwargs: Any) -> int:
        if call_time_s or call_memory_mb:
            exec_cost(qualname, time_s=call_time_s, memory_mb=call_memory_mb)
        if external:
            external_call(qualname, _encode((args, kwargs)))
        return stable_token(qualname, args, kwargs)

    call.__name__ = name
    call.__qualname__ = qualname
    call.__doc__ = f"Synthetic function {qualname} (generated)."
    return call


class SynthInstance:
    """An instance of a synthetic class: deterministic and callable."""

    __slots__ = ("_qualname", "_args", "_call_time_s")

    def __init__(self, qualname: str, args: tuple, call_time_s: float):
        self._qualname = qualname
        self._args = args
        self._call_time_s = call_time_s

    def __call__(self, *args: Any, **kwargs: Any) -> int:
        if self._call_time_s:
            exec_cost(self._qualname, time_s=self._call_time_s)
        return stable_token(self._qualname, self._args, args, kwargs)

    def method(self, name: str, *args: Any) -> int:
        """Generic deterministic method dispatch."""
        return stable_token(self._qualname, self._args, name, args)

    def __mod__(self, other: int) -> int:
        """Instances reduce to deterministic ints for handler outputs."""
        return stable_token(repr(self)) % other

    def __int__(self) -> int:
        return stable_token(repr(self))

    def __repr__(self) -> str:
        return f"<{self._qualname}{_encode(list(self._args))}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SynthInstance):
            return NotImplemented
        return repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash(repr(self))


def synth_class(
    module: str,
    name: str,
    *,
    init_time_s: float = 0.0,
    init_memory_mb: float = 0.0,
    call_time_s: float = 0.0,
    methods: tuple[str, ...] = (),
):  # call_time_s charges on instance __call__ (see SynthInstance)
    """Create a class attribute; construction charges import cost."""
    attribute_cost(module, name, time_s=init_time_s, memory_mb=init_memory_mb)
    qualname = f"{module}.{name}"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        key = args + tuple(sorted(kwargs.items()))
        SynthInstance.__init__(self, qualname, key, call_time_s)

    namespace: dict[str, Any] = {
        "__init__": __init__,
        "__doc__": f"Synthetic class {qualname} (generated).",
        "__slots__": (),
    }
    for method_name in methods:
        namespace[method_name] = _make_method(method_name)
    cls = type(name, (SynthInstance,), namespace)
    cls.__module__ = module
    cls.__qualname__ = name
    return cls


def _make_method(method_name: str):
    def method(self: SynthInstance, *args: Any, **kwargs: Any) -> int:
        # Methods do the class's work: charge the same execution cost as a
        # direct call (e.g. ``wand.image.Image.resize`` pays the resize).
        if self._call_time_s:
            exec_cost(f"{self._qualname}.{method_name}", time_s=self._call_time_s)
        return stable_token(repr(self), method_name, args, kwargs)

    method.__name__ = method_name
    return method


def synth_value(
    module: str,
    name: str,
    *,
    init_time_s: float = 0.0,
    init_memory_mb: float = 0.0,
    value: Any = None,
):
    """Create a data attribute; construction charges import cost."""
    attribute_cost(module, name, time_s=init_time_s, memory_mb=init_memory_mb)
    if value is not None:
        return value
    if type(module) is not str or type(name) is not str:
        return stable_token(module, name)
    key = (module, name)
    token = _TOKENS.get(key)
    if token is None:
        if len(_TOKENS) >= _TOKENS_CAP:
            _TOKENS.clear()
        token = _TOKENS[key] = stable_token(module, name)
    return token
