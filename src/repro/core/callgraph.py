"""Conservative call-graph / attribute-access analysis (PyCG replacement).

λ-trim uses PyCG to learn which module attributes the application
*definitely* accesses; those can safely be excluded from the DD search
(Section 5.1).  This module reimplements that capability with a
conservative AST analysis:

* every ``from m import a`` binding that is actually *used* marks ``a`` as
  an accessed attribute of ``m``;
* every attribute chain rooted at an imported module (``torch.nn.Linear``)
  marks each link as accessed on its owner (``nn`` on ``torch``,
  ``Linear`` on ``torch.nn``);
* simple aliases (``t = torch.nn``) are resolved to their module paths with
  a small fixpoint, so later ``t.Linear`` accesses attribute the right
  module;
* ``getattr(mod, "name")`` with a constant string is recognised;
* star imports poison their module: every attribute is treated as used.

Being conservative only ever *protects more* attributes from removal, which
is safe — DD plus the oracle remain the correctness mechanism; the call
graph is purely an accelerator that shrinks the search space.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field

from repro.core.static_analyzer import import_bindings
from repro.errors import AnalysisError

__all__ = [
    "CallGraph",
    "CallGraphCache",
    "build_call_graph",
    "build_bundle_call_graph",
]

_MAX_ALIAS_PASSES = 10


@dataclass
class CallGraph:
    """Attributes each module path is definitely observed to access."""

    accessed: dict[str, set[str]] = field(default_factory=dict)
    star_modules: set[str] = field(default_factory=set)

    def accessed_attributes(self, module: str) -> set[str]:
        """Attribute names of *module* the application definitely uses."""
        return set(self.accessed.get(module, set()))

    def protects_everything(self, module: str) -> bool:
        """True when a star import forces the whole module to be kept."""
        return module in self.star_modules

    def merge(self, other: "CallGraph") -> None:
        """Fold another graph's facts into this one (multi-file apps)."""
        for module, attrs in other.accessed.items():
            self.accessed.setdefault(module, set()).update(attrs)
        self.star_modules.update(other.star_modules)

    def _mark(self, module: str, attribute: str) -> None:
        self.accessed.setdefault(module, set()).add(attribute)


def build_call_graph(source: str, *, filename: str = "<application>") -> CallGraph:
    """Analyze application *source* and return its attribute-access graph.

    One parse and one depth-first walk feed every pass.  Imports bind in
    the walk's order, which is the static analyzer's; later imports of a
    name shadow earlier ones.  Simple aliases then resolve in
    ``ast.walk`` order (by depth, then walk order), and the access
    candidates the walk collected resolve against the final bindings.
    """
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {filename}: {exc}") from exc

    graph = CallGraph()
    bindings: dict[str, str] = {}
    from_bindings: dict[str, tuple[str, str]] = {}
    assignments: list[tuple[int, int, str, ast.expr]] = []
    attributes: list[ast.Attribute] = []
    loads: list[str] = []
    calls: list[ast.Call] = []

    stack: list[tuple[ast.AST, int]] = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, ast.Attribute):
            attributes.append(node)
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                loads.append(node.id)
        elif isinstance(node, ast.Call):
            calls.append(node)
        elif isinstance(node, ast.Assign):
            if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                assignments.append(
                    (depth, len(assignments), node.targets[0].id, node.value)
                )
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for imp in import_bindings(node):
                if imp.binding == "*":
                    graph.star_modules.add(imp.module)
                    continue
                bindings[imp.binding] = imp.target
                if imp.is_from:
                    from_bindings[imp.binding] = (
                        imp.module,
                        imp.target.rsplit(".", 1)[1],
                    )
        children: list[tuple[ast.AST, int]] = []
        for name in node._fields:
            value = getattr(node, name, None)
            if isinstance(value, ast.AST):
                children.append((value, depth + 1))
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        children.append((item, depth + 1))
        children.reverse()
        stack.extend(children)

    assignments.sort()
    _collect_aliases([(name, value) for _, _, name, value in assignments], bindings)
    for node in attributes:
        base = _resolve_chain(node.value, bindings)
        if base is not None:
            graph._mark(base, node.attr)
    for name in loads:
        hit = from_bindings.get(name)
        if hit is not None:
            graph._mark(*hit)
    for node in calls:
        literal = _constant_getattr(node, bindings)
        if literal is not None:
            graph._mark(*literal)
    return graph


class CallGraphCache:
    """Whole-program graphs of a bundle, refreshed file by file.

    PyCG analyzes the entire program, so attributes one library accesses on
    another (squiggle using numpy) are protected too.  A refresh reflects
    the bundle's *current* files: once the debloater removes a re-export,
    the next refresh releases the attributes only that re-export needed.
    Each file's graph is kept under its path and checked against the
    SHA-256 of the file's current bytes, so after a module rewrite only
    that file is analysed again.  Files that disappear leave the cache.
    """

    def __init__(self) -> None:
        self._files: dict[str, tuple[bytes, CallGraph]] = {}

    def refresh(self, bundle) -> CallGraph:
        """The graph of handler plus every library file in *bundle*.

        Backup files left by an in-flight DD run are not ``.py`` files and
        are skipped."""
        paths = [bundle.handler_path]
        if not paths[0].exists():
            bundle.handler_source()  # raises the bundle's missing-handler error
        site = bundle.site_packages
        if site.is_dir():
            paths.extend(sorted(site.rglob("*.py")))
        graph = CallGraph()
        files: dict[str, tuple[bytes, CallGraph]] = {}
        for path in paths:
            filename = str(path)
            data = path.read_bytes()
            digest = hashlib.sha256(data).digest()
            entry = self._files.get(filename)
            if entry is None or entry[0] != digest:
                entry = (
                    digest,
                    build_call_graph(data.decode("utf-8"), filename=filename),
                )
            files[filename] = entry
            graph.merge(entry[1])
        self._files = files
        return graph


def build_bundle_call_graph(bundle) -> CallGraph:
    """Whole-program graph of *bundle*, built from scratch.

    The same builder as :meth:`CallGraphCache.refresh`, from an empty
    cache.
    """
    return CallGraphCache().refresh(bundle)


def _collect_aliases(
    assignments: list[tuple[str, ast.expr]], bindings: dict[str, str]
) -> None:
    """Fixpoint over simple ``name = <attribute chain>`` aliases."""
    for _ in range(_MAX_ALIAS_PASSES):
        changed = False
        for name, value in assignments:
            path = _resolve_chain(value, bindings)
            if path is not None and bindings.get(name) != path:
                bindings[name] = path
                changed = True
        if not changed:
            break


def _resolve_chain(node: ast.expr, bindings: dict[str, str]) -> str | None:
    """Dotted path of a pure ``Name(.attr)*`` chain rooted at a binding."""
    if isinstance(node, ast.Name):
        return bindings.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve_chain(node.value, bindings)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def _constant_getattr(
    node: ast.Call, bindings: dict[str, str]
) -> tuple[str, str] | None:
    """Recognise ``getattr(<module chain>, "literal")`` accesses."""
    if not (isinstance(node.func, ast.Name) and node.func.id == "getattr"):
        return None
    if len(node.args) < 2:
        return None
    target, name = node.args[0], node.args[1]
    if not (isinstance(name, ast.Constant) and isinstance(name.value, str)):
        return None
    base = _resolve_chain(target, bindings)
    if base is None:
        return None
    return base, name.value
