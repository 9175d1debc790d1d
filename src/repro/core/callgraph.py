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
import os
from dataclasses import dataclass, field

from repro.core.static_analyzer import import_bindings, parse_source

__all__ = [
    "CallGraph",
    "CallGraphCache",
    "build_call_graph",
    "build_bundle_call_graph",
]

_MAX_ALIAS_PASSES = 10

#: Nodes below which no binding or access can sit: constants, expression
#: contexts, operators, and import aliases (an import binds from its own
#: node).  The walk never pushes them; a ``Name`` is read where it is met.
_LEAVES = frozenset(
    [ast.Constant, ast.alias]
    + [
        leaf
        for base in (ast.expr_context, ast.boolop, ast.operator, ast.unaryop, ast.cmpop)
        for leaf in base.__subclasses__()
    ]
)


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


def build_call_graph(
    source: str,
    *,
    filename: str = "<application>",
    tree: ast.Module | None = None,
) -> CallGraph:
    """Analyze application *source* and return its attribute-access graph.

    One parse and one depth-first walk feed every pass; *tree*, when
    given, is *source* already parsed and is walked as is.  Imports bind
    in the walk's order, which is the static analyzer's; later imports of
    a name shadow earlier ones.  Simple aliases then resolve in
    ``ast.walk`` order (by depth, then walk order), and the access
    candidates the walk collected resolve against the final bindings.
    """
    if tree is None:
        tree = parse_source(source, filename=filename)

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
        kind = type(node)
        if kind is ast.Attribute:
            attributes.append(node)
        elif kind is ast.Call:
            calls.append(node)
        elif kind is ast.Assign:
            if len(node.targets) == 1 and type(node.targets[0]) is ast.Name:
                assignments.append(
                    (depth, len(assignments), node.targets[0].id, node.value)
                )
        elif kind is ast.Import or kind is ast.ImportFrom:
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
        depth += 1
        children: list[tuple[ast.AST, int]] = []
        for name in node._fields:
            value = getattr(node, name, None)
            if type(value) is not list:
                if not isinstance(value, ast.AST):
                    continue
                value = (value,)
            for child in value:
                kind = type(child)
                if kind is ast.Name:
                    if type(child.ctx) is ast.Load:
                        loads.append(child.id)
                elif kind not in _LEAVES and isinstance(child, ast.AST):
                    children.append((child, depth))
        if children:
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
    Each file's graph is kept under its absolute path and checked against
    the SHA-256 of the file's current bytes, so after a module rewrite only
    that file is analysed again.  Files that disappear leave the cache.

    Each tree a refresh parses is kept too, until :meth:`take_tree` hands
    it to the file's decomposition, so a file is parsed once for both.
    """

    def __init__(self) -> None:
        self._files: dict[str, tuple[bytes, CallGraph]] = {}
        #: Absolute path -> (digest, tree) of each parse not yet taken.
        self._trees: dict[str, tuple[bytes, ast.Module]] = {}

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
            key = os.path.abspath(path)
            data = path.read_bytes()
            digest = hashlib.sha256(data).digest()
            entry = self._files.get(key)
            if entry is None or entry[0] != digest:
                filename = str(path)
                source = data.decode("utf-8")
                tree = parse_source(source, filename=filename)
                self._trees[key] = (digest, tree)
                entry = (
                    digest,
                    build_call_graph(source, filename=filename, tree=tree),
                )
            files[key] = entry
            graph.merge(entry[1])
        self._files = files
        return graph

    def take_tree(self, path: str | os.PathLike, data: bytes) -> ast.Module | None:
        """The tree a refresh parsed from the file at *path*, if *data*
        are still its bytes; None otherwise.  Either way the cache lets go
        of that file's tree: it is handed over at most once."""
        entry = self._trees.pop(os.path.abspath(path), None)
        if entry is None or entry[0] != hashlib.sha256(data).digest():
            return None
        return entry[1]


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
