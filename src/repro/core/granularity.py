"""Attribute-granularity decomposition of a Python module (Section 6.1).

A module's namespace is built by its top-level statements: ``import`` adds a
module object, ``def``/``class`` add function/class objects, and simple
assignments add values.  λ-trim runs DD at *attribute* granularity, which is

* coarser than statements for ``def``/``class`` (one component per binding),
* identical for ``import module`` statements, and
* **finer** for ``from module import a, b`` — each imported name is its own
  component, so unused names can be dropped individually (the paper's key
  memory win over statement granularity).

Magic/dunder attributes (``__all__``, ``__version__`` …), docstrings, and
any top-level statement that does not bind a single plain name (``try``
blocks, calls, augmented assignments, tuple targets) are *pinned*: they are
always kept and never offered to DD ("all other code is untouched").
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any

from repro.errors import DebloatError

__all__ = [
    "AttributeComponent",
    "ModuleDecomposition",
    "decompose_module",
    "is_magic_name",
    "KIND_IMPORT",
    "KIND_FROM_IMPORT",
    "KIND_DEF",
    "KIND_CLASS",
    "KIND_ASSIGN",
    "GRANULARITY_ATTRIBUTE",
    "GRANULARITY_STATEMENT",
    "WHOLE_STATEMENT",
]

GRANULARITY_ATTRIBUTE = "attribute"
GRANULARITY_STATEMENT = "statement"

# Sentinel alias index marking a component that covers an entire import
# statement (statement-granularity mode: "removes all or none").
WHOLE_STATEMENT = -1

KIND_IMPORT = "import"
KIND_FROM_IMPORT = "from-import"
KIND_DEF = "def"
KIND_CLASS = "class"
KIND_ASSIGN = "assign"


def is_magic_name(name: str) -> bool:
    """True for dunder attributes, which are excluded from DD (Section 6.3)."""
    return name.startswith("__") and name.endswith("__")


@dataclass(frozen=True, order=True)
class AttributeComponent:
    """One removable attribute binding in a module's top-level namespace.

    ``stmt_index`` is the index of the owning top-level statement;
    ``alias_index`` distinguishes the names of a single ``from … import``
    statement.  The pair makes components unique even when a name is bound
    twice in the file.  ``source`` is the absolute module a from-import
    alias re-exports from (empty otherwise) — the call graph uses it to
    protect re-exports whose origin attribute is definitely accessed.
    """

    stmt_index: int
    alias_index: int
    name: str
    kind: str
    source: str = ""

    @property
    def key(self) -> str:
        """Stable human-readable identifier, e.g. ``Linear@4``."""
        return f"{self.name}@{self.stmt_index}.{self.alias_index}"

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.name


@dataclass
class ModuleDecomposition:
    """A parsed module split into removable components and pinned statements."""

    source: str
    tree: ast.Module
    components: list[AttributeComponent]
    pinned_statements: list[int] = field(default_factory=list)
    #: The file the source was read from; rebuilt code is compiled under it.
    filename: str = "<module>"
    #: What every rebuild of this decomposition shares; built on its first
    #: rebuild by :mod:`repro.core.ast_transform`.
    _rebuild_plan: Any = field(default=None, init=False, repr=False, compare=False)

    @property
    def attribute_names(self) -> list[str]:
        return [c.name for c in self.components]

    @property
    def attribute_count(self) -> int:
        return len(self.components)

    def components_named(self, *names: str) -> list[AttributeComponent]:
        """All components whose attribute name is in *names*."""
        wanted = set(names)
        return [c for c in self.components if c.name in wanted]

    def removable(self, protected: set[str]) -> list[AttributeComponent]:
        """Components whose names are NOT in *protected* (PyCG output etc.)."""
        return [c for c in self.components if c.name not in protected]


def _import_bound_name(alias: ast.alias) -> str:
    """The name an ``import`` alias binds in the namespace.

    ``import a.b.c`` binds ``a`` (the top package); ``import a.b as c``
    binds ``c``.
    """
    if alias.asname:
        return alias.asname
    return alias.name.split(".")[0]


def decompose_module(
    source: str,
    *,
    filename: str = "<module>",
    granularity: str = GRANULARITY_ATTRIBUTE,
    tree: ast.Module | None = None,
) -> ModuleDecomposition:
    """Parse *source* and split its top level into components.

    ``granularity`` selects the paper's Section 6.1 design axis:
    ``"attribute"`` (the λ-trim default — individual ``from … import``
    names are separately removable) or ``"statement"`` (the coarser
    alternative where an import statement "removes all or none" of its
    names).  *tree*, when given, is *source* already parsed (a trim hands
    over the one its call graph was built from); the decomposition keeps
    it instead of parsing again.
    """
    if granularity not in (GRANULARITY_ATTRIBUTE, GRANULARITY_STATEMENT):
        raise DebloatError(f"unknown granularity: {granularity!r}")
    if tree is None:
        try:
            tree = ast.parse(source, filename=filename)
        except SyntaxError as exc:
            raise DebloatError(f"cannot parse {filename}: {exc}") from exc

    components: list[AttributeComponent] = []
    pinned: list[int] = []

    for index, stmt in enumerate(tree.body):
        stmt_components = _decompose_statement(index, stmt)
        if stmt_components and granularity == GRANULARITY_STATEMENT:
            stmt_components = _coarsen_to_statement(stmt_components)
        if stmt_components:
            components.extend(stmt_components)
        else:
            pinned.append(index)

    return ModuleDecomposition(
        source=source,
        tree=tree,
        components=components,
        pinned_statements=pinned,
        filename=filename,
    )


def _coarsen_to_statement(
    components: list[AttributeComponent],
) -> list[AttributeComponent]:
    """Collapse multi-alias import components into one whole-statement one."""
    if len(components) == 1 and components[0].alias_index == 0:
        return components
    first = components[0]
    return [
        AttributeComponent(
            stmt_index=first.stmt_index,
            alias_index=WHOLE_STATEMENT,
            name="+".join(c.name for c in components),
            kind=first.kind,
            source=first.source,
        )
    ]


def _decompose_statement(index: int, stmt: ast.stmt) -> list[AttributeComponent]:
    """Components bound by one top-level statement ([] means pinned)."""
    if isinstance(stmt, ast.Import):
        names = [_import_bound_name(alias) for alias in stmt.names]
        # ``import a.b`` and ``import a`` both bind ``a``; plain (non-aliased)
        # dotted imports of distinct subpackages under one parent are still
        # separately removable because dropping one alias drops that
        # submodule's import side effect.
        return [
            AttributeComponent(index, i, name, KIND_IMPORT)
            for i, name in enumerate(names)
            if not is_magic_name(name)
        ]

    if isinstance(stmt, ast.ImportFrom):
        if stmt.module is None and stmt.level == 0:
            return []
        if any(alias.name == "*" for alias in stmt.names):
            return []  # star imports bind an unknowable set: pinned
        source = stmt.module if (stmt.module and stmt.level == 0) else ""
        return [
            AttributeComponent(
                index,
                i,
                alias.asname or alias.name,
                KIND_FROM_IMPORT,
                source=source,
            )
            for i, alias in enumerate(stmt.names)
            if not is_magic_name(alias.asname or alias.name)
        ]

    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        if is_magic_name(stmt.name):
            return []
        return [AttributeComponent(index, 0, stmt.name, KIND_DEF)]

    if isinstance(stmt, ast.ClassDef):
        if is_magic_name(stmt.name):
            return []
        return [AttributeComponent(index, 0, stmt.name, KIND_CLASS)]

    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        target = _single_name_target(stmt)
        if target is None or is_magic_name(target):
            return []
        return [AttributeComponent(index, 0, target, KIND_ASSIGN)]

    # Everything else — expressions (docstrings, calls), try/if blocks,
    # augmented assignment, deletes — is pinned.
    return []


def _single_name_target(stmt: ast.Assign | ast.AnnAssign) -> str | None:
    """The bound name if the assignment binds exactly one plain name."""
    if isinstance(stmt, ast.AnnAssign):
        if stmt.value is None:
            return None  # bare annotation binds nothing at runtime
        target = stmt.target
        return target.id if isinstance(target, ast.Name) else None
    if len(stmt.targets) != 1:
        return None
    target = stmt.targets[0]
    if isinstance(target, ast.Name):
        return target.id
    return None
