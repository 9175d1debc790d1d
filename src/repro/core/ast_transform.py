"""Rebuild a module's source keeping only a subset of its attributes.

This implements the per-iteration transformation of Section 6.3: "the
original ``__init__.py`` file is retrieved and then modified based on the
attributes that DD currently tests.  The modification is achieved with a
single traversal of the AST."

Given a :class:`~repro.core.granularity.ModuleDecomposition` and the set of
components to keep, :func:`rebuild_source` emits new source in which

* pinned statements are preserved verbatim (positionally),
* ``def`` / ``class`` / assignment components are dropped when not kept,
* ``import`` statements keep only the kept aliases, and
* ``from m import a, b`` statements keep only the kept names — the whole
  statement (and therefore the import of ``m``) disappears when none
  survive, exactly like Figure 7's debloated torch skipping
  ``torch.optim`` entirely.
"""

from __future__ import annotations

import ast
import copy
from typing import Iterable, Iterator, NamedTuple

from repro.core.granularity import (
    WHOLE_STATEMENT,
    AttributeComponent,
    ModuleDecomposition,
    is_magic_name,
)

__all__ = ["rebuild_source", "rebuild_tree", "removed_components"]


def removed_components(
    decomposition: ModuleDecomposition, keep: Iterable[AttributeComponent]
) -> list[AttributeComponent]:
    """Components of *decomposition* that are NOT in *keep*."""
    kept = set(keep)
    return [c for c in decomposition.components if c not in kept]


class _Step(NamedTuple):
    """One top-level statement, as every rebuild of its module sees it."""

    stmt: ast.stmt
    text: str  # verbatim source, decorators included
    aliases: frozenset[int] | None  # every alias index; None when pinned
    always: frozenset[int]  # aliases kept whatever DD keeps (magic names)
    whole: bool  # statement granularity: all or none


class _RebuildPlan:
    """What :func:`rebuild_source` needs that depends only on the
    decomposition: each statement's text and alias sets, and where each
    component sits.  Built on a decomposition's first rebuild and kept on
    it, so a DD probe only groups its kept components and joins text."""

    def __init__(self, decomposition: ModuleDecomposition) -> None:
        components = decomposition.components
        # Keyed by identity: hashing a frozen dataclass is a Python call,
        # and a DD search rebuilds from this decomposition's own objects.
        self.by_id = {id(c): c for c in components}
        self.at_slot = {(c.stmt_index, c.alias_index): c for c in components}
        removable_by_statement: dict[int, set[int]] = {}
        for component in components:
            removable_by_statement.setdefault(component.stmt_index, set()).add(
                component.alias_index
            )
        source_lines = decomposition.source.splitlines()
        self.steps: list[_Step] = []
        for index, stmt in enumerate(decomposition.tree.body):
            text = _statement_text(stmt, source_lines)
            removable = removable_by_statement.get(index)
            if removable is None:
                self.steps.append(_Step(stmt, text, None, frozenset(), False))
                continue
            aliases = frozenset(_alias_indices(stmt))
            whole = WHOLE_STATEMENT in removable
            # Aliases never offered to DD (magic names) always stay.
            always = (
                frozenset(_magic_alias_indices(stmt)) if whole else aliases - removable
            )
            self.steps.append(_Step(stmt, text, aliases, always, whole))

    def survivors(
        self, keep: Iterable[AttributeComponent]
    ) -> Iterator[tuple[_Step, frozenset[int] | set[int] | None]]:
        """Each statement that stays, with its surviving alias indices
        (None for a pinned statement, which stays verbatim)."""
        kept_by_statement: dict[int, set[int]] = {}
        for component in keep:
            if self.by_id.get(id(component)) is not component:
                # Not one of this decomposition's own objects: it counts
                # only if it equals the component at its position.
                slot = (component.stmt_index, component.alias_index)
                if self.at_slot.get(slot) != component:
                    continue
            kept_by_statement.setdefault(component.stmt_index, set()).add(
                component.alias_index
            )
        for index, step in enumerate(self.steps):
            if step.aliases is None:
                yield step, None
                continue
            kept_aliases = kept_by_statement.get(index)
            if step.whole:
                surviving = (
                    step.aliases
                    if kept_aliases and WHOLE_STATEMENT in kept_aliases
                    else step.always
                )
            else:
                surviving = step.always | kept_aliases if kept_aliases else step.always
            if surviving:
                yield step, surviving


def _plan(decomposition: ModuleDecomposition) -> _RebuildPlan:
    if decomposition._rebuild_plan is None:
        decomposition._rebuild_plan = _RebuildPlan(decomposition)
    return decomposition._rebuild_plan


def rebuild_tree(
    decomposition: ModuleDecomposition, keep: Iterable[AttributeComponent]
) -> ast.Module:
    """Return a new AST containing only pinned statements and kept components."""
    new_body: list[ast.stmt] = []
    for step, surviving in _plan(decomposition).survivors(keep):
        if surviving is None:
            new_body.append(copy.deepcopy(step.stmt))
            continue
        new_stmt = _filter_statement(step.stmt, surviving)
        if new_stmt is not None:
            new_body.append(new_stmt)
    module = ast.Module(body=new_body, type_ignores=[])
    return ast.fix_missing_locations(module)


def rebuild_source(
    decomposition: ModuleDecomposition, keep: Iterable[AttributeComponent]
) -> str:
    """Source text of the module rebuilt with only *keep* attributes.

    Fast path: statements that survive intact are copied verbatim from the
    original source (DD rewrites the file on every oracle query, so this
    is hot); only partially-kept import statements go through the AST
    unparser.
    """
    chunks: list[str] = []
    for step, surviving in _plan(decomposition).survivors(keep):
        if surviving is None or surviving == step.aliases:
            chunks.append(step.text)
            continue
        filtered = _filter_statement(step.stmt, surviving)
        if filtered is not None:
            chunks.append(ast.unparse(ast.fix_missing_locations(filtered)))
    if not chunks:
        return ""
    return "\n".join(chunks) + "\n"


def _statement_text(stmt: ast.stmt, source_lines: list[str]) -> str:
    """Verbatim source text of one top-level statement (with decorators)."""
    start = stmt.lineno
    decorators = getattr(stmt, "decorator_list", None)
    if decorators:
        start = min(start, decorators[0].lineno)
    end = stmt.end_lineno if stmt.end_lineno is not None else stmt.lineno
    return "\n".join(source_lines[start - 1 : end])


def _magic_alias_indices(stmt: ast.stmt) -> set[int]:
    """Alias positions binding magic names (never offered to DD)."""
    if isinstance(stmt, ast.Import):
        return {
            i
            for i, alias in enumerate(stmt.names)
            if is_magic_name(alias.asname or alias.name.split(".")[0])
        }
    if isinstance(stmt, ast.ImportFrom):
        return {
            i
            for i, alias in enumerate(stmt.names)
            if is_magic_name(alias.asname or alias.name)
        }
    return set()


def _alias_indices(stmt: ast.stmt) -> set[int]:
    """All alias positions of an import statement ({0} for other kinds)."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return set(range(len(stmt.names)))
    return {0}


def _filter_statement(stmt: ast.stmt, kept_aliases: set[int]) -> ast.stmt | None:
    """Keep only *kept_aliases* of an import statement (others keep whole)."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        new_stmt = copy.deepcopy(stmt)
        new_stmt.names = [
            alias for i, alias in enumerate(stmt.names) if i in kept_aliases
        ]
        if not new_stmt.names:
            return None
        return new_stmt
    # def / class / assign components are all-or-nothing (alias_index == 0),
    # so reaching here with a non-empty kept set means "keep the statement".
    return copy.deepcopy(stmt)
