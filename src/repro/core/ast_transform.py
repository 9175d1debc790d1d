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
from typing import Iterable

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


def rebuild_tree(
    decomposition: ModuleDecomposition, keep: Iterable[AttributeComponent]
) -> ast.Module:
    """Return a new AST containing only pinned statements and kept components."""
    kept = set(keep)
    kept_by_statement: dict[int, set[int]] = {}
    removable_by_statement: dict[int, set[int]] = {}
    for component in decomposition.components:
        removable_by_statement.setdefault(component.stmt_index, set()).add(
            component.alias_index
        )
        if component in kept:
            kept_by_statement.setdefault(component.stmt_index, set()).add(
                component.alias_index
            )

    new_body: list[ast.stmt] = []
    for index, stmt in enumerate(decomposition.tree.body):
        removable = removable_by_statement.get(index)
        if removable is None:
            new_body.append(copy.deepcopy(stmt))  # pinned statement
            continue
        kept_aliases = kept_by_statement.get(index, set())
        if WHOLE_STATEMENT in removable:
            # statement granularity: all-or-none (magic aliases persist)
            surviving = (
                _alias_indices(stmt)
                if WHOLE_STATEMENT in kept_aliases
                else _magic_alias_indices(stmt)
            )
        else:
            # Aliases never offered to DD (magic names) always stay.
            always_kept = _alias_indices(stmt) - removable
            surviving = kept_aliases | always_kept
        if not surviving:
            continue  # whole statement removed
        new_stmt = _filter_statement(stmt, surviving)
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
    kept = set(keep)
    kept_by_statement: dict[int, set[int]] = {}
    removable_by_statement: dict[int, set[int]] = {}
    for component in decomposition.components:
        removable_by_statement.setdefault(component.stmt_index, set()).add(
            component.alias_index
        )
        if component in kept:
            kept_by_statement.setdefault(component.stmt_index, set()).add(
                component.alias_index
            )

    source_lines = decomposition.source.splitlines()
    chunks: list[str] = []
    for index, stmt in enumerate(decomposition.tree.body):
        removable = removable_by_statement.get(index)
        if removable is None:
            chunks.append(_statement_text(stmt, source_lines))
            continue
        all_aliases = _alias_indices(stmt)
        kept_aliases = kept_by_statement.get(index, set())
        if WHOLE_STATEMENT in removable:
            surviving = (
                all_aliases
                if WHOLE_STATEMENT in kept_aliases
                else _magic_alias_indices(stmt)
            )
        else:
            surviving = kept_aliases | (all_aliases - removable)
        if not surviving:
            continue
        if surviving == all_aliases:
            chunks.append(_statement_text(stmt, source_lines))
        else:
            filtered = _filter_statement(stmt, surviving)
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
