"""Rebuild a module keeping only a subset of its attributes.

This implements the per-iteration transformation of Section 6.3: "the
original ``__init__.py`` file is retrieved and then modified based on the
attributes that DD currently tests.  The modification is achieved with a
single traversal of the AST."

Given a :class:`~repro.core.granularity.ModuleDecomposition` and the set of
components to keep, :func:`rebuild_source` emits new source, and
:func:`rebuild_code` the code that runs it statement by statement, in which

* pinned statements are preserved verbatim (positionally),
* ``def`` / ``class`` / assignment components are dropped when not kept,
* ``import`` statements keep only the kept aliases, and
* ``from m import a, b`` statements keep only the kept names — the whole
  statement (and therefore the import of ``m``) disappears when none
  survive, exactly like Figure 7's debloated torch skipping
  ``torch.optim`` entirely.
"""

from __future__ import annotations

import __future__
import ast
import copy
import dis
import functools
import itertools
from types import CodeType
from typing import Callable, Iterable, Iterator, NamedTuple

from repro.core.granularity import (
    WHOLE_STATEMENT,
    AttributeComponent,
    ModuleDecomposition,
    is_magic_name,
)

__all__ = ["rebuild_code", "rebuild_source"]

#: What a module compiler emits first when any statement of the module
#: holds an annotation: create ``__annotations__``.  The annotation here
#: sits in a dead branch, so this code does nothing else.
_SETUP_ANNOTATIONS = compile(
    "if False:\n    _: int\n", "<annotations>", "exec", dont_inherit=True
)
_SETUP_ANNOTATIONS_OP = dis.opmap["SETUP_ANNOTATIONS"]
#: Running even an empty module inserts ``__builtins__`` into its namespace.
_EMPTY_MODULE = compile("", "<empty>", "exec", dont_inherit=True)


class _Step(NamedTuple):
    """One top-level statement, as every rebuild of its module sees it."""

    stmt: ast.stmt
    aliases: frozenset[int] | None  # every alias index; None when pinned
    always: frozenset[int]  # aliases kept whatever DD keeps (magic names)
    whole: bool  # statement granularity: all or none


class _RebuildPlan:
    """What every rebuild of one decomposition shares: each statement's
    alias sets, where each component sits, and the code compiled so far
    for each statement form.  Built on a decomposition's first rebuild
    and kept on it, so a DD probe only selects its statements."""

    def __init__(self, decomposition: ModuleDecomposition) -> None:
        components = decomposition.components
        # Keyed by identity: hashing a frozen dataclass is a Python call,
        # and a DD search rebuilds from this decomposition's own objects.
        # ``at_slot`` holds every component, so no id here is reused.
        self.slot_of = {id(c): (c.stmt_index, c.alias_index) for c in components}
        self.at_slot = {(c.stmt_index, c.alias_index): c for c in components}
        removable_by_statement: dict[int, set[int]] = {}
        for component in components:
            removable_by_statement.setdefault(component.stmt_index, set()).add(
                component.alias_index
            )
        self.source = decomposition.source
        self.filename = decomposition.filename
        body = decomposition.tree.body
        self.steps: list[_Step] = []
        #: The form of each statement kept verbatim, by statement index.
        self.verbatim = list(zip(range(len(body)), itertools.repeat(None)))
        #: Statements with no component: they always stay verbatim.
        self.pinned: list[int] = []
        #: Slot -> its statement, for a statement that stays verbatim when
        #: that one slot is kept and goes when it is not.
        self.statement_of: dict[tuple[int, int], int] = {}
        #: Every other statement with components (a partly kept import),
        #: and the slots of those statements.
        self.mixed: list[int] = []
        self.mixed_slots: set[tuple[int, int]] = set()
        #: Statements a module compiler takes as the docstring when first.
        self.bare_strings: set[int] = set()
        #: ``from __future__`` imports: each alias's compiler flag.
        self.future: dict[int, list[int]] = {}
        #: (statement, surviving aliases or None, future flags) -> its code,
        #: and whether that code sets up ``__annotations__``.
        self.compiled: dict[tuple, tuple[CodeType, bool]] = {}
        for index, stmt in enumerate(body):
            if _is_bare_string(stmt):
                self.bare_strings.add(index)
            elif isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                self.future[index] = [_future_flag(a.name) for a in stmt.names]
            removable = removable_by_statement.get(index)
            if removable is None:
                self.steps.append(_Step(stmt, None, frozenset(), False))
                self.pinned.append(index)
                continue
            aliases = frozenset(_alias_indices(stmt))
            whole = WHOLE_STATEMENT in removable
            # Aliases never offered to DD (magic names) always stay.
            always = (
                frozenset(_magic_alias_indices(stmt)) if whole else aliases - removable
            )
            self.steps.append(_Step(stmt, aliases, always, whole))
            if len(removable) == 1 and not always:
                (alias,) = removable
                self.statement_of[index, alias] = index
            else:
                self.mixed.append(index)
                self.mixed_slots.update((index, alias) for alias in removable)

    # Rendering text (a commit, or a probe whose oracle reads the disk)
    # needs the source's lines and where statements share one.

    @functools.cached_property
    def source_lines(self) -> list[str]:
        """The source's lines as the tokenizer counts them: ``splitlines``
        also breaks at form feeds and other separators within a line."""
        return self.source.replace("\r\n", "\n").replace("\r", "\n").split("\n")

    @functools.cached_property
    def shares_line(self) -> set[int]:
        """Statements sharing a physical line with a neighbour."""
        shared: set[int] = set()
        previous_end = 0
        for index, step in enumerate(self.steps):
            start, end = _statement_lines(step.stmt)
            if start == previous_end:
                shared.update((index - 1, index))
            previous_end = end
        return shared

    def survivors(
        self, keep: Iterable[AttributeComponent]
    ) -> tuple[tuple[int, frozenset[int] | None], ...]:
        """Each statement that stays, by index, with its surviving alias
        indices; None when it stays verbatim (pinned, or all aliases kept)."""
        keep = tuple(keep)  # it may be an iterator: read it once
        slots = set(map(self.slot_of.get, map(id, keep)))
        if None in slots:
            slots.discard(None)
            slots.update(self._equal_slots(keep))
        chosen = {*self.pinned, *map(self.statement_of.get, slots)}
        chosen.discard(None)
        partial: dict[int, tuple[int, frozenset[int]]] = {}
        if self.mixed:
            kept_by_statement: dict[int, set[int]] = {}
            for index, alias in slots & self.mixed_slots:
                kept_by_statement.setdefault(index, set()).add(alias)
            for index in self.mixed:
                step = self.steps[index]
                kept_aliases = kept_by_statement.get(index)
                if step.whole:
                    surviving = (
                        step.aliases
                        if kept_aliases and WHOLE_STATEMENT in kept_aliases
                        else step.always
                    )
                else:
                    surviving = (
                        step.always | kept_aliases if kept_aliases else step.always
                    )
                if surviving:
                    chosen.add(index)
                    if surviving != step.aliases:
                        partial[index] = (index, surviving)
        order = sorted(chosen)
        verbatim = map(self.verbatim.__getitem__, order)
        if partial:
            return tuple(map(partial.get, order, verbatim))
        return tuple(verbatim)

    def _equal_slots(
        self, keep: tuple[AttributeComponent, ...]
    ) -> Iterator[tuple[int, int]]:
        """Slots of the components in *keep* that are not this
        decomposition's own objects: each counts only if it equals the
        component at its position."""
        for component in keep:
            if id(component) not in self.slot_of:
                slot = (component.stmt_index, component.alias_index)
                if self.at_slot.get(slot) == component:
                    yield slot

    def code(
        self, forms: tuple[tuple[int, frozenset[int] | None], ...]
    ) -> list[CodeType]:
        """The code of each statement form in *forms*, in order, compiling
        only the forms not compiled before."""
        flags = 0
        if self.future:
            for index, aliases in forms:
                for alias, flag in enumerate(self.future.get(index, ())):
                    if aliases is None or alias in aliases:
                        flags |= flag
        codes: list[CodeType] = []
        annotated = False
        for index, aliases in forms:
            if codes and index in self.bare_strings:
                continue  # only the first statement can be the docstring
            key = (index, aliases, flags)
            compiled = self.compiled.get(key)
            if compiled is None:
                compiled = self.compiled[key] = self._compile(index, aliases, flags)
            codes.append(compiled[0])
            annotated = annotated or compiled[1]
        if annotated:
            codes.insert(0, _SETUP_ANNOTATIONS)
        return codes or [_EMPTY_MODULE]

    def _compile(
        self, index: int, aliases: frozenset[int] | None, flags: int
    ) -> tuple[CodeType, bool]:
        stmt = self.steps[index].stmt
        if aliases is not None:
            stmt = _filter_statement(stmt, aliases)
        code = compile(
            ast.Module(body=[stmt], type_ignores=[]),
            self.filename,
            "exec",
            flags=flags,
            dont_inherit=True,
        )
        # Every instruction is two bytes, opcode first.
        return code, _SETUP_ANNOTATIONS_OP in code.co_code[::2]


def _plan(decomposition: ModuleDecomposition) -> _RebuildPlan:
    if decomposition._rebuild_plan is None:
        decomposition._rebuild_plan = _RebuildPlan(decomposition)
    return decomposition._rebuild_plan


def rebuild_code(
    decomposition: ModuleDecomposition, keep: Iterable[AttributeComponent]
) -> Callable[[], list[CodeType]]:
    """The module rebuilt with only *keep* attributes, as code to run
    statement by statement in one namespace.

    The statements are selected now.  The returned function compiles the
    statement forms this decomposition has not compiled before (a pinned
    statement, or an import with one set of surviving aliases), each from
    its AST node under the decomposition's filename, and returns the code
    of the surviving statements in order.  Running that code does what
    running ``rebuild_source(decomposition, keep)`` does, with the original
    file's line numbers:

    * only the first surviving statement can set ``__doc__``;
    * ``__annotations__`` exists from the start when any surviving
      statement annotates at module level;
    * the flags of surviving ``from __future__`` imports apply to every
      statement.

    Like a whole-text compile, the function compiles everything before any
    of it runs, so a statement that does not compile fails the load first.
    """
    plan = _plan(decomposition)
    return functools.partial(plan.code, plan.survivors(keep))


def rebuild_source(
    decomposition: ModuleDecomposition, keep: Iterable[AttributeComponent]
) -> str:
    """Source text of the module rebuilt with only *keep* attributes.

    Statements that survive intact are copied verbatim from the original
    source: their whole lines, or just their own columns when they share
    a line with another statement (``import os; import sys``).  Only
    partially kept import statements go through the AST unparser.  DD
    probes run :func:`rebuild_code` instead: text is rendered when a
    module is committed, or for a probe whose oracle reads the disk.
    """
    plan = _plan(decomposition)
    chunks: list[str] = []
    for index, surviving in plan.survivors(keep):
        stmt = plan.steps[index].stmt
        if surviving is None:
            if index in plan.shares_line:
                chunks.append(_statement_segment(stmt, plan.source_lines))
            else:
                chunks.append(_statement_text(stmt, plan.source_lines))
            continue
        filtered = _filter_statement(stmt, surviving)
        if filtered is not None:
            chunks.append(ast.unparse(ast.fix_missing_locations(filtered)))
    if not chunks:
        return ""
    return "\n".join(chunks) + "\n"


def _is_bare_string(stmt: ast.stmt) -> bool:
    """A string statement: the docstring if it comes first."""
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _future_flag(name: str) -> int:
    """Compiler flag of ``from __future__ import name`` (0 when unknown:
    compiling the import itself then fails, as a whole-text compile does)."""
    return getattr(getattr(__future__, name, None), "compiler_flag", 0)


def _statement_lines(stmt: ast.stmt) -> tuple[int, int]:
    """First and last physical line of a statement (with decorators)."""
    start = stmt.lineno
    decorators = getattr(stmt, "decorator_list", None)
    if decorators:
        start = min(start, decorators[0].lineno)
    end = stmt.end_lineno if stmt.end_lineno is not None else stmt.lineno
    return start, end


def _statement_text(stmt: ast.stmt, source_lines: list[str]) -> str:
    """Verbatim source text of the whole lines of one top-level statement
    (with decorators)."""
    start, end = _statement_lines(stmt)
    return "\n".join(source_lines[start - 1 : end])


def _statement_segment(stmt: ast.stmt, source_lines: list[str]) -> str:
    """Verbatim source text of a statement that shares a line: only its
    own columns (offsets count UTF-8 bytes).  Such a statement is a
    simple one, so it has no decorators."""
    lines = [line.encode() for line in source_lines[stmt.lineno - 1 : stmt.end_lineno]]
    lines[-1] = lines[-1][: stmt.end_col_offset]
    lines[0] = lines[0][stmt.col_offset :]
    return b"\n".join(lines).decode()


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
