"""Tests for AST-based module rebuilding (Section 6.3, Figure 7)."""

from __future__ import annotations

import ast
import dataclasses
import functools
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ast_transform import (
    _alias_indices,
    _filter_statement,
    _magic_alias_indices,
    _plan,
    _statement_text,
    rebuild_code,
    rebuild_source,
)
from repro.core.granularity import (
    WHOLE_STATEMENT,
    AttributeComponent,
    decompose_module,
)
from repro.vm import Meter, exec_cost, metered
from repro.workloads.catalog import library_spec
from repro.workloads.synthlib import render_module

FIGURE_7A = """\
from torch.nn import Linear, MSELoss
from torch.optim import SGD

class tensor():
    def __init__(self):
        pass

def add(t1, t2):
    return t1

def view(t, dim1, dim2):
    return t
"""


def _keep_named(decomposition, *names):
    wanted = set(names)
    return [c for c in decomposition.components if c.name in wanted]


class TestRebuild:
    def test_figure7_debloating(self):
        """Keeping tensor/add/view/Linear drops MSELoss and all of optim."""
        decomposition = decompose_module(FIGURE_7A)
        keep = _keep_named(decomposition, "tensor", "add", "view", "Linear")
        source = rebuild_source(decomposition, keep)
        assert "from torch.nn import Linear" in source
        assert "MSELoss" not in source
        assert "torch.optim" not in source  # the whole import disappears
        assert "class tensor" in source
        ast.parse(source)  # output must stay valid Python

    def test_keep_everything_is_semantically_identical(self):
        decomposition = decompose_module(FIGURE_7A)
        source = rebuild_source(decomposition, decomposition.components)
        assert ast.dump(ast.parse(source)) == ast.dump(ast.parse(FIGURE_7A))

    def test_keep_everything_preserves_source_verbatim(self):
        """The fast path copies untouched statements from the original."""
        original = "x = 1  # calibrated constant\ny = 2\n"
        decomposition = decompose_module(original)
        source = rebuild_source(decomposition, decomposition.components)
        assert "# calibrated constant" in source

    def test_keep_nothing_drops_all_components(self):
        decomposition = decompose_module("a = 1\nb = 2\n")
        assert rebuild_source(decomposition, []) == ""

    def test_pinned_statements_always_survive(self):
        source = '"""doc"""\nprint("side effect")\na = 1\n'
        decomposition = decompose_module(source)
        rebuilt = rebuild_source(decomposition, [])
        assert "doc" in rebuilt
        assert "side effect" in rebuilt
        assert "a = 1" not in rebuilt

    def test_partial_from_import_keeps_selected_aliases(self):
        decomposition = decompose_module("from m import a, b, c\n")
        keep = _keep_named(decomposition, "a", "c")
        rebuilt = rebuild_source(decomposition, keep)
        assert rebuilt == "from m import a, c\n"

    def test_partial_plain_import(self):
        decomposition = decompose_module("import os, sys, json\n")
        keep = _keep_named(decomposition, "sys")
        assert rebuild_source(decomposition, keep) == "import sys\n"

    def test_magic_alias_survives_when_siblings_removed(self):
        decomposition = decompose_module("from m import __version__, helper\n")
        rebuilt = rebuild_source(decomposition, [])
        assert rebuilt == "from m import __version__\n"

    def test_multiline_statement_kept_verbatim(self):
        source = "CONFIG = {\n    'a': 1,\n    'b': 2,\n}\nx = 1\n"
        decomposition = decompose_module(source)
        keep = _keep_named(decomposition, "CONFIG")
        rebuilt = rebuild_source(decomposition, keep)
        assert "'b': 2," in rebuilt
        assert "x = 1" not in rebuilt

    def test_decorated_function_kept_with_decorator(self):
        source = "@staticmethod\ndef f():\n    pass\n"
        decomposition = decompose_module(source)
        rebuilt = rebuild_source(decomposition, decomposition.components)
        assert rebuilt.startswith("@staticmethod")

    def test_statements_sharing_a_line_are_copied_by_columns(self):
        source = "import os; import sys  # both\nx = 1; y = (2,\n    3); z = 4\n"
        decomposition = decompose_module(source)
        keep = _keep_named(decomposition, "sys", "y")
        assert rebuild_source(decomposition, keep) == "import sys\ny = (2,\n    3)\n"
        everything = rebuild_source(decomposition, decomposition.components)
        assert everything == "import os\nimport sys\nx = 1\ny = (2,\n    3)\nz = 4\n"

    def test_a_shared_line_is_written_once(self):
        decomposition = decompose_module("n = 0\nn += 1; m = n\n")
        rebuilt = rebuild_source(decomposition, decomposition.components)
        namespace: dict = {}
        exec(rebuilt, namespace)  # noqa: S102 - controlled test input
        assert (namespace["n"], namespace["m"]) == (1, 1)

    def test_column_offsets_count_utf8_bytes(self):
        decomposition = decompose_module("é = 'ü'; ß = 'ø'\n")
        keep = _keep_named(decomposition, "ß")
        assert rebuild_source(decomposition, keep) == "ß = 'ø'\n"

    def test_form_feeds_do_not_break_lines(self):
        """The tokenizer counts lines at line ends only; a form feed, or a
        line separator inside a string, is not one."""
        source = "a = 1\n\x0c\nb = 'x\x0cy\u2028z'\nc = 3\n"
        decomposition = decompose_module(source)
        rebuilt = rebuild_source(decomposition, decomposition.components)
        assert rebuilt == "a = 1\nb = 'x\x0cy\u2028z'\nc = 3\n"

    def test_statement_code_runs_under_the_files_line_numbers(self):
        decomposition = decompose_module(FIGURE_7A, filename="/lib/torch/__init__.py")
        keep = _keep_named(decomposition, "tensor", "view")
        namespace: dict = {}
        for code in rebuild_code(decomposition, keep)():
            exec(code, namespace)  # noqa: S102 - controlled test input
        view = namespace["view"].__code__
        assert view.co_filename == "/lib/torch/__init__.py"
        assert view.co_firstlineno == FIGURE_7A.splitlines().index(
            "def view(t, dim1, dim2):"
        ) + 1
        assert "add" not in namespace

    def test_each_statement_form_compiles_once(self):
        decomposition = decompose_module(FIGURE_7A)
        keep = _keep_named(decomposition, "tensor", "Linear")
        first = rebuild_code(decomposition, keep)()
        again = rebuild_code(decomposition, list(reversed(keep)))()
        assert len(first) == len(again) == 2
        assert all(a is b for a, b in zip(first, again))
        # Another alias set of the same import is another form; the class
        # statement's code is shared.
        other_keep = _keep_named(decomposition, "tensor", "MSELoss")
        other = rebuild_code(decomposition, other_keep)()
        assert other[0] is not first[0]
        assert other[1] is first[1]
        assert len(decomposition._rebuild_plan.compiled) == 3


@given(
    st.sets(
        st.sampled_from(["alpha", "beta", "gamma", "delta", "omega"]), max_size=5
    )
)
def test_rebuild_keeps_exactly_the_requested_attributes(kept_names):
    """Property: the rebuilt module binds exactly pinned + kept names."""
    names = ["alpha", "beta", "gamma", "delta", "omega"]
    source = "\n".join(f"{n} = {i}" for i, n in enumerate(names)) + "\n"
    decomposition = decompose_module(source)
    keep = [c for c in decomposition.components if c.name in kept_names]
    rebuilt = rebuild_source(decomposition, keep)
    namespace: dict = {}
    exec(rebuilt, namespace)  # noqa: S102 - controlled test input
    bound = {k for k in namespace if not k.startswith("__")}
    assert bound == kept_names


# -- generated-module roundtrip properties ---------------------------------

_MODULE_STATEMENTS = st.lists(
    st.sampled_from(
        [
            ("import", "import os"),
            ("import", "import json as j"),
            ("from", "from collections import OrderedDict, defaultdict"),
            ("from", "from textwrap import dedent"),
            ("def", "def helper(x):\n    return x"),
            ("class", "class Widget:\n    pass"),
            ("assign", "LIMIT = 42"),
            ("assign", "NAMES = ['a', 'b']"),
            ("pinned", '"""module docstring"""'),
            ("pinned", "try:\n    import fast_path\nexcept ImportError:\n    fast_path = None"),
        ]
    ),
    min_size=1,
    max_size=8,
)


@given(_MODULE_STATEMENTS, st.data())
def test_generated_module_roundtrip(statements, data):
    """Property: for any module shape, rebuilding with a random kept subset
    yields valid Python whose removable components are exactly the kept
    ones, and keeping everything is semantically identity."""
    source = "\n".join(stmt for _, stmt in statements) + "\n"
    decomposition = decompose_module(source)

    # keeping everything reproduces the same component list
    full = rebuild_source(decomposition, decomposition.components)
    assert decompose_module(full).attribute_names == decomposition.attribute_names

    keep = data.draw(
        st.sets(st.sampled_from(decomposition.components))
        if decomposition.components
        else st.just(set())
    )
    rebuilt = rebuild_source(decomposition, list(keep))
    ast.parse(rebuilt)  # always valid Python
    rebuilt_names = decompose_module(rebuilt).attribute_names
    assert sorted(rebuilt_names) == sorted(c.name for c in keep)
    # pinned statements survive any removal
    pinned_count = len(decomposition.pinned_statements)
    surviving_pinned = len(decompose_module(rebuilt).pinned_statements)
    assert surviving_pinned == pinned_count


# -- the planned rebuild against the per-call one ---------------------------


def reference_rebuild_source(decomposition, keep) -> str:
    """``rebuild_source`` before the per-decomposition plan: every call
    re-derives statement text and alias sets and hashes every component."""
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


_GRANULARITY = st.sampled_from(["attribute", "statement"])


@functools.lru_cache(maxsize=None)
def _numpy_root(granularity: str):
    """One rendered synthlib module per granularity, shared by every
    example so its rebuild plan is built once and reused."""
    spec = library_spec("numpy")
    source = render_module(spec, spec.module(""))
    return decompose_module(source, granularity=granularity)


def _keeps(components) -> st.SearchStrategy:
    """Keep lists in any order and with duplicates."""
    if not components:
        return st.just([])
    return st.lists(st.sampled_from(components), max_size=2 * len(components))


def _assert_plans_match(decomposition, granularity, data, rounds: int) -> None:
    twin = decompose_module(decomposition.source, granularity=granularity)
    for _ in range(rounds):
        keep = data.draw(_keeps(decomposition.components))
        if data.draw(st.booleans()):
            # Equal components that are not this decomposition's objects.
            keep = keep + data.draw(_keeps(twin.components))
        assert rebuild_source(decomposition, keep) == reference_rebuild_source(
            decomposition, keep
        )
        assert rebuild_source(decomposition, iter(keep)) == reference_rebuild_source(
            decomposition, keep
        )


@settings(deadline=None)
@given(_MODULE_STATEMENTS, _GRANULARITY, st.data())
def test_planned_rebuild_matches_reference_on_generated_modules(
    statements, granularity, data
):
    """Byte for byte, many keeps against one decomposition."""
    source = "\n".join(stmt for _, stmt in statements) + "\n"
    decomposition = decompose_module(source, granularity=granularity)
    _assert_plans_match(decomposition, granularity, data, rounds=8)


@settings(deadline=None, max_examples=30)
@given(_GRANULARITY, st.data())
def test_planned_rebuild_matches_reference_on_synthlib_numpy(granularity, data):
    """A 537-attribute rendered module whose plan outlives every example."""
    _assert_plans_match(_numpy_root(granularity), granularity, data, rounds=4)


def reference_survivors(decomposition, keep):
    """``_RebuildPlan.survivors`` before the slot lookup: one pass over
    *keep* with an identity check per component, then one over every
    statement."""
    plan = _plan(decomposition)
    by_id = {id(c): c for c in decomposition.components}
    kept_by_statement: dict[int, set[int]] = {}
    for component in keep:
        if by_id.get(id(component)) is not component:
            slot = (component.stmt_index, component.alias_index)
            if plan.at_slot.get(slot) != component:
                continue
        kept_by_statement.setdefault(component.stmt_index, set()).add(
            component.alias_index
        )
    for index, step in enumerate(plan.steps):
        if step.aliases is None:
            yield index, None
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
        if surviving == step.aliases:
            yield index, None
        elif surviving:
            yield index, surviving


def _foreign(components) -> list[AttributeComponent]:
    """Components at this module's slots that are not its components: a
    renamed twin of each, and one past the last statement."""
    foreign = [dataclasses.replace(c, name=c.name + "_other") for c in components]
    last = max((c.stmt_index for c in components), default=0)
    return foreign + [AttributeComponent(last + 1, 0, "beyond", "assign")]


def _assert_survivors_match(decomposition, granularity, data, rounds: int) -> None:
    twin = decompose_module(decomposition.source, granularity=granularity)
    foreign = _foreign(decomposition.components)
    plan = _plan(decomposition)
    for _ in range(rounds):
        keep = data.draw(_keeps(decomposition.components))
        if data.draw(st.booleans()):
            keep = keep + data.draw(_keeps(twin.components))
        if data.draw(st.booleans()):
            keep = keep + data.draw(_keeps(foreign))
        keep = data.draw(st.permutations(keep))
        expected = tuple(reference_survivors(decomposition, keep))
        assert plan.survivors(keep) == expected
        assert plan.survivors(iter(keep)) == expected
        assert plan.survivors(c for c in keep) == expected


#: Imports binding magic names, which stay whatever DD keeps: with
#: removable siblings they survive in part, or whole.
_MAGIC_IMPORTS = st.lists(
    st.sampled_from(
        [
            "from pkg import __version__, helper",
            "import os, __main__",
            "from pkg import __all__",
        ]
    ),
    max_size=3,
)


@settings(deadline=None)
@given(_MODULE_STATEMENTS, _MAGIC_IMPORTS, _GRANULARITY, st.data())
def test_survivors_match_reference_on_generated_modules(
    statements, magic, granularity, data
):
    """Keeps with duplicates, equal-but-distinct components, foreign
    components, in any order, as lists and as one-shot iterators."""
    lines = data.draw(st.permutations([stmt for _, stmt in statements] + magic))
    source = "\n".join(lines) + "\n"
    decomposition = decompose_module(source, granularity=granularity)
    _assert_survivors_match(decomposition, granularity, data, rounds=8)


@settings(deadline=None, max_examples=30)
@given(_GRANULARITY, st.data())
def test_survivors_match_reference_on_synthlib_numpy(granularity, data):
    _assert_survivors_match(_numpy_root(granularity), granularity, data, rounds=4)


def test_plan_is_built_once_per_decomposition():
    decomposition = decompose_module(FIGURE_7A)
    rebuild_source(decomposition, [])
    plan = decomposition._rebuild_plan
    assert plan is not None
    rebuild_source(decomposition, decomposition.components)
    rebuild_code(decomposition, decomposition.components[:1])()
    assert decomposition._rebuild_plan is plan


# -- per-statement code against a whole-text compile -------------------------


def charge(label: str, time_s: float) -> float:
    exec_cost(label, time_s=time_s)
    return time_s


def traced(function):
    exec_cost("traced", time_s=0.0625)
    return function


_HEADER = st.tuples(
    st.sampled_from(["", '"""Module docstring."""']),
    st.sampled_from(["", "from __future__ import annotations"]),
)

_CODE_STATEMENTS = st.lists(
    st.sampled_from(
        [
            '"""A later bare string."""',
            "x: int = charge('x', 0.5)",
            "y: 'list[int]'",
            "if True:\n    z: int = 2",
            "try:\n    w: float = 1.5\nexcept ImportError:\n    pass",
            "@traced\ndef f(a: int) -> str:\n    return str(a)",
            "class Box:\n    size: int = 3\n\n    def get(self) -> int:\n"
            "        return self.size",
            "from collections import OrderedDict, defaultdict, deque",
            "import os, json as j",
            "charge('pinned', 0.25)",
            "LIMIT = charge('limit', 0.125)",
            "total: float = LIMIT",
            # Statements sharing a line, and a form feed inside a line.
            "a = charge('a', 0.5); b = charge('b', 0.25)",
            "import os, json as j; LIMIT = charge('limit', 0.125)",
            "hits = []; hits.append(charge('hit', 0.5))",
            "FEED = charge('feed\x0c', 0.375)",
        ]
    ),
    max_size=10,
)


def _describe(value):
    """A comparable picture of a namespace value (functions and classes
    compare by identity, and their line numbers differ by design)."""
    if isinstance(value, types.FunctionType):
        return ("function", value.__qualname__, _describe(value.__annotations__))
    if isinstance(value, type):
        members = {
            key: item
            for key, item in vars(value).items()
            if key not in ("__dict__", "__weakref__")
        }
        return ("class", value.__qualname__, _describe(members))
    if isinstance(value, types.ModuleType):
        return ("module", value.__name__)
    if isinstance(value, dict):
        return [(key, _describe(item)) for key, item in value.items()]
    return value


def _outcome(run) -> tuple:
    """Namespace (in key order), charge events and error of one run."""
    namespace = {"__name__": "generated", "charge": charge, "traced": traced}
    meter = Meter("statements")
    error = None
    with metered(meter):
        try:
            run(namespace)
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            error = (type(exc).__name__, str(exc))
    picture = [
        (key, "builtins" if key == "__builtins__" else _describe(value))
        for key, value in namespace.items()
    ]
    return picture, meter.events, error


def reference_run(decomposition, keep, namespace) -> None:
    """What a probe ran before per-statement code: the rebuilt text,
    compiled whole as the module loader compiles a file."""
    source = rebuild_source(decomposition, keep)
    exec(  # noqa: S102 - controlled test input
        compile(source, decomposition.filename, "exec", dont_inherit=True),
        namespace,
    )


def plan_run(decomposition, keep, namespace) -> None:
    for code in rebuild_code(decomposition, keep)():
        exec(code, namespace)  # noqa: S102 - controlled test input


@settings(deadline=None)
@given(_HEADER, _CODE_STATEMENTS, _GRANULARITY, st.data())
def test_statement_code_runs_like_the_rebuilt_text(
    header, statements, granularity, data
):
    """Same namespace in the same key order (``__doc__``, the contents and
    order of ``__annotations__``, future-import flags), the same charge
    events and the same error, for random keep sets."""
    source = "\n".join(line for line in [*header, *statements] if line) + "\n"
    decomposition = decompose_module(
        source, filename="generated.py", granularity=granularity
    )
    for _ in range(4):
        keep = data.draw(_keeps(decomposition.components))
        expected = _outcome(functools.partial(reference_run, decomposition, keep))
        actual = _outcome(functools.partial(plan_run, decomposition, keep))
        assert actual == expected
