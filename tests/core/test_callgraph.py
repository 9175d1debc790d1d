"""Tests for the conservative call-graph analyzer (PyCG replacement)."""

from __future__ import annotations

import ast
import hashlib
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import callgraph
from repro.core.callgraph import (
    CallGraph,
    CallGraphCache,
    _constant_getattr,
    _resolve_chain,
    build_bundle_call_graph,
    build_call_graph,
)
from repro.core.pipeline import LambdaTrim
from repro.core.static_analyzer import analyze_source, import_bindings
from repro.errors import AnalysisError
from repro.workloads.catalog import _BUILDERS, library_spec
from repro.workloads.synthlib import render_module


class TestAttributeAccess:
    def test_chained_attribute_marks_each_link(self):
        graph = build_call_graph("import torch\nx = torch.nn.Linear(2, 1)\n")
        assert "nn" in graph.accessed_attributes("torch")
        assert "Linear" in graph.accessed_attributes("torch.nn")

    def test_used_from_import_is_marked(self):
        graph = build_call_graph("from torch.nn import Linear\nm = Linear(2, 1)\n")
        assert "Linear" in graph.accessed_attributes("torch.nn")

    def test_unused_from_import_is_not_marked(self):
        """The key debloating opportunity: imported but never used."""
        graph = build_call_graph("from torch.nn import Linear, MSELoss\nm = Linear(1)\n")
        assert "MSELoss" not in graph.accessed_attributes("torch.nn")

    def test_alias_resolution(self):
        source = "import torch\nnn = torch.nn\nlayer = nn.Conv2d(1, 2, 3)\n"
        graph = build_call_graph(source)
        assert "Conv2d" in graph.accessed_attributes("torch.nn")

    def test_import_alias(self):
        graph = build_call_graph("import numpy as np\nnp.zeros(3)\n")
        assert "zeros" in graph.accessed_attributes("numpy")

    def test_constant_getattr_is_recognised(self):
        graph = build_call_graph('import m\nf = getattr(m, "helper")\n')
        assert "helper" in graph.accessed_attributes("m")

    def test_dynamic_getattr_is_invisible(self):
        """Non-constant getattr cannot be analysed — DD is the safety net."""
        graph = build_call_graph('import m\nf = getattr(m, "hel" + "per")\n')
        assert "helper" not in graph.accessed_attributes("m")

    def test_star_import_poisons_module(self):
        graph = build_call_graph("from big import *\n")
        assert graph.protects_everything("big")

    def test_access_inside_function_bodies(self):
        source = (
            "import torch\n"
            "def handler(event, context):\n"
            "    return torch.sigmoid(event)\n"
        )
        graph = build_call_graph(source)
        assert "sigmoid" in graph.accessed_attributes("torch")

    def test_transitive_alias_chain(self):
        source = "import a\nb = a.x\nc = b.y\nc.z\n"
        graph = build_call_graph(source)
        assert "z" in graph.accessed_attributes("a.x.y")

    def test_merge_combines_graphs(self):
        g1 = build_call_graph("import m\nm.a\n")
        g2 = build_call_graph("import m\nm.b\nfrom q import *\n")
        g1.merge(g2)
        assert g1.accessed_attributes("m") == {"a", "b"}
        assert g1.protects_everything("q")


class TestBundleGraph:
    def test_library_internal_usage_is_protected(self, toy_app):
        """torch/__init__ re-exports from torch.nn; the handler uses torch.nn
        via the re-exported Linear, so nn's Linear must be protected."""
        graph = build_bundle_call_graph(toy_app)
        # handler accesses torch.nn.Linear through the attribute chain
        assert "nn" in graph.accessed_attributes("torch")
        assert "Linear" in graph.accessed_attributes("torch.nn")
        # nothing marks SGD as used anywhere in the program
        assert "SGD" not in graph.accessed_attributes("torch")


# -- the one-walk builder against the two-pass one ---------------------------


def reference_build_call_graph(
    source: str, filename: str = "<application>"
) -> CallGraph:
    """``build_call_graph`` before the single walk: the static analyzer's
    import pass, then a second parse with one ``ast.walk`` for aliases
    and another for accesses."""
    analysis = analyze_source(source, filename=filename)
    tree = ast.parse(source, filename=filename)
    graph = CallGraph()
    bindings: dict[str, str] = {}
    from_bindings: dict[str, tuple[str, str]] = {}
    for imp in analysis.imports:
        if imp.binding == "*":
            graph.star_modules.add(imp.module)
            continue
        bindings[imp.binding] = imp.target
        if imp.is_from:
            from_bindings[imp.binding] = (imp.module, imp.target.rsplit(".", 1)[1])
    assignments = [
        (node.targets[0].id, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    ]
    for _ in range(callgraph._MAX_ALIAS_PASSES):
        changed = False
        for name, value in assignments:
            path = _resolve_chain(value, bindings)
            if path is not None and bindings.get(name) != path:
                bindings[name] = path
                changed = True
        if not changed:
            break
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = _resolve_chain(node.value, bindings)
            if base is not None:
                graph._mark(base, node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            hit = from_bindings.get(node.id)
            if hit is not None:
                graph._mark(*hit)
        elif isinstance(node, ast.Call):
            literal = _constant_getattr(node, bindings)
            if literal is not None:
                graph._mark(*literal)
    return graph


# Snippets whose order decides the result: nested imports that shadow
# module-level ones, aliases rebound at several depths, and alias cycles
# that never settle.
_SNIPPETS = st.sampled_from(
    [
        "import a",
        "import a.b",
        "import a.b as c",
        "from a import b",
        "from a.b import c as a",
        "from q import *",
        "from . import a",
        "x = a.b",
        "x = c.d",
        "a = x.y",
        "y = x\nx = y.t",
        "def f():\n    import c as a\n    x = a.z\n    return x.w",
        "class K:\n    from a import b as x\n    y = x.q",
        "if a:\n    x = b\nelse:\n    x = a.e",
        "getattr(a, 'n')",
        "getattr(x, 'm', None)",
        "b.k",
        "x.m(a.b.c)",
    ]
)


@settings(deadline=None)
@given(st.lists(_SNIPPETS, min_size=1, max_size=10))
def test_one_walk_matches_reference_on_generated_sources(snippets):
    source = "\n".join(snippets) + "\n"
    assert build_call_graph(source) == reference_build_call_graph(source)


def test_one_walk_matches_reference_on_every_synthlib_module():
    modules = 0
    for name in sorted(_BUILDERS):
        spec = library_spec(name)
        for module in spec.modules:
            source = render_module(spec, module)
            assert build_call_graph(source) == reference_build_call_graph(source), (
                name,
                module.name,
            )
            modules += 1
    assert modules > 100


# -- the leaf-skipping walk against the full walk -----------------------------


def reference_walk_call_graph(
    source: str, filename: str = "<application>"
) -> CallGraph:
    """``build_call_graph`` before the leaf-skipping walk: every node,
    constants and expression contexts included, is pushed and dispatched
    by ``isinstance``."""
    tree = ast.parse(source, filename=filename)
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
    callgraph._collect_aliases(
        [(name, value) for _, _, name, value in assignments], bindings
    )
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


# Constructs whose leaves the walk skips or reads in place: constants in
# every position, names in load/store/del contexts, operators, comparisons,
# f-strings, slices, comprehensions, lambdas, annotations, decorators,
# keywords, starred targets and ``match`` patterns.
_LEAF_SNIPPETS = st.sampled_from(
    [
        "x = a.b[1:2, ::3]",
        "del a.b, x",
        "x: a.T = getattr(a, 'k')",
        "f'{a.b!r:>{x.w}}'",
        "y = [a.c for a in x if not -a.d < 3 <= a.e]",
        "z = {k: getattr(x, 'v') for k in (1, 2.5, None, ...)}",
        "g = lambda q=a.b, *r, s=x.t, **u: q.v",
        "@a.deco(x.y, key=b.k)\nclass C(a.Base, metaclass=x.M):\n    n: b.N = 0",
        "async def h(p: a.P = x) -> b.R:\n    async with a.cm() as x:\n"
        "        await x.go()",
        "(*x.s, y) = a.p, b",
        "x = y = a.b",
        "x += a.inc or b.dec and not x.flag",
        "match a.m:\n    case {'k': b.v, **rest}:\n        x = b.r\n"
        "    case [1, *more] if x.ok:\n        pass\n    case a.C(q=2) | None:\n"
        "        pass",
        "while x.more:\n    x = x.next\nelse:\n    y = a.done",
        "try:\n    import a.b as x\nexcept (a.E, x.F) as err:\n"
        "    raise err.w from b.c",
        "global g2\nnonlocal_free = b'bytes' + b.bytes",
        "assert x.ok, a.msg",
        "with a.ctx() as (x, y):\n    yield_ = x.y",
    ]
)


@settings(deadline=None)
@given(st.lists(st.one_of(_SNIPPETS, _LEAF_SNIPPETS), min_size=1, max_size=10))
def test_leaf_skipping_walk_matches_full_walk_on_generated_sources(snippets):
    source = "\n".join(snippets) + "\n"
    assert build_call_graph(source) == reference_walk_call_graph(source)


def test_leaf_skipping_walk_matches_full_walk_on_the_repository():
    """Every ``.py`` file of ``src/`` and ``tests/``."""
    root = Path(__file__).resolve().parents[2]
    files = sorted(
        [*root.joinpath("src").rglob("*.py"), *root.joinpath("tests").rglob("*.py")]
    )
    for path in files:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        expected = reference_walk_call_graph(source, filename=str(path))
        assert build_call_graph(source, filename=str(path)) == expected, path
        assert build_call_graph(source, tree=tree) == expected, path
    assert len(files) > 150


def test_parse_errors_name_the_file():
    with pytest.raises(AnalysisError, match="cannot parse broken.py"):
        build_call_graph("def (:\n", filename="broken.py")


# -- the per-file cache -----------------------------------------------------


def _fold(bundle) -> CallGraph:
    """A from-scratch fold of ``build_call_graph`` over the current files."""
    graph = CallGraph()
    paths = [bundle.handler_path, *sorted(bundle.site_packages.rglob("*.py"))]
    for path in paths:
        source = path.read_text(encoding="utf-8")
        graph.merge(build_call_graph(source, filename=str(path)))
    return graph


class TestCallGraphCache:
    def test_matches_fold_after_every_module_commit(
        self, toy_app, tmp_path, monkeypatch
    ):
        caches: list[CallGraphCache] = []
        original = CallGraphCache.refresh

        def checked(self, bundle):
            graph = original(self, bundle)
            assert graph == _fold(bundle)
            caches.append(self)
            return graph

        monkeypatch.setattr(CallGraphCache, "refresh", checked)
        report = LambdaTrim().run(toy_app, tmp_path / "out", journal_fsync=False)
        # One refresh per module, all from one cache; one more checks the
        # last commit.
        assert len(caches) == len(report.module_results) == 3
        assert len({id(cache) for cache in caches}) == 1
        assert caches[0].refresh(report.output) == _fold(report.output)

    def test_same_size_rewrite_with_pinned_mtime(self, toy_app):
        cache = CallGraphCache()
        before = cache.refresh(toy_app)
        path = toy_app.handler_path
        source = path.read_text(encoding="utf-8")
        stat = path.stat()
        rewritten = source.replace("torch.view(", "torch.VIEW(")
        assert rewritten != source and len(rewritten) == len(source)
        path.write_text(rewritten, encoding="utf-8")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        after = cache.refresh(toy_app)
        assert after == _fold(toy_app) != before
        assert "VIEW" in after.accessed_attributes("torch")
        assert "view" not in after.accessed_attributes("torch")

    def test_deleted_and_added_files(self, toy_app):
        cache = CallGraphCache()
        cache.refresh(toy_app)
        optim = toy_app.module_file("torch.optim")
        optim.unlink()
        assert cache.refresh(toy_app) == _fold(toy_app)
        extra = toy_app.site_packages / "extra.py"
        extra.write_text("import torch\ntorch.optim.Adam\n", encoding="utf-8")
        graph = cache.refresh(toy_app)
        assert graph == _fold(toy_app)
        assert "Adam" in graph.accessed_attributes("torch.optim")
        extra.unlink()
        graph = cache.refresh(toy_app)
        assert graph == _fold(toy_app) == build_bundle_call_graph(toy_app)

    def test_refresh_returns_a_fresh_graph(self, toy_app):
        cache = CallGraphCache()
        first = cache.refresh(toy_app)
        first.accessed.clear()
        first.star_modules.add("torch")
        assert cache.refresh(toy_app) == _fold(toy_app)

    def test_each_parsed_tree_is_handed_over_once(
        self, toy_app, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        cache = CallGraphCache()
        cache.refresh(toy_app)
        path = toy_app.module_file("torch")
        relative = os.path.relpath(path)
        data = path.read_bytes()
        assert cache.take_tree(path, data + b"#\n") is None  # bytes differ
        cache.refresh(toy_app)  # unchanged bytes: nothing is parsed again
        assert cache.take_tree(relative, data) is None  # dropped on the miss
        path.write_bytes(data + b"#\n")
        cache.refresh(toy_app)
        tree = cache.take_tree(relative, data + b"#\n")
        assert ast.dump(tree) == ast.dump(ast.parse(data + b"#\n"))
        assert cache.take_tree(path, data + b"#\n") is None  # taken already
        handler = toy_app.handler_path
        assert cache.take_tree(handler, handler.read_bytes()) is not None

    def test_one_build_per_distinct_file_content_in_a_trim(
        self, toy_app, tmp_path, monkeypatch
    ):
        builds: list[tuple[str, str]] = []
        seen: set[tuple[str, str]] = set()
        build, refresh = callgraph.build_call_graph, CallGraphCache.refresh

        def counted(source, *, filename="<application>", tree=None):
            builds.append((filename, hashlib.sha256(source.encode()).hexdigest()))
            return build(source, filename=filename, tree=tree)

        def snapshot(self, bundle):
            for path in [bundle.handler_path, *bundle.site_packages.rglob("*.py")]:
                seen.add((str(path), hashlib.sha256(path.read_bytes()).hexdigest()))
            return refresh(self, bundle)

        monkeypatch.setattr(callgraph, "build_call_graph", counted)
        monkeypatch.setattr(CallGraphCache, "refresh", snapshot)
        report = LambdaTrim().run(toy_app, tmp_path / "out", journal_fsync=False)
        assert report.attributes_removed > 0
        assert len(builds) == len(seen)
        assert set(builds) == seen
