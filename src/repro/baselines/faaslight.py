"""FaaSLight-style baseline: static, statement-granularity debloating.

FaaSLight [Liu et al., TOSEM'23] optimizes serverless cold starts with
static reachability analysis — no oracle, no delta debugging.  This
analogue captures the two properties Table 2 turns on:

* **purely static** — an attribute is kept when its name is loaded
  anywhere in the whole program (even from code that is itself dead), or
  accessed as an attribute of its module; no execution ever happens, so
  the analysis must stay conservative;
* **statement granularity** — a ``from m import a, b`` statement is
  removed only when *every* imported name is removable ("with statement
  granularity, we cannot remove specific attributes"); this is why
  λ-trim "has greater memory improvements in general, due to its more
  fine-grained handling of from import statements".
"""

from __future__ import annotations

import ast
import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.bundle import AppBundle
from repro.core.ast_transform import rebuild_source
from repro.core.callgraph import CallGraphCache
from repro.core.debloater import decompose_file
from repro.core.granularity import ModuleDecomposition

__all__ = ["FaasLight", "FaasLightReport"]


@dataclass
class FaasLightReport:
    """What the static debloater did to one application."""

    app: str
    output_root: Path
    modules_rewritten: int = 0
    statements_removed: int = 0
    attributes_removed: dict[str, int] = field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def output(self) -> AppBundle:
        return AppBundle(self.output_root)


def _loaded_names(tree: ast.Module) -> set[str]:
    """Every plain name the module reads (conservatively, any scope)."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _decomposition(
    path: Path, graphs: CallGraphCache, carried: dict
) -> ModuleDecomposition:
    """The decomposition of the file at *path*, for its current bytes: the
    one *carried* keeps under its absolute path while its digest holds,
    else one from the tree the graph refresh parsed."""
    key = os.path.abspath(path)
    digest = hashlib.sha256(path.read_bytes()).digest()
    entry = carried.get(key)
    if entry is None or entry[0] != digest:
        entry = carried[key] = (digest, decompose_file(path, trees=graphs))
    return entry[1]


class FaasLight:
    """Statement-granularity static debloater."""

    MAX_PASSES = 5

    def run(self, bundle: AppBundle, output_dir: Path | str) -> FaasLightReport:
        wall_start = time.perf_counter()
        working = bundle.clone(Path(output_dir))

        report = FaasLightReport(app=bundle.name, output_root=working.root)
        site = working.site_packages
        if not site.is_dir():
            report.wall_time_s = time.perf_counter() - wall_start
            return report

        # Iterate to a fixpoint: each pass recomputes what the *surviving*
        # code requires.  A surviving ``from m import X`` statement is a
        # hard requirement on ``m.X`` even if X is never otherwise used —
        # removing it would break the import chain.  Only the files a pass
        # rewrote are analysed again by the next: each file content is
        # parsed once, by the graph refresh, and its tree and decomposition
        # carry over (by absolute path and digest) while the bytes stay.
        graphs = CallGraphCache()
        carried: dict[str, tuple[bytes, ModuleDecomposition]] = {}
        for _ in range(self.MAX_PASSES):
            graph = graphs.refresh(working)
            paths = sorted(site.rglob("*.py"))
            # The handler is decomposed only for its tree.
            handler = _decomposition(working.handler_path, graphs, carried)
            decompositions = [_decomposition(p, graphs, carried) for p in paths]
            required = self._import_requirements(
                [d.tree for d in (handler, *decompositions)]
            )
            removed_this_pass = 0
            for path, decomposition in zip(paths, decompositions):
                removed = self._rewrite_module(
                    working, path, decomposition, graph, required
                )
                if removed:
                    dotted = self._dotted(working, path)
                    if dotted not in report.attributes_removed:
                        report.modules_rewritten += 1
                        report.attributes_removed[dotted] = 0
                    report.attributes_removed[dotted] += removed
                    report.statements_removed += removed
                    removed_this_pass += removed
            if not removed_this_pass:
                break
        report.wall_time_s = time.perf_counter() - wall_start
        return report

    def _import_requirements(self, trees: list[ast.Module]) -> dict[str, set[str]]:
        """Names each module must export for the import statements in
        *trees*: the handler's and every library file's."""
        required: dict[str, set[str]] = {}
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module and not node.level:
                    for alias in node.names:
                        if alias.name != "*":
                            required.setdefault(node.module, set()).add(alias.name)
        return required

    def _dotted(self, bundle: AppBundle, path: Path) -> str:
        relative = path.relative_to(bundle.site_packages)
        parts = list(relative.parts)
        if parts[-1] == "__init__.py":
            parts = parts[:-1]
        else:
            parts[-1] = parts[-1].removesuffix(".py")
        return ".".join(parts)

    def _rewrite_module(
        self,
        bundle: AppBundle,
        path: Path,
        decomposition: ModuleDecomposition,
        graph,
        required: dict[str, set[str]],
    ) -> int:
        """Remove statically-dead statements from the module at *path*,
        decomposed from its current bytes; returns removed count."""
        dotted = self._dotted(bundle, path)
        if not decomposition.components:
            return 0

        protected = set(graph.accessed_attributes(dotted))
        if graph.protects_everything(dotted):
            return 0
        protected |= _loaded_names(decomposition.tree)
        protected |= required.get(dotted, set())

        def is_protected(component) -> bool:
            if component.name in protected:
                return True
            # A re-export survives when the program accesses its origin
            # attribute (``from torch.nn import Linear`` stays because
            # torch.nn.Linear is used somewhere).
            if component.source:
                return component.name in graph.accessed_attributes(component.source)
            return False

        # Statement granularity: group components by statement; a statement
        # survives when ANY of its names is protected.
        by_statement: dict[int, list] = {}
        for component in decomposition.components:
            by_statement.setdefault(component.stmt_index, []).append(component)

        removed_statements = 0
        kept: list = []
        for index, components in by_statement.items():
            if any(is_protected(c) for c in components):
                kept.extend(components)
            else:
                removed_statements += 1

        if not removed_statements:
            return 0

        path.write_text(rebuild_source(decomposition, kept), encoding="utf-8")
        return removed_statements
