"""Static analyzer: one AST pass identifying imported modules (Section 5.1).

The analyzer inspects a serverless application's source and reports every
module it imports — including submodules pulled in via ``from pkg.sub
import name`` — together with the local names those imports bind.  The
binding map seeds the call-graph analysis (:mod:`repro.core.callgraph`), and
the external-module list is what the profiler measures and the debloater
trims.

Standard-library modules and the application's own local modules are
filtered out: debloating targets third-party dependencies (Section 2.2's
"external modules" column of Table 1).
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field

from repro.errors import AnalysisError

__all__ = [
    "ImportedModule",
    "StaticAnalysis",
    "analyze_source",
    "import_bindings",
    "parse_source",
]

_STDLIB_MODULES = frozenset(sys.stdlib_module_names)


@dataclass(frozen=True)
class ImportedModule:
    """One import binding discovered in the application source.

    Attributes
    ----------
    module:
        Dotted module path being imported (``torch.nn``).
    binding:
        The local name the statement binds (``nn`` for ``from torch import
        nn``, ``torch`` for ``import torch.nn``).
    target:
        What the binding refers to: for ``from m import a`` this is
        ``m.a`` (which may itself be a module or an attribute); for plain
        imports it equals the bound module path.
    is_from:
        Whether the binding came from a ``from … import`` statement.
    lineno:
        Source line of the import.
    """

    module: str
    binding: str
    target: str
    is_from: bool
    lineno: int

    @property
    def top_level(self) -> str:
        """Top-level package name (``torch`` for ``torch.nn.functional``)."""
        return self.module.split(".")[0]


@dataclass
class StaticAnalysis:
    """Result of the import-discovery pass."""

    imports: list[ImportedModule] = field(default_factory=list)

    def external_modules(
        self, *, local_modules: frozenset[str] | set[str] = frozenset()
    ) -> list[str]:
        """Sorted dotted paths of imported non-stdlib, non-local modules."""
        locals_ = set(local_modules)
        seen: set[str] = set()
        for imp in self.imports:
            top = imp.top_level
            if top in _STDLIB_MODULES or top in locals_ or top == "repro":
                continue
            seen.add(imp.module)
        return sorted(seen)

    def external_top_level(
        self, *, local_modules: frozenset[str] | set[str] = frozenset()
    ) -> list[str]:
        """Sorted top-level external package names (Table 1's module column)."""
        return sorted(
            {m.split(".")[0] for m in self.external_modules(local_modules=local_modules)}
        )

    def bindings(self) -> dict[str, str]:
        """Map of local binding name -> dotted target path.

        Later imports shadow earlier ones, matching Python semantics.
        """
        return {imp.binding: imp.target for imp in self.imports}


def import_bindings(node: ast.Import | ast.ImportFrom) -> list[ImportedModule]:
    """The bindings one ``import`` statement makes, in alias order.

    Relative ``from . import x`` binds nothing here: it is local to the
    application package.  A star import is recorded with binding ``*``;
    its attribute surface is unknowable statically, so the call graph
    treats every attribute of the module as potentially used.
    """
    if isinstance(node, ast.Import):
        return [
            ImportedModule(
                module=alias.name,
                binding=alias.asname or alias.name.split(".")[0],
                target=alias.name if alias.asname else alias.name.split(".")[0],
                is_from=False,
                lineno=node.lineno,
            )
            for alias in node.names
        ]
    if node.module is None or node.level:
        return []
    return [
        ImportedModule(
            module=node.module,
            binding=alias.asname or alias.name,
            target=f"{node.module}.{alias.name}",
            is_from=True,
            lineno=node.lineno,
        )
        for alias in node.names
    ]


class _ImportCollector(ast.NodeVisitor):
    """Collects imports from the whole file, including nested scopes.

    Dynamic imports inside functions still execute eventually; treating them
    like top-level imports keeps the analysis conservative (Section 4's
    "static approach would need to be over-conservative").
    """

    def __init__(self) -> None:
        self.imports: list[ImportedModule] = []

    def visit_Import(self, node: ast.Import | ast.ImportFrom) -> None:
        self.imports.extend(import_bindings(node))

    visit_ImportFrom = visit_Import


def parse_source(source: str, *, filename: str = "<application>") -> ast.Module:
    """Parse *source*; a syntax error becomes an :class:`AnalysisError`
    naming *filename*."""
    try:
        return ast.parse(source, filename=filename)
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {filename}: {exc}") from exc


def analyze_source(
    source: str,
    *,
    filename: str = "<application>",
    tree: ast.Module | None = None,
) -> StaticAnalysis:
    """Run the import-discovery pass over application source text.

    *tree*, when given, is *source* already parsed: it is walked as is.
    """
    if tree is None:
        tree = parse_source(source, filename=filename)
    collector = _ImportCollector()
    collector.visit(tree)
    return StaticAnalysis(imports=collector.imports)
