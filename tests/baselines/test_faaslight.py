"""Tests for the FaaSLight-style static baseline (Table 2)."""

from __future__ import annotations

import ast
import hashlib
import os
from collections import Counter

from repro.baselines import FaasLight
from repro.core.execution import run_once
from repro.core.oracle import OracleRunner

EVENT = {"x": [1.0, 2.0], "y": [3.0, 4.0]}


class TestFaasLight:
    def test_output_still_passes_oracle(self, toy_app, tmp_path):
        report = FaasLight().run(toy_app, tmp_path / "fl")
        assert OracleRunner(toy_app).check(report.output).passed

    def test_removes_statically_dead_statements(self, toy_app, tmp_path):
        report = FaasLight().run(toy_app, tmp_path / "fl")
        assert report.statements_removed > 0
        after = run_once(report.output, EVENT)
        before = run_once(toy_app, EVENT)
        assert after.init_time_s < before.init_time_s

    def test_statement_granularity_keeps_mixed_imports_whole(
        self, toy_app, tmp_path
    ):
        """``from torch.nn import Linear, MSELoss``: Linear is referenced
        (by the handler) so the *whole statement* — MSELoss included —
        survives.  λ-trim removes MSELoss from the same line (Table 2's
        memory-granularity argument)."""
        report = FaasLight().run(toy_app, tmp_path / "fl")
        source = report.output.module_file("torch").read_text()
        assert "Linear" in source
        assert "MSELoss" in source  # statement granularity cannot split it

    def test_fully_dead_statement_is_removed(self, toy_app, tmp_path):
        """``from torch.optim import SGD``: SGD is referenced nowhere, so
        the statement (and the optim import) disappears."""
        report = FaasLight().run(toy_app, tmp_path / "fl")
        source = report.output.module_file("torch").read_text()
        assert "SGD" not in source
        assert "optim" not in source

    def test_transitively_dead_code_is_eliminated(self, tmp_path, toy_app):
        """The static fixpoint removes a dead helper AND the import only
        that helper referenced."""
        working = toy_app.clone(tmp_path / "seeded")
        torch_init = working.module_file("torch")
        torch_init.write_text(
            torch_init.read_text()
            + "def _dead_helper():\n    return SGD\n"
        )
        report = FaasLight().run(working, tmp_path / "fl")
        source = report.output.module_file("torch").read_text()
        assert "_dead_helper" not in source
        assert "SGD" not in source

    def test_references_from_pinned_code_protect(self, tmp_path, toy_app):
        """Static analysis is conservative: a reference from unremovable
        (pinned) code keeps its target alive even when never executed."""
        working = toy_app.clone(tmp_path / "pinned")
        torch_init = working.module_file("torch")
        torch_init.write_text(
            torch_init.read_text()
            + "try:\n    _opt = SGD\nexcept Exception:\n    pass\n"
        )
        report = FaasLight().run(working, tmp_path / "fl")
        source = report.output.module_file("torch").read_text()
        assert "SGD" in source  # protected by the pinned reference

    def test_report_bookkeeping(self, toy_app, tmp_path):
        report = FaasLight().run(toy_app, tmp_path / "fl")
        assert report.app == "toy-torch"
        assert report.modules_rewritten >= 1
        assert sum(report.attributes_removed.values()) == report.statements_removed

    def test_weaker_than_lambda_trim_on_memory(self, toy_app, tmp_path):
        from repro.core.pipeline import LambdaTrim

        faaslight = FaasLight().run(toy_app, tmp_path / "fl")
        trimmed = LambdaTrim().run(toy_app, tmp_path / "lt")
        fl_mem = run_once(faaslight.output, EVENT).init_memory_mb
        lt_mem = run_once(trimmed.output, EVENT).init_memory_mb
        assert lt_mem < fl_mem  # attribute granularity drops MSELoss too


class TestOneParsePerFileContent:
    """Across all passes of one run, each (absolute path, content) is
    parsed once: the graph refresh's tree is the one the decomposition and
    the import requirements use, and an unchanged file's tree carries over
    to the next pass."""

    def test_each_content_parsed_once(self, toy_app, tmp_path, monkeypatch):
        working = toy_app.clone(tmp_path / "seeded")
        torch_init = working.module_file("torch")
        # A dead helper makes the fixpoint take a further pass: its removal
        # frees the import only it referenced.
        torch_init.write_text(
            torch_init.read_text() + "def _dead_helper():\n    return SGD\n"
        )
        parses: Counter = Counter()
        parse = ast.parse

        def counted(source, filename="<unknown>", *args, **kwargs):
            data = source if isinstance(source, bytes) else source.encode()
            key = (os.path.abspath(filename), hashlib.sha256(data).hexdigest())
            parses[key] += 1
            return parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counted)
        report = FaasLight().run(working, tmp_path / "fl")
        assert report.statements_removed > 0
        assert set(parses.values()) == {1}, parses
        output = report.output
        files = [output.handler_path, *output.site_packages.rglob("*.py")]
        for path in files:
            key = (
                os.path.abspath(path),
                hashlib.sha256(path.read_bytes()).hexdigest(),
            )
            assert key in parses, path
        # The rewritten module was parsed once per content it had.
        torch_file = os.path.abspath(output.module_file("torch"))
        assert sum(path == torch_file for path, _ in parses) >= 3
