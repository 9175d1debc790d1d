"""Tests for the shared experiment workspace."""

from __future__ import annotations

from repro.analysis.workspace import Workspace
from repro.core.cost_model import ScoringMethod


class TestWorkspace:
    def test_bundles_are_memoised(self, tmp_path):
        ws = Workspace(tmp_path)
        assert ws.bundle("markdown") is ws.bundle("markdown")

    def test_bundle_reloaded_from_disk(self, tmp_path):
        first = Workspace(tmp_path)
        first.bundle("markdown")
        second = Workspace(tmp_path)  # fresh workspace, same directory
        assert second.bundle("markdown").root == first.bundle("markdown").root

    def test_trims_are_memoised_per_config(self, tmp_path):
        ws = Workspace(tmp_path)
        default = ws.trim("markdown")
        again = ws.trim("markdown")
        assert default is again
        other = ws.trim("markdown", config=ws.variant_config(k=1))
        assert other is not default

    def test_variant_config_overrides_single_field(self, tmp_path):
        ws = Workspace(tmp_path)
        variant = ws.variant_config(scoring=ScoringMethod.MEMORY)
        assert variant.scoring is ScoringMethod.MEMORY
        assert variant.k == ws.config.k
        assert (
            variant.max_oracle_calls_per_module
            == ws.config.max_oracle_calls_per_module
        )

    def test_distinct_variant_outputs_coexist(self, tmp_path):
        ws = Workspace(tmp_path)
        a = ws.trimmed_bundle("markdown")
        b = ws.trimmed_bundle(
            "markdown", config=ws.variant_config(granularity="statement")
        )
        assert a.root != b.root
        assert a.root.exists() and b.root.exists()

    def test_cleanup_removes_tree(self, tmp_path):
        ws = Workspace(tmp_path / "scratch")
        ws.bundle("markdown")
        ws.cleanup()
        assert not (tmp_path / "scratch").exists()

    def test_budget_variant_is_trimmed_under_its_own_budget(self, tmp_path):
        ws = Workspace(tmp_path)
        default = ws.trim("markdown")
        assert max(r.oracle_calls for r in default.module_results) > 1
        budget = ws.trim(
            "markdown", config=ws.variant_config(max_oracle_calls_per_module=1)
        )
        assert budget is not default
        assert budget.output_root != default.output_root
        assert budget.module_results
        assert all(r.oracle_calls <= 1 for r in budget.module_results)
