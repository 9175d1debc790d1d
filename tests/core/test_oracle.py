"""Tests for oracle specifications and equivalence checking."""

from __future__ import annotations

import pytest

from repro.core.oracle import OracleCase, OracleRunner, OracleSpec
from repro.errors import OracleError
from repro.vm import Meter, metered


class TestOracleSpec:
    def test_from_json(self):
        spec = OracleSpec.from_json('[{"event": {"x": 1}}, {"name": "b", "event": 2}]')
        assert len(spec) == 2
        assert spec.cases[0].name == "case-0"
        assert spec.cases[1].name == "b"

    def test_round_trip(self, tmp_path):
        spec = OracleSpec(cases=[OracleCase("a", {"x": 1}, {"ctx": True})])
        path = tmp_path / "oracle.json"
        spec.save(path)
        loaded = OracleSpec.load(path)
        assert loaded.cases[0] == spec.cases[0]

    def test_empty_spec_rejected(self):
        with pytest.raises(OracleError):
            OracleSpec(cases=[])

    def test_duplicate_names_rejected(self):
        with pytest.raises(OracleError):
            OracleSpec(cases=[OracleCase("a", 1), OracleCase("a", 2)])

    def test_case_without_event_rejected(self):
        with pytest.raises(OracleError):
            OracleSpec.from_json('[{"name": "x"}]')

    def test_non_list_rejected(self):
        with pytest.raises(OracleError):
            OracleSpec.from_json('{"event": 1}')

    def test_invalid_json_rejected(self):
        with pytest.raises(OracleError):
            OracleSpec.from_json("not json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(OracleError):
            OracleSpec.load(tmp_path / "nope.json")

    def test_add_case_extends(self):
        """The Section 5.4 workflow: fuzz finds an input, extend the oracle."""
        spec = OracleSpec(cases=[OracleCase("a", 1)])
        spec.add_case(OracleCase("fuzz-1", {"adversarial": True}))
        assert len(spec) == 2
        with pytest.raises(OracleError):
            spec.add_case(OracleCase("a", 3))

    def test_from_bundle(self, toy_app):
        spec = OracleSpec.from_bundle(toy_app)
        assert len(spec) == 2


class TestOracleRunner:
    def test_reference_passes_itself(self, toy_app):
        runner = OracleRunner(toy_app)
        assert runner.check(toy_app).passed

    def test_detects_changed_output(self, toy_app, tmp_path):
        runner = OracleRunner(toy_app)
        mutated = toy_app.clone(tmp_path / "mutated")
        handler = mutated.handler_source().replace(
            'model(z) % 10**6', 'model(z) % 7'
        )
        mutated.handler_path.write_text(handler)
        result = runner.check(mutated)
        assert not result.passed
        assert result.failures

    def test_detects_broken_import(self, toy_app, tmp_path):
        runner = OracleRunner(toy_app)
        broken = toy_app.clone(tmp_path / "broken")
        torch_init = broken.module_file("torch")
        torch_init.write_text("raise ImportError('gone')\n")
        assert not runner.check(broken).passed

    def test_failing_reference_rejected(self, toy_app, tmp_path):
        broken = toy_app.clone(tmp_path / "bad-ref")
        broken.handler_path.write_text("def handler(e, c):\n    raise ValueError\n")
        with pytest.raises(OracleError):
            OracleRunner(broken)

    def test_meter_accumulates_probe_time(self, toy_app):
        runner = OracleRunner(toy_app)
        after_expected = runner.meter.time_s
        assert after_expected > 0  # expected-output capture is metered
        runner.check(toy_app)
        assert runner.meter.time_s > after_expected

    def test_meter_keeps_no_events_and_sums_like_a_plain_meter(self, toy_app):
        """Every probe charges the oracle's meter; it keeps only the time,
        added event by event so it rounds as a plain meter's sum does."""
        plain = Meter("witness")
        with metered(plain):
            runner = OracleRunner(toy_app)
            for _ in range(3):
                runner.check(toy_app)
        assert len(plain.events) > 0
        assert runner.meter.time_s == plain.time_s
        assert runner.meter.events == []
        assert len(runner.meter.external_calls) == 0

    def test_fail_fast_stops_at_first_failure(self, toy_app, tmp_path):
        runner = OracleRunner(toy_app, fail_fast=True)
        broken = toy_app.clone(tmp_path / "ff")
        broken.handler_path.write_text("def handler(e, c):\n    return None\n")
        result = runner.check(broken)
        assert len(result.outcomes) == 1

    def test_checks_performed_counter(self, toy_app):
        runner = OracleRunner(toy_app)
        runner.check(toy_app)
        runner.check(toy_app)
        assert runner.checks_performed == 2
