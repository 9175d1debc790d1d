"""Tests for the virtual metering substrate."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import vm
from repro.errors import MeterError


class TestMemoryLedger:
    def test_allocate_and_free(self):
        ledger = vm.MemoryLedger()
        ledger.allocate("a", 10.0)
        ledger.allocate("b", 5.0)
        assert ledger.live_mb == 15.0
        assert ledger.peak_mb == 15.0
        assert ledger.free("a") == 10.0
        assert ledger.live_mb == 5.0
        assert ledger.peak_mb == 15.0  # peak is a high watermark

    def test_same_label_accumulates(self):
        ledger = vm.MemoryLedger()
        ledger.allocate("x", 3.0)
        ledger.allocate("x", 4.0)
        assert ledger.allocated("x") == 7.0

    def test_free_unknown_label_is_zero(self):
        assert vm.MemoryLedger().free("nope") == 0.0

    def test_zero_allocation_is_noop(self):
        ledger = vm.MemoryLedger()
        ledger.allocate("x", 0.0)
        assert ledger.labels == ()

    def test_negative_allocation_rejected(self):
        with pytest.raises(MeterError):
            vm.MemoryLedger().allocate("x", -1.0)

    @given(st.lists(st.floats(min_value=0, max_value=100), max_size=30))
    def test_peak_never_below_live(self, sizes):
        ledger = vm.MemoryLedger()
        for i, size in enumerate(sizes):
            ledger.allocate(f"l{i}", size)
            assert ledger.peak_mb >= ledger.live_mb
            assert ledger.live_mb == pytest.approx(
                sum(sizes[: i + 1]), rel=1e-9, abs=1e-9
            )


class TestMeterScopes:
    def test_charges_reach_all_active_meters(self):
        outer, inner = vm.Meter("outer"), vm.Meter("inner")
        with vm.metered(outer):
            with vm.metered(inner):
                vm.exec_cost("work", time_s=1.5, memory_mb=2.0)
        assert outer.time_s == 1.5
        assert inner.time_s == 1.5
        assert outer.live_mb == 2.0

    def test_charges_outside_scope_hit_global_meter(self):
        fresh = vm.reset_global_meter()
        vm.module_cost("stray", time_s=0.1)
        assert fresh.time_s == pytest.approx(0.1)

    def test_unbalanced_pop_raises(self):
        meter = vm.Meter()
        with pytest.raises(MeterError):
            vm.pop_meter(meter)

    def test_current_meter(self):
        assert vm.current_meter() is None or vm.current_meter().name
        meter = vm.Meter("top")
        with vm.metered(meter):
            assert vm.current_meter() is meter

    def test_scope_cleans_up_after_exception(self):
        meter = vm.Meter()
        with pytest.raises(RuntimeError):
            with vm.metered(meter):
                raise RuntimeError("boom")
        assert meter not in vm.active_meters()


class TestChargeApi:
    def test_module_cost_categorised_as_import(self):
        meter = vm.Meter()
        with vm.metered(meter):
            vm.module_cost("m", time_s=0.2, memory_mb=1.0)
            vm.exec_cost("handler", time_s=0.3)
        assert meter.time_in_category(vm.CATEGORY_IMPORT) == pytest.approx(0.2)
        assert meter.time_in_category(vm.CATEGORY_EXEC) == pytest.approx(0.3)

    def test_attribute_cost_label_includes_attribute(self):
        meter = vm.Meter()
        with vm.metered(meter):
            vm.attribute_cost("mod", "attr", time_s=0.1)
        assert meter.events[0].label == "mod.attr"

    def test_negative_time_rejected(self):
        with pytest.raises(MeterError):
            vm.ChargeEvent(label="x", category="exec", time_s=-1)

    def test_unknown_category_rejected(self):
        with pytest.raises(MeterError):
            vm.ChargeEvent(label="x", category="wat")

    def test_free_cost_releases_allocation(self):
        meter = vm.Meter()
        with vm.metered(meter):
            vm.exec_cost("blob", memory_mb=8.0)
            vm.free_cost("blob")
        assert meter.live_mb == 0.0
        assert meter.peak_mb == 8.0

    def test_snapshot_is_immutable_view(self):
        meter = vm.Meter()
        with vm.metered(meter):
            vm.exec_cost("a", time_s=1.0, memory_mb=2.0)
        snap = meter.snapshot()
        with vm.metered(meter):
            vm.exec_cost("b", time_s=1.0)
        assert snap.time_s == 1.0
        assert snap.event_count == 1
        assert meter.time_s == 2.0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=10),
                st.floats(min_value=0, max_value=10),
            ),
            max_size=25,
        )
    )
    def test_meter_totals_are_sums(self, charges):
        meter = vm.Meter()
        with vm.metered(meter):
            for i, (t, m) in enumerate(charges):
                vm.exec_cost(f"c{i}", time_s=t, memory_mb=m)
        assert meter.time_s == pytest.approx(sum(t for t, _ in charges))
        assert meter.live_mb == pytest.approx(sum(m for _, m in charges))


def fresh_event(module, attribute, time_s, memory_mb):
    """What ``attribute_cost`` charged before its events were interned."""
    return vm.ChargeEvent(
        label=f"{module}.{attribute}",
        category=vm.CATEGORY_IMPORT,
        time_s=time_s,
        memory_mb=memory_mb,
    )


def exact(event):
    """Field values with their types: ``0 == 0.0 == -0.0`` and ``1 == True``
    compare equal, so equality alone would miss a merged key."""
    return repr(event), [type(value) for value in vars(event).values()]


@pytest.fixture()
def empty_event_table(monkeypatch):
    monkeypatch.setattr(vm, "_ATTRIBUTE_EVENTS", {})


@pytest.mark.usefixtures("empty_event_table")
class TestInternedAttributeEvents:
    def test_every_call_charges_a_fresh_equal_event_to_every_meter(self):
        outer, inner = vm.Meter("outer"), vm.Meter("inner")
        expected = fresh_event("pkg.mod", "TABLE", 0.25, 1.5)
        with vm.metered(outer), vm.metered(inner):
            for _ in range(3):
                vm.attribute_cost("pkg.mod", "TABLE", time_s=0.25, memory_mb=1.5)
        for meter in (outer, inner):
            assert [exact(e) for e in meter.events] == [exact(expected)] * 3
            assert meter.time_s == 0.25 + 0.25 + 0.25
            assert meter.ledger.allocated("pkg.mod.TABLE") == 1.5 + 1.5 + 1.5

    def test_global_meter_gets_every_charge_outside_any_scope(self):
        fresh = vm.reset_global_meter()
        for _ in range(3):
            vm.attribute_cost("stray", "VALUE", time_s=0.5, memory_mb=2.0)
        expected = fresh_event("stray", "VALUE", 0.5, 2.0)
        assert [exact(e) for e in fresh.events] == [exact(expected)] * 3
        assert fresh.live_mb == 6.0

    def test_events_are_reused_and_immutable(self):
        meter = vm.Meter()
        with vm.metered(meter):
            vm.attribute_cost("m", "a", time_s=0.1, memory_mb=0.2)
            vm.attribute_cost("m", "a", time_s=0.1, memory_mb=0.2)
        first, second = meter.events
        assert first is second
        with pytest.raises(AttributeError):
            first.time_s = 9.0  # frozen: sharing one event is safe

    @pytest.mark.parametrize(
        "module, other",
        [("1", 1), (1, True), ("True", True)],
    )
    def test_equal_modules_of_other_types_are_not_merged(self, module, other):
        meter = vm.Meter()
        with vm.metered(meter):
            for name in (module, other, module, other):
                vm.attribute_cost(name, "x", time_s=0.5, memory_mb=0.5)
        expected = [fresh_event(n, "x", 0.5, 0.5) for n in (module, other) * 2]
        assert [e.label for e in meter.events] == [e.label for e in expected]

    @pytest.mark.parametrize(
        "cost, other", [(0.0, 0), (0.0, -0.0), (2.0, 2), (1.0, True)]
    )
    def test_equal_costs_of_other_types_are_not_merged(self, cost, other):
        meter = vm.Meter()
        calls = [(cost, 1.0), (other, 1.0), (1.0, cost), (1.0, other)] * 2
        with vm.metered(meter):
            for time_s, memory_mb in calls:
                vm.attribute_cost("m", "c", time_s=time_s, memory_mb=memory_mb)
        assert [exact(e) for e in meter.events] == [
            exact(fresh_event("m", "c", t, m)) for t, m in calls
        ]

    def test_negative_time_raises_on_every_call(self):
        meter = vm.Meter()
        with vm.metered(meter):
            for _ in range(3):
                with pytest.raises(MeterError):
                    vm.attribute_cost("m", "neg", time_s=-1.0, memory_mb=1.0)
        assert meter.events == []
        assert vm._ATTRIBUTE_EVENTS == {}

    def test_table_is_cleared_past_its_cap(self, monkeypatch):
        monkeypatch.setattr(vm, "_ATTRIBUTE_EVENTS_CAP", 8)
        meter = vm.Meter()
        calls = [(f"a{i}", 0.01 * (i + 1), 0.5) for i in range(100)] * 2
        with vm.metered(meter):
            for name, time_s, memory_mb in calls:
                vm.attribute_cost("m", name, time_s=time_s, memory_mb=memory_mb)
                assert len(vm._ATTRIBUTE_EVENTS) <= 8
        assert [exact(e) for e in meter.events] == [
            exact(fresh_event("m", *call)) for call in calls
        ]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["m", "pkg.m", 1, True]),
                st.sampled_from(["a", "b"]),
                st.sampled_from([0.0, -0.0, 0, 1, True, 0.5, 1.0, float("inf")]),
                st.sampled_from([0.0, 0, 0.5, 2.0, 2, float("nan")]),
            ),
            max_size=30,
        )
    )
    def test_charges_match_fresh_events(self, calls):
        """A small key alphabet, so calls repeat and collide across types."""
        meter = vm.Meter()
        with vm.metered(meter):
            for call in calls:
                vm.attribute_cost(*call)
        assert [exact(e) for e in meter.events] == [
            exact(fresh_event(*call)) for call in calls
        ]
