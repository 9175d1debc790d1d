"""Tests for the synthetic-library runtime helpers."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import vm
from repro.errors import MeterError
from repro.vm import ChargeEvent, Meter, metered
from repro.workloads import synthapi
from repro.workloads.synthapi import (
    SynthInstance,
    stable_token,
    synth_class,
    synth_function,
    synth_value,
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=10),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)


class TestStableToken:
    def test_deterministic(self):
        assert stable_token("a", [1, 2]) == stable_token("a", [1, 2])

    def test_sensitive_to_inputs(self):
        assert stable_token("a", 1) != stable_token("a", 2)
        assert stable_token("a", 1) != stable_token("b", 1)

    def test_48_bit_range(self):
        token = stable_token("anything")
        assert 0 <= token < 2**48

    def test_callables_encode_by_qualname_not_identity(self):
        """Function addresses vary between runs; tokens must not."""
        fn_a = synth_function("m", "f")
        fn_b = synth_function("m", "f")
        assert stable_token("ctx", fn_a) == stable_token("ctx", fn_b)

    def test_dict_ordering_is_canonical(self):
        assert stable_token({"a": 1, "b": 2}) == stable_token({"b": 2, "a": 1})

    @given(JSON_VALUES)
    def test_any_json_value_is_hashable_input(self, value):
        assert stable_token(value) == stable_token(value)


class TestSynthFunction:
    def test_charges_import_cost_at_creation(self):
        meter = Meter()
        with metered(meter):
            synth_function("m", "f", init_time_s=0.5, init_memory_mb=2.0)
        assert meter.time_s == pytest.approx(0.5)
        assert meter.live_mb == pytest.approx(2.0)

    def test_charges_exec_cost_at_call(self):
        fn = synth_function("m", "f", call_time_s=0.3, call_memory_mb=1.0)
        meter = Meter()
        with metered(meter):
            fn(1)
        assert meter.time_s == pytest.approx(0.3)
        assert meter.live_mb == pytest.approx(1.0)

    def test_results_depend_on_arguments(self):
        fn = synth_function("m", "f")
        assert fn(1) != fn(2)
        assert fn(1, flag=True) != fn(1)
        assert fn(1) == fn(1)

    def test_metadata(self):
        fn = synth_function("synth_mod", "compute")
        assert fn.__name__ == "compute"
        assert fn.__qualname__ == "synth_mod.compute"


class TestSynthClass:
    def test_instances_are_deterministic(self):
        cls = synth_class("m", "Model")
        assert cls(1, a=2) == cls(1, a=2)
        assert cls(1) != cls(2)

    def test_call_charges_exec(self):
        cls = synth_class("m", "Model", call_time_s=0.2)
        instance = cls("weights")
        meter = Meter()
        with metered(meter):
            instance(42)
        assert meter.time_s == pytest.approx(0.2)

    def test_generated_methods_charge_too(self):
        cls = synth_class("m", "Image", call_time_s=0.1, methods=("resize",))
        meter = Meter()
        with metered(meter):
            cls("blob").resize(64, 64)
        assert meter.time_s == pytest.approx(0.1)

    def test_methods_are_deterministic_and_distinct(self):
        cls = synth_class("m", "Doc", methods=("words", "tags"))
        doc = cls("text")
        assert doc.words() == cls("text").words()
        assert doc.words() != doc.tags()

    def test_mod_and_int_coercion(self):
        cls = synth_class("m", "Result")
        instance = cls(5)
        assert instance % 100 == int(instance) % 100
        assert 0 <= instance % 100 < 100

    def test_instances_usable_as_hash_keys(self):
        cls = synth_class("m", "Key")
        assert {cls(1): "v"}[cls(1)] == "v"

    def test_subclass_of_synth_instance(self):
        cls = synth_class("m", "Thing")
        assert issubclass(cls, SynthInstance)
        assert cls.__module__ == "m"


class TestSynthValue:
    def test_default_token(self):
        meter = Meter()
        with metered(meter):
            token = synth_value("m", "TABLE", init_memory_mb=4.0)
        assert isinstance(token, int)
        assert meter.live_mb == pytest.approx(4.0)

    def test_explicit_value_passthrough(self):
        assert synth_value("m", "CONST", value="hello") == "hello"


def reference_encode(value):
    """``synthapi._encode`` as it was before its exact ``str``/``int`` fast
    path: the encoding every token must keep."""
    if isinstance(value, dict):
        items = ",".join(
            f"{reference_encode(k)}:{reference_encode(v)}"
            for k, v in sorted(value.items())
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(reference_encode(v) for v in value) + "]"
    if isinstance(value, SynthInstance):
        return repr(value)
    if isinstance(value, float):
        return f"{value:.10g}"
    if isinstance(value, type):
        return f"<class {value.__module__}.{value.__qualname__}>"
    if callable(value):
        qualname = getattr(value, "__qualname__", getattr(value, "__name__", "?"))
        return f"<fn {getattr(value, '__module__', '?')}.{qualname}>"
    return repr(value)


def reference_token(*parts):
    joined = "|".join(reference_encode(p) for p in parts)
    return int.from_bytes(hashlib.sha256(joined.encode()).digest()[:6], "big")


class _Label(str):
    def __repr__(self):
        return f"Label({str.__repr__(self)})"


class _Count(int):
    def __repr__(self):
        return f"Count({int.__repr__(self)})"


class _Handle(int):
    """An ``int`` that encodes as a callable, not by its repr."""

    def __call__(self):
        return int(self)


_CLASSES = [
    synth_class("m", "Model"),
    synth_class("pkg.sub", "Image", methods=("resize",)),
]
_FUNCTIONS = [synth_function("m", "f"), synth_function("pkg.sub", "load")]
_LEAVES = (
    st.text(max_size=8)
    | st.integers()
    | st.booleans()
    | st.floats()
    | st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf")])
    | st.none()
    | st.builds(_Label, st.text(max_size=4))
    | st.builds(_Count, st.integers())
    | st.builds(_Handle, st.integers())
    | st.sampled_from(_CLASSES + _FUNCTIONS)
)
_INSTANCES = st.builds(
    lambda cls, args, kwargs: cls(*args, **kwargs),
    st.sampled_from(_CLASSES),
    st.lists(st.integers() | st.text(max_size=4) | st.floats(), max_size=3),
    st.dictionaries(st.sampled_from(["a", "b"]), st.integers(), max_size=2),
)
ANY_PART = st.recursive(
    _LEAVES | _INSTANCES,
    lambda children: st.lists(children, max_size=3)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=3)
    | st.dictionaries(st.integers(), children, max_size=3),
    max_leaves=10,
)


class TestEncodingMatchesReference:
    @given(st.lists(ANY_PART, max_size=4))
    def test_stable_token_matches_reference(self, parts):
        assert stable_token(*parts) == reference_token(*parts)

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_string_pairs_match_reference(self, module, name):
        assert stable_token(module, name) == reference_token(module, name)


@pytest.fixture()
def empty_tables(monkeypatch):
    monkeypatch.setattr(synthapi, "_TOKENS", {})
    monkeypatch.setattr(vm, "_ATTRIBUTE_EVENTS", {})


@pytest.mark.usefixtures("empty_tables")
class TestInternedSynthValue:
    def test_every_call_charges_a_fresh_equal_event_to_every_meter(self):
        outer, inner = Meter("outer"), Meter("inner")
        expected = ChargeEvent("pkg.mod.TABLE", "import", 0.25, 1.5)
        with metered(outer), metered(inner):
            tokens = [
                synth_value("pkg.mod", "TABLE", init_time_s=0.25, init_memory_mb=1.5)
                for _ in range(3)
            ]
        assert tokens == [reference_token("pkg.mod", "TABLE")] * 3
        for meter in (outer, inner):
            assert [repr(e) for e in meter.events] == [repr(expected)] * 3
            assert meter.ledger.allocated("pkg.mod.TABLE") == 1.5 + 1.5 + 1.5

    def test_global_meter_gets_every_charge_outside_any_scope(self):
        fresh = vm.reset_global_meter()
        tokens = [
            synth_value("stray", "VALUE", init_time_s=0.5, init_memory_mb=2.0)
            for _ in range(3)
        ]
        assert tokens == [reference_token("stray", "VALUE")] * 3
        expected = ChargeEvent("stray.VALUE", "import", 0.5, 2.0)
        assert [repr(e) for e in fresh.events] == [repr(expected)] * 3

    @pytest.mark.parametrize("module, other", [(1, True), ("1", 1), (_Label("m"), "m")])
    def test_equal_modules_of_other_types_are_not_merged(self, module, other):
        meter = Meter()
        with metered(meter):
            tokens = [
                synth_value(m, "x", init_time_s=0.5, init_memory_mb=0.5)
                for m in (module, other, module, other)
            ]
        assert tokens == [reference_token(m, "x") for m in (module, other) * 2]
        assert tokens[0] != tokens[1]
        assert [e.label for e in meter.events] == [
            f"{m}.x" for m in (module, other) * 2
        ]

    def test_explicit_values_are_not_interned(self):
        assert synth_value("m", "V", value=[1]) == [1]
        assert synth_value("m", "V") == reference_token("m", "V")
        assert synth_value("m", "V", value="v") == "v"

    def test_negative_time_raises_on_every_call(self):
        meter = Meter()
        with metered(meter):
            for _ in range(3):
                with pytest.raises(MeterError):
                    synth_value("m", "NEG", init_time_s=-1.0, init_memory_mb=1.0)
        assert meter.events == []

    def test_tables_stay_within_their_cap(self, monkeypatch):
        monkeypatch.setattr(synthapi, "_TOKENS_CAP", 8)
        monkeypatch.setattr(vm, "_ATTRIBUTE_EVENTS_CAP", 8)
        meter = Meter()
        names = [f"A{i}" for i in range(100)] * 2
        with metered(meter):
            for name in names:
                token = synth_value("m", name, init_time_s=0.01, init_memory_mb=0.5)
                assert token == reference_token("m", name)
                assert len(synthapi._TOKENS) <= 8
                assert len(vm._ATTRIBUTE_EVENTS) <= 8
        assert [repr(e) for e in meter.events] == [
            repr(ChargeEvent(f"m.{name}", "import", 0.01, 0.5)) for name in names
        ]
