"""The repository benchmark's tracer must still install on this program.

``perfbench/ledger.py`` times the program from outside: it wraps public
entry points by name, through each class ``__dict__`` and each module
that imported a function, and reads their parameters by name.  Renaming
or deleting one of those entry points would otherwise only surface as a
crashed benchmark run; here it fails tier-1 instead.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from repro.platform import fleet
from repro.platform.billing import BillingLedger, FunctionBill
from repro.platform.kernel import KernelReplayer
from repro.platform.logs import ExecutionLog
from repro.platform.replay import TraceReplayer
from repro.platform.telemetry import TelemetrySink

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: The benchmark's own helper modules, imported as top-level names.
HARNESS_MODULES = ("ledger", "summary")

PATCHED_CLASSES = (
    KernelReplayer,
    TraceReplayer,
    ExecutionLog,
    TelemetrySink,
    BillingLedger,
    FunctionBill,
)


@pytest.fixture
def ledger(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in HARNESS_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("ledger")
    for name in HARNESS_MODULES:
        sys.modules.pop(name, None)


def test_tracer_installs_on_every_layer_and_restores(ledger):
    classes = {cls: dict(vars(cls)) for cls in PATCHED_CLASSES}
    fleet_names = dict(vars(fleet))
    tracer = ledger.Tracer()
    try:
        tracer.install_replay()
        tracer.install_trim()
        assert vars(KernelReplayer)["replay"] is not classes[KernelReplayer]["replay"]
        assert (
            vars(ExecutionLog)["append_rows"]
            is not classes[ExecutionLog]["append_rows"]
        )
        assert fleet._replay_one is not fleet_names["_replay_one"]
    finally:
        tracer.restore()
    for cls, before in classes.items():
        assert dict(vars(cls)) == before, cls.__name__
    assert dict(vars(fleet)) == fleet_names
