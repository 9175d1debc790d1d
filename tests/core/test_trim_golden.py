"""Pinned trim outputs: a change to the trim loop must not move them.

For toy, pandas and resnet this runs a fresh trim (``LambdaTrim.run``) and
a seeded re-trim (``IncrementalTrim`` from the fresh run's log), with
bytecode writing off and on, and compares against
``test_trim_golden.json``:

* each module's kept and removed names, ``oracle_calls``, ``cache_hits``,
  ``dd_iterations`` and ``debloat_time_s`` (as ``float.hex``);
* every journal probe record, in order, as
  ``(module, candidate, verdict, granularity)``;
* the SHA-256 of each committed module file.

Nothing recorded depends on where the bundles live or on wall time.  The
JSON pins results, so regenerate it only for a change that is meant to
alter what a trim decides or writes::

    PYTHONPATH=src python tests/core/test_trim_golden.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.core.incremental import IncrementalTrim, TrimLog
from repro.core.journal import file_sha256
from repro.core.pipeline import LambdaTrim
from repro.workloads.apps import build_app
from repro.workloads.toy import build_toy_torch_app

GOLDEN = Path(__file__).with_suffix(".json")
APPS = ("toy", "pandas", "resnet")


def _build(app: str, root: Path):
    if app == "toy":
        return build_toy_torch_app(root)
    return build_app(app, root)


def _phase(report) -> dict:
    modules = {}
    files = {}
    for result in report.module_results:
        modules[result.module] = {
            "kept": sorted(result.kept),
            "removed": sorted(result.removed),
            "oracle_calls": result.oracle_calls,
            "cache_hits": result.cache_hits,
            "dd_iterations": result.dd_iterations,
            "debloat_time_s": float.hex(result.debloat_time_s),
        }
        if not result.skipped:
            files[result.module] = file_sha256(result.file)
    probes = []
    for line in report.journal_path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["type"] == "probe":
            probes.append(
                [
                    record["module"],
                    record["candidate"],
                    record["verdict"],
                    record["granularity"],
                ]
            )
    return {"modules": modules, "probes": probes, "files": files}


def trim_outcome(app: str, work: Path) -> dict:
    """Fresh then seeded trim of *app* under *work*, as the golden records it."""
    bundle = _build(app, work / app)
    fresh = LambdaTrim().run(bundle, work / f"{app}.fresh")
    seeded = IncrementalTrim(log=TrimLog.from_report(fresh)).run(
        bundle, work / f"{app}.seeded"
    )
    return {"fresh": _phase(fresh), "seeded": _phase(seeded)}


@pytest.mark.parametrize("bytecode", ["off", "on"])
@pytest.mark.parametrize("app", APPS)
def test_trim_matches_golden(app, bytecode, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", bytecode == "off")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[app]
    outcome = trim_outcome(app, tmp_path)
    for phase in ("fresh", "seeded"):
        expected, actual = golden[phase], outcome[phase]
        assert actual["modules"] == expected["modules"], phase
        assert actual["probes"] == expected["probes"], phase
        assert actual["files"] == expected["files"], phase


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        golden = {app: trim_outcome(app, Path(work)) for app in APPS}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
