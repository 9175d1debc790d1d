"""Tests for isolated bundle execution (module isolation, Section 7)."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import execution
from repro.core.execution import LoadedApp, isolated_imports, run_once
from repro.errors import InvocationError


@pytest.fixture()
def bytecode_on(monkeypatch):
    """Write ``.pyc`` files, as a default Python and CI do."""
    monkeypatch.setattr(sys, "dont_write_bytecode", False)


def rewrite_in_place(path, text: str) -> None:
    """Rewrite *path* with same-size content and its old mtime: exactly
    what a stale-``.pyc`` check cannot tell apart."""
    stat = path.stat()
    assert len(text.encode()) == stat.st_size
    path.write_text(text)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))


class TestIsolatedImports:
    def test_new_modules_are_evicted(self, toy_app):
        with isolated_imports([str(toy_app.site_packages), str(toy_app.root)]):
            import handler  # noqa: F401

            assert "handler" in sys.modules
            assert "torch" in sys.modules
        assert "handler" not in sys.modules
        assert "torch" not in sys.modules

    def test_preexisting_modules_survive(self, toy_app):
        import json  # ensure present

        with isolated_imports([str(toy_app.root)]):
            pass
        assert "json" in sys.modules

    def test_sys_path_restored(self, toy_app):
        before = list(sys.path)
        with isolated_imports([str(toy_app.root)]):
            assert sys.path[0] == str(toy_app.root)
        assert sys.path == before

    def test_introduced_modules_are_reported(self, toy_app):
        with isolated_imports(
            [str(toy_app.site_packages), str(toy_app.root)]
        ) as introduced:
            import handler  # noqa: F401
        assert "handler" in introduced
        assert "torch.nn" in introduced

    def test_modules_from_outside_the_paths_stay_imported(self, tmp_path):
        scoped, elsewhere = tmp_path / "scoped", tmp_path / "elsewhere"
        scoped.mkdir()
        elsewhere.mkdir()
        (scoped / "inside.py").write_text("import outside\n")
        (elsewhere / "outside.py").write_text("VALUE = 1\n")
        sys.path.append(str(elsewhere))
        try:
            with isolated_imports([str(scoped)]) as introduced:
                import inside  # noqa: F401
            assert list(introduced) == ["inside"]
            assert sys.modules.pop("outside").VALUE == 1
        finally:
            sys.path.remove(str(elsewhere))

    def test_synthetic_runtime_is_imported_once_per_process(self, toy_app):
        """Every generated library imports ``repro.workloads.synthapi``; a
        process that had not imported it before the trim imports it once,
        not once per load."""
        script = (
            "import os, sys\n"
            "catalog = os.path.join('repro', 'workloads', 'catalog.py')\n"
            "runs = []\n"
            "def count(event, args):\n"
            "    if event == 'exec' and getattr(args[0], 'co_filename', '')"
            ".endswith(catalog):\n"
            "        runs.append(1)\n"
            "sys.addaudithook(count)\n"
            "from repro.bundle import AppBundle\n"
            "from repro.core.pipeline import LambdaTrim\n"
            "assert 'repro.workloads' not in sys.modules\n"
            "report = LambdaTrim().run(AppBundle(sys.argv[1]), sys.argv[2])\n"
            "print(len(runs), report.oracle_calls, report.attributes_removed)\n"
        )
        src = str(Path(repro.__file__).parent.parent)
        output = toy_app.root.parent / "trimmed"
        completed = subprocess.run(
            [sys.executable, "-c", script, str(toy_app.root), str(output)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        assert completed.stdout.split() == ["1", "6", "4"]


class TestFreshSourceLoads:
    def test_same_size_rewrite_with_pinned_mtime_is_seen(
        self, tmp_path, bytecode_on
    ):
        module = tmp_path / "probe_mod.py"
        module.write_text("VALUE = 1\n")
        with isolated_imports([str(tmp_path)]):
            assert importlib.import_module("probe_mod").VALUE == 1
        rewrite_in_place(module, "VALUE = 2\n")
        with isolated_imports([str(tmp_path)]):
            assert importlib.import_module("probe_mod").VALUE == 2
        assert not (tmp_path / "__pycache__").exists()

    def test_bundle_rewrite_is_seen_by_the_next_load(
        self, toy_app, tmp_path, bytecode_on
    ):
        bundle = toy_app.clone(tmp_path / "race")
        torch_init = bundle.module_file("torch")
        source = torch_init.read_text()
        assert run_once(bundle, {"x": [1.0], "y": [2.0]}).ok
        rewrite_in_place(torch_init, source.replace("\nadd = ", "\nad_ = "))
        result = run_once(bundle, {"x": [1.0], "y": [2.0]})
        assert result.invocation.error_type == "AttributeError"

    def test_lazy_handler_imports_load_fresh_and_stay_private(
        self, toy_app, tmp_path, bytecode_on
    ):
        bundle = toy_app.clone(tmp_path / "lazy")
        lazy = bundle.root / "lazy_mod.py"
        lazy.write_text("VALUE = 1\n")
        bundle.handler_path.write_text(
            "def handler(event, context):\n"
            "    import lazy_mod\n"
            "    return lazy_mod.VALUE\n"
        )
        first = LoadedApp(bundle)
        first.load()
        assert first.invoke({}).value == 1
        assert "lazy_mod" not in sys.modules
        assert first.invoke({}).value == 1  # warm: the private module is reused
        rewrite_in_place(lazy, "VALUE = 2\n")
        second = LoadedApp(bundle)
        second.load()
        assert second.invoke({}).value == 2
        first.close()
        second.close()

    def test_module_identity_attributes_are_the_file(self, tmp_path):
        module = tmp_path / "probe_mod.py"
        module.write_text("def f():\n    return 1\n")
        with isolated_imports([str(tmp_path)]):
            loaded = importlib.import_module("probe_mod")
        assert loaded.__file__ == str(module)
        assert loaded.__spec__.origin == str(module)
        assert loaded.f.__code__.co_filename == str(module)

    def test_one_code_object_per_file(self, tmp_path):
        module = tmp_path / "probe_mod.py"
        module.write_text("def f():\n    return 1\n")
        codes = []
        for text in ("def f():\n    return 1\n", None, "def f():\n    return 2\n"):
            if text is not None:
                module.write_text(text)
            with isolated_imports([str(tmp_path)]):
                codes.append(importlib.import_module("probe_mod").f.__code__)
        assert codes[0] is codes[1]  # unchanged bytes: compiled once
        assert codes[2] is not codes[0]
        # the rewrite replaced the file's entry rather than adding one
        assert codes[2] in execution._CODE[str(module)][1].co_consts

    def test_code_cache_drops_least_recently_loaded_files(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(execution, "_CODE", {})
        monkeypatch.setattr(execution, "_CODE_FILES", 2)
        for name in ("m0", "m1", "m0", "m2"):
            (tmp_path / f"{name}.py").write_text(f"NAME = {name!r}\n")
            with isolated_imports([str(tmp_path)]):
                assert importlib.import_module(name).NAME == name
        assert list(execution._CODE) == [
            str(tmp_path / "m0.py"),
            str(tmp_path / "m2.py"),
        ]


    def test_loads_leave_no_path_importer_cache_entries(self, toy_app, tmp_path):
        """Each clone's root, site-packages and package directories are
        path entries; none outlives the load or invocation that cached it."""
        event = {"x": [1.0], "y": [2.0]}
        assert run_once(toy_app, event).ok  # imports the emulator's own lazies
        before = len(sys.path_importer_cache)
        for index in range(50):
            assert run_once(toy_app.clone(tmp_path / f"clone{index}"), event).ok
        assert len(sys.path_importer_cache) == before
        assert not any(str(tmp_path) in str(entry) for entry in sys.path_importer_cache)


class TestLoadedApp:
    def test_cold_load_measures_init(self, toy_app):
        app = LoadedApp(toy_app)
        app.load()
        assert app.loaded
        # toy torch: body 0.10 + nn 0.15 + optim 0.25 + attrs
        assert app.init_time_s == pytest.approx(0.82, abs=0.01)
        assert app.init_memory_mb == pytest.approx(35.0, abs=0.5)
        app.close()

    def test_warm_invocations_share_state(self, toy_app):
        app = LoadedApp(toy_app)
        app.load()
        out1 = app.invoke({"x": [1.0, 2.0], "y": [3.0, 4.0]})
        out2 = app.invoke({"x": [1.0, 2.0], "y": [3.0, 4.0]})
        assert out1.ok and out2.ok
        assert out1.value == out2.value
        app.close()

    def test_two_instances_are_independent(self, toy_app):
        a, b = LoadedApp(toy_app), LoadedApp(toy_app)
        a.load()
        b.load()
        assert a.invoke({"x": [1.0], "y": [2.0]}).value == b.invoke(
            {"x": [1.0], "y": [2.0]}
        ).value
        assert a.meter is not b.meter
        a.close()
        b.close()

    def test_stdout_is_captured(self, toy_app):
        app = LoadedApp(toy_app)
        app.load()
        out = app.invoke({"x": [1.0, 2.0], "y": [3.0, 4.0]})
        assert out.stdout  # Figure 5's handler prints the prediction
        app.close()

    def test_invoke_before_load_raises(self, toy_app):
        with pytest.raises(InvocationError):
            LoadedApp(toy_app).invoke({})

    def test_double_load_raises(self, toy_app):
        app = LoadedApp(toy_app)
        app.load()
        with pytest.raises(InvocationError):
            app.load()
        app.close()

    def test_handler_error_is_captured_not_raised(self, toy_app):
        app = LoadedApp(toy_app)
        app.load()
        out = app.invoke({"wrong": "shape"})
        assert not out.ok
        assert out.error_type == "KeyError"
        app.close()

    def test_broken_init_reports_error(self, tmp_path, toy_app):
        broken = toy_app.clone(tmp_path / "broken")
        broken.handler_path.write_text("import does_not_exist\n")
        app = LoadedApp(broken)
        app.load()
        assert not app.loaded
        assert app.init_error_type == "ModuleNotFoundError"
        with pytest.raises(InvocationError):
            app.invoke({})


class TestRunOnce:
    def test_full_cold_execution(self, toy_app):
        result = run_once(toy_app, {"x": [1.0, 2.0], "y": [3.0, 4.0]})
        assert result.ok
        assert result.init_time_s > 0
        assert result.exec_time_s >= 0
        assert isinstance(result.invocation.value["prediction"], int)

    def test_observable_includes_stdout_value_and_side_effects(self, toy_app):
        result = run_once(toy_app, {"x": [1.0], "y": [2.0]})
        observable = result.observable()
        assert set(observable) == {
            "value", "stdout", "error_type", "external", "init_external",
        }
        assert observable["error_type"] is None
        assert observable["external"] == []  # the toy app calls no services

    def test_determinism_across_runs(self, toy_app):
        a = run_once(toy_app, {"x": [1.0], "y": [2.0]})
        b = run_once(toy_app, {"x": [1.0], "y": [2.0]})
        assert a.observable() == b.observable()

    def test_init_error_observable(self, tmp_path, toy_app):
        broken = toy_app.clone(tmp_path / "broken2")
        broken.handler_path.write_text("raise RuntimeError('nope')\n")
        result = run_once(broken, {})
        assert not result.ok
        assert result.observable() == {"init_error_type": "RuntimeError"}
