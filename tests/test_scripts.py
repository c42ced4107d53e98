"""The scripts under ``scripts/`` are imported, not run, so that a name one
of them takes from the package cannot go missing with no test failing."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["bench_fft", "spectral_demo"])
def test_script_imports(name, monkeypatch):
    # bench_fft puts perfbench/ on the path and imports its modules from there
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        for added in set(sys.modules) - before:
            if (ROOT / "perfbench") in Path(getattr(sys.modules[added], "__file__", None) or "/").parents:
                del sys.modules[added]
    assert callable(module.main)
