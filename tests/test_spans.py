"""The names the benchmark harness (``perfbench/spans.py``) wraps must stay
in the package, or its per-layer spans read as absent."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names() -> tuple[str, ...]:
    """The ``SPANS`` tuple of the harness, read with ``ast``: the harness is
    neither imported nor run."""
    for node in ast.parse(SPANS_FILE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS_FILE} defines no SPANS")


@pytest.mark.parametrize("name", traced_names())
def test_every_traced_name_resolves_in_the_package(name):
    """``module.attribute[.attribute]`` under ``rookfft``, callable.  Only
    ``SPANS`` is covered: ``ALIASES`` still names ``symmetric._sn_fft``,
    which the package no longer has, and waits for the harness's refresh."""
    module, *path = name.split(".")
    obj = importlib.import_module(f"rookfft.{module}")
    for attr in path:
        assert hasattr(obj, attr), f"{name}: {obj!r} has no attribute {attr}"
        obj = getattr(obj, attr)
    assert callable(obj)
