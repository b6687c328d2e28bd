"""The benchmark's tracer (``perfbench/tracing.py``) wraps program functions
at the module attributes listed in its ``BINDINGS``.  A renamed or removed
attribute would only show in the traced benchmark run, so check them here."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


def test_every_traced_binding_resolves():
    pairs = sorted({(module, attr) for module, attr, _, _ in _bindings()})
    assert pairs
    missing = [
        f"{module}.{attr}" for module, attr in pairs
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
