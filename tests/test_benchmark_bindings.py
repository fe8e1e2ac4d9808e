"""The benchmark's tracer still finds every binding it wraps.

``benchmarks/tracing.py`` rebinds names in the package's modules by name. A
refactor that drops one of them does not fail a traced run: the run exits 0
and its result silently lacks the metrics of that span. This test fails
instead. It only reads ``benchmarks/``.
"""

from __future__ import annotations

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_finds_every_wrapped_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
