"""The benchmark's traced run wraps `kep` functions by name; a rename in the
library must fail here, not only when `bench/run.py --trace 1` is run."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_trace_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    assert tracer.Tracer().targets_missing() == []
