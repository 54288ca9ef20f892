"""Pass 0 of seed 0 of each benchmark workload, replayed through `kep.cli`
with the benchmark's own code: every output must pass its oracle and match
its pinned record, so output on the benchmark's inputs stays byte-identical
from one version to the next."""

import importlib
from pathlib import Path

import pytest

import kep.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize(("workload", "count"), [("dense", 36), ("wide", 57), ("sweep", 41)])
def test_pass_zero_matches_pins(monkeypatch, tmp_path, workload, count):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    oracle = importlib.import_module("oracle")
    workloads = importlib.import_module("workloads")
    requests = workloads.build(workload, 0)
    pins = run.load_pins(workload, 0)
    assert len(requests) == len(pins) == count
    argvs = run.write_inputs(requests, tmp_path)
    for request, argv, pin in zip(requests, argvs, pins):
        code, stdout, stderr, _ = run.execute(kep.cli, argv)
        oracle.verify(request, code, stdout, stderr, pin)
