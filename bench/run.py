"""Benchmark of `kep analyze|compare|check` on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload dense --seed 1 --seconds 36 --trace 0

One process runs one workload as a closed loop with a single client: each
request is a call of `kep.cli.main` in this process on generated JSON input
files, issued only after the previous one returned.  The run is a series of
passes.  Every pass is a request list with the same input classes in the
same order (see `workloads.py`), but each pass draws fresh matrices from
(seed, pass index), so no input document is ever served twice and a cache
across calls cannot turn repeats into hits.  Passes run while the next one
is expected to end within `--seconds`; the first pass always runs.  Every
output is checked by `oracle.py`, and the outputs of pass 0 must also match
the pinned record of the seed.

`--trace 0` reports the end-to-end metrics.  Each order statistic (sum,
median, tail) is taken over one pass's requests, in milliseconds and in
reference units (see `Run.normalized`), and the reported value is its median
over the passes; the result line carries the reference units.  `*_tail_*`
is the highest percentile with at least ten requests of a pass beyond it.
`setup_s` is the median time of fresh interpreters importing `kep.cli`.

`--trace 1` runs an untraced warm-up pass, then pass 0 with every layer
wrapped (`tracer.py`), then pass 0 again untraced, and reports per-layer
counts and times for the traced pass; counts repeat exactly for a given
seed.  Spans are written to `.bench_out/spans-<workload>.tsv.gz`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 only
when every output was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PINNED = Path(__file__).resolve().parent / "pinned.json"
SETUP_SAMPLES = 25  # set-up samples per run, spread evenly over --seconds
KINDS = ("analyze", "compare", "check")
# The end-to-end metrics in the result line: those every workload has and
# that are never zero.  The per-command latencies and the failure rate are
# printed in the report above it.
RESULT_METRICS = ("setup_s", "wall_ref", "p50_ref", "tail_ref", "peak_rss_mb")


class Setup:
    """Set-up time samples: a fresh interpreter importing `kep.cli`.

    Samples are spread over the run so that one burst of host noise cannot
    move all of them; the first, untimed import leaves the
    bytecode cache warm and fails the run if the package cannot load."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), self.env.get("PYTHONPATH")) if p)
        self.cmd = [sys.executable, "-c", "import kep.cli"]
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
        self.times: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
        self.times.append(perf_counter() - start)


def write_inputs(requests, directory: Path) -> list[list[str]]:
    """Write every input document; returns each request's argv."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, req in enumerate(requests):
        files = []
        for k, doc in enumerate(req.docs):
            path = directory / f"{i:03d}-{k}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            files.append(str(path))
        argvs.append([req.kind, *files, *req.options])
    return argvs


def execute(cli, argv: list[str]) -> tuple[int | None, str, str, float]:
    """One request: exit code (None if it raised), stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed request, not a benchmark crash
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


_REFERENCE_RNG = random.Random(14)
_REFERENCE_MATRIX = [[_REFERENCE_RNG.randint(1, 9) for _ in range(12)] for _ in range(12)]
_REFERENCE_KEYS = [(_REFERENCE_RNG.randrange(1000), _REFERENCE_RNG.randrange(1000)) for _ in range(5000)]


def reference() -> int:
    """The reference computation, about 6 ms on an idle core of a small
    cloud sandbox.  It mixes the kinds of work the library does:
    interpreter-bound bookkeeping on small values, hashing and sorting some
    thousands of small tuples and allocating lists of ints (a working set
    large enough to feel cache contention from other tenants), and
    fraction-free elimination of a fixed 12x12 matrix whose rows of Python
    ints grow to a few thousand bits, like the library's Smith forms."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(1500):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + i
        acc ^= len(table) + i
    counts: dict[tuple[int, int], int] = {}
    for key in _REFERENCE_KEYS:
        counts[key] = counts.get(key, 0) + 1
    acc ^= len(sorted(counts.items(), key=lambda kv: (kv[1], kv[0])))
    acc ^= len([[x * y for x in range(40)] for y in range(100)])
    a = [row[:] for row in _REFERENCE_MATRIX]
    for k in range(len(a) - 1):
        p = a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k]
            a[i] = [x * p - f * y for x, y in zip(a[i], a[k])]
    return acc ^ a[-1][-1]


def load_pins(workload: str, seed: int) -> list[str] | None:
    if not PINNED.is_file():
        return None
    record = json.loads(PINNED.read_text(encoding="utf-8"))
    return record.get(workload, {}).get(str(seed))


class Run:
    """Outcomes of one workload run: its passes and every execution."""

    def __init__(self):
        self.passes: list[list[workloads.Request]] = []
        self.executions: list[tuple[int, float, float]] = []  # (pass, seconds, reference seconds)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.self_tested: set[str] = set()
        self.self_tests = 0
        self.self_test_missed: list[str] = []

    def start_pass(self, requests) -> int:
        self.passes.append(requests)
        return len(self.passes) - 1

    def run_one(self, cli, k: int, i: int, argv: list[str], pin: str | None) -> str:
        """Execute request `i` of pass `k`, check it and return its output."""
        req = self.passes[k][i]
        start = perf_counter()
        reference()
        ref = perf_counter() - start
        code, stdout, stderr, seconds = execute(cli, argv)
        self.attempted += 1
        self.executions.append((k, seconds, ref))
        try:
            oracle.verify(req, code, stdout, stderr, pin)
            if req.kind not in self.self_tested:
                self.self_tested.add(req.kind)
                tried, missed = oracle.self_test(req, stdout)
                self.self_tests += tried
                self.self_test_missed += missed
        except oracle.Mismatch as exc:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"pass {k} request {i} ({req.kind} {req.tag}): {exc}; stderr: {stderr[-500:]}")
        return stdout

    def normalized(self) -> list[float]:
        """Every execution's time in reference units, in execution order.

        Each execution is divided by the local speed of the machine: the
        median reference time over the nine executions nearest to it in
        time.  Host noise on small shared machines comes in bursts of seconds
        to minutes that slow the program and the reference alike, so the
        ratio stays put where the raw time does not."""
        refs = [ref for _, _, ref in self.executions]
        return [seconds / statistics.median(refs[max(0, k - 4):k + 5])
                for k, (_, seconds, _) in enumerate(self.executions)]

    def pass_times(self, normalized: bool) -> list[list[float]]:
        """Each pass's request times in request order, in seconds or in
        reference units."""
        times = self.normalized() if normalized else [seconds for _, seconds, _ in self.executions]
        out: list[list[float]] = [[] for _ in self.passes]
        for (k, _, _), t in zip(self.executions, times):
            out[k].append(t)
        return out

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.self_test_missed


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; None below 21 samples, where that percentile would
    not lie above the median."""
    n = len(samples)
    if n < 21:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def end_to_end(run: Run, setup_times: list[float]):
    """Metric name -> (value, unit, note).

    Every latency statistic is taken within each pass and reported as its
    median over the passes.  Latencies come twice: in milliseconds and in
    reference units (see `Run.normalized`), which are what the result line
    carries because they hold still under host noise."""
    passes = len(run.passes)
    raw, ref = run.pass_times(normalized=False), run.pass_times(normalized=True)
    across = f"median over {passes} passes"
    metrics = {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} fresh imports of kep.cli"),
        "wall_s": (statistics.median(sum(t) for t in raw), "s", f"pass total, {across}"),
        "wall_ref": (statistics.median(sum(t) for t in ref), "ref", f"pass total, {across}"),
    }
    for prefix, group in (("", KINDS), *((f"{kind}_", (kind,)) for kind in KINDS)):
        members = [[i for i, req in enumerate(requests) if req.kind in group] for requests in run.passes]
        if not members[0]:
            continue
        for times, unit, scale in ((raw, "ms", 1000), (ref, "ref", 1)):
            samples = [[t[i] for i in m] for t, m in zip(times, members)]
            metrics[f"{prefix}p50_{unit}"] = (scale * statistics.median(statistics.median(s) for s in samples),
                                              unit, f"{len(samples[0])} requests a pass, {across}")
            tails = [tail(s) for s in samples]
            if tails[0] is not None:
                metrics[f"{prefix}tail_{unit}"] = (scale * statistics.median(t[0] for t in tails), unit,
                                                   f"p{tails[0][1]:.1f} of {len(samples[0])} requests a pass, {across}")
    refs = [r for _, _, r in run.executions]
    metrics["reference_ms"] = (1000 * statistics.median(refs), "ms",
                               f"median of {len(refs)} reference computations (1 ref)")
    metrics["fail_rate"] = (run.failed / run.attempted, "ratio", f"{run.failed} of {run.attempted} failed")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "")
    return metrics


# ROADMAP's stage names and the per-layer metric that times each stage.
STAGES = {
    "formula": "invariants.formula.s",
    "det": "intmat.det.self_s",
    "limit.eventual_kernel": "dirlimit.eventual_kernel.s",
    "limit.fixed_sublattice": "dirlimit.fixed_sublattice.s",
    "limit.solve": "dirlimit.solve_exact.s",
    "classify": "groupoid.classify.s",
    "emit": "cli.emit.s",
}

# Span name -> aggregates reported for it: calls, inclusive seconds (s) and
# self seconds (self_s).
_SPAN_METRICS = (
    ("intmat.snf", ("calls", "self_s")),
    ("intmat.matmul", ("calls", "self_s")),
    ("intmat.det", ("calls", "self_s")),
    ("intmat.hnf", ("calls", "self_s")),
    ("intmat.kernel_basis", ("calls",)),
    ("abgroup.from_cokernel", ("calls",)),
    ("abgroup.kernel_group", ("calls",)),
    ("dirlimit.eventual_kernel", ("calls", "s")),
    ("dirlimit.fixed_sublattice", ("s",)),
    ("dirlimit.solve_exact", ("calls", "s")),
    ("dirlimit.ker_one_minus_shift", ("s",)),
    ("dirlimit.coker_one_minus_shift", ("s",)),
    ("invariants.limit_route_homology", ("s",)),
    ("invariants.hk_check", ("s",)),
    ("invariants.analyze", ("calls",)),
    ("invariants.compare", ("self_s",)),
    ("groupoid.classify", ("s", "self_s")),
    ("groupoid.refine_slice", ("calls", "s")),
    ("groupoid.compose_slices", ("calls", "s")),
    ("groupoid.slices_equal", ("s",)),
    ("selfsim.is_pseudo_free", ("s",)),
    ("selfsim.kappa_edge", ("calls",)),
    ("selfsim.kappa_path", ("calls", "s")),
    ("cli.parse_input", ("s",)),
    ("cli.emit", ("s",)),
)

# Metric -> (span name, command, operand modes): the median over requests of
# that kind of the calls made while serving one request.
_PER_REQUEST = {
    "intmat.snf.calls_per_analyze": ("intmat.snf", "analyze", ("katsura",)),
    "intmat.snf.calls_per_sft_analyze": ("intmat.snf", "analyze", ("sft",)),
    "intmat.snf.calls_per_compare": ("intmat.snf", "compare", ("katsura", "katsura")),
    "intmat.det.calls_per_analyze": ("intmat.det", "analyze", ("katsura",)),
    "dirlimit.eventual_kernel.calls_per_analyze": ("dirlimit.eventual_kernel", "analyze", ("katsura",)),
    "dirlimit.eventual_kernel.calls_per_compare": ("dirlimit.eventual_kernel", "compare", ("katsura", "katsura")),
}


def per_layer(tracer, calls, requests, traced_s: float, untraced_s: float, out_bytes: int):
    """Metric name -> (value, unit, note) for one traced pass."""
    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name, fields in _SPAN_METRICS:
        for field in fields:
            m[f"{name}.{field}"] = (tracer.get(name, field), "count" if field == "calls" else "s")
    m["intmat.snf.peak_bits"] = (tracer.snf_peak_bits, "bits")
    m["invariants.formula.s"] = (
        sum(tracer.get(f"invariants.{f}", "s") for f in ("homology", "ktheory", "sft_homology")), "s")
    for metric, (name, kind, modes) in _PER_REQUEST.items():
        index = tracer.names.index(name)
        values = [c[index] for c, req in zip(calls, requests)
                  if req.kind == kind and tuple(d["mode"] for d in req.docs) == modes]
        m[metric] = (statistics.median(values) if values else 0, "count")
    kappa_edges = tracer.get("selfsim.kappa_edge", "calls")
    m["selfsim.is_pseudo_free.kappa_calls"] = (
        ratio(tracer.pseudo_free_kappa_calls, tracer.get("selfsim.is_pseudo_free", "calls")), "count")
    m["selfsim.edges_listed"] = (tracer.edges_listed, "count")
    m["selfsim.edges_listed_per_kappa_edge"] = (ratio(tracer.edges_listed, kappa_edges), "ratio")
    m["cli.out_bytes"] = (out_bytes, "bytes")
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (tracer.layer_self_s(layer), "s")
    m["trace.overhead_ratio"] = (ratio(traced_s, untraced_s), "ratio")
    notes = {metric: f"stage {stage}" for stage, metric in STAGES.items()}
    return {name: (value, unit, notes.get(name, "")) for name, (value, unit) in m.items()}


def report(header: str, metrics: dict, run: Run) -> None:
    print(header)
    print(f"  oracle self-test: {run.self_tests - len(run.self_test_missed)} of {run.self_tests} "
          "wrong outputs rejected")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:44s} {value:>16.6f} {unit:6s} {note}")
    for line in run.errors:
        print(f"  FAILED {line}")
    for line in run.self_test_missed:
        print(f"  ORACLE SELF-TEST MISSED {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kep" / "cli.py").is_file():
        print(f"bench: no kep sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    setup = Setup()
    sys.path.insert(0, str(SRC))
    import kep.cli as cli

    pins = load_pins(args.workload, args.seed)
    if pins is not None and len(pins) != len(workloads.build(args.workload, args.seed)):
        print("bench: pinned record does not match the request list", file=sys.stderr)
        return 2
    inputs = OUT_DIR / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    run = Run()

    def draw(index: int) -> tuple[int, list[list[str]], list[str] | None]:
        """Build, write and register the pass drawn for `index`."""
        requests = workloads.build(args.workload, args.seed, index)
        shutil.rmtree(inputs, ignore_errors=True)
        return run.start_pass(requests), write_inputs(requests, inputs), pins if index == 0 else None

    try:
        header = f"workload {args.workload}  seed {args.seed}  pinned record {'yes' if pins else 'no'}"
        if args.trace:
            tracer = tracing.Tracer()
            missing = tracer.targets_missing()
            if missing:
                print("bench: traced names not found in kep, update bench/tracer.py: " + ", ".join(missing),
                      file=sys.stderr)
                return 2
            # A warm-up pass on other inputs, then pass 0 traced, then pass
            # 0 again untraced for the overhead ratio.
            k, argvs, _ = draw(1)
            for i, argv in enumerate(argvs):
                run.run_one(cli, k, i, argv, None)
            k, argvs, pin = draw(0)
            calls, out_bytes = [], 0
            tracer.install()
            try:
                for i, argv in enumerate(argvs):
                    before = tracer.snapshot()
                    out = run.run_one(cli, k, i, argv, pin[i] if pin else None)
                    calls.append([b - a for a, b in zip(before, tracer.snapshot())])
                    out_bytes += len(out.encode("utf-8"))
            finally:
                tracer.uninstall()
            repeat = run.start_pass(run.passes[k])
            for i, argv in enumerate(argvs):
                run.run_one(cli, repeat, i, argv, pin[i] if pin else None)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write_spans(OUT_DIR / f"spans-{args.workload}.tsv.gz")
            times = run.pass_times(normalized=True)
            metrics = per_layer(tracer, calls, run.passes[k], sum(times[k]), sum(times[repeat]), out_bytes)
            report(header + f"  requests {len(argvs)}  traced pass 0", metrics, run)
        else:
            start = perf_counter()
            deadline = start + args.seconds
            setup_gap = args.seconds / SETUP_SAMPLES
            setup.sample()
            next_setup = perf_counter() + setup_gap
            longest = 0.0
            while True:
                began = perf_counter()
                k, argvs, pin = draw(len(run.passes))
                for i, argv in enumerate(argvs):
                    if perf_counter() >= next_setup and len(setup.times) < SETUP_SAMPLES:
                        setup.sample()
                        next_setup += setup_gap
                    run.run_one(cli, k, i, argv, pin[i] if pin else None)
                longest = max(longest, perf_counter() - began)
                if perf_counter() + longest > deadline:
                    break
            while len(setup.times) < SETUP_SAMPLES:
                setup.sample()
            metrics = end_to_end(run, setup.times)
            report(header + f"  requests {len(run.passes[0])}  passes {len(run.passes)}  "
                   f"executed {run.attempted}", metrics, run)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if not args.trace:
        metrics = {name: metrics[name] for name in RESULT_METRICS}
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
