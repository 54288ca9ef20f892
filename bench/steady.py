"""Steadiness report: run the benchmark over several seeds and summarise.

    python3 bench/steady.py --workload dense --seeds 1-10
    python3 bench/steady.py --workload dense --seeds 11-20 --baseline .bench_out/steady-dense-1-10.json

Each run measures for `run_seconds` of BENCHMARK.json.  For each metric it
prints the sample count, the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them and the spread, the distance
between the quartiles as a share of the median.  End-to-end metrics are
compared with their bound in BENCHMARK.json: a spread within a third of the
bound is steady.  With `--baseline`, it also prints how far each median moved
from the medians of an earlier report, as a share of the earlier median.
Raw results go to `.bench_out/steady-<workload>-<seeds>.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help='e.g. "1-10" or "1,4,9"')
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    base = json.loads(args.baseline.read_text(encoding="utf-8")) if args.baseline else None
    results = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        results.append({"seed": seed, **result})
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"steady-{args.workload}-{args.seeds.replace(',', '_')}.json"
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")

    print(f"\n{args.workload}: {len(results)} runs, {seconds} s each, written to {out}")
    print(f"  {'metric':44s} {'n':>3s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}"
          + ("  moved" if base else ""))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, spread = summarise(values)
        bound = bounds.get(name)
        flag = "" if bound is None else ("steady" if spread < bound / 3 else "WITHIN" if spread < bound else "WIDE")
        line = (f"  {name:44s} {len(values):3d} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                f"{bound if bound is not None else '':>6} {flag}")
        if base:
            old = statistics.median(r["metrics"][name]["value"] for r in base)
            line += f"  {(med - old) / old if old else 0.0:+.4f}"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
