"""Write `pinned.json`: the pinned output fields of every request, as
digests, for a range of seeds.

    python3 bench/record.py --seeds 0-31

Run it from the repository root against the library whose outputs are to be
pinned.  Every output must first pass the independent oracle; the record is
not written otherwise.  A benchmark run whose seed is in the record then
requires each request's pinned fields (see `oracle.pinned_fields`) to match.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import oracle
import run
import workloads
from steady import parse_seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help='e.g. "0-31"')
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    import kep.cli as cli

    record = json.loads(run.PINNED.read_text(encoding="utf-8")) if run.PINNED.is_file() else {}
    for workload in workloads.WORKLOADS:
        for seed in parse_seeds(args.seeds):
            requests = workloads.build(workload, seed)
            inputs = run.OUT_DIR / f"record-{workload}-{seed}"
            outcome = run.Run()
            k = outcome.start_pass(requests)
            outputs = [outcome.run_one(cli, k, i, argv, None)
                       for i, argv in enumerate(run.write_inputs(requests, inputs))]
            shutil.rmtree(inputs)
            if not outcome.correct:
                print(f"{workload} seed {seed}: outputs failed the oracle:", *outcome.errors, sep="\n  ")
                return 1
            record.setdefault(workload, {})[str(seed)] = [
                oracle.digest(oracle.pinned_fields(req.kind, 0, json.loads(out)))
                for req, out in zip(requests, outputs)
            ]
            print(f"{workload} seed {seed}: {len(requests)} requests recorded", flush=True)
    text = json.dumps(record, indent=0, sort_keys=True)
    run.PINNED.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
