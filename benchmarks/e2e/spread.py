"""Seed-to-seed steadiness of the single-run mode.

    python benchmarks/e2e/spread.py [--runs 10] [--out PATH] [WORKLOAD ...]

Runs ``run.py --workload W --seed S --seconds T --trace 0`` once per
seed and reports, for every end-to-end metric, the median and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``).  A metric is steady enough when
that spread is below a third of its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from typing import Any, Dict, List

import config


def quartile_spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workloads", nargs="*", default=list(config.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    report: Dict[str, Any] = {}
    for workload in args.workloads:
        values: Dict[str, List[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(config.HERE / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(config.RUN_SECONDS), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"]:
                print(f"{workload} seed {seed}: not correct", file=sys.stderr)
                return 1
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = {}
        for name, series in values.items():
            entry = {"median": statistics.median(series),
                     "quartile_spread": quartile_spread(series),
                     "values": series}
            report[workload][name] = entry
            print(f"{workload:<16s} {name:<12s} median {entry['median']:.6g}"
                  f"  spread {entry['quartile_spread']:.4f}", flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"runs": args.runs, "first_seed": args.first_seed,
                       "workloads": report}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
