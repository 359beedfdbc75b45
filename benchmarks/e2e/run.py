"""End-to-end benchmark of the space-time parallel N-body solver.

Suite mode (the one command a person runs)::

    python benchmarks/e2e/run.py [--workload NAME ...] [--repeats R]
        [--seed S] [--traced] [--smoke] [--out PATH]

runs every workload in a fresh child process per repetition with tracing
off (workloads interleaved round-robin so host drift hits all equally),
verifies the outputs, prints every metric by name with its unit and
writes the results file; ``--traced`` adds one pass per workload that
yields the per-layer metrics and a ``repro-trace``-readable span file.

Single-run mode (the BENCHMARK.json contract)::

    python benchmarks/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

runs one repetition (plus extra set-up-only children so ``setup_s`` is a
median) and prints one JSON object as the last line of stdout.

This parent imports neither NumPy nor ``repro``: every child pays, and
reports, the whole import cost.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import config
import results as results_mod

CHILD = config.HERE / "child.py"
#: set-ups per single run (the measuring child's own plus set-up-only
#: children); ``setup_s`` is their median
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int = 0,
          smoke: bool = False, setup_only: bool = False,
          trace_out: Optional[Path] = None,
          reference_dir: Optional[str] = None,
          inject_fault: bool = False) -> Dict[str, Any]:
    """One fresh child with BLAS pinned to one thread; its JSON record."""
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if reference_dir is not None:
        cmd += ["--reference-dir", reference_dir]
    if inject_fault:
        cmd.append("--inject-fault")
    env = dict(os.environ, **config.THREAD_ENV)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(
            f"{workload}: child exceeded {CHILD_TIMEOUT_S} s"
        ) from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"{workload}: child exited with code {proc.returncode} "
            "without a record"
        )
    return json.loads(lines[-1])


# -- single-run (contract) mode -----------------------------------------
def single_run(args) -> int:
    workload = args.workload[0]
    record = spawn(workload, args.seed, args.seconds, trace=args.trace,
                   smoke=args.smoke, reference_dir=args.reference_dir)
    if args.trace:
        measured = record.get("per_layer", {})
        # a layer this workload does not exercise reads 0 here
        metrics = {
            name: {"value": measured.get(name, 0.0), "unit": unit}
            for name, (unit, _) in config.PER_LAYER.items()
        }
    else:
        setups = [record["setup_s"]] + [
            spawn(workload, args.seed, args.seconds, smoke=args.smoke,
                  setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        values = dict(record.get("end_to_end", {}),
                      setup_s=statistics.median(setups))
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _, _) in config.END_TO_END.items()
            if values.get(name) is not None
        }
    checks = record["checks"]
    print(json.dumps({
        "correct": checks["failed"] == 0 and not record["errors"],
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": metrics,
    }))
    return 0


# -- suite mode ---------------------------------------------------------
def failed_record(workload: str, smoke: bool, message: str) -> Dict[str, Any]:
    """Stand-in for a child that died without a record: every check
    point of the repetition counts as failed."""
    cfg = config.workload_config(workload, smoke)
    attempted = config.expected_checks(workload, cfg)
    return {
        "workload": workload, "config": cfg,
        "config_digest": config.digest(cfg), "loadavg_start": 0.0,
        "errors": [f"ChildFailed: {message}"],
        "checks": {"attempted": attempted, "failed": attempted,
                   "failures": []},
        "ops_failed_share": 1.0,
    }


def try_spawn(workload: str, args, **kwargs) -> Dict[str, Any]:
    try:
        return spawn(
            workload, args.seed, args.seconds, smoke=args.smoke,
            reference_dir=args.reference_dir,
            inject_fault=(workload == args.inject_fault), **kwargs,
        )
    except ChildFailed as exc:
        print(f"e2e benchmark error [{workload}]: {exc}", file=sys.stderr)
        return failed_record(workload, args.smoke, str(exc))


def print_workload(name: str, entry: Dict[str, Any]) -> None:
    flag = "  [degraded: excluded from comparisons]" if entry["degraded"] \
        else ""
    print(f"\n{name}{flag}")
    for metric, s in entry["end_to_end"].items():
        print(f"  {metric:<18s} {s['median']:>14.6g} {s['unit']:<6s}"
              f"(min {s['min']:.6g}, max {s['max']:.6g}, n={s['n']})")
    checks = entry["checks"]
    print(f"  check points       {checks['attempted'] - checks['failed']}"
          f"/{checks['attempted']} verified")
    for metric, value in entry.get("per_layer", {}).items():
        unit = config.PER_LAYER[metric][0]
        print(f"    {metric:<40s} {value:>14.6g} {unit}")
    for g in entry.get("guards", []):
        state = "degraded" if g.get("degraded") else \
            ("ok" if g["passed"] else "FAILED")
        print(f"    guard {g['name']:<36s} {g['value']:>12.4g}  {state}")
    for message in entry["errors"]:
        print(f"  ERROR {message}")


def suite(args) -> int:
    names = args.workload or list(config.WORKLOADS)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    records: Dict[str, List[Dict[str, Any]]] = {n: [] for n in names}
    for rep in range(args.repeats):
        for name in names:
            print(f"[{rep + 1}/{args.repeats}] {name} ...", file=sys.stderr)
            records[name].append(try_spawn(name, args))
    traced: Dict[str, Optional[Dict[str, Any]]] = {n: None for n in names}
    if args.traced:
        for name in names:
            print(f"[traced] {name} ...", file=sys.stderr)
            trace_file = out_path.parent / f"trace_{name}.json"
            traced[name] = try_spawn(name, args, trace=1,
                                     trace_out=trace_file)
            if trace_file.is_file():
                traced[name]["trace_file"] = trace_file.name
    workloads = {
        name: results_mod.aggregate_workload(name, records[name],
                                             traced[name])
        for name in names
    }
    results = results_mod.build(workloads, args.seed, args.repeats,
                                args.smoke, args.seconds)
    problems = results_mod.validate(results)
    for name, entry in workloads.items():
        print_workload(name, entry)
    out_path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nwrote {out_path}")
    for problem in problems:
        print(f"results schema problem: {problem}", file=sys.stderr)
    bad = problems or any(
        e["errors"] or e["checks"]["failed"] for e in workloads.values()
    )
    return 1 if bad else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", nargs="+", default=None,
                        choices=list(config.WORKLOADS), metavar="NAME")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run "
                             f"(default {config.RUN_SECONDS}; 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="single-run mode: 0 end-to-end, 1 per-layer")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=str(
        config.REPO_ROOT / "e2e_results" / "results.json"))
    parser.add_argument("--reference-dir", default=None,
                        help="directory of the golden references")
    parser.add_argument("--inject-fault", default=None, metavar="NAME",
                        help="raise inside this workload (harness tests)")
    args = parser.parse_args(argv)
    if not (config.SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {config.SRC_DIR}/repro is missing",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(config.RUN_SECONDS)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("single-run mode (--trace) takes one --workload")
        return single_run(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
