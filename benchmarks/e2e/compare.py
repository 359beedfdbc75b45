"""Compare two results files of the end-to-end benchmark.

    python benchmarks/e2e/compare.py A.json B.json [--aa]

One row per workload x end-to-end metric: both medians, the ratio B/A
(base: A), the bound, and a verdict:

``better`` / ``worse``
    B's median differs from A's by more than the bound, in that direction.
``same``
    within the bound.
``unresolved``
    the run-to-run spread of either side is wider than the bound and the
    two sides' runs overlap: the data cannot tell, so it is not "same".
``excluded``
    the workload ran degraded on either side (e.g. ``nproc = 1``).

The exit code is non-zero on any ``worse`` row or on a higher
``ops_failed_share``.  ``--aa`` treats A and B as two sets of runs of the
same commit and prints the bounds the A/A procedure yields:
``max(starting bound, 2 x observed relative difference of medians)``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional

import config
import results as results_mod


def spread(summary: Dict[str, Any]) -> float:
    """Range of the repetitions as a share of their median (R < 10, so
    the range stands in for a quartile distance)."""
    if not summary["median"]:
        return 0.0
    return (summary["max"] - summary["min"]) / abs(summary["median"])


def classify(a: Dict[str, Any], b: Dict[str, Any], better: str,
             bound: float) -> str:
    """Verdict for one metric given both sides' summaries."""
    med_a, med_b = a["median"], b["median"]
    if med_a == med_b:
        return "same"
    if med_a == 0:
        # no base for a ratio: any move in the bad direction is a regression
        return "worse" if (med_b > 0) == (better == "lower") else "better"
    worse_by = (med_b - med_a) / abs(med_a)
    if better == "higher":
        worse_by = -worse_by
    overlap = not (b["max"] < a["min"] or b["min"] > a["max"])
    if max(spread(a), spread(b)) > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        excluded = entry_a["degraded"] or entry_b["degraded"]
        for metric, (unit, better, _) in config.END_TO_END.items():
            sa = entry_a["end_to_end"].get(metric)
            sb = entry_b["end_to_end"].get(metric)
            if sa is None or sb is None:
                continue
            bound = config.bound_of(name, metric)
            ratio: Optional[float] = (
                sb["median"] / sa["median"] if sa["median"] else None
            )
            rows.append({
                "workload": name, "metric": metric, "unit": unit,
                "a": sa["median"], "b": sb["median"], "ratio_b_over_a": ratio,
                "bound": bound,
                "verdict": "excluded" if excluded
                else classify(sa, sb, better, bound),
            })
    return rows


def aa_bounds(rows: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Bounds from an A/A pair: the starting bound, widened to twice the
    observed relative difference of medians where that is larger."""
    out: Dict[str, Dict[str, float]] = {}
    for row in rows:
        observed = abs(row["ratio_b_over_a"] - 1.0) \
            if row["ratio_b_over_a"] is not None else 0.0
        out.setdefault(row["workload"], {})[row["metric"]] = round(
            max(row["bound"], 2.0 * observed), 4
        )
    return out


def format_rows(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<16s} {'metric':<18s} {'A median':>13s} "
             f"{'B median':>13s} {'B/A':>8s} {'bound':>6s}  verdict"]
    for r in rows:
        ratio = f"{r['ratio_b_over_a']:.4f}" \
            if r["ratio_b_over_a"] is not None else "n/a"
        lines.append(
            f"{r['workload']:<16s} {r['metric']:<18s} {r['a']:>13.6g} "
            f"{r['b']:>13.6g} {ratio:>8s} {r['bound']:>6.2f}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    aa = "--aa" in argv
    paths = [arg for arg in argv if arg != "--aa"]
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (results_mod.load(path) for path in paths)
    rows = compare(a, b)
    print(format_rows(rows))
    if aa:
        print("\nA/A bounds (max(starting bound, 2 x observed difference)):")
        print(json.dumps(aa_bounds(rows), indent=1))
    failed_more = [
        r for r in rows
        if r["metric"] == "ops_failed_share" and r["b"] > r["a"]
    ]
    worse = [r for r in rows if r["verdict"] == "worse"]
    for r in worse:
        print(f"REGRESSION {r['workload']} {r['metric']}: "
              f"{r['a']:.6g} -> {r['b']:.6g} {r['unit']}", file=sys.stderr)
    return 1 if worse or failed_more else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
