"""The results file: machine block, aggregation, schema validation.

One schema for every file this benchmark writes (``run.py --out``, the
committed A/A sets under ``baseline/``); ``compare.py`` reads it back.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import config

SCHEMA = "repro-e2e-results/1"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


# -- machine block ------------------------------------------------------
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> Dict[str, str]:
    out: Dict[str, str] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def _openblas_version() -> str:
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # informational field only
        return "unknown"


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=config.REPO_ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_block() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache_sizes": _cache_sizes(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": _openblas_version(),
        "thread_env": dict(config.THREAD_ENV),
        "thread_env_reason":
            "the program's own ProcessExecutor / threaded backend must be "
            "the only source of concurrency; default OpenBLAS threading "
            "made PFASST(2,2,4) at N=2000 slower on the 2-core sizing host "
            "(13.4 s vs 10.9 s)",
    }


# -- aggregation --------------------------------------------------------
def summarise(values: Sequence[float], unit: str) -> Dict[str, Any]:
    """Median with min/max and the sample count (R < 10 repetitions, so
    no percentile is claimed)."""
    return {
        "median": statistics.median(values), "min": min(values),
        "max": max(values), "n": len(values), "unit": unit,
        "values": list(values),
    }


def aggregate_workload(
    name: str, records: List[Dict[str, Any]],
    traced: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    """Fold the repetitions (and the optional traced pass) of a workload."""
    first = records[0]
    out: Dict[str, Any] = {
        "why": config.WORKLOADS[name]["why"],
        "config": first["config"],
        "config_digest": first["config_digest"],
        "degraded": any(r.get("degraded", False) for r in records),
        "errors": sorted({e for r in records for e in r["errors"]}),
        "loadavg_start": first["loadavg_start"],
    }
    # check points: the worst repetition counts
    worst = max(records, key=lambda r: r["checks"]["failed"])
    out["checks"] = worst["checks"]
    end_to_end: Dict[str, Any] = {}
    for metric, (unit, _, _) in config.END_TO_END.items():
        if metric == "ops_failed_share":
            values = [r["ops_failed_share"] for r in records]
        else:
            values = [r["end_to_end"][metric] for r in records
                      if metric in r.get("end_to_end", {})
                      and r["end_to_end"][metric] is not None]
        if values:
            end_to_end[metric] = summarise(values, unit)
    out["end_to_end"] = end_to_end
    if traced is not None:
        out["per_layer"] = traced.get("per_layer", {})
        out["guards"] = traced.get("guards", [])
        out["degraded"] = out["degraded"] or traced.get("degraded", False)
        out["errors"] = sorted(set(out["errors"]) | set(traced["errors"]))
        if traced.get("trace_file"):
            out["trace_file"] = traced["trace_file"]
    return out


def build(workloads: Dict[str, Any], seed: int, repeats: int, smoke: bool,
          seconds: float) -> Dict[str, Any]:
    return {
        "schema": SCHEMA,
        "machine": machine_block(),
        "provenance": {
            "git_revision": git_revision(),
            "seed": seed, "repeats": repeats, "smoke": smoke,
            "run_seconds": seconds,
            "loadavg_start": os.getloadavg()[0],
        },
        "metrics": {
            "end_to_end": {
                name: {"unit": unit, "better": better}
                for name, (unit, better, _) in config.END_TO_END.items()
            },
            "per_layer": {
                name: {"unit": unit, "better": better}
                for name, (unit, better) in config.PER_LAYER.items()
            },
        },
        "workloads": workloads,
    }


# -- validation ---------------------------------------------------------
def validate(results: Dict[str, Any]) -> List[str]:
    """Schema problems of a results file (empty list = valid)."""
    problems: List[str] = []

    def need(mapping, key, where):
        if not isinstance(mapping, dict) or key not in mapping:
            problems.append(f"{where}: missing {key!r}")
            return None
        return mapping[key]

    if results.get("schema") != SCHEMA:
        problems.append(f"schema is {results.get('schema')!r}, not {SCHEMA!r}")
    machine = need(results, "machine", "results") or {}
    for key in ("nproc", "cpu_model", "cache_sizes", "python", "numpy",
                "scipy", "blas", "thread_env"):
        need(machine, key, "machine")
    provenance = need(results, "provenance", "results") or {}
    for key in ("git_revision", "seed", "repeats", "loadavg_start"):
        need(provenance, key, "provenance")
    declared = need(results, "metrics", "results") or {}
    for group in ("end_to_end", "per_layer"):
        for name, spec in (declared.get(group) or {}).items():
            if not NAME_RE.match(name):
                problems.append(f"metric name {name!r} is not [A-Za-z0-9_.-]+")
            if spec.get("better") not in ("lower", "higher"):
                problems.append(f"metric {name}: bad direction")
    workloads = need(results, "workloads", "results") or {}
    if not workloads:
        problems.append("no workloads")
    for name, entry in workloads.items():
        where = f"workload {name}"
        if not NAME_RE.match(name):
            problems.append(f"workload name {name!r} is not [A-Za-z0-9_.-]+")
        for key in ("why", "config", "config_digest", "checks", "errors",
                    "end_to_end", "degraded"):
            need(entry, key, where)
        checks = entry.get("checks") or {}
        if not (isinstance(checks.get("attempted"), int)
                and checks["attempted"] >= 1
                and isinstance(checks.get("failed"), int)):
            problems.append(f"{where}: bad check-point counts")
        end_to_end = entry.get("end_to_end") or {}
        if "ops_failed_share" not in end_to_end:
            problems.append(f"{where}: missing ops_failed_share")
        complete = not entry.get("errors")
        for metric in config.END_TO_END:
            summary = end_to_end.get(metric)
            if summary is None:
                if complete:
                    problems.append(f"{where}: missing {metric}")
                continue
            for key in ("median", "min", "max", "n", "unit"):
                need(summary, key, f"{where}.{metric}")
        for metric in entry.get("per_layer", {}):
            if metric not in config.PER_LAYER:
                problems.append(f"{where}: undeclared per-layer {metric}")
    return problems


def load(path) -> Dict[str, Any]:
    results = json.loads(Path(path).read_text())
    problems = validate(results)
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    return results
