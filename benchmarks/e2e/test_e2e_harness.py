"""Tests of the end-to-end benchmark harness itself.

Run with ``python -m pytest benchmarks/e2e -q`` (tier-1 collects only
``tests/``).  Everything runs at ``--smoke`` sizes through the real
command line, so the parent/child protocol is what is tested.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import compare
import config
import results as results_mod

RUN = [sys.executable, str(config.HERE / "run.py")]
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def run_suite(out_dir: Path, *extra: str):
    out = out_dir / "results.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        RUN + ["--smoke", "--out", str(out), *extra],
        capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - t0
    return proc, json.loads(out.read_text()), elapsed


@pytest.fixture(scope="module")
def smoke_pair(tmp_path_factory):
    """Two identical traced smoke passes of all four workloads."""
    first = run_suite(tmp_path_factory.mktemp("a"), "--traced")
    second = run_suite(tmp_path_factory.mktemp("b"), "--traced",
                       "--repeats", "1")
    return first, second


def test_smoke_pass_is_valid_and_quick(smoke_pair):
    (proc, results, _), (_, _, elapsed_single) = smoke_pair
    assert proc.returncode == 0, proc.stderr
    assert results_mod.validate(results) == []
    assert list(results["workloads"]) == list(config.WORKLOADS)
    for entry in results["workloads"].values():
        assert set(entry["end_to_end"]) == set(config.END_TO_END)
        assert entry["checks"]["failed"] == 0
        assert entry["end_to_end"]["ops_failed_share"]["median"] == 0
        assert entry["per_layer"], "traced pass yields per-layer metrics"
    assert elapsed_single < 30.0
    machine = results["machine"]
    assert machine["thread_env"] == config.THREAD_ENV
    assert results["provenance"]["repeats"] == 3
    # every metric is printed by name with its unit
    for metric, (unit, _, _) in config.END_TO_END.items():
        assert re.search(rf"{re.escape(metric)}\s+\S+ {re.escape(unit)}",
                         proc.stdout)


def test_names_are_plain(smoke_pair):
    (_, results, _), _ = smoke_pair
    names = list(results["workloads"])
    for group in results["metrics"].values():
        names += list(group)
    for entry in results["workloads"].values():
        names += list(entry["per_layer"]) + list(entry["end_to_end"])
    assert all(NAME_RE.match(name) for name in names)


def test_traced_pass_emits_every_declared_layer_metric(smoke_pair):
    (_, results, _), _ = smoke_pair
    emitted = set()
    for entry in results["workloads"].values():
        emitted |= set(entry["per_layer"])
    assert emitted == set(config.PER_LAYER)


def test_counts_and_error_repeat_exactly(smoke_pair):
    (_, first, _), (_, second, _) = smoke_pair
    for name in config.WORKLOADS:
        a, b = first["workloads"][name], second["workloads"][name]
        assert a["end_to_end"]["error_rel"]["median"] == \
            b["end_to_end"]["error_rel"]["median"]
        exact = [m for m in a["per_layer"]
                 if config.PER_LAYER[m][0] in config.EXACT_UNITS]
        assert exact, name
        for metric in exact:
            assert a["per_layer"][metric] == b["per_layer"][metric], \
                (name, metric)


def test_trace_file_is_repro_trace_readable(smoke_pair, tmp_path_factory):
    sys.path.insert(0, str(config.SRC_DIR))
    from repro.obs import load_trace

    (proc, results, _), _ = smoke_pair
    out_dir = Path(re.search(r"wrote (.*)results\.json", proc.stdout).group(1))
    for name, entry in results["workloads"].items():
        data = load_trace(out_dir / entry["trace_file"])
        assert "harness" in data.tracks(), name


def test_perturbed_reference_digest_fails_check_points(tmp_path):
    refs = tmp_path / "refs"
    shutil.copytree(config.REFERENCE_DIR, refs)
    path = refs / "sheet_n64.npz"
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    meta["digest"] = "0" * 16
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)

    proc, results, _ = run_suite(
        tmp_path, "--repeats", "1", "--reference-dir", str(refs),
        "--workload", "ctrl-n64", "tree-cold-n16k",
    )
    assert proc.returncode == 1
    ctrl = results["workloads"]["ctrl-n64"]
    assert any("ReferenceDigestMismatch" in e for e in ctrl["errors"])
    assert ctrl["checks"]["failed"] == ctrl["checks"]["attempted"]
    assert ctrl["end_to_end"]["ops_failed_share"]["median"] == 1.0
    assert "ReferenceDigestMismatch" in proc.stderr
    other = results["workloads"]["tree-cold-n16k"]
    assert other["checks"]["failed"] == 0 and not other["errors"]


def test_injected_exception_fails_only_its_workload(tmp_path):
    proc, results, _ = run_suite(
        tmp_path, "--repeats", "1", "--inject-fault", "fig8-n2k"
    )
    assert proc.returncode == 1
    assert results_mod.validate(results) == []
    fig8 = results["workloads"]["fig8-n2k"]
    assert any("InjectedFault" in e for e in fig8["errors"])
    assert fig8["checks"]["failed"] == fig8["checks"]["attempted"]
    for name, entry in results["workloads"].items():
        if name != "fig8-n2k":
            assert entry["checks"]["failed"] == 0 and not entry["errors"]
            assert "wall_s" in entry["end_to_end"]


# -- compare.py ---------------------------------------------------------
def summary(values):
    return results_mod.summarise(values, "s")


@pytest.mark.parametrize("a, b, better, bound, verdict", [
    ([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "lower", 0.10, "better"),
    ([10.0, 10.1, 10.2], [12.0, 12.1, 12.2], "lower", 0.10, "worse"),
    ([10.0, 10.1, 10.2], [10.3, 10.4, 10.5], "lower", 0.10, "same"),
    # spread (30%) wider than the bound and the runs overlap
    ([9.0, 10.0, 12.0], [9.5, 11.5, 12.5], "lower", 0.10, "unresolved"),
    # just as noisy, but every run of B beats every run of A
    ([9.0, 10.0, 12.0], [5.0, 6.0, 7.0], "lower", 0.10, "better"),
    ([2.0, 2.0, 2.0], [1.0, 1.0, 1.0], "higher", 0.10, "worse"),
    ([0.0, 0.0, 0.0], [0.25, 0.25, 0.25], "lower", 0.0, "worse"),
    ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "lower", 0.0, "same"),
])
def test_compare_classifies(a, b, better, bound, verdict):
    assert compare.classify(summary(a), summary(b), better, bound) == verdict


def test_compare_exit_codes(smoke_pair, tmp_path, capsys):
    (_, results, _), _ = smoke_pair
    base = tmp_path / "a.json"
    base.write_text(json.dumps(results))
    assert compare.main([str(base), str(base)]) == 0

    slower = json.loads(json.dumps(results))
    wall = slower["workloads"]["ctrl-n64"]["end_to_end"]["wall_s"]
    for key in ("median", "min", "max"):
        wall[key] *= 2.0
    path = tmp_path / "slower.json"
    path.write_text(json.dumps(slower))
    assert compare.main([str(base), str(path)]) == 1
    assert "ctrl-n64" in capsys.readouterr().err

    failing = json.loads(json.dumps(results))
    share = failing["workloads"]["fig8-n2k"]["end_to_end"]["ops_failed_share"]
    share.update(median=0.25, max=0.25)
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(failing))
    assert compare.main([str(base), str(path)]) == 1


# -- the BENCHMARK.json contract ----------------------------------------
def benchmark_json():
    return json.loads((config.REPO_ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    spec = benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == config.RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(config.WORKLOADS)
    # ops_failed_share reads 0 at a healthy commit, so the contract
    # carries it as failed / attempted instead of a listed metric
    listed = {m["name"]: m for m in spec["end_to_end"]}
    assert set(listed) == set(config.END_TO_END) - {"ops_failed_share"}
    for name, metric in listed.items():
        unit, better, _ = config.END_TO_END[name]
        assert (metric["unit"], metric["better"]) == (unit, better)
        assert 0 < metric["bound"] <= 0.25
    layers = {m["name"]: m for m in spec["per_layer"]}
    assert set(layers) == set(config.PER_LAYER)
    for name, metric in layers.items():
        assert (metric["unit"], metric["better"]) == config.PER_LAYER[name]


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_single_run_prints_the_contract_line(trace, group):
    proc = subprocess.run(
        RUN + ["--workload", "ctrl-n64", "--seed", "3", "--seconds", "0",
               "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in benchmark_json()[group]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected


def test_no_program_means_no_result(tmp_path):
    """In a directory holding only the benchmark, the run fails loudly."""
    shutil.copytree(config.HERE, tmp_path / "benchmarks" / "e2e")
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ctrl-n64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
