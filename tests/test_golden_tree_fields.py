"""Golden tree fields: the batched engine keeps its exact bytes across commits.

``tests/data/golden_tree_fields.json`` pins blake2b digests of
``TreeEvaluator.field`` (theta 0.3 / 0.6, gradient on / off) and
``SpaceParallelTreeEvaluator.segment_field``
(``p_space = 2``, both ranks) on seeded vortex sheets (two in the
production GEMM-expanded near-field regime, one forcing the explicit
path).  An engine refactor that is meant to leave every
gather index, GEMM operand and scatter target alone (index-table
layout, batching helpers) must pass this file unedited.

Re-record (only when a change is *meant* to alter the summation order)
with ``PYTHONPATH=src python tests/test_golden_tree_fields.py --record``;
it prints every case whose digest differs from the committed file
(``tests/support.py::record_golden``, the recorder of every golden file).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.tree import TreeEvaluator
from repro.tree.parallel import SpaceParallelTreeEvaluator
from repro.vortex import SheetConfig, get_kernel, spherical_vortex_sheet
from support import record_golden

GOLDEN = Path(__file__).parent / "data" / "golden_tree_fields.json"

#: name -> (n, sigma_over_h, leaf_size, jitter seed)
SHEETS = {
    "n384-leaf48": (384, 3.0, 48, 11),
    "n1000-leaf16": (1000, 3.0, 16, 23),
    # cores far smaller than the leaves: the near pass fails its radius
    # gate and takes the explicit (non-expanded) path
    "n600-explicit": (600, 0.4, 32, 37),
}
THETAS = (0.3, 0.6)
P_SPACE = 2


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        if a is not None:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _sheet(name):
    n, sigma_over_h, leaf_size, seed = SHEETS[name]
    cfg = SheetConfig(n=n, sigma_over_h=sigma_over_h)
    ps = spherical_vortex_sheet(cfg)
    rng = np.random.default_rng(seed)
    positions = ps.positions + 1e-3 * cfg.h * rng.uniform(-1, 1, (n, 3))
    return positions, ps.charges, cfg.sigma, leaf_size


def _field_cases():
    return [
        (sheet, theta, gradient)
        for sheet in SHEETS for theta in THETAS for gradient in (True, False)
    ]


def _segment_cases():
    return [(sheet, theta, rank) for sheet in SHEETS for theta in THETAS
            for rank in range(P_SPACE)]


def field_id(case) -> str:
    sheet, theta, gradient = case
    # the "-numpy" tail is the recorded key's, from when a second kernel
    # backend was pinned beside it
    return f"field-{sheet}-theta{theta}-{'grad' if gradient else 'vel'}-numpy"


def segment_id(case) -> str:
    sheet, theta, rank = case
    return f"segment-{sheet}-theta{theta}-rank{rank}of{P_SPACE}"


def run_field(case) -> str:
    sheet, theta, gradient = case
    positions, charges, sigma, leaf_size = _sheet(sheet)
    ev = TreeEvaluator(get_kernel("algebraic6"), sigma, theta=theta,
                       leaf_size=leaf_size)
    f = ev.field(positions, charges, gradient=gradient)
    return _digest(f.velocity, f.gradient)


def run_segment(case) -> str:
    sheet, theta, rank = case
    positions, charges, sigma, leaf_size = _sheet(sheet)
    ev = SpaceParallelTreeEvaluator(get_kernel("algebraic6"), sigma,
                                    theta=theta, leaf_size=leaf_size)
    vel, grad = ev.segment_field(positions, charges, rank, P_SPACE)
    return _digest(vel, grad)


def _all_cases():
    for case in _field_cases():
        yield field_id(case), run_field, case
    for case in _segment_cases():
        yield segment_id(case), run_segment, case


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_the_matrix(golden):
    assert sorted(golden) == sorted(cid for cid, _, _ in _all_cases())


@pytest.mark.parametrize("case", _field_cases(), ids=field_id)
def test_field_digest(golden, case):
    assert run_field(case) == golden[field_id(case)]


@pytest.mark.parametrize("case", _segment_cases(), ids=segment_id)
def test_segment_digest(golden, case):
    assert run_segment(case) == golden[segment_id(case)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_tree_fields.py --record")
    record_golden(GOLDEN, {cid: run(case) for cid, run, case in _all_cases()})
