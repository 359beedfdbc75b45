"""The committed end-to-end references match the pinned benchmark config.

``benchmarks/e2e/harness.Reference`` refuses a reference file whose
digest differs from ``config.reference_digest(key)``, but only when a
benchmark child loads it.  Reading the same digests here makes an edit
to ``PHYSICS`` / ``REFERENCES`` of ``benchmarks/e2e/config.py`` (or a
stale ``.npz``) fail in tier-1.  Read-only: only the small ``meta``
member of each file is loaded.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def _load_config():
    spec = importlib.util.spec_from_file_location(
        "e2e_config_for_tier1", E2E / "config.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


config = _load_config()


def test_every_pinned_reference_has_a_file_and_nothing_else_does():
    files = {p.name for p in (E2E / "references").glob("sheet_*.npz")}
    assert files == {f"sheet_{key}.npz" for key in config.REFERENCES}


@pytest.mark.parametrize("key", sorted(config.REFERENCES))
def test_reference_carries_the_pinned_digest(key):
    path = E2E / "references" / f"sheet_{key}.npz"
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
    assert meta["digest"] == config.reference_digest(key)
    assert meta["physics"] == config.PHYSICS
    assert meta["grid"] == config.REFERENCES[key]
