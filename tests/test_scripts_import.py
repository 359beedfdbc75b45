"""Every example and benchmark script imports against the current library.

Most of these scripts run in no CI job, so a change that removes or
renames a public name would otherwise leave a script failing only when
someone next runs it.  Each script is imported by path under a private
module name (so its ``if __name__ == "__main__"`` body does not run),
with ``benchmarks/`` on ``sys.path`` for the scripts' shared ``common``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"
SCRIPTS = sorted(ROOT.glob("examples/*.py")) + sorted(
    BENCH_DIR.glob("bench_*.py")
)


def test_scripts_found():
    assert any(p.parent.name == "examples" for p in SCRIPTS)
    assert any(p.parent == BENCH_DIR for p in SCRIPTS)


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS]
)
def test_script_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    name = f"_script_{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
