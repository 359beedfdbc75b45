"""What ``import repro`` and the certify path load: every e2e child and
CLI call pays it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

#: the child imports the same ``repro`` as this process, with or
#: without ``PYTHONPATH``
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(repro.__file__).parents[1]),
                  os.environ.get("PYTHONPATH")])))


def _loaded(imports, banned):
    """Modules under ``banned`` that a fresh interpreter holds after
    ``import {imports}``."""
    code = (
        f"import sys, {imports}\n"
        f"banned = {tuple(banned)!r}\n"
        "print([m for m in sys.modules\n"
        "       if any(m == b or m.startswith(b + '.') for b in banned)])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=_ENV).stdout
    return ast.literal_eval(out.strip())


def test_import_repro_leaves_the_web_stack_unloaded():
    """``xml.sax.saxutils`` pulls in ``urllib.request``, ``http.client``
    and ``email`` (~35 ms per process); the SVG escaping needs none."""
    assert _loaded("repro", ("urllib.request", "http.client", "email",
                             "xml.sax")) == []


def test_import_repro_leaves_the_checkers_unloaded():
    assert _loaded("repro", ("repro.analysis.lint",
                             "repro.analysis.commgraph")) == []


def test_certify_path_loads_no_static_checker():
    """``Scheduler(certify=True)`` imports the happens-before module; the
    static tag checks live in repro-lint and must not ride along."""
    assert _loaded("repro.analysis.commgraph.hb", (
        "repro.analysis.lint",
        "repro.analysis.commgraph.skeleton",
        "repro.analysis.commgraph.checks",
        "repro.analysis.commgraph.cli",
    )) == []
