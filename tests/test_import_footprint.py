"""What ``import repro`` loads: every e2e child and CLI call pays it."""

import subprocess
import sys


def test_import_repro_leaves_the_web_stack_unloaded():
    """``xml.sax.saxutils`` pulls in ``urllib.request``, ``http.client``
    and ``email`` (~35 ms per process); the SVG escaping needs none."""
    code = (
        "import sys, repro\n"
        "banned = ('urllib.request', 'http.client', 'email', 'xml.sax')\n"
        "loaded = [m for m in sys.modules\n"
        "          if any(m == b or m.startswith(b + '.') for b in banned)]\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
