"""Generate the CLI reference (``docs/cli.md``) from live ``--help`` text.

Hand-written CLI docs drift the moment a flag changes; this generator
asks each console entry point for its own help (argparse output is the
single source of truth) and renders one markdown page.  CI regenerates
the page and fails on a diff (``--check``), so ``docs/cli.md`` can never
disagree with the code.

Each tool runs in a subprocess with ``COLUMNS=80`` so the argparse line
wrapping — and therefore the generated file — is stable across
terminals.  The tools are invoked as ``python -m <module>`` rather than
through the console scripts, so generation works in environments where
the package is importable but not installed.

Usage::

    python -m repro.analysis.clidoc            # rewrite docs/cli.md
    python -m repro.analysis.clidoc --check    # exit 1 if out of date
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
from typing import List, Optional, Sequence, Tuple

__all__ = ["TOOLS", "generate", "main"]

#: (display command, module, subcommands) per documented entry point
TOOLS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("repro-lint", "repro.analysis.lint", ()),
    ("repro-trace", "repro.obs.cli",
     ("summarize", "export", "gantt", "diff")),
    ("repro-comm", "repro.analysis.commgraph.cli", ("certify",)),
    ("python -m repro.parallel.chaos", "repro.parallel.chaos", ()),
    ("python -m repro.analysis.linkcheck", "repro.analysis.linkcheck", ()),
    ("python -m repro.analysis.clidoc", "repro.analysis.clidoc", ()),
)

HEADER = """\
# CLI reference

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with:  python -m repro.analysis.clidoc -->

Every console tool the package ships, documented by its own ``--help``
output (regenerated by ``python -m repro.analysis.clidoc``; CI fails if
this page is stale).  The first three are installed as console scripts
by ``pip install``; all of them also run as ``python -m <module>``.
"""


def _help_text(module: str, subcommand: Optional[str] = None) -> str:
    """One tool's ``--help`` output, captured at a fixed 80 columns."""
    env = dict(os.environ, COLUMNS="80", LINES="24")
    argv = [sys.executable, "-m", module]
    if subcommand:
        argv.append(subcommand)
    argv.append("--help")
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}"
        )
    return proc.stdout.rstrip("\n")


def generate() -> str:
    """Render the full markdown page."""
    parts: List[str] = [HEADER]
    for display, module, subcommands in TOOLS:
        parts.append(f"\n## `{display}`\n")
        parts.append("```text\n" + _help_text(module) + "\n```\n")
        for sub in subcommands:
            parts.append(f"\n### `{display} {sub}`\n")
            parts.append(
                "```text\n" + _help_text(module, sub) + "\n```\n"
            )
    return "".join(parts)


def default_output() -> pathlib.Path:
    return (pathlib.Path(__file__).resolve().parents[3]
            / "docs" / "cli.md")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.clidoc",
        description="regenerate docs/cli.md from the live --help output "
                    "of every console tool",
    )
    parser.add_argument("--output", type=pathlib.Path,
                        default=default_output(),
                        help="target file (default: docs/cli.md)")
    parser.add_argument("--check", action="store_true",
                        help="don't write; exit 1 if the file is stale")
    args = parser.parse_args(argv)

    text = generate()
    if args.check:
        current = (args.output.read_text(encoding="utf-8")
                   if args.output.exists() else "")
        if current != text:
            print(f"clidoc: {args.output} is out of date — regenerate "
                  f"with: python -m repro.analysis.clidoc",
                  file=sys.stderr)
            return 1
        print(f"clidoc: {args.output} is up to date")
        return 0
    args.output.write_text(text, encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
