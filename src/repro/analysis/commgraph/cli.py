"""``repro-comm`` — the communication-verification command line.

Subcommands:

* ``check [paths...]`` — run the static layer (skeleton extraction +
  checks CG001–CG003) over files/directories (default ``src/``).
  Exit 1 when any finding is reported, 0 otherwise.
* ``certify`` — run the P_T x P_S vortex smoke grid with
  ``certify=True`` under the selected execution backend(s) and print the
  :class:`~repro.analysis.commgraph.DeterminismCertificate`.  With
  ``--executor both`` the serial and process digests must agree; with
  ``--verify`` the reversed-service-order replay must reproduce the
  digest.  Exit 1 on any race, digest mismatch or undelivered message.
* ``graph [paths...]`` — render extracted skeletons as ASCII
  (default) or Graphviz DOT (``--format dot``).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import List, Optional, Sequence

from repro.analysis.commgraph.checks import check_skeletons
from repro.analysis.commgraph.skeleton import (
    extract_paths,
    render_skeleton,
    to_dot,
)
from repro.sdc.sweeper import SWEEPERS

__all__ = ["main"]


def _cmd_check(args: argparse.Namespace) -> int:
    skeletons = extract_paths(args.paths or ["src/"])
    if not skeletons:
        print("repro-comm: no rank programs found", file=sys.stderr)
        return 2
    findings = check_skeletons(skeletons)
    for f in findings:
        print(f.render())
    print(f"repro-comm: {len(skeletons)} skeleton(s), "
          f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


def _smoke_problem(n: int, seed: int = 3, sweeper: str = "gauss-seidel"):
    """The vortex-sheet smoke problem used by tests/test_space_parallel."""
    import numpy as np

    from repro.pfasst.level import LevelSpec
    from repro.tree.parallel import SpaceParallelTreeEvaluator
    from repro.vortex.particles import pack_state
    from repro.vortex.problem import VortexProblem

    rng = np.random.default_rng(seed)
    positions = rng.uniform(-1.0, 1.0, (n, 3))
    vorticity = rng.normal(size=(n, 3)) * 0.2
    volumes = np.full(n, 1.0 / n)
    ev = SpaceParallelTreeEvaluator("algebraic2", sigma=0.1, theta=0.3,
                                    leaf_size=16)
    fine = VortexProblem(volumes, ev)
    coarse = fine.coarsened(0.6)
    specs = [LevelSpec(fine, 3, sweeps=1, sweeper=sweeper),
             LevelSpec(coarse, 2, sweeps=1, sweeper=sweeper)]
    return pack_state(positions, vorticity), specs


def _certify_once(args: argparse.Namespace, backend: Optional[str]):
    """The run's certificate and its undelivered-message warnings."""
    from repro.parallel.executor import ProcessExecutor, SerialExecutor
    from repro.parallel.simmpi import OrphanMessageWarning
    from repro.pfasst.controller import PfasstConfig, run_pfasst

    u0, specs = _smoke_problem(args.particles, sweeper=args.sweeper)
    cfg = PfasstConfig(t0=0.0, t_end=0.05, n_steps=args.steps,
                       iterations=args.iterations)
    executor = None
    if backend == "serial":
        executor = SerialExecutor()
    elif backend == "process":
        executor = ProcessExecutor(max_workers=args.max_workers)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", OrphanMessageWarning)
            result = run_pfasst(
                cfg, specs, u0, p_time=args.p_time, p_space=args.p_space,
                p_nodes=args.p_nodes,
                executor=executor, verify=args.verify, certify=True,
            )
    finally:
        if executor is not None:
            executor.close()
    orphans = []
    for w in caught:
        if issubclass(w.category, OrphanMessageWarning):
            orphans.append(str(w.message))
        else:  # recorded, so not yet shown
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return result.certificate, orphans


def _cmd_certify(args: argparse.Namespace) -> int:
    backends: List[Optional[str]]
    if args.executor == "both":
        backends = ["serial", "process"]
    elif args.executor == "none":
        backends = [None]
    else:
        backends = [args.executor]

    certificates = {}
    failed = False
    for backend in backends:
        label = backend or "inline"
        cert, orphans = _certify_once(args, backend)
        certificates[label] = cert
        print(f"== executor: {label} ==")
        print(cert.summary())
        for report in orphans:
            print(f"repro-comm: {report}", file=sys.stderr)
            failed = True
    digests = {label: c.digest for label, c in certificates.items()}
    if len(set(digests.values())) > 1:
        print(f"repro-comm: DIGEST MISMATCH across backends: {digests}",
              file=sys.stderr)
        failed = True
    if any(not c.race_free for c in certificates.values()):
        print("repro-comm: message race(s) detected — run is not "
              "certified deterministic", file=sys.stderr)
        failed = True
    if args.json:
        payload = {label: c.to_json() for label, c in certificates.items()}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"repro-comm: wrote {args.json}", file=sys.stderr)
    if failed:
        return 1
    print(f"repro-comm: certified deterministic "
          f"(digest {next(iter(digests.values()))})", file=sys.stderr)
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    skeletons = extract_paths(args.paths or ["src/"])
    if not skeletons:
        print("repro-comm: no rank programs found", file=sys.stderr)
        return 2
    selected = skeletons
    if args.root:
        selected = [s for s in skeletons
                    if s.name == args.root
                    or s.name.endswith("." + args.root)]
        if not selected:
            print(f"repro-comm: no skeleton named {args.root!r}",
                  file=sys.stderr)
            return 2
    if args.format == "dot":
        print(to_dot(selected))
    else:
        for sk in selected:
            print(render_skeleton(sk))
            print()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-comm",
        description="static + dynamic communication verification "
                    "(commgraph: CG001-CG003, determinism certificates)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="static checks over rank programs")
    p_check.add_argument("paths", nargs="*", default=["src/"])
    p_check.set_defaults(fn=_cmd_check)

    p_cert = sub.add_parser(
        "certify", help="run the smoke grid and print its determinism "
                        "certificate")
    p_cert.add_argument("--p-time", type=int, default=2)
    p_cert.add_argument("--p-space", type=int, default=2)
    p_cert.add_argument("--p-nodes", type=int, default=1,
                        help="node ranks per (time, space) pair — "
                             "certifies the P_T x P_S x P_N grid")
    p_cert.add_argument("--sweeper",
                        choices=SWEEPERS,
                        default="gauss-seidel",
                        help="SDC sweep used on both levels")
    p_cert.add_argument("--particles", type=int, default=96)
    p_cert.add_argument("--steps", type=int, default=2)
    p_cert.add_argument("--iterations", type=int, default=2)
    p_cert.add_argument("--executor",
                        choices=["none", "serial", "process", "both"],
                        default="none",
                        help="execution backend(s); 'both' compares the "
                             "serial and process digests")
    p_cert.add_argument("--max-workers", type=int, default=2)
    p_cert.add_argument("--verify", action="store_true",
                        help="also replay under reversed service order "
                             "and require an identical digest")
    p_cert.add_argument("--json", metavar="PATH",
                        help="write the certificate(s) as JSON")
    p_cert.set_defaults(fn=_cmd_certify)

    p_graph = sub.add_parser("graph", help="render extracted skeletons")
    p_graph.add_argument("paths", nargs="*", default=["src/"])
    p_graph.add_argument("--format", choices=["ascii", "dot"],
                         default="ascii")
    p_graph.add_argument("--root", help="render one skeleton by name")
    p_graph.set_defaults(fn=_cmd_graph)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
