"""``repro-comm certify`` — the determinism-certificate command line.

It runs the P_T x P_S vortex smoke grid with ``certify=True`` under the
selected execution backend(s) and prints the
:class:`~repro.analysis.commgraph.DeterminismCertificate`.  With
``--executor both`` the serial and process digests must agree; with
``--verify`` the reversed-service-order replay must reproduce the
digest.  Exit 1 on any race, digest mismatch or undelivered message.
The static tag checks (CG001-CG003) run in ``repro-lint``.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import List, Optional, Sequence

from repro.sdc.sweeper import SWEEPERS

__all__ = ["main"]


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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-comm",
        description="dynamic communication verification (determinism "
                    "certificates)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
