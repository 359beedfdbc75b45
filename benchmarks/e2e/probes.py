"""Per-layer probes of the traced pass.

Each probe drives one layer through its *public* functions on inputs the
workload produced (captured states) or on workload-sized arrays, inside
harness spans.  None of them runs in the untraced, end-to-end pass.
"""

from __future__ import annotations

import tempfile
from typing import Dict, Sequence, Tuple

import numpy as np

import config
from harness import Spans, median

from repro.backends import get_backend, usable_backends
from repro.parallel import Scheduler
from repro.pfasst import (
    Level,
    LevelSpec,
    RunCheckpoint,
    TimeSpaceTransfer,
    fas_correction,
    snapshot_levels,
)
from repro.sdc.diagonal import DiagonalSDCSweeper
from repro.sdc.quadrature import make_rule
from repro.sdc.sweeper import ExplicitSDCSweeper
from repro.tree import (
    TreeEvaluator,
    build_octree,
    build_traversal_layout,
    compute_vortex_moments,
    dual_traversal,
)
from repro.tree.engine import batched_far_vortex, batched_near_vortex
from repro.tree.parallel import SpaceParallelTreeEvaluator
from repro.vortex import get_kernel
from repro.vortex.problem import ODEProblem
from repro.vortex.rhs import biot_savart_direct

LEVELS = (("fine", "theta_fine"), ("coarse", "theta_coarse"))


def make_tree_pair(sigma: float, cls=TreeEvaluator):
    """The pinned fine/coarse evaluator pair sharing one state cache."""
    tree = config.TREE
    fine = cls(
        get_kernel(config.PHYSICS["kernel"]), sigma,
        theta=tree["theta_fine"], order=tree["order"],
        leaf_size=tree["leaf_size"],
    )
    return fine, fine.coarsened(tree["theta_coarse"])


def tree_phases(
    spans: Spans, sigma: float,
    states: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> Dict[str, float]:
    """Replay the tree pipeline phase by phase on captured
    ``(positions, charges)`` states; median seconds per evaluation."""
    kernel = get_kernel(config.PHYSICS["kernel"])
    tree_cfg = config.TREE
    for positions, charges in states:
        with spans.span("tree.build"):
            tree = build_octree(positions, leaf_size=tree_cfg["leaf_size"])
        with spans.span("tree.moments"):
            moments = compute_vortex_moments(tree, charges)
        charges_sorted = charges[tree.order]
        for level, theta_key in LEVELS:
            with spans.span(f"tree.traverse.{level}"):
                lists = dual_traversal(
                    tree, tree_cfg[theta_key], node_bmax=moments.bmax,
                    variant="bh",
                )
            with spans.span(f"tree.layout.{level}"):
                layout = build_traversal_layout(tree, lists)
            vel = np.zeros((positions.shape[0], 3))
            grad = np.zeros((positions.shape[0], 3, 3))
            with spans.span(f"tree.far.{level}"):
                batched_far_vortex(
                    tree, moments, layout, kernel, sigma,
                    tree_cfg["order"], True, vel, grad,
                )
            with spans.span(f"tree.near.{level}"):
                batched_near_vortex(
                    tree, charges_sorted, layout, kernel, sigma,
                    True, False, vel, grad,
                )
    out = {
        "tree.build_s": median(spans.durations("tree.build")),
        "tree.moments_s": median(spans.durations("tree.moments")),
    }
    for level, _ in LEVELS:
        for phase in ("traverse", "layout", "far", "near"):
            out[f"tree.{phase}_s.{level}"] = median(
                spans.durations(f"tree.{phase}.{level}")
            )
    return out


def near_share_of_fine(phases: Dict[str, float]) -> float:
    """Near field's share of one fine evaluation (replayed phases)."""
    total = phases["tree.build_s"] + phases["tree.moments_s"] + sum(
        phases[f"tree.{p}_s.fine"]
        for p in ("traverse", "layout", "far", "near")
    )
    return phases["tree.near_s.fine"] / total if total else 0.0


def stats_metrics(level: str, stats) -> Dict[str, float]:
    """Work counts of one evaluation from ``TreeEvaluator.last_stats``."""
    return {
        f"tree.mac_tests.{level}": stats.mac_tests,
        f"tree.far_pairs.{level}": stats.far_pairs,
        f"tree.near_pairs.{level}": stats.near_pairs,
        f"tree.interactions_per_particle.{level}":
            stats.interactions_per_particle,
    }


def sampled_rel_err(
    velocity: np.ndarray, positions: np.ndarray, charges: np.ndarray,
    targets: np.ndarray, sigma: float,
) -> float:
    """Relative L2 error of ``velocity`` (rows = ``targets``) against
    direct summation at those targets."""
    exact = biot_savart_direct(
        positions[targets], positions, charges,
        get_kernel(config.PHYSICS["kernel"]), sigma, gradient=False,
    ).velocity
    return float(np.linalg.norm(velocity - exact) / np.linalg.norm(exact))


def tree_counts_and_error(
    sigma: float, positions: np.ndarray, charges: np.ndarray,
    targets: np.ndarray,
) -> Dict[str, float]:
    """Work counts and sampled accuracy of one fine and one coarse
    evaluation of a captured state."""
    out: Dict[str, float] = {}
    for (level, _), evaluator in zip(LEVELS, make_tree_pair(sigma)):
        field = evaluator.field(positions, charges, gradient=True)
        out.update(stats_metrics(level, evaluator.last_stats))
        out[f"tree.rel_err.{level}"] = sampled_rel_err(
            field.velocity[targets], positions, charges, targets, sigma
        )
    return out


def segment_replay(
    spans: Spans, sigma: float, p_space: int,
    states: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> Dict[str, float]:
    """``segment_field`` per shard on captured states.  Every shard gets
    a fresh evaluator — the worst case of the per-worker caches, where
    each worker rebuilds the tree for its segment."""
    for positions, charges in states:
        for rank in range(p_space):
            evaluator, _ = make_tree_pair(sigma, SpaceParallelTreeEvaluator)
            with spans.span("tree.segment"):
                evaluator.segment_field(positions, charges, rank, p_space)
    times = spans.durations("tree.segment")
    per_state = [times[i:i + p_space] for i in range(0, len(times), p_space)]
    return {
        "tree.segment_s": median(times),
        "tree.shard_imbalance": median(
            [max(shards) * p_space / sum(shards) for shards in per_state]
        ),
    }


def backends_near(
    spans: Spans, sigma: float, positions: np.ndarray, charges: np.ndarray,
) -> Dict[str, float]:
    """Near-field pass of one state under every usable CPU backend."""
    kernel = get_kernel(config.PHYSICS["kernel"])
    tree_cfg = config.TREE
    tree = build_octree(positions, leaf_size=tree_cfg["leaf_size"])
    moments = compute_vortex_moments(tree, charges)
    lists = dual_traversal(tree, tree_cfg["theta_fine"],
                           node_bmax=moments.bmax, variant="bh")
    layout = build_traversal_layout(tree, lists)
    charges_sorted = charges[tree.order]
    out: Dict[str, float] = {}
    for name in usable_backends():
        backend = get_backend(name)
        if backend.device != "cpu":
            continue
        vel = np.zeros((positions.shape[0], 3))
        grad = np.zeros((positions.shape[0], 3, 3))
        with spans.span(f"backends.near.{name}"):
            batched_near_vortex(
                tree, charges_sorted, layout, kernel, sigma,
                True, False, vel, grad, backend=backend,
            )
        out[f"backends.near_s.{name}"] = spans.total(f"backends.near.{name}")
    return out


class _ZeroProblem(ODEProblem):
    """Zero-cost right-hand side: what remains is the sweeper itself."""

    def rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        return np.zeros_like(u)


def sweep_self_us(spans: Spans, n: int, num_nodes: int, dt: float,
                  diagonal: bool, repeats: int = 50) -> Dict[str, float]:
    """One sweep of the workload's sweeper on a zero-cost problem."""
    rule = make_rule(num_nodes, "lobatto")
    problem = _ZeroProblem()
    sweeper = (DiagonalSDCSweeper(problem, rule) if diagonal
               else ExplicitSDCSweeper(problem, rule))
    u0 = np.ones((2, n, 3))
    U, F = sweeper.initialize(0.0, dt, u0)
    for _ in range(repeats):
        with spans.span("sdc.sweep"):
            U, F = sweeper.sweep(0.0, dt, U, F, u0=u0)
    return {"sdc.sweep_self_us": 1e6 * median(spans.durations("sdc.sweep"))}


def transfer_and_fas_us(spans: Spans, n: int, fine_nodes: int,
                        coarse_nodes: int, dt: float,
                        repeats: int = 50) -> Dict[str, float]:
    """Restriction + interpolation and the FAS correction, standalone on
    workload-sized node arrays."""
    transfer = TimeSpaceTransfer(make_rule(fine_nodes), make_rule(coarse_nodes))
    rng = np.random.default_rng(0)
    fine = rng.standard_normal((fine_nodes, 2, n, 3))
    for _ in range(repeats):
        with spans.span("pfasst.transfer"):
            coarse = transfer.restrict_nodes(fine)
            transfer.interpolate_nodes(coarse)
        with spans.span("pfasst.fas"):
            fas_correction(dt, transfer, fine, coarse)
    return {
        "pfasst.transfer_us":
            1e6 * median(spans.durations("pfasst.transfer")),
        "pfasst.fas_us": 1e6 * median(spans.durations("pfasst.fas")),
    }


def checkpoint_io(spans: Spans, specs: Sequence[LevelSpec], u0: np.ndarray,
                  p_time: int, repeats: int = 5) -> Dict[str, float]:
    """``RunCheckpoint.save`` / ``load`` of a workload-sized snapshot."""
    levels = []
    for spec in specs:
        level = Level(spec)
        level.u0 = u0.copy()
        level.U = np.stack([u0] * spec.num_nodes)
        level.F = np.zeros_like(level.U)
        levels.append(level)
    snapshot = snapshot_levels(levels)
    checkpoint = RunCheckpoint(
        config_digest="e2e-probe", p_time=p_time, block=0, k=0, attempt=0,
        u_block=u0, levels={r: snapshot for r in range(p_time)},
        residuals={r: [0.0] for r in range(p_time)},
        iterations_done=[], total_iterations=[], recoveries=[],
        iters_attempted=1,
    )
    # inside the checkout: the benchmark writes nowhere else
    with tempfile.TemporaryDirectory(
        dir=config.REPO_ROOT, prefix=".e2e_tmp_"
    ) as tmp:
        for _ in range(repeats):
            with spans.span("pfasst.checkpoint_save"):
                path = checkpoint.save(f"{tmp}/probe.ckpt")
        RunCheckpoint.load(path)
        nbytes = path.stat().st_size
    return {
        "pfasst.checkpoint_save_ms":
            1e3 * median(spans.durations("pfasst.checkpoint_save")),
        "pfasst.checkpoint_bytes": nbytes,
    }


def message_us(spans: Spans, n: int, ranks: int = 4,
               rounds: int = 200) -> Dict[str, float]:
    """Scheduler cost per message: a ring send/recv program with
    workload-sized payloads."""
    payload = np.ones((2, n, 3))

    def ring(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        for i in range(rounds):
            yield comm.send(right, ("ring", i), payload)
            yield comm.recv(left, ("ring", i))

    scheduler = Scheduler(ranks)
    with spans.span("parallel.ring"):
        scheduler.run(ring)
    messages = scheduler.metrics.as_dict()["counters"]["mpi.messages"]
    return {"parallel.msg_us": 1e6 * spans.total("parallel.ring") / messages}
