"""Durable checkpoint/restart for PFASST runs (ROADMAP item 5).

A :class:`RunCheckpoint` captures everything a ``run_pfasst`` invocation
needs to resume mid-block and reproduce the uninterrupted run *bitwise*:
the per-time-rank level state (U, F, tau, initial values with their
RHS and the restriction snapshots), the block-initial value
``u_block``, residual histories, the attempt counter of the active
block, per-block iteration bookkeeping and a metrics snapshot.  The
container on disk is ``REPROCKPT1 + CRC32 + npz``, written via the
atomic temp-file + fsync + ``os.replace`` path of :mod:`repro.io` — a
driver-process kill can never leave a torn checkpoint, and bit rot is
reported as :class:`~repro.io.CheckpointCorruptionError` instead of
silently wrong state.

The :class:`RunCheckpointer` is a plain in-process object shared by all
rank programs of one scheduler world.  Ranks *contribute* their
iteration-end state with ordinary function calls — no messages, no extra
ops — so attaching a checkpointer leaves the op stream, virtual clocks
and numerics of the run byte-identical to an unobserved run.  Every
iteration is checkpointed: the one for ``(block, k)`` is written once the
slowest rank passes iteration ``k`` (ranks pipeline freely between status
collectives), and each write replaces the previous one.

The solver is deterministic and draws from no RNG, so a checkpoint
holds no generator state (an ``rng_state`` key in older files is ignored).
"""

from __future__ import annotations

import io as _io
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from repro.io import (
    CheckpointCorruptionError,
    read_crc_container,
    write_crc_container,
)
from repro.pfasst.level import Level

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "RunCheckpoint",
    "RunCheckpointer",
    "snapshot_levels",
    "adopt_levels",
]

CHECKPOINT_MAGIC = b"REPROCKPT1"
#: version 2 holds each level's ``f0`` (absent: evaluate it) where
#: version 1 held a ``u0_dirty`` flag; a version-1 file loads with
#: ``f0 = None``
CHECKPOINT_VERSION = 2

PathLike = Union[str, pathlib.Path]

#: per-level array fields captured by :func:`snapshot_levels`
_LEVEL_FIELDS = Level.STATE


def _copy(value: Optional[np.ndarray]) -> Optional[np.ndarray]:
    return None if value is None else np.array(value, copy=True)


def snapshot_levels(levels: List[Any]) -> List[Dict[str, Any]]:
    """Deep-copy the mutable state of a level hierarchy.

    The returned blob is what the grid-recovery row resync broadcasts
    and what checkpoints persist; adopting it via :func:`adopt_levels`
    reproduces the hierarchy bitwise.
    """
    return [{name: _copy(getattr(lv, name)) for name in _LEVEL_FIELDS}
            for lv in levels]


def adopt_levels(levels: List[Any], blob: List[Dict[str, Any]]) -> None:
    """Overwrite a level hierarchy with a :func:`snapshot_levels` blob."""
    if len(levels) != len(blob):
        raise ValueError(
            f"level-state blob has {len(blob)} level(s), hierarchy has "
            f"{len(levels)}"
        )
    for lv, entry in zip(levels, blob):
        for name in _LEVEL_FIELDS:
            setattr(lv, name, _copy(entry[name]))


def _stored(data, key: str) -> Optional[np.ndarray]:
    """The array saved under ``key``; ``None`` was saved as no entry."""
    return data[key].copy() if key in data.files else None


@dataclass
class RunCheckpoint:
    """One durable snapshot of a PFASST run at ``(block, k)``.

    ``levels[rank]`` / ``residuals[rank]`` are per-time-rank;
    ``iterations_done``/``total_iterations``/``recoveries`` cover the
    blocks completed *before* ``block``; ``iters_attempted`` counts
    iteration attempts inside the active block (restarts included).
    """

    config_digest: str
    p_time: int
    block: int
    k: int
    attempt: int
    u_block: np.ndarray
    levels: Dict[int, List[Dict[str, Any]]]
    residuals: Dict[int, List[float]]
    iterations_done: List[int]
    total_iterations: List[int]
    recoveries: List[Dict[str, Any]]
    iters_attempted: int
    metrics: Dict[str, Any] = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    # -- persistence ----------------------------------------------------
    def save(self, path: PathLike) -> pathlib.Path:
        arrays: Dict[str, Any] = {"u_block": self.u_block}
        n_levels = 0
        for rank, blob in self.levels.items():
            n_levels = len(blob)
            arrays[f"r{rank}_residuals"] = np.asarray(
                self.residuals[rank], dtype=np.float64
            )
            for lev, entry in enumerate(blob):
                for name in _LEVEL_FIELDS:
                    value = entry[name]
                    if value is not None:
                        arrays[f"r{rank}_l{lev}_{name}"] = value
        meta = {
            "version": self.version,
            "config_digest": self.config_digest,
            "p_time": self.p_time,
            "block": self.block,
            "k": self.k,
            "attempt": self.attempt,
            "n_levels": n_levels,
            "ranks": sorted(self.levels),
            "iterations_done": list(self.iterations_done),
            "total_iterations": list(self.total_iterations),
            "recoveries": self.recoveries,
            "iters_attempted": self.iters_attempted,
            "metrics": self.metrics,
        }
        arrays["meta"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        buf = _io.BytesIO()
        np.savez_compressed(buf, **arrays)
        return write_crc_container(path, CHECKPOINT_MAGIC, buf.getvalue())

    @classmethod
    def load(cls, path: PathLike) -> "RunCheckpoint":
        payload = read_crc_container(path, CHECKPOINT_MAGIC)
        with np.load(_io.BytesIO(payload), allow_pickle=False) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            if meta["version"] > CHECKPOINT_VERSION:
                raise ValueError(
                    f"run checkpoint {path} has version {meta['version']}; "
                    f"this build reads up to {CHECKPOINT_VERSION}"
                )
            if meta["version"] < 2:
                ranks = [int(r) for r in meta["u0_dirty"]]
            else:
                ranks = meta["ranks"]
            levels: Dict[int, List[Dict[str, Any]]] = {}
            residuals: Dict[int, List[float]] = {}
            for rank in ranks:
                residuals[rank] = [
                    float(x) for x in data[f"r{rank}_residuals"]
                ]
                levels[rank] = [
                    {name: _stored(data, f"r{rank}_l{lev}_{name}")
                     for name in _LEVEL_FIELDS}
                    for lev in range(meta["n_levels"])
                ]
            return cls(
                config_digest=meta["config_digest"],
                p_time=int(meta["p_time"]),
                block=int(meta["block"]),
                k=int(meta["k"]),
                attempt=int(meta["attempt"]),
                u_block=data["u_block"].copy(),
                levels=levels,
                residuals=residuals,
                iterations_done=[int(x) for x in meta["iterations_done"]],
                total_iterations=[int(x) for x in meta["total_iterations"]],
                recoveries=meta["recoveries"],
                iters_attempted=int(meta["iters_attempted"]),
                metrics=meta["metrics"],
                version=int(meta["version"]),
            )


class RunCheckpointer:
    """Collects per-rank iteration-end state and writes checkpoints.

    One instance is shared (in-process) by every rank program of a run.
    ``contribute`` is called by each time rank after finishing iteration
    ``k`` of ``block``; once all ``p_time`` ranks have contributed for
    the same ``(block, k, attempt)``, the bundle is serialised and
    atomically written to ``path`` (each write replaces the previous
    checkpoint).  On the
    space-time grid only the ``s = 0`` column contributes — row state is
    replicated bitwise, so one column describes the whole grid.
    """

    def __init__(
        self,
        path: PathLike,
        p_time: int,
        config_digest: str = "",
        metrics_source: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.p_time = p_time
        self.config_digest = config_digest
        self.metrics_source = metrics_source
        self.writes = 0
        self.last_written: Optional[tuple] = None
        self._pending: Dict[tuple, Dict[int, Dict[str, Any]]] = {}

    def contribute(
        self, rank: int, block: int, k: int, attempt: int,
        state: Dict[str, Any],
    ) -> None:
        """Record rank state for iteration ``k``; write when complete."""
        key = (block, k, attempt)
        bucket = self._pending.setdefault(key, {})
        bucket[rank] = state
        if len(bucket) == self.p_time:
            self._write(key, bucket)
            # contributions at or before the written point are obsolete
            self._pending = {
                pk: pv for pk, pv in self._pending.items() if pk > key
            }

    def _write(self, key: tuple, bucket: Dict[int, Dict[str, Any]]) -> None:
        block, k, attempt = key
        rank0 = bucket[0]
        ckpt = RunCheckpoint(
            config_digest=self.config_digest,
            p_time=self.p_time,
            block=block,
            k=k,
            attempt=attempt,
            u_block=rank0["u_block"],
            levels={r: s["levels"] for r, s in bucket.items()},
            residuals={r: s["residuals"] for r, s in bucket.items()},
            iterations_done=rank0["iterations_done"],
            total_iterations=rank0["total_iterations"],
            recoveries=rank0["recoveries"],
            iters_attempted=rank0["iters_attempted"],
            metrics=(self.metrics_source() if self.metrics_source else {}),
        )
        ckpt.save(self.path)
        self.writes += 1
        self.last_written = key
