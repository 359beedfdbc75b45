"""Checkpoint I/O for particle states.

Long vortex-method runs (and the paper-scale benchmark configurations)
need restartable state.  Particle systems are stored as compressed ``.npz``
archives with a format version.

Durability contract (shared by the particle checkpoints here and the
PFASST :class:`~repro.pfasst.checkpoint.RunCheckpoint` container built on
:func:`atomic_write_bytes`):

* every write goes to a temp file in the destination directory, is
  flushed and ``fsync``'d, then moved into place with ``os.replace`` —
  a reader never observes a half-written checkpoint, only the old or the
  new one;
* payload bytes carry a CRC32 so truncation or bit rot is reported as a
  :class:`CheckpointCorruptionError` with a clear message instead of a
  cryptic decoder traceback (or, worse, silently wrong arrays).
"""

from __future__ import annotations

import io as _io
import os
import pathlib
import tempfile
import zipfile
import zlib
from typing import Any, Union

import numpy as np

from repro.vortex.particles import ParticleSystem

__all__ = [
    "save_particles",
    "load_particles",
    "CheckpointCorruptionError",
    "atomic_write_bytes",
    "write_crc_container",
    "read_crc_container",
]

#: version 3 drops the ``metadata`` entry of version 2, which loads with
#: that entry ignored
_FORMAT_VERSION = 3

PathLike = Union[str, pathlib.Path]


class CheckpointCorruptionError(RuntimeError):
    """A checkpoint file is truncated or fails its CRC check."""


# ---------------------------------------------------------------------------
# durable low-level primitives
# ---------------------------------------------------------------------------
def atomic_write_bytes(path: PathLike, payload: bytes) -> pathlib.Path:
    """Write ``payload`` to ``path`` atomically (temp + fsync + replace).

    The temp file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem rename — atomic on POSIX.  A
    crash at any point leaves either the previous file or the new one,
    never a torn write.
    """
    path = pathlib.Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def write_crc_container(
    path: PathLike, magic: bytes, payload: bytes
) -> pathlib.Path:
    """Atomically write ``magic + crc32(payload) + payload`` to ``path``."""
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    blob = magic + crc.to_bytes(4, "big") + payload
    return atomic_write_bytes(path, blob)


def read_crc_container(path: PathLike, magic: bytes) -> bytes:
    """Read a CRC container; raise :class:`CheckpointCorruptionError` on
    a bad magic, truncation, or CRC mismatch."""
    path = pathlib.Path(path)
    blob = path.read_bytes()
    header = len(magic) + 4
    if len(blob) < header or not blob.startswith(magic):
        raise CheckpointCorruptionError(
            f"checkpoint {path} is truncated or not a "
            f"{magic.decode('ascii', 'replace')} container "
            f"({len(blob)} byte(s) read)"
        )
    stored = int.from_bytes(blob[len(magic):header], "big")
    payload = blob[header:]
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if stored != actual:
        raise CheckpointCorruptionError(
            f"checkpoint {path} failed its CRC check "
            f"(stored {stored:#010x}, computed {actual:#010x}); the file "
            "is corrupt — restore from an earlier checkpoint"
        )
    return payload


def _npz_bytes(**arrays: Any) -> bytes:
    buf = _io.BytesIO()
    np.savez_compressed(buf, **arrays)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# particle checkpoints
# ---------------------------------------------------------------------------
def save_particles(
    path: PathLike, ps: ParticleSystem, time: float = 0.0
) -> pathlib.Path:
    """Write a particle system (and simulation time) to ``path`` (.npz).

    The write is atomic (temp file + fsync + ``os.replace``) and the
    archive embeds a CRC32 over the array bytes, checked on load.
    """
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    crc = _particles_crc(ps.positions, ps.vorticity, ps.volumes, time)
    payload = _npz_bytes(
        format_version=np.int64(_FORMAT_VERSION),
        time=np.float64(time),
        positions=ps.positions,
        vorticity=ps.vorticity,
        volumes=ps.volumes,
        crc=np.uint32(crc),
    )
    atomic_write_bytes(path, payload)
    return path


def _particles_crc(
    positions: np.ndarray, vorticity: np.ndarray, volumes: np.ndarray,
    time: float,
) -> int:
    crc = zlib.crc32(np.float64(time).tobytes())
    for arr in (positions, vorticity, volumes):
        crc = zlib.crc32(np.ascontiguousarray(arr).tobytes(), crc)
    return crc & 0xFFFFFFFF


def load_particles(path: PathLike) -> tuple[ParticleSystem, float]:
    """Read a particle checkpoint; returns ``(system, time)``.

    Raises :class:`CheckpointCorruptionError` when the file is truncated
    (not a readable archive) or its stored CRC does not match the array
    bytes; :class:`ValueError` for format versions newer than this build.
    """
    path = pathlib.Path(path)
    try:
        # an empty file or one that is no archive would reach np.load's
        # raw EOFError / "pickled data" ValueError
        with open(path, "rb") as fh:
            if not zipfile.is_zipfile(fh):
                raise zipfile.BadZipFile("not a zip archive")
        with np.load(path, allow_pickle=False) as data:
            version = int(data["format_version"])
            if version > _FORMAT_VERSION:
                raise ValueError(
                    f"checkpoint {path} has format version {version}; "
                    f"this build reads up to {_FORMAT_VERSION}"
                )
            ps = ParticleSystem(
                data["positions"].copy(),
                data["vorticity"].copy(),
                data["volumes"].copy(),
            )
            time = float(data["time"])
            stored_crc = int(data["crc"]) if "crc" in data.files else None
    except (zipfile.BadZipFile, zlib.error, OSError, KeyError) as exc:
        # np.load raises BadZipFile on a truncated archive
        raise CheckpointCorruptionError(
            f"particle checkpoint {path} is truncated or unreadable "
            f"({exc}); the write may have been interrupted before this "
            "build's atomic-rename path, or the file is damaged"
        ) from exc
    if stored_crc is not None:
        actual = _particles_crc(ps.positions, ps.vorticity, ps.volumes, time)
        if stored_crc != actual:
            raise CheckpointCorruptionError(
                f"particle checkpoint {path} failed its CRC check "
                f"(stored {stored_crc:#010x}, computed {actual:#010x}); "
                "the array bytes are corrupt"
            )
    return ps, time
