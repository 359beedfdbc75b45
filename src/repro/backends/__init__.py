"""The near pass's batch seam: the serial NumPy backend, and a thread pool
kept for the end-to-end benchmark's near-pass probe.

The batched tree engine (:mod:`repro.tree.engine`) cuts its near pass
into *write-disjoint* batches that share only read-only state: an
explicit-branch batch owns the target rows of its groups; in the
expanded branch a chunk of rows runs its distance GEMMs, then its rows'
pieces and its mirror shape classes, as batches that each write only
their own rows of the chunk's buffers, and one serial reduction per
chunk adds those into the targets in a fixed order.
:class:`KernelBackend` runs them in order, one after the other; it is
the engine's only backend.

It stays a class because the engine tests subclass it: ``map_batches``
hands them every batch function and its batches (batch composition,
pass counts), and ``to_device``, the identity here, every operand of
the near body (arrays that count ufunc passes).  ``get_backend``,
``usable_backends`` and :class:`ThreadedBackend` are kept for the
end-to-end benchmark's near-pass probe, which times the pass once per
name of ``usable_backends()`` and declares a ``threaded`` metric;
ROADMAP item 6(e) deletes all three together with that probe.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["KernelBackend", "get_backend", "usable_backends"]


class KernelBackend:
    """Serial execution of the near pass's write-disjoint batches."""

    name: str = "numpy"
    #: always ``"cpu"``; the end-to-end benchmark's near-pass probe reads it
    device: str = "cpu"

    def to_device(self, a: np.ndarray):
        """Hand an operand of the near pass to the batch body (the
        identity; the tests' hook, see the module docstring)."""
        return a

    def map_batches(
        self, fn: Callable[[np.ndarray], None], batches: Sequence[np.ndarray]
    ) -> None:
        """Run ``fn`` once per batch, in order."""
        for b in batches:
            fn(b)


class ThreadedBackend(KernelBackend):
    """The same batches on a thread pool of ``max_workers`` threads
    (default ``os.cpu_count()``).  Batches are write-disjoint and each
    chunk's reduction stays serial, so the result is bitwise the serial
    pass's; only the probe selects it."""

    name = "threaded"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.workers = max(1, max_workers or os.cpu_count() or 1)
        self._pool: Optional[ThreadPoolExecutor] = None

    def map_batches(
        self, fn: Callable[[np.ndarray], None], batches: Sequence[np.ndarray]
    ) -> None:
        """Run the batches on the pool (serially for one worker or one
        batch); a batch's exception re-raises here."""
        batches = list(batches)
        if self.workers == 1 or len(batches) <= 1:
            super().map_batches(fn, batches)
            return
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                self.workers, thread_name_prefix="repro-backend"
            )
        list(self._pool.map(fn, batches))


_BACKENDS = {b.name: b for b in (KernelBackend(), ThreadedBackend())}


def usable_backends() -> Tuple[str, ...]:
    """Names :func:`get_backend` resolves: ``("numpy", "threaded")``."""
    return tuple(_BACKENDS)


def get_backend(
    name: Union[str, KernelBackend, None] = None,
) -> KernelBackend:
    """The backend of that name, one instance each (``None`` is
    ``"numpy"``); an instance passes through.  Any other name raises
    ``ValueError``."""
    if isinstance(name, KernelBackend):
        return name
    backend = _BACKENDS.get("numpy" if name is None else name)
    if backend is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; valid names: "
            f"{', '.join(usable_backends())}"
        )
    return backend
