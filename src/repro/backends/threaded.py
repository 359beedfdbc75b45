"""Threaded CPU backend — a thread pool over the near-field batches.

The engine's near-field batch closures are write-disjoint (each batch
writes only rows it owns: its groups' targets, or its own rows of a
chunk's buffers, which a serial reduction then adds up) and internally
serial, so running them on a ``ThreadPoolExecutor`` is *bitwise
identical* to the serial reference regardless of scheduling: no
accumulation order changes, only which core runs which batch.  The heavy lifting inside a batch is BLAS
GEMMs and NumPy ufuncs, which release the GIL, so batches genuinely
overlap on multi-core hosts — this is the repo's largest single-node
lever on the ~90%-of-runtime near field.

Worker count resolution: ``REPRO_BACKEND_THREADS`` env var, else
``os.cpu_count()``.  With one worker (or one batch) the pool is skipped
entirely and the serial loop runs — a 1-core CI host pays nothing.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from threading import Lock
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.backends import KernelBackend, register_backend

__all__ = ["ThreadedBackend"]


class ThreadedBackend(KernelBackend):
    """Thread-pool execution of the write-disjoint near-field batches."""

    name = "threaded"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_width = 0
        self._lock = Lock()

    @property
    def workers(self) -> int:
        """Resolved worker count (explicit > env > ``os.cpu_count()``)."""
        if self._max_workers is not None:
            return max(1, int(self._max_workers))
        env = os.environ.get("REPRO_BACKEND_THREADS")
        if env:
            try:
                return max(1, int(env))
            except ValueError:
                raise ValueError(
                    f"REPRO_BACKEND_THREADS must be an integer, got {env!r}"
                ) from None
        return os.cpu_count() or 1

    def _ensure_pool(self, width: int) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None or self._pool_width < width:
                if self._pool is not None:
                    self._pool.shutdown(wait=True)
                self._pool = ThreadPoolExecutor(
                    max_workers=width, thread_name_prefix="repro-backend"
                )
                self._pool_width = width
            return self._pool

    def map_batches(
        self, fn: Callable[[np.ndarray], None], batches: Sequence[np.ndarray]
    ) -> None:
        """Run the batch closures on the pool; exceptions re-raise here.

        Falls back to the serial loop when only one worker or one batch
        exists, so single-core hosts never pay pool overhead.
        """
        batches = list(batches)
        width = min(self.workers, len(batches))
        if width <= 1:
            for b in batches:
                fn(b)
            return
        pool = self._ensure_pool(width)
        # list() drains the iterator so worker exceptions surface at the
        # call site (the engine boundary), not silently in the pool
        list(pool.map(fn, batches))

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info["workers"] = self.workers
        return info


register_backend(ThreadedBackend())
