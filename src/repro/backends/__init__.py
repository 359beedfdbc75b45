"""Kernel-execution backends for the batched tree engine.

The batched tree engine (:mod:`repro.tree.engine`) cuts its near pass
into *write-disjoint* batches that share only read-only state: an
explicit-branch batch owns the target rows of its groups; in the
expanded branch a chunk of rows runs its distance GEMMs, then its rows'
pieces and its mirror shape classes, as batches that each write only
their own rows of the chunk's buffers, and one serial reduction per
chunk adds those into the targets in a fixed order.  A
:class:`KernelBackend` decides how the batches are run:

``numpy``
    The reference — the base class itself: a serial in-order loop over
    the batches.  Every equivalence statement in the test suite is
    anchored to it.
``threaded``
    stdlib ``ThreadPoolExecutor`` over the batches
    (:mod:`repro.backends.threaded`).  Batches write disjoint rows and
    each is internally serial, and every sum over batches is the
    engine's serial reduction, so the result is *bitwise identical* to
    ``numpy`` regardless of thread scheduling; the GEMMs release the
    GIL, so batches overlap on multi-core hosts.  Worker count:
    ``REPRO_BACKEND_THREADS`` or ``os.cpu_count()``.

Selection (:func:`get_backend`): an explicit name or instance wins, then
the ``REPRO_BACKEND`` environment variable, then ``numpy``.

``to_device`` is the test hook: the near-field pass hands its
operands through it, the identity on both shipped backends, so a test
backend can substitute arrays that count ufunc passes (the near body's
pass budget) without touching the engine.

Backends pickle as their registry name (``__reduce__``), so a
:class:`~repro.tree.TreeEvaluator` configured with one survives
dispatch into :class:`~repro.parallel.executor.ProcessExecutor`
workers, which re-resolve it on arrival.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "ENV_VAR",
    "DEFAULT_BACKEND",
    "KernelBackend",
    "register_backend",
    "usable_backends",
    "get_backend",
]

#: environment variable consulted when no explicit backend is given
ENV_VAR = "REPRO_BACKEND"
#: the reference backend every equivalence statement is anchored to
DEFAULT_BACKEND = "numpy"


class KernelBackend:
    """Execution strategy for the batched near pass.

    The base class is the ``numpy`` reference backend: a serial loop
    over batches.  Subclasses override the class attributes and
    whichever hooks differ.  Instances are registered singletons;
    identity comparisons (``backend is get_backend("numpy")``) are valid
    within a process, and pickling reduces to the registry name so the
    same identity is re-established across process boundaries.
    """

    #: registry name (also the ``REPRO_BACKEND`` value)
    name: str = "numpy"
    #: always ``"cpu"``; the end-to-end benchmark's near-pass probe reads it
    device: str = "cpu"

    def to_device(self, a: np.ndarray):
        """Hand an operand of the near pass to the batch body (the
        identity; the test hook, see the module docstring)."""
        return a

    # -- execution strategy -------------------------------------------------
    def map_batches(
        self, fn: Callable[[np.ndarray], None], batches: Sequence[np.ndarray]
    ) -> None:
        """Run ``fn`` once per batch; batches must be write-disjoint.

        The engine guarantees that distinct batches touch disjoint
        output rows and share only read-only state, so any execution
        order (or overlap) yields bitwise-identical results.  The base
        implementation is the in-order serial loop.
        """
        for b in batches:
            fn(b)

    # -- introspection / plumbing ------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Diagnostic metadata (recorded into benchmark rows)."""
        return {"name": self.name, "device": self.device}

    def __reduce__(self):
        # pickle as the registry name: executor workers re-resolve it
        return (get_backend, (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<KernelBackend {self.name!r} ({self.device})>"


_REGISTRY: Dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Register a backend instance under its ``name`` (last wins)."""
    _REGISTRY[backend.name] = backend
    return backend


def usable_backends() -> Tuple[str, ...]:
    """Names of the registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(
    name: Union[str, KernelBackend, None] = None,
) -> KernelBackend:
    """Resolve a backend: explicit name > ``REPRO_BACKEND`` > ``numpy``.

    Accepts a registry name, an already-resolved :class:`KernelBackend`
    (passed through), or ``None`` for the environment / default
    resolution.  Raises ``ValueError`` with the valid names when the
    name (or a mis-set ``REPRO_BACKEND``) is unknown.
    """
    if isinstance(name, KernelBackend):
        return name
    source = "backend argument"
    if name is None:
        env = os.environ.get(ENV_VAR)
        if env:
            name, source = env, f"environment variable {ENV_VAR}"
        else:
            name = DEFAULT_BACKEND
    backend = _REGISTRY.get(str(name).strip().lower())
    if backend is None:
        raise ValueError(
            f"unknown kernel backend {name!r} (from {source}); "
            f"valid names: {', '.join(usable_backends())}. "
            f"Unset {ENV_VAR} or pass backend= explicitly to override."
        )
    return backend


register_backend(KernelBackend())

# self-registering on import
from repro.backends.threaded import ThreadedBackend  # noqa: E402

__all__ += ["ThreadedBackend"]
