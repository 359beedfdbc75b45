"""Opt-in numerical sanitizers, gated behind ``REPRO_SANITIZE=1``.

:func:`boundary` decorates the hand-off points of the solver pipeline —
RHS evaluation (``vortex/rhs.py``), the synchronous SDC sweep
(``sdc/sweeper.py``: ``ExplicitSDCSweeper.sweep``, which ``SDCStepper``
and the end-to-end probe call), PFASST level transfer
(``pfasst/transfer.py``) and the tree evaluators (``tree/evaluator.py``)
— with NaN/Inf guards and shape contracts built on
:func:`repro.utils.validation.check_array`.  PFASST's ``Level.sweep``
drives the generator ``sweep_gen``, which carries no boundary of its
own: there the RHS and transfer boundaries it calls are the guards.

The decision is taken **at decoration time**: when ``REPRO_SANITIZE`` is
unset (the default), ``boundary(...)`` returns the function object
unchanged, so the shipped hot path carries literally zero overhead (see
``benchmarks/bench_sanitize_overhead.py``).  When the flag is set, every
decorated call validates its declared array arguments and recursively
checks every array in the result for non-finite values, raising
:class:`SanitizeError` at the *first* boundary a NaN/Inf crosses — which
turns "the residuals look wrong after 4 sweeps" into "NaN entered at
``sweep:U``".

Because the gate is evaluated at import time, flipping the flag inside a
running process requires reloading the decorated modules (the tests do
exactly that) or starting a fresh interpreter::

    REPRO_SANITIZE=1 python benchmarks/bench_fig7b_pfasst_accuracy.py
"""

from __future__ import annotations

import functools
import inspect
import os
from typing import Any, Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.metrics import get_metrics
from repro.utils.validation import check_array

__all__ = ["SanitizeError", "enabled", "boundary", "check_payload"]

#: accepted falsy spellings of the environment flag
_FALSY = ("", "0", "false", "off", "no")

ArraySpec = Union[str, Tuple[str, Optional[Sequence[Optional[int]]]]]


class SanitizeError(FloatingPointError):
    """A NaN/Inf or contract violation crossed a sanitized boundary."""


def _record_activation() -> None:
    """Count a tripped sanitizer on the active metrics registry."""
    m = get_metrics()
    if m.enabled:
        m.counter("sanitize.activations").inc()


def enabled() -> bool:
    """True when ``REPRO_SANITIZE`` is set to a truthy value."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() not in _FALSY


def _check(label: str, arr: np.ndarray,
           shape: Optional[Sequence[Optional[int]]]) -> None:
    try:
        check_array(label, arr, shape=shape, finite=True)
    except ValueError as exc:
        _record_activation()
        raise SanitizeError(str(exc)) from None


def _check_result(label: str, value: Any) -> None:
    """Recursively guard every ndarray reachable in a result structure.

    Handles tuples/lists, dicts, and field objects exposing
    ``velocity``/``gradient`` attributes (``VelocityField``).
    """
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and not np.all(np.isfinite(value)):
            bad = int(np.count_nonzero(~np.isfinite(value)))
            _record_activation()
            raise SanitizeError(
                f"{label} produced {bad} non-finite value(s) "
                f"in an array of shape {value.shape}"
            )
        return
    if isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            _check_result(f"{label}[{i}]", item)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            _check_result(f"{label}[{key!r}]", item)
        return
    for attr in ("velocity", "gradient"):
        field = getattr(value, attr, None)
        if isinstance(field, np.ndarray):
            _check_result(f"{label}.{attr}", field)


def check_payload(label: str, value: Any) -> None:
    """Guard a message payload crossing a communication boundary.

    Used by the simulated-MPI scheduler when ``REPRO_SANITIZE=1`` and a
    fault plan is active: every delivered payload is scanned for
    non-finite values (recursively, like the :func:`boundary` result
    check), so a bit flip that produced a NaN/Inf is caught at the
    *receive* boundary — before it pollutes a sweep — and can trigger a
    bounded retransmit instead of a silent wrong answer.  Raises
    :class:`SanitizeError` on the first offending array.
    """
    _check_result(label, value)


def boundary(
    label: str, arrays: Sequence[ArraySpec] = ()
) -> Callable[[Callable], Callable]:
    """Shape/finiteness contract decorator for a pipeline boundary.

    Parameters
    ----------
    label :
        Boundary name used in diagnostics (``"sweep"``, ``"rhs"``, ...).
    arrays :
        Argument names to validate on entry.  A bare string checks
        finiteness only; a ``(name, shape)`` tuple additionally enforces
        a :func:`check_array`-style shape (``None`` entries are
        wildcards).  Arguments that are ``None`` or not arrays are
        skipped, so optional parameters can be listed freely.

    Every ndarray in the return value is guarded too.

    Returns the original function **unchanged** when the sanitizer flag
    is off — a zero-overhead no-op.
    """
    specs: Tuple[Tuple[str, Optional[Sequence[Optional[int]]]], ...] = tuple(
        spec if isinstance(spec, tuple) else (spec, None) for spec in arrays
    )

    def decorate(fn: Callable) -> Callable:
        if not enabled():
            return fn
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            bound = sig.bind_partial(*args, **kwargs)
            for name, shape in specs:
                value = bound.arguments.get(name)
                if isinstance(value, np.ndarray):
                    _check(f"{label}:{name}", value, shape)
            out = fn(*args, **kwargs)
            _check_result(f"{label}:result", out)
            return out

        return wrapper

    return decorate
