"""Argument validation helpers with consistent error messages."""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np


def check_positive(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value > 0``; return the value."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value >= 0``; return the value."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def uniform_step_count(t0: float, t_end: float, dt: float) -> int:
    """Number of steps of size ``dt`` from ``t0`` to ``t_end``.

    Raises ``ValueError`` unless ``dt > 0``, ``t_end >= t0`` and the
    span is an integer multiple of ``dt`` (to round-off).
    """
    check_positive("dt", dt)
    span = t_end - t0
    if span < 0:
        raise ValueError(f"t_end {t_end} must be >= t0 {t0}")
    n_steps = int(round(span / dt))
    if abs(n_steps * dt - span) > 1e-9 * max(1.0, span):
        raise ValueError(
            f"interval length {span} is not an integer multiple of dt={dt}"
        )
    return n_steps


def check_in(name: str, value: Any, allowed: Iterable[Any]) -> Any:
    """Raise ``ValueError`` unless ``value`` is one of ``allowed``."""
    allowed = tuple(allowed)
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
    return value


def check_array(
    name: str,
    arr: np.ndarray,
    shape: Sequence[int | None] | None = None,
    dtype: Any = None,
    finite: bool = False,
) -> np.ndarray:
    """Validate shape / dtype / finiteness of an ndarray.

    ``shape`` entries of ``None`` (or ``-1``) are wildcards matching any
    extent — ``shape=(None, 3)`` is the tree engine's "any number of 3D
    points" contract.  Every failing axis is reported in a *single*
    ``ValueError`` so a caller sees the whole mismatch at once instead of
    fixing axes one traceback at a time.  ``dtype`` converts via
    ``np.asarray`` (no copy when already compatible); ``finite=True``
    additionally rejects NaN/Inf entries, reporting how many and where
    the first one sits.
    """
    arr = np.asarray(arr, dtype=dtype)
    if shape is not None:
        want_shape = tuple(
            None if (w is None or w == -1) else int(w) for w in shape
        )
        if arr.ndim != len(want_shape):
            raise ValueError(
                f"{name} must have ndim {len(want_shape)}, got shape {arr.shape}"
            )
        problems = [
            f"axis {axis} must have length {want}"
            for axis, want in enumerate(want_shape)
            if want is not None and arr.shape[axis] != want
        ]
        if problems:
            rendered = tuple("any" if w is None else w for w in want_shape)
            raise ValueError(
                f"{name} {'; '.join(problems)}, got shape {arr.shape} "
                f"(expected {rendered})"
            )
    if finite:
        finite_mask = np.isfinite(arr)
        if not np.all(finite_mask):
            n_bad = int(arr.size - np.count_nonzero(finite_mask))
            first = (
                np.unravel_index(
                    int(np.argmin(finite_mask.reshape(-1))), arr.shape
                )
                if arr.ndim else ()
            )
            raise ValueError(
                f"{name} contains {n_bad} non-finite value(s); "
                f"first at index {tuple(int(i) for i in first)}"
            )
    return arr

