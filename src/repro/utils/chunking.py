"""Chunk iteration helpers for cache-friendly O(N^2) kernels.

Direct summation over N targets x N sources builds (chunk, N) distance
matrices; the chunk size bounds the working set so temporaries stay inside
cache instead of thrashing main memory (see the "beware of cache effects"
guidance).
"""

from __future__ import annotations

from typing import Iterator, Tuple


def chunk_ranges(n: int, chunk: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` half-open ranges covering ``range(n)``.

    >>> list(chunk_ranges(5, 2))
    [(0, 2), (2, 4), (4, 5)]
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if chunk <= 0:
        raise ValueError(f"chunk must be > 0, got {chunk}")
    start = 0
    while start < n:
        stop = min(start + chunk, n)
        yield (start, stop)
        start = stop
