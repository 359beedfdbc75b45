"""Small shared utilities: chunk iteration, validation helpers."""

from repro.utils.chunking import chunk_ranges
from repro.utils.validation import (
    check_positive,
    check_nonnegative,
    check_array,
    check_in,
)

__all__ = [
    "chunk_ranges",
    "check_positive",
    "check_nonnegative",
    "check_array",
    "check_in",
]
