"""Small shared utilities: chunk iteration, validation helpers."""

from repro.utils.chunking import chunk_ranges, chunk_pairs_budget
from repro.utils.validation import (
    check_positive,
    check_nonnegative,
    check_array,
    check_in,
)

__all__ = [
    "chunk_ranges",
    "chunk_pairs_budget",
    "check_positive",
    "check_nonnegative",
    "check_array",
    "check_in",
]
