"""Block and record representation.

A *record* is a ``(key, value)`` pair of 64-bit integers; a *block* is a
NumPy array of shape ``(B, 2)`` holding ``B`` records.  The reserved key
``NULL_KEY`` marks an empty cell (the paper's "null value that is different
from any input value", §3 Loose Compaction).

Blocks are plain ``numpy.int64`` arrays rather than a class so that the hot
paths — scans, compare-exchanges, thinning passes — stay vectorized.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NULL_KEY",
    "KEY",
    "VALUE",
    "RECORD_WIDTH",
    "empty_block",
    "make_block",
    "make_records",
    "is_empty",
    "occupancy",
    "block_occupied",
]

#: Reserved key marking an empty cell.  Chosen as int64 min so that any
#: real key compares strictly greater, and so that accidental arithmetic
#: on it overflows loudly rather than producing a plausible key.
NULL_KEY: int = int(np.iinfo(np.int64).min)

#: Column indices within a record.
KEY: int = 0
VALUE: int = 1
RECORD_WIDTH: int = 2


def empty_block(B: int) -> np.ndarray:
    """Return a fresh block of ``B`` empty cells."""
    block = np.full((B, RECORD_WIDTH), 0, dtype=np.int64)
    block[:, KEY] = NULL_KEY
    return block


def make_block(keys, values=None, B: int | None = None) -> np.ndarray:
    """Build a block from ``keys`` (and optional ``values``), padding to ``B``.

    If ``values`` is omitted, each value defaults to its key — convenient
    for tests where records only need to be distinguishable.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 1:
        raise ValueError(f"keys must be one-dimensional, got shape {keys.shape}")
    if values is None:
        values = keys.copy()
    else:
        values = np.asarray(values, dtype=np.int64)
        if values.shape != keys.shape:
            raise ValueError("keys and values must have identical shapes")
    size = len(keys) if B is None else B
    if len(keys) > size:
        raise ValueError(f"{len(keys)} records do not fit in a block of {size}")
    block = empty_block(size)
    block[: len(keys), KEY] = keys
    block[: len(keys), VALUE] = values
    return block


def make_records(keys, values=None) -> np.ndarray:
    """Build a flat ``(n, 2)`` record array (no padding)."""
    return make_block(keys, values=values, B=None)


def is_empty(cells: np.ndarray) -> np.ndarray:
    """Return a boolean mask of empty cells in a block or record array."""
    return cells[..., KEY] == NULL_KEY


def occupancy(cells: np.ndarray) -> int:
    """Return the number of non-empty cells."""
    return int(np.count_nonzero(~is_empty(cells)))


def block_occupied(block: np.ndarray) -> bool:
    """In-cache test: does the block hold any non-empty record?"""
    return bool(np.any(~is_empty(block)))
