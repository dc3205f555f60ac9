"""Compare-exchange primitives over record arrays.

Records are ``(key, value)`` int64 rows; empty cells carry ``NULL_KEY``.
Throughout the library empties sort as ``+inf`` — the convention the paper
uses ("considering empty cells as holding +inf", §4) so that compaction by
sorting pushes real records to the front.

All primitives are vectorized: a whole round of disjoint comparators is
applied in one NumPy operation.
"""

from __future__ import annotations

import numpy as np

from repro.em.block import KEY, NULL_KEY

__all__ = [
    "EMPTY_SORTS_LAST",
    "order_keys",
    "compare_exchange",
    "sort_records",
]

#: The key empties are mapped to for ordering purposes.  Real keys must be
#: strictly smaller; the library-wide contract is keys in
#: ``(NULL_KEY, EMPTY_SORTS_LAST)``.
EMPTY_SORTS_LAST: int = int(np.iinfo(np.int64).max)


def order_keys(records: np.ndarray) -> np.ndarray:
    """Return sort keys for ``records`` with empties mapped to ``+inf``."""
    keys = records[..., KEY]
    return np.where(keys == NULL_KEY, EMPTY_SORTS_LAST, keys)


def compare_exchange(records: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Apply disjoint comparators in place: ensure key[lo] <= key[hi].

    ``lo`` and ``hi`` are parallel index arrays; each pair must be
    disjoint from every other pair (a single network round).  Empty cells
    sort last.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    keys = order_keys(records)
    swap = keys[lo] > keys[hi]
    if not np.any(swap):
        return
    sl, sh = lo[swap], hi[swap]
    tmp = records[sl].copy()
    records[sl] = records[sh]
    records[sh] = tmp


def sort_records(records: np.ndarray) -> np.ndarray:
    """Return ``records`` sorted by key (empties last).

    This runs inside the client's private memory, so it is free to use a
    fast comparison sort — in-cache computation is invisible to the
    adversary.  The sort is stable: equal keys keep their input order,
    which the order-preserving compaction paths rely on.
    """
    keys = order_keys(records)
    order = np.argsort(keys, kind="stable")
    return records[order]
