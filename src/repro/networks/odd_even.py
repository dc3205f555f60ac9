"""Batcher's odd-even mergesort network.

Like the bitonic network this sorts with ``O(log^2 n)`` rounds, but every
comparator is already oriented min-to-lower-index, which makes it the
natural schedule for the *merge-split on runs* construction used by the
Lemma-2-style external oblivious sort (see
:mod:`repro.core.external_sort`): replacing each comparator by an
oblivious merge-split of two sorted runs turns a network sorting ``n``
items into an algorithm sorting ``n`` runs (Knuth, §5.3.4).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from repro.em.block import NULL_KEY, RECORD_WIDTH
from repro.networks.comparator import compare_exchange
from repro.util.mathx import is_pow2, next_pow2

__all__ = ["batcher_pairs", "batcher_sort"]


#: Largest network size whose rounds are kept for reuse.  Up to here the
#: rounds of every size take about 0.1 MB together, and small sorts are
#: the ones that run often; a larger network costs O(n log^2 n) words to
#: keep but little next to the sort that uses it, so it is rebuilt.
_SHARED_MAX = 256


def batcher_pairs(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield rounds of Batcher's odd-even mergesort for ``n`` (power of 2).

    Uses the classic iterative formulation; each round's comparators are
    disjoint and all point min-to-``lo``.  Rounds of sizes up to
    ``_SHARED_MAX`` are built once and shared, so they are read-only.
    """
    if not is_pow2(n):
        raise ValueError(f"odd-even mergesort requires a power-of-two size, got {n}")
    yield from _shared_rounds(n) if n <= _SHARED_MAX else _rounds(n)


@lru_cache(maxsize=None)
def _shared_rounds(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    rounds = tuple(_rounds(n))
    for lo, hi in rounds:
        lo.flags.writeable = hi.flags.writeable = False
    return rounds


def _rounds(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    p = 1
    while p < n:
        k = p
        while k >= 1:
            # Comparators (i + j, i + j + k) for j = k % p, k % p + 2k, ...
            # and i < k, kept when both ends lie in one block of 2p (which
            # also keeps i + j + k < n, as n is a multiple of 2p).
            j = np.arange(k % p, n - k, 2 * k, dtype=np.int64)
            lo = (j[:, None] + np.arange(k, dtype=np.int64)).reshape(-1)
            lo = lo[lo // (2 * p) == (lo + k) // (2 * p)]
            if len(lo):
                yield lo, lo + k
            k //= 2
        p *= 2


def batcher_sort(records: np.ndarray) -> np.ndarray:
    """Sort a record array with Batcher's network (returns a new array)."""
    records = np.asarray(records, dtype=np.int64)
    n = len(records)
    if n <= 1:
        return records.copy()
    size = next_pow2(n)
    work = np.full((size, RECORD_WIDTH), 0, dtype=np.int64)
    work[:, 0] = NULL_KEY
    work[:n] = records
    for lo, hi in batcher_pairs(size):
        compare_exchange(work, lo, hi)
    return work[:n]
