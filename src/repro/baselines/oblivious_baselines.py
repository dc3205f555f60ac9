"""Oblivious strawman baselines.

``bitonic_external_sort`` applies the full bitonic network at block
granularity with *no* cache-aware run formation — the naive oblivious
sort whose extra log factors Theorem 21 removes.  ``sort_then_pick`` is
selection by full sorting, the natural baseline Theorem 13's ``O(N/B)``
selection beats.
"""

from __future__ import annotations

import numpy as np

from repro.core.external_sort import oblivious_external_sort
from repro.core.selection import select_sorted_em
from repro.em.block import RECORD_WIDTH
from repro.em.machine import EMMachine
from repro.em.storage import EMArray
from repro.networks.bitonic import bitonic_pairs
from repro.networks.comparator import sort_records
from repro.util.mathx import next_pow2

__all__ = ["bitonic_external_sort", "sort_then_pick"]


def bitonic_external_sort(machine: EMMachine, A: EMArray) -> EMArray:
    """Sort with the raw bitonic network over blocks: ``O(n log^2 n)``
    block I/Os with a base-2 (cache-oblivious, cache-*wasting*) schedule.

    Each block is first sorted internally; each network comparator then
    merge-splits one pair of blocks.  The access pattern is a fixed
    function of the array length — fully data-oblivious, just slow.
    """
    n = A.num_blocks
    B = machine.B
    out = machine.alloc(max(1, next_pow2(n)), f"{A.name}.bitonic")
    with machine.cache.hold(2):
        for j in range(out.num_blocks):
            if j < n:
                block = machine.read(A, j)
                machine.write(out, j, sort_records(block))
            else:
                pad = np.full((B, RECORD_WIDTH), 0, dtype=np.int64)
                pad[:, 0] = np.iinfo(np.int64).min
                machine.write(out, j, pad)
    size = out.num_blocks
    if size > 1:
        with machine.cache.hold(2):
            for los, his in bitonic_pairs(size):
                for a, b in zip(los.tolist(), his.tolist()):
                    ba = machine.read(out, a)
                    bb = machine.read(out, b)
                    merged = sort_records(np.concatenate([ba, bb]))
                    machine.write(out, a, merged[:B])
                    machine.write(out, b, merged[B:])
    return out


def sort_then_pick(
    machine: EMMachine,
    A: EMArray,
    n_items: int,
    k: int,
) -> tuple[int, int]:
    """Selection baseline: oblivious full sort, then scan to rank ``k``."""
    if not (1 <= k <= n_items):
        raise ValueError(f"rank k={k} out of range [1, {n_items}]")
    sorted_arr = oblivious_external_sort(machine, A)
    try:
        return select_sorted_em(machine, sorted_arr, n_items, k)
    finally:
        machine.free(sorted_arr)
