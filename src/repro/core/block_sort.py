"""Oblivious sorting of whole blocks by a hidden per-block key.

Several substrates (the square-root ORAM's rebuild, the loose compaction
tail, the standalone failure sweep) need to sort *blocks* — treating
each block as one atom — by a key stored *inside* the block (hence
hidden from the adversary).

The construction mirrors the record-level Lemma-2 sort
(:mod:`repro.core.external_sort`) one level up:

1. **Run formation** — read runs of ``R`` atoms into cache, sort them
   privately, write back.
2. **Merge-split network** — Batcher's odd-even mergesort over the runs;
   each comparator reads both runs, sorts their ``2R`` atoms in cache,
   and writes the low half to the first run and the high half to the
   second.

Cost: ``O(n (1 + log^2(n / R)))`` block I/Os per input array.  ``R`` is
sized so one comparator (two runs of every parallel array plus the key
side-car) fits in private memory, so a bigger cache means fewer I/Os —
the cache-awareness the loose-compaction analysis (Theorem 8) relies on.

Parallel arrays are permuted identically (a (meta, payload) pair stays
aligned): internally every atom drags one side-car key block that is
filled by ``key_fn`` once at the start; padding atoms carry an explicit
"pad" flag and sort last.

Run formation and each stage of the network go through
:func:`repro.core.external_sort.sort_stage`, the stage runner this sort
shares with the Lemma-2 sort: one engine call per chunk of comparators
(runs, in run formation), with one read and one write stream per column
— the key side-car, then each array.  Round ``c`` is comparator ``c``,
so a comparator's events run column by column: it reads the side-car's
runs, then each array's, and writes them back in the same order, the
trace of a per-comparator loop that moves one column at a time.  The
in-cache sort is one stable ``np.lexsort`` over the call's
``(comparators, atoms)`` key matrix, which breaks ties exactly as a
per-comparator sort does.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.external_sort import sort_stage
from repro.em.batch import empty_blocks, hold_scan, scan_chunks
from repro.em.block import RECORD_WIDTH
from repro.em.machine import EMMachine
from repro.em.storage import EMArray
from repro.networks.odd_even import batcher_pairs
from repro.util.mathx import ceil_div, next_pow2

__all__ = ["oblivious_block_sort"]

#: Extracts the sort key from a block, in cache.  Default: the key of the
#: block's first record.
KeyFn = Callable[[np.ndarray], int]


def _default_key(block: np.ndarray) -> int:
    return int(block[0, 0])


def oblivious_block_sort(
    machine: EMMachine,
    arrays: Sequence[EMArray],
    *,
    key_fn: KeyFn = _default_key,
    run_blocks: int | None = None,
) -> None:
    """Sort blocks in place across one or more parallel arrays.

    ``arrays[0]`` carries the key (extracted by ``key_fn``); any further
    arrays are permuted identically.  All arrays must have at least as
    many blocks as the first, whose length is the sort length.
    """
    if not arrays:
        raise ValueError("need at least one array to sort")
    n = arrays[0].num_blocks
    for arr in arrays:
        if arr.num_blocks < n:
            raise ValueError(
                f"array {arr.name!r} shorter ({arr.num_blocks}) than sort length {n}"
            )
    if n <= 1:
        return
    width = len(arrays) + 1  # payload arrays plus the key side-car
    m = machine.cache.capacity_blocks
    B = machine.B
    if run_blocks is None:
        # No point in runs longer than the data itself.
        run_blocks = max(1, min(n, (m - 2) // (2 * width)))
    R = run_blocks
    if 2 * R * width > m:
        raise ValueError(
            f"run_blocks={R} with {len(arrays)} arrays needs "
            f"{2 * R * width} cache blocks; only {m} available"
        )
    num_runs = ceil_div(n, R)
    size = num_runs * R
    T = len(arrays)

    # Working copies (padded to whole runs) plus the key side-car.
    work = [machine.alloc(size, f"{arr.name}.bsort") for arr in arrays]
    keys = machine.alloc(size, f"{arrays[0].name}.bsort.key")
    with machine.cache.hold(width):
        for lo, hi in scan_chunks(machine, n, streams=2 * T + 1):
            with hold_scan(machine, 2 * T + 1, hi - lo):
                idx = (lo, hi)

                def key_blocks(reads, k=hi - lo):
                    primary = reads[0]
                    if key_fn is _default_key:
                        kvals = primary[:, 0, 0]
                    else:
                        kvals = np.array(
                            [int(key_fn(b)) for b in primary], dtype=np.int64
                        )
                    kb = empty_blocks(k, B)
                    kb[:, 0, 0] = kvals
                    kb[:, 0, 1] = 0  # real atom
                    return kb

                steps: list = [("r", arrays[0], idx), ("w", work[0], idx, lambda r: r[0])]
                for t in range(1, T):
                    steps.append(("r", arrays[t], idx))
                    steps.append(
                        ("w", work[t], idx, lambda r, s=2 * t: r[s])
                    )
                steps.append(("w", keys, idx, key_blocks))
                machine.io_rounds(steps)
        for lo, hi in scan_chunks(machine, size - n, streams=T + 1):
            with hold_scan(machine, T + 1, hi - lo):
                idx = (n + lo, n + hi)
                k = hi - lo
                pad_kb = empty_blocks(k, B)
                pad_kb[:, 0, 0] = 0
                pad_kb[:, 0, 1] = 1  # pad atom: sorts last
                steps = [("w", w, idx, empty_blocks(k, B)) for w in work]
                steps.append(("w", keys, idx, pad_kb))
                machine.io_rounds(steps)

    cols = [keys, *work]  # one atom: its key side-car, then each array

    def sort_atoms(stacks: list[np.ndarray]) -> list[np.ndarray]:
        """Atoms sort stably by (pad flag, key), read from their side-car."""
        C, A = stacks[0].shape[:2]
        order = np.lexsort((stacks[0][:, :, 0, 0], stacks[0][:, :, 0, 1]), axis=-1)
        order += np.arange(0, C * A, A)[:, None]
        return [x.reshape(C * A, B, RECORD_WIDTH)[order] for x in stacks]

    # Phase 1: sort each run in cache.
    with machine.cache.hold(R * width):
        sort_stage(machine, cols, R, [np.arange(num_runs, dtype=np.int64)], sort_atoms)

    # Phase 2: Batcher merge-split over runs.
    if num_runs > 1:
        with machine.cache.hold(2 * R * width):
            for los, his in batcher_pairs(next_pow2(num_runs)):
                real = his < num_runs  # a virtual all-pad run is a no-op
                sort_stage(machine, cols, R, [los[real], his[real]], sort_atoms)

    # Copy the first n atoms back.
    for lo, hi in scan_chunks(machine, n, streams=2 * T):
        with hold_scan(machine, 2 * T, hi - lo):
            idx = (lo, hi)
            steps = []
            for t in range(T):
                steps.append(("r", work[t], idx))
                steps.append(("w", arrays[t], idx, lambda r, s=2 * t: r[s]))
            machine.io_rounds(steps)
    for w in work:
        machine.free(w)
    machine.free(keys)
