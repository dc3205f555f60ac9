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

Run formation and each stage of the network go through the batched
engine (:meth:`repro.em.machine.EMMachine.io_rounds`) as one call per
chunk of at most ``_CHUNK_FLOOR`` staged blocks.  Round ``c`` of the
call is comparator ``c`` (run ``c`` in run formation), and its streams
are that comparator's scalar events in order — every atom of each run,
the side-car then each array, read, then the same positions written
back — so the trace is the per-comparator loop's, event for event.  The
engine performs all of a call's reads before any of its writes, and that
still yields the loop's values: the runs of one stage's comparators are
disjoint (as are the runs of run formation), so no comparator reads what
another in the same call writes.  The in-cache sort is one stable
``np.lexsort`` over the call's ``(comparators, atoms)`` key matrix,
which breaks ties exactly as a per-comparator sort does.

Such a call has ``2 * sides * R * (arrays + 1)`` streams, and the engine
pays Python time per stream.  A stage with fewer comparators than ``R``
(few, long runs: a large cache or a short sort) therefore uses the
per-comparator form instead: one call per run to read it and one to
write it back, each with rounds over the run's atoms.  Both forms emit
the same events, so the choice — a function of public sizes only —
never shows in the trace.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.em.batch import _CHUNK_FLOOR, empty_blocks, hold_scan, scan_chunks
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
    num_blocks: int | None = None,
    run_blocks: int | None = None,
) -> None:
    """Sort blocks in place across one or more parallel arrays.

    ``arrays[0]`` carries the key (extracted by ``key_fn``); any further
    arrays are permuted identically.  All arrays must have at least
    ``num_blocks`` blocks (default: the length of the first array).
    """
    if not arrays:
        raise ValueError("need at least one array to sort")
    n = arrays[0].num_blocks if num_blocks is None else num_blocks
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

    def sort_stage(sides: list[np.ndarray]) -> None:
        """Sort in cache the runs of each comparator of one stage.

        Comparator ``c`` covers the runs ``side[c]`` of each side (one
        side in run formation, two in a merge-split).  Atoms sort stably
        by (pad flag, key), read from their side-car.
        """
        if len(sides[0]) < R:
            # Each io_rounds stream costs Python time, and the batched form
            # below has 2 * sides * R * width streams per call: with fewer
            # comparators than R it loses to one call per run and phase,
            # whose rounds are the run's atoms.
            for c in range(len(sides[0])):
                runs = [(int(s[c]) * R, int(s[c]) * R + R) for s in sides]
                got = [machine.io_rounds([("r", col, run) for col in cols]) for run in runs]
                data = [np.concatenate(parts) for parts in zip(*got)]
                order = np.lexsort((data[0][:, 0, 0], data[0][:, 0, 1]))
                for k, run in enumerate(runs):
                    part = order[k * R : (k + 1) * R]
                    machine.io_rounds(
                        [("w", col, run, data[t][part]) for t, col in enumerate(cols)]
                    )
            return
        # Otherwise one call takes as many comparators as stage at most
        # _CHUNK_FLOOR blocks.  Round c of the call is comparator c, and
        # its streams are that comparator's scalar events in order: each
        # atom of each side, side-car then arrays, read; then the same
        # positions written back with the atoms in sorted order.
        cap = max(1, _CHUNK_FLOOR // (len(sides) * R * width))
        for lo, hi in scan_chunks(machine, len(sides[0]), cap=cap):
            positions = [s[lo:hi] * R + i for s in sides for i in range(R)]
            reads = [("r", col, pos) for pos in positions for col in cols]
            done: list = []

            def sorted_col(got: list, t: int) -> np.ndarray:
                """Column ``t`` as a ``(comparators, atoms, B, 2)`` stack
                whose rows are sorted."""
                if not done:
                    stacks = [
                        np.stack(got[u : len(reads) : width], axis=1)
                        for u in range(width)
                    ]
                    C, A = stacks[0].shape[:2]
                    order = np.lexsort(
                        (stacks[0][:, :, 0, 0], stacks[0][:, :, 0, 1]), axis=-1
                    )
                    order += np.arange(0, C * A, A)[:, None]
                    done.extend(x.reshape(C * A, B, RECORD_WIDTH)[order] for x in stacks)
                return done[t]

            writes = [
                ("w", col, pos, lambda got, a=a, t=t: sorted_col(got, t)[:, a])
                for a, pos in enumerate(positions)
                for t, col in enumerate(cols)
            ]
            machine.io_rounds(reads + writes)

    # Phase 1: sort each run in cache.
    with machine.cache.hold(R * width):
        sort_stage([np.arange(num_runs, dtype=np.int64)])

    # Phase 2: Batcher merge-split over runs.
    if num_runs > 1:
        with machine.cache.hold(2 * R * width):
            for los, his in batcher_pairs(next_pow2(num_runs)):
                real = his < num_runs  # a virtual all-pad run is a no-op
                sort_stage([los[real], his[real]])

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
