"""Deterministic data-oblivious external-memory sort (the paper's Lemma 2).

The paper invokes the Goodrich–Mitzenmacher deterministic oblivious sort
using ``O((N/B) log^2_{M/B}(N/B))`` I/Os as a black box.  We implement the
classical equivalent with the same log-squared shape:

1. **Run formation** — read runs of ``R = floor((m - 2) / 2)`` blocks into
   cache, sort them privately, write them back (``O(N/B)`` I/Os; in-cache
   computation is invisible to the adversary).
2. **Merge-split network** — apply Batcher's odd-even mergesort over the
   runs, where each comparator reads both runs into cache, merges their
   records, and writes the low half back to the first run and the high
   half to the second.  Replacing compare-exchange by merge-split turns a
   network that sorts ``k`` keys into one that sorts ``k`` sorted runs
   (Knuth §5.3.4), and every comparator's I/O pattern is fixed.

Total: ``O((N/B) (1 + log^2(N/M)))`` I/Os, data-oblivious because both
phases' access sequences are fixed functions of ``(N, M, B)``.

Empty cells sort last (as ``+inf``), so sorting doubles as tight
order-destroying compaction; sorting by unique keys (e.g. original
positions) makes it order-preserving.

Run formation is one engine call per chunk of runs, with two wide
streams: round ``c`` reads the blocks of run ``c`` that the input holds
and writes run ``c`` of the output (the last run, partial when ``R``
does not divide the input, is a narrower call of its own).  Each stage of
the network goes through :func:`sort_stage`, the stage runner this sort
shares with the block sort (:mod:`repro.core.block_sort`); with this
sort's one array, a stage is one call per chunk whose round ``c`` reads
and rewrites comparator ``c``'s two runs.  Either way the emitted trace
is the scalar loop's, block by block.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.em.batch import _CHUNK_FLOOR, empty_blocks, round_chunks, scan_chunks
from repro.em.block import RECORD_WIDTH
from repro.em.machine import EMMachine
from repro.em.storage import EMArray
from repro.networks.comparator import order_keys, sort_records
from repro.networks.odd_even import batcher_pairs
from repro.util.mathx import ceil_div, next_pow2

__all__ = ["oblivious_external_sort", "sort_stage"]

#: Sorts, in cache, the rows of one stage's atoms: takes one
#: ``(comparators, atoms, B, 2)`` stack per column and returns the stacks
#: with each comparator's row in sorted order.
RowSort = Callable[[list[np.ndarray]], list[np.ndarray]]


def sort_stage(
    machine: EMMachine,
    cols: Sequence[EMArray],
    R: int,
    sides: Sequence[np.ndarray],
    sort_rows: RowSort,
) -> None:
    """Run one stage of a sorting network over runs of ``R`` atoms.

    An atom is the block at one position of every array in ``cols``.
    Comparator ``c`` covers the run ``side[c]`` of each side (one side in
    run formation, two in a merge-split): it reads those runs' atoms into
    cache, reorders them with ``sort_rows`` and writes them back to the
    same positions.  The caller holds the cache for one comparator.

    The stage is one engine call per chunk of at most ``_CHUNK_FLOOR``
    staged blocks, with one read stream and then one write stream per
    column.  Each stream is a ``(k, sides * R)`` matrix whose round
    ``c`` is comparator ``c``'s runs side by side, so the comparator's
    events run column by column: it reads the runs of each column in
    turn, then writes them back in the same order.  The engine performs
    all of a call's reads before any of its writes, and that still
    yields the per-comparator loop's values: the runs of one stage's
    comparators are disjoint, so no comparator reads what another in the
    same call writes.
    """
    width = len(cols)
    atoms = np.arange(R, dtype=np.int64)
    cap = max(1, _CHUNK_FLOOR // (len(sides) * R * width))
    for lo, hi in scan_chunks(machine, len(sides[0]), cap=cap):
        runs = np.stack([s[lo:hi] for s in sides], axis=1)
        pos = (runs[:, :, None] * R + atoms).reshape(hi - lo, -1)
        done: list[np.ndarray] = []

        def sorted_col(got: list, t: int) -> np.ndarray:
            """Column ``t`` as a ``(comparators, atoms, B, 2)`` stack
            whose rows are sorted."""
            if not done:
                done.extend(sort_rows(got[:width]))
            return done[t]

        machine.io_rounds(
            [("r", col, pos) for col in cols]
            + [
                ("w", col, pos, lambda got, t=t: sorted_col(got, t))
                for t, col in enumerate(cols)
            ]
        )


def _sort_record_rows(stacks: list[np.ndarray]) -> list[np.ndarray]:
    """Merge-split in cache: each row's records sorted by key, empties
    last, ties in row order (:func:`sort_records` row by row)."""
    (blocks,) = stacks
    C = len(blocks)
    records = blocks.reshape(C, -1, RECORD_WIDTH)
    if C == 1:  # one comparator: skip the row offsets
        return [sort_records(records[0]).reshape(blocks.shape)]
    order = np.argsort(order_keys(records), axis=-1, kind="stable")
    width = records.shape[1]
    order += np.arange(0, C * width, width)[:, None]
    return [records.reshape(-1, RECORD_WIDTH)[order].reshape(blocks.shape)]


def oblivious_external_sort(
    machine: EMMachine,
    A: EMArray,
    *,
    run_blocks: int | None = None,
) -> EMArray:
    """Sort the records of ``A`` by key, empties last (Lemma 2 stand-in).

    Returns a new array of ``ceil(n / R) * R`` blocks (the input padded to
    whole runs with empty blocks); ``A`` is left untouched.  ``run_blocks``
    overrides the run size (defaults to half the cache minus slack, the
    largest size for which a comparator's two runs fit in cache).
    """
    n = A.num_blocks
    B = machine.B
    m = machine.cache.capacity_blocks
    if run_blocks is None:
        run_blocks = max(1, (m - 2) // 2)
    if 2 * run_blocks > m:
        raise ValueError(
            f"run_blocks={run_blocks} needs 2*run_blocks <= M/B = {m} "
            "so a merge-split fits in private memory"
        )
    R = run_blocks
    num_runs = max(1, ceil_div(n, R))
    out = machine.alloc(num_runs * R, f"{A.name}.sorted")

    # Phase 1: form sorted runs (copying A into the padded output).  Round
    # c reads the blocks of run c that A holds and writes run c of the
    # output; the last run, partial when R does not divide n, is a
    # narrower call of its own.
    chunks = round_chunks(machine, num_runs, R, n, cap=max(1, _CHUNK_FLOOR // (2 * R)))
    with machine.cache.hold(R):
        for lo, hi, real in chunks:
            runs = np.arange(lo * R, hi * R, dtype=np.int64).reshape(hi - lo, R)

            def formed(got: list, k: int = hi - lo, real: int = real) -> np.ndarray:
                stacked = empty_blocks(k * R, B).reshape(k, R, B, RECORD_WIDTH)
                stacked[:, :real] = got[0]
                return _sort_record_rows([stacked])[0]

            machine.io_rounds([("r", A, runs[:, :real]), ("w", out, runs, formed)])

    # Phase 2: Batcher network over runs with oblivious merge-split.
    if num_runs > 1:
        with machine.cache.hold(2 * R):
            for los, his in batcher_pairs(next_pow2(num_runs)):
                live = his < num_runs  # a virtual +inf run: no-op comparator
                sort_stage(machine, [out], R, [los[live], his[live]], _sort_record_rows)
    return out
