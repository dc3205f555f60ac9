"""Internal scan helpers shared by the core algorithms.

All of these are plain sequential scans: their access patterns are fixed
functions of the array lengths involved, hence data-oblivious.  They run
through the machine's batched engine in cache-sized chunks — the emitted
trace is identical to the scalar formulation (see
:meth:`repro.em.machine.EMMachine.io_rounds`).
"""

from __future__ import annotations

import numpy as np

from repro.em.batch import hold_scan, scan_chunks
from repro.em.block import NULL_KEY, RECORD_WIDTH, is_empty
from repro.em.machine import EMMachine
from repro.em.storage import EMArray

__all__ = [
    "empty_block",
    "copy_blocks",
    "copy_array",
    "concat_arrays",
    "block_occupied",
    "ranked_records_scan",
]


def empty_block(B: int) -> np.ndarray:
    blk = np.full((B, RECORD_WIDTH), 0, dtype=np.int64)
    blk[:, 0] = NULL_KEY
    return blk


def copy_blocks(
    machine: EMMachine,
    src: EMArray,
    src_lo: int,
    dst: EMArray,
    dst_lo: int,
    count: int,
) -> None:
    """Copy ``count`` consecutive blocks between arrays (scan, 2 I/Os each)."""
    for lo, hi in scan_chunks(machine, count):
        with hold_scan(machine, 1, hi - lo):
            machine.copy_many(
                src, (src_lo + lo, src_lo + hi), dst, (dst_lo + lo, dst_lo + hi)
            )


def copy_array(machine: EMMachine, src: EMArray, name: str = "") -> EMArray:
    """Allocate a fresh array and copy ``src`` into it."""
    dst = machine.alloc(src.num_blocks, name or f"{src.name}.copy")
    copy_blocks(machine, src, 0, dst, 0, src.num_blocks)
    return dst


def concat_arrays(machine: EMMachine, parts: list[EMArray], name: str) -> EMArray:
    """Concatenate arrays into a fresh one (scan per part)."""
    total = sum(p.num_blocks for p in parts)
    out = machine.alloc(total, name)
    pos = 0
    for p in parts:
        copy_blocks(machine, p, 0, out, pos, p.num_blocks)
        pos += p.num_blocks
    return out


def block_occupied(block: np.ndarray) -> bool:
    """In-cache test: does the block hold any non-empty record?"""
    return bool(np.any(~is_empty(block)))


def ranked_records_scan(
    machine: EMMachine, arr: EMArray, ranks
) -> dict[int, tuple[int, int]]:
    """Scan ``arr`` returning ``{rank: (key, value)}`` for the (private)
    1-based ranks in ``ranks``, counted over non-empty records in array
    order.  The scan pattern is a fixed function of the array length."""
    want = np.asarray(sorted({r for r in ranks if r >= 1}), dtype=np.int64)
    found: dict[int, tuple[int, int]] = {}
    seen = 0
    for lo, hi in scan_chunks(machine, arr.num_blocks):
        with hold_scan(machine, 1, hi - lo):
            blocks = machine.read_many(arr, (lo, hi))
            flat = blocks.reshape(-1, RECORD_WIDTH)
            real = flat[~is_empty(flat)]
            if len(real):
                rk = seen + 1 + np.arange(len(real), dtype=np.int64)
                hits = np.isin(rk, want)
                for r, rec in zip(rk[hits], real[hits]):
                    found[int(r)] = (int(rec[0]), int(rec[1]))
                seen += len(real)
    return found
