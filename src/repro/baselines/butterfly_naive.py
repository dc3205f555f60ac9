"""The per-level butterfly circuit simulation: E3's comparator.

:func:`naive_butterfly_compact` runs the same compaction network as
:func:`repro.networks.butterfly.butterfly_compact`, but evaluates it one
level at a time, reading both fan-in cells of every output cell and
writing a fresh level — ``O(n log n)`` I/Os against the library router's
``O(n log_m n)``.  It is as oblivious as the library router; it is here
only so the benchmarks can show what the paper's windowing buys.
"""

from __future__ import annotations

import numpy as np

from repro.em.batch import empty_blocks, hold_scan, scan_chunks
from repro.em.machine import EMMachine
from repro.em.storage import EMArray
from repro.networks.butterfly import (
    ButterflyCollisionError,
    _make_label_blocks,
    _num_levels,
    _read_labels,
    _write_labels_scan,
)

__all__ = ["naive_butterfly_compact", "route_em_naive"]


def naive_butterfly_compact(machine: EMMachine, A: EMArray) -> EMArray:
    """Tight order-preserving compaction of ``A``'s blocks, one network
    level per scan.  Same output as ``butterfly_compact``."""
    n = A.num_blocks
    work = machine.alloc(n, f"{A.name}.naive")
    for lo, hi in scan_chunks(machine, n):
        with hold_scan(machine, 1, hi - lo):
            machine.copy_many(A, (lo, hi), work, (lo, hi))
    labels, _ = _write_labels_scan(machine, work)
    out_d, out_l = route_em_naive(machine, work, labels)
    machine.free(out_l)
    return out_d


def route_em_naive(
    machine: EMMachine,
    data: EMArray,
    labels: EMArray,
) -> tuple[EMArray, EMArray]:
    """Simulate the circuit one level at a time (``O(n log n)`` I/Os).

    For each output cell ``j`` of the next level we read both of its
    fan-in cells (``j`` and ``j + 2^i``), decide in cache which occupies
    the output, and write it — the fixed read/write pattern of a circuit
    simulation (the paper's observation that circuit evaluation is
    trivially data-oblivious).
    """
    n = data.num_blocks
    B = machine.B
    cur_d, cur_l = data, labels

    def route_chunk(j_idx: np.ndarray, here, far, modulus: int, step: int, level: int):
        """Vectorized routing decision for output cells ``j_idx``."""
        blk_here, lab_here = here
        occ_h, d_h = _read_labels(lab_here)
        claim_h = occ_h & (d_h % modulus == 0)
        k = len(j_idx)
        out_blk = empty_blocks(k, B)
        out_occ = np.zeros(k, dtype=bool)
        out_dist = np.zeros(k, dtype=np.int64)
        out_blk[claim_h] = blk_here[claim_h]
        out_occ[claim_h] = True
        out_dist[claim_h] = d_h[claim_h]
        if far is not None:
            blk_far, lab_far = far
            occ_f, d_f = _read_labels(lab_far)
            claim_f = occ_f & (d_f % modulus == step)
            both = claim_h & claim_f
            if np.any(both):
                raise ButterflyCollisionError(
                    f"collision at level {level}, output {int(j_idx[np.flatnonzero(both)[0]])}"
                )
            out_blk[claim_f] = blk_far[claim_f]
            out_occ[claim_f] = True
            out_dist[claim_f] = d_f[claim_f] - step
        return out_blk, _make_label_blocks(B, out_occ, out_dist)

    for level in range(_num_levels(n)):
        step = 1 << level
        modulus = step * 2
        nxt_d = machine.alloc(n, f"{data.name}.L{level + 1}")
        nxt_l = machine.alloc(n, f"{data.name}.L{level + 1}.lab")
        # Output cells with a far fan-in (j + step < n) read four blocks;
        # the tail reads two.  The scalar order — per-j groups, in j order
        # — is preserved by the round-robin io_rounds interleave.
        split = max(0, n - step)
        for lo, hi in scan_chunks(machine, split, streams=6):
            with hold_scan(machine, 6, hi - lo):
                idx = np.arange(lo, hi, dtype=np.int64)
                out: dict[str, np.ndarray] = {}

                def emit(reads, idx=idx, out=out):
                    out["d"], out["l"] = route_chunk(
                        idx, (reads[0], reads[1]), (reads[2], reads[3]),
                        modulus, step, level,
                    )
                    return out["d"]

                machine.io_rounds(
                    [
                        ("r", cur_d, (lo, hi)),
                        ("r", cur_l, (lo, hi)),
                        ("r", cur_d, (lo + step, hi + step)),
                        ("r", cur_l, (lo + step, hi + step)),
                        ("w", nxt_d, (lo, hi), emit),
                        ("w", nxt_l, (lo, hi), lambda reads, out=out: out["l"]),
                    ]
                )
        for lo, hi in scan_chunks(machine, n - split, streams=4):
            with hold_scan(machine, 4, hi - lo):
                idx = np.arange(split + lo, split + hi, dtype=np.int64)
                out = {}

                def emit_tail(reads, idx=idx, out=out):
                    out["d"], out["l"] = route_chunk(
                        idx, (reads[0], reads[1]), None, modulus, step, level
                    )
                    return out["d"]

                machine.io_rounds(
                    [
                        ("r", cur_d, (split + lo, split + hi)),
                        ("r", cur_l, (split + lo, split + hi)),
                        ("w", nxt_d, (split + lo, split + hi), emit_tail),
                        ("w", nxt_l, (split + lo, split + hi),
                         lambda reads, out=out: out["l"]),
                    ]
                )
        machine.free(cur_d)
        machine.free(cur_l)
        cur_d, cur_l = nxt_d, nxt_l
    return cur_d, cur_l

