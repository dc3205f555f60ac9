"""Randomized thinning passes (paper §3, "A-to-C thinning pass").

A thinning pass scans ``A`` once; for each block it draws a uniformly
random target cell in ``C``, reads it, and — if the target is empty, the
block is distinguished, and it has not been copied yet — moves the block
into ``C``.  In all cases it writes both cells back (re-encrypted), so
the adversary sees the identical pattern
``read A[i], read C[j], write C[j], write A[i]`` with ``j`` drawn from
Alice's randomness: data-oblivious by construction.

After a successful move the source block in ``A`` becomes empty, which is
how "has not been copied yet" is represented (the paper's "simple bit").

The batched form gathers a cache-sized chunk of sources and targets,
replays the move decisions privately (occupancy booleans, no block
movement), and scatters the final contents — the trace is the scalar
four-event group per source block, in order.
"""

from __future__ import annotations

import numpy as np

from repro.em.batch import blocks_occupied, empty_blocks, hold_scan, scan_chunks
from repro.em.machine import EMMachine
from repro.em.storage import EMArray

__all__ = ["thinning_pass", "thinning_rounds"]


def thinning_pass(
    machine: EMMachine,
    A: EMArray,
    C: EMArray,
    rng: np.random.Generator,
) -> int:
    """One A-to-C thinning pass; returns the number of blocks moved
    (a private count — the access pattern does not depend on it)."""
    nc = C.num_blocks
    if nc == 0:
        raise ValueError("target array C must be non-empty")
    B = machine.B
    moved = 0
    # Draw all targets up front: one uniform index per source block.
    targets = rng.integers(0, nc, size=A.num_blocks)
    for lo, hi in scan_chunks(machine, A.num_blocks, streams=2):
        with hold_scan(machine, 2, hi - lo):
            tgt = np.asarray(targets[lo:hi], dtype=np.int64)
            state: dict[str, np.ndarray] = {}

            def replay(reads):
                """Replay the sequential move decisions privately.

                ``cell_occ`` tracks the evolving occupancy of each
                distinct target cell (a later draw of the same cell must
                see an earlier move); the gathered reads observe the
                pre-batch state, which is exactly what the first access
                of each cell saw in the scalar loop.
                """
                nonlocal moved
                src, dst = reads[0], reads[1]
                src_occ = blocks_occupied(src)
                uniq, inv = np.unique(tgt, return_inverse=True)
                cell_occ = np.zeros(len(uniq), dtype=bool)
                np.logical_or.at(cell_occ, inv, blocks_occupied(dst))
                move = np.zeros(hi - lo, dtype=bool)
                for t in range(hi - lo):
                    u = inv[t]
                    if src_occ[t] and not cell_occ[u]:
                        cell_occ[u] = True
                        move[t] = True
                moved += int(np.count_nonzero(move))
                # Final contents: a moved source occupies its target cell
                # (all later writers of that cell re-write the moved
                # block) and leaves an empty block behind; everything
                # else is unchanged.  Writes re-encrypt every cell.  At
                # most one source moves into any cell per pass, so a
                # per-cell mover table resolves every writer in O(k).
                movers = np.flatnonzero(move)
                cell_moved = np.zeros(len(uniq), dtype=bool)
                cell_mover = np.zeros(len(uniq), dtype=np.int64)
                cell_moved[inv[movers]] = True
                cell_mover[inv[movers]] = movers
                c_final = np.where(
                    cell_moved[inv, None, None], src[cell_mover[inv]], dst
                )
                a_final = src.copy()
                a_final[move] = empty_blocks(len(movers), B)
                state["c"], state["a"] = c_final, a_final
                return c_final

            # One fused batch so the trace keeps the scalar per-block
            # group ``R A i, R C j, W C j, W A i`` (reads observe the
            # pre-batch state; ``replay`` compensates for the in-batch
            # read-after-write on repeated target cells).
            machine.io_rounds(
                [
                    ("r", A, (lo, hi)),
                    ("r", C, tgt),
                    ("w", C, tgt, replay),
                    ("w", A, (lo, hi), lambda reads: state["a"]),
                ]
            )
    return moved


def thinning_rounds(
    machine: EMMachine,
    A: EMArray,
    C: EMArray,
    rounds: int,
    rng: np.random.Generator,
) -> int:
    """Run ``rounds`` thinning passes; returns total blocks moved."""
    if rounds < 0:
        raise ValueError(f"rounds must be non-negative, got {rounds}")
    return sum(thinning_pass(machine, A, C, rng) for _ in range(rounds))
