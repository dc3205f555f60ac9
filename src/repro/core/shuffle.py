"""Shuffle-and-deal data distribution (paper §5).

After the (q+1)-way consolidation every block is monochromatic; the
remaining job is to distribute the blocks to one array per colour without
creating data-dependent "hot spots".  The paper's fix is Valiant–Brebner-
style randomization:

* **Shuffle** — a Knuth/Fisher–Yates permutation of the blocks.  Bob sees
  every swap, but the swap choices come from Alice's randomness, never
  from data.
* **Deal** — read batches of ``(M/B)^{3/4}`` blocks; within a batch each
  colour appears at most ``c (M/B)^{1/2}`` times w.h.p. (Lemma 18 /
  Corollary 19), so writing exactly that many blocks per colour per batch
  (padding with empties) is both safe and data-oblivious.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core._helpers import empty_block
from repro.em.batch import blocks_occupied, hold_scan, scan_chunks
from repro.em.errors import EMError
from repro.errors import LasVegasFailure
from repro.em.machine import EMMachine
from repro.em.storage import EMArray
from repro.util.mathx import ceil_div

__all__ = ["knuth_block_shuffle", "shuffle_and_deal", "DealResult", "DealOverflow"]


class DealOverflow(EMError, LasVegasFailure):
    """A batch held more blocks of one colour than the Lemma-18 bound —
    the w.h.p. tail event; retry with fresh randomness."""


def knuth_block_shuffle(
    machine: EMMachine,
    A: EMArray,
    rng: np.random.Generator,
) -> None:
    """Uniformly permute the blocks of ``A`` in place (Knuth shuffle).

    For each ``i`` the partner ``j`` is drawn uniformly from ``[i, n)``
    from Alice's randomness; both blocks are read and rewritten even when
    ``i == j``.  ``2n`` reads + ``2n`` writes; the sequence of positions
    is independent of the data.  Swaps are issued through
    :meth:`~repro.em.machine.EMMachine.swap_many`, which applies the
    composed permutation in bulk while emitting the per-swap trace.
    """
    n = A.num_blocks
    if n <= 1:
        return
    partners = np.array([int(rng.integers(i, n)) for i in range(n)], dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    for lo, hi in scan_chunks(machine, n, streams=2):
        with hold_scan(machine, 2, hi - lo):
            machine.swap_many(A, idx[lo:hi], partners[lo:hi])


@dataclass
class DealResult:
    """Output of :func:`shuffle_and_deal`.

    ``arrays[c]`` holds the blocks of colour ``c`` (with padding);
    ``occupied[c]`` is the private count of real blocks per colour.
    """

    arrays: list[EMArray]
    occupied: np.ndarray


def shuffle_and_deal(
    machine: EMMachine,
    A: EMArray,
    num_colors: int,
    color_of_block,
    rng: np.random.Generator,
    *,
    batch_blocks: int | None = None,
    per_color_slots: int | None = None,
    deal_factor: float = 6.0,
) -> DealResult:
    """Shuffle ``A``'s blocks, then deal them into one array per colour.

    ``color_of_block(block) -> int`` is evaluated in cache on occupied
    blocks.  ``batch_blocks`` defaults to ``floor((M/B)^{3/4})`` and
    ``per_color_slots`` to ``mu + deal_factor * sqrt(mu) + 2`` where
    ``mu = batch / num_colors`` is the per-batch per-colour expectation —
    the paper's ``c (M/B)^{1/2}`` bound (Lemma 18) with the additive
    concentration slack that is tight at small batch sizes (the batch is
    a without-replacement sample, so it concentrates at least as well as
    the binomial Hoeffding argument the paper uses).

    Every batch writes exactly ``per_color_slots`` blocks to every colour
    array — full blocks first, empty padding after — so the write pattern
    is a fixed function of the sizes.  A colour exceeding its slots raises
    :class:`DealOverflow` (Lemma 18's tail event).
    """
    if num_colors < 1:
        raise ValueError(f"need at least one colour, got {num_colors}")
    n = A.num_blocks
    m = machine.cache.capacity_blocks
    if batch_blocks is None:
        batch_blocks = max(num_colors, int(m**0.75))
    batch_blocks = max(1, min(batch_blocks, max(1, m - 2)))
    if per_color_slots is None:
        mu = batch_blocks / num_colors
        per_color_slots = max(1, int(np.ceil(mu + deal_factor * np.sqrt(mu) + 2)))
        per_color_slots = min(per_color_slots, batch_blocks)
    num_batches = ceil_div(n, batch_blocks) if n else 0
    B = machine.B

    knuth_block_shuffle(machine, A, rng)

    arrays = [
        machine.alloc(max(1, num_batches * per_color_slots), f"{A.name}.color{c}")
        for c in range(num_colors)
    ]
    occupied = np.zeros(num_colors, dtype=np.int64)
    pad = empty_block(B)
    with machine.cache.hold(min(m, batch_blocks + 2)):
        for batch in range(num_batches):
            lo = batch * batch_blocks
            hi = min(lo + batch_blocks, n)
            blocks = machine.read_many(A, (lo, hi))
            occ = blocks_occupied(blocks)
            groups: list[list[np.ndarray]] = [[] for _ in range(num_colors)]
            for block in blocks[occ]:  # oblint: public(blocks) -- in-cache partition of one public-size batch; the only effect is the colour-contract abort
                c = int(color_of_block(block))
                if not (0 <= c < num_colors):  # oblint: public(c) -- colour validation: aborts only when color_of_block violates its range contract
                    raise ValueError(f"colour {c} out of range")
                groups[c].append(block)
            base = batch * per_color_slots
            slot_idx = (base, base + per_color_slots)
            for c in range(num_colors):
                if len(groups[c]) > per_color_slots:
                    raise DealOverflow(
                        f"batch {batch} holds {len(groups[c])} blocks of "
                        f"colour {c} > {per_color_slots} slots (Lemma 18 tail)"
                    )
                stacked = np.stack(
                    groups[c] + [pad] * (per_color_slots - len(groups[c]))
                )
                machine.write_many(arrays[c], slot_idx, stacked)
                occupied[c] += len(groups[c])
    return DealResult(arrays=arrays, occupied=occupied)
