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
from typing import Callable

import numpy as np

from repro.em.batch import _CHUNK_FLOOR, blocks_occupied, empty_blocks, hold_scan, round_chunks, scan_chunks
from repro.em.block import RECORD_WIDTH
from repro.em.errors import EMError
from repro.errors import LasVegasFailure
from repro.em.machine import EMMachine
from repro.em.storage import EMArray
from repro.util.mathx import ceil_div

__all__ = ["knuth_block_shuffle", "shuffle_and_deal", "DealResult", "DealOverflow"]


#: In-cache colour assignment for the deal: a ``(k, B, 2)`` stack of
#: occupied blocks -> their ``k`` int colours in ``[0, num_colors)``.
ColorsFn = Callable[[np.ndarray], np.ndarray]


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
    colors_of_blocks: ColorsFn,
    rng: np.random.Generator,
    *,
    batch_blocks: int | None = None,
    per_color_slots: int | None = None,
    deal_factor: float = 6.0,
) -> DealResult:
    """Shuffle ``A``'s blocks, then deal them into one array per colour.

    ``colors_of_blocks(blocks) -> colours`` is evaluated in cache on a
    ``(k, B, 2)`` stack of occupied blocks and returns their ``k``
    colours.  ``batch_blocks`` defaults to ``floor((M/B)^{3/4})`` and
    ``per_color_slots`` to ``mu + deal_factor * sqrt(mu) + 2`` where
    ``mu = batch / num_colors`` is the per-batch per-colour expectation —
    the paper's ``c (M/B)^{1/2}`` bound (Lemma 18) with the additive
    concentration slack that is tight at small batch sizes (the batch is
    a without-replacement sample, so it concentrates at least as well as
    the binomial Hoeffding argument the paper uses).

    Every batch writes exactly ``per_color_slots`` blocks to every colour
    array — its blocks of that colour in batch order, empty padding after
    — so the write pattern is a fixed function of the sizes.  A colour
    exceeding its slots raises :class:`DealOverflow` (Lemma 18's tail
    event).  The batches run as one engine call per chunk, with one wide
    stream for the input and one per colour array: round ``u`` reads
    batch ``u`` and writes its slots of every colour array.  The last
    batch, partial when ``batch_blocks`` does not divide the array, is a
    narrower call of its own.
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
    cap = max(1, _CHUNK_FLOOR // (batch_blocks + num_colors * per_color_slots))
    chunks = round_chunks(machine, num_batches, batch_blocks, n, cap=cap)
    with machine.cache.hold(min(m, batch_blocks + 2)):
        for lo, hi, width in chunks:
            k = hi - lo
            dealt: list[np.ndarray] = []

            def deal(got: list, c: int, lo: int = lo, k: int = k) -> np.ndarray:
                """Colour ``c``'s ``(k, per_color_slots, B, 2)`` share of the
                chunk."""
                nonlocal occupied
                if dealt:
                    return dealt[0][c]
                flat = got[0].reshape(-1, B, RECORD_WIDTH)
                occ = np.flatnonzero(blocks_occupied(flat))
                colors = np.asarray(colors_of_blocks(flat[occ]), dtype=np.int64)
                bad = (colors < 0) | (colors >= num_colors)
                if bad.any():  # only when colors_of_blocks breaks its range contract
                    raise ValueError(f"colour {int(colors[bad][0])} out of range")
                group = occ // got[0].shape[1] * num_colors + colors  # (batch, colour)
                counts = np.bincount(group, minlength=k * num_colors)
                over = np.flatnonzero(counts > per_color_slots)
                if len(over):  # Lemma 18's tail event: the attempt retries
                    u, c_over = divmod(int(over[0]), num_colors)
                    raise DealOverflow(
                        f"batch {lo + u} holds {int(counts[over[0]])} blocks of "
                        f"colour {c_over} > {per_color_slots} slots (Lemma 18 tail)"
                    )
                order = np.argsort(group, kind="stable")
                group = group[order]
                rank = np.arange(len(group)) - (np.cumsum(counts) - counts)[group]
                share = empty_blocks(num_colors * k * per_color_slots, B).reshape(
                    num_colors, k, per_color_slots, B, RECORD_WIDTH
                )
                share[group % num_colors, group // num_colors, rank] = flat[occ[order]]
                occupied = occupied + counts.reshape(k, num_colors).sum(axis=0)
                dealt.append(share)
                return share[c]

            reads = np.arange(lo * batch_blocks, hi * batch_blocks, dtype=np.int64)
            writes = np.arange(lo * per_color_slots, hi * per_color_slots, dtype=np.int64)
            machine.io_rounds(
                [("r", A, reads.reshape(k, batch_blocks)[:, :width])]
                + [
                    ("w", arrays[c], writes.reshape(k, per_color_slots), lambda got, c=c: deal(got, c))
                    for c in range(num_colors)
                ]
            )
    return DealResult(arrays=arrays, occupied=occupied)
