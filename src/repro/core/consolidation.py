"""Data consolidation (paper §3, Lemma 3) and multi-way consolidation (§5).

Consolidation is the preprocessing step all compaction algorithms share:
one scan converts an array with scattered distinguished *records* into an
array whose *blocks* are each completely full of distinguished records or
completely empty of them (plus at most one partial block at the end) —
after which every algorithm can work at block granularity.

The multi-way variant groups records by one of ``q + 1`` colours instead
of a binary distinguished/plain split; the oblivious sort (§5) uses it to
prepare monochromatic blocks for the shuffle-and-deal distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.em.batch import _CHUNK_FLOOR, empty_blocks, hold_scan, round_chunks, scan_chunks
from repro.em.block import RECORD_WIDTH, empty_block, is_empty
from repro.em.machine import EMMachine
from repro.em.storage import EMArray

__all__ = [
    "ConsolidationResult",
    "MultiwayConsolidationResult",
    "consolidate",
    "multiway_consolidate",
]

def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each group starts when groups of ``counts`` lie end to end."""
    return np.cumsum(counts) - counts


def _pack_block(records: np.ndarray, B: int) -> np.ndarray:
    blk = empty_block(B)
    blk[: len(records)] = records
    return blk


@dataclass
class ConsolidationResult:
    """Output of :func:`consolidate`.

    ``num_distinguished`` and ``num_full_blocks`` are *private* values —
    Alice learns them during the scan, Bob does not (they are not
    reflected in the access pattern).
    """

    array: EMArray
    num_distinguished: int
    num_full_blocks: int


def consolidate(machine: EMMachine, A: EMArray) -> ConsolidationResult:
    """Consolidate distinguished records of ``A`` into full blocks (Lemma 3).

    A record is distinguished when it is not empty.  Returns an array of
    ``A.num_blocks + 1`` blocks, each either full of distinguished
    records or containing none (the final block may be partial).  The
    relative order of distinguished records is preserved.
    Uses exactly ``A.num_blocks`` reads and ``A.num_blocks + 1`` writes —
    a plain scan, trivially data-oblivious.

    The invariant the scalar formulation maintained — fewer than ``B``
    pending records between blocks — means block ``j`` of the output is
    full exactly when the cumulative distinguished count crosses a
    multiple of ``B`` at ``j``; the batched form computes that cumsum per
    chunk and carries the pending remainder across chunks.
    """
    n = A.num_blocks
    B = machine.B
    out = machine.alloc(n + 1, f"{A.name}.consolidated")
    pending = np.empty((0, RECORD_WIDTH), dtype=np.int64)  # < B records, in cache
    count = 0
    full_blocks = 0
    for lo, hi in scan_chunks(machine, n, streams=2):
        with hold_scan(machine, 2, hi - lo):

            def packed(reads):
                nonlocal pending, count, full_blocks
                blocks = reads[0]
                k = len(blocks)
                masks = ~is_empty(blocks)
                per_block = masks.sum(axis=1)
                count += int(per_block.sum())
                # All distinguished records of the chunk, in scan order,
                # with the carried-over pending prefix.
                stream = np.concatenate(
                    [pending, blocks.reshape(-1, RECORD_WIDTH)[masks.reshape(-1)]]
                )
                cum = len(pending) + np.cumsum(per_block)
                fulls = cum // B  # full blocks emitted through position j
                # pending < B between blocks (the function invariant), so
                # zero full blocks have been emitted when the chunk opens.
                prev = np.concatenate([[0], fulls[:-1]])
                emit = fulls > prev  # block j emits exactly one full block
                out_blocks = empty_blocks(k, B)
                emitters = np.flatnonzero(emit)
                for row, j in enumerate(emitters):
                    out_blocks[j, :B] = stream[row * B : (row + 1) * B]
                full_blocks += len(emitters)
                pending = stream[len(emitters) * B :]
                return out_blocks

            machine.io_rounds([("r", A, (lo, hi)), ("w", out, (lo, hi), packed)])
    with machine.cache.hold(1):
        machine.write(out, n, _pack_block(pending, B))
        if len(pending) == B:
            full_blocks += 1
    return ConsolidationResult(out, count, full_blocks)


#: In-cache colour assignment: records ``(k, 2)`` -> int colours in
#: ``[0, num_colors)``; empty cells may be given any colour (ignored).
ColorFn = Callable[[np.ndarray], np.ndarray]


@dataclass
class MultiwayConsolidationResult:
    """Output of :func:`multiway_consolidate`.

    ``color_counts`` (records per colour) is private to Alice.
    """

    array: EMArray
    color_counts: np.ndarray


def multiway_consolidate(
    machine: EMMachine,
    A: EMArray,
    num_colors: int,
    color_fn: ColorFn,
) -> MultiwayConsolidationResult:
    """(q+1)-way consolidation (paper §5): make every block monochromatic.

    Processes ``num_colors`` input blocks per round and writes exactly
    ``num_colors`` output blocks per round (full monochromatic blocks
    first, empty blocks as padding), then flushes ``2 * num_colors`` final
    blocks.  The access pattern is a fixed function of the array length
    and ``num_colors``.

    In cache, each colour's records queue in arrival order; after a
    round's records join their queues, the round emits full blocks
    greedily in colour order, at most ``num_colors`` of them.  The rounds
    run as one engine call per chunk, with two wide streams: round ``u``
    reads its input blocks and writes its ``num_colors`` output blocks
    (the last round, partial when ``num_colors`` does not divide the
    array, is a narrower call of its own).  The greedy schedule of a whole
    chunk is one running minimum: if ``Q_c(u)`` counts the full blocks of
    colours ``0..c`` that have arrived by round ``u`` and ``G_c(u)`` those
    emitted, greedy emission gives ``G_c(u) = min(G_c(u-1) + num_colors,
    Q_c(u))``.

    Needs private memory for about ``3 * num_colors`` blocks.
    """
    if num_colors < 1:
        raise ValueError(f"need at least one colour, got {num_colors}")
    n = A.num_blocks
    B = machine.B
    rounds = -(-n // num_colors) if n else 0
    out = machine.alloc(rounds * num_colors + 2 * num_colors, f"{A.name}.colors")
    color_counts = np.zeros(num_colors, dtype=np.int64)  # records arrived
    sent = np.zeros(num_colors, dtype=np.int64)  # full blocks emitted
    # The queues: every queued record, colour by colour, each colour's in
    # arrival order.
    queue = np.empty((0, RECORD_WIDTH), dtype=np.int64)
    queue_colors = np.empty(0, dtype=np.int64)
    chunks = round_chunks(
        machine, rounds, num_colors, n, cap=max(1, _CHUNK_FLOOR // (2 * num_colors))
    )

    with machine.cache.hold(min(machine.cache.capacity_blocks, 3 * num_colors + 1)):
        for lo, hi, width in chunks:
            k = hi - lo

            def emitted(got: list, k: int = k) -> np.ndarray:
                nonlocal queue, queue_colors, color_counts, sent
                records = got[0].reshape(k, -1, RECORD_WIDTH)
                real = ~is_empty(records)
                colors = np.asarray(color_fn(records[real]), dtype=np.int64)
                if np.any((colors < 0) | (colors >= num_colors)):  # only when color_fn breaks its range contract
                    raise ValueError("color_fn produced an out-of-range colour")
                arrived = np.bincount(
                    np.nonzero(real)[0] * num_colors + colors, minlength=k * num_colors
                ).reshape(k, num_colors)
                # Q and G of the docstring, then each colour's blocks
                # emitted through round u and in round u.
                Q = np.cumsum((color_counts + np.cumsum(arrived, axis=0)) // B, axis=1)
                step = np.arange(k)[:, None] * num_colors
                G = np.minimum(
                    np.cumsum(sent) + step + num_colors,
                    np.minimum.accumulate(Q - step, axis=0) + step,
                )
                through = np.diff(G, axis=1, prepend=0)
                per_round = np.diff(through, axis=0, prepend=sent[None])
                # Colour c's queue is its queued records, then this
                # chunk's; its j-th block this chunk is queue records
                # [j*B, (j+1)*B).  Emitted blocks fill each round's slots
                # in (colour, j) order.
                labels = np.concatenate([queue_colors, colors])
                order = np.argsort(labels, kind="stable")
                labels = labels[order]
                queued = np.concatenate([queue, records[real]])[order]
                head = _starts(np.bincount(labels, minlength=num_colors))
                per = per_round.ravel()
                rank = np.arange(per.sum()) - np.repeat(_starts(per), per)
                j = np.repeat((through - per_round - sent).ravel(), per) + rank
                color = np.repeat(np.tile(np.arange(num_colors), k), per)
                in_round = per_round.sum(axis=1)
                slot = np.repeat(np.arange(k) * num_colors - _starts(in_round), in_round)
                out_blocks = empty_blocks(k * num_colors, B)
                out_blocks[slot + np.arange(len(slot))] = queued[
                    (head[color] + j * B)[:, None] + np.arange(B)
                ]
                # What the chunk did not emit stays queued.
                rest = np.arange(len(labels)) - head[labels] >= B * (through[-1] - sent)[labels]
                queue, queue_colors = queued[rest], labels[rest]
                color_counts = color_counts + arrived.sum(axis=0)
                sent = through[-1]
                return out_blocks.reshape(k, num_colors, B, RECORD_WIDTH)

            reads = np.arange(lo * num_colors, lo * num_colors + k * width, dtype=np.int64)
            writes = np.arange(lo * num_colors, hi * num_colors, dtype=np.int64)
            machine.io_rounds(
                [
                    ("r", A, reads.reshape(k, width)),
                    ("w", out, writes.reshape(k, num_colors), emitted),
                ]
            )
        # Final flush: each colour's queue in blocks of B (its last block
        # may be partial), into exactly 2 * num_colors blocks.
        left = np.bincount(queue_colors, minlength=num_colors)
        blocks_of = -(-left // B)
        if blocks_of.sum() > 2 * num_colors:  # oblint: public(blocks_of) -- flush-accounting invariant: fires only on an internal bug, never on well-formed runs
            raise AssertionError(
                "multiway consolidation flush invariant violated "
                f"({int(blocks_of.sum())} > {2 * num_colors} blocks)"
            )
        at = np.arange(len(queue_colors)) - _starts(left)[queue_colors]
        flush = empty_blocks(2 * num_colors, B)
        flush[_starts(blocks_of)[queue_colors] + at // B, at % B] = queue
        base = rounds * num_colors
        machine.write_many(out, (base, base + 2 * num_colors), flush)
    return MultiwayConsolidationResult(out, color_counts)
