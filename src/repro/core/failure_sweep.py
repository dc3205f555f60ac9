"""Data-oblivious failure sweeping (paper §5).

The oblivious sort recurses on many subarrays; each recursive call fails
(independently) with small probability.  Failure sweeping repairs all
failed subarrays at once without revealing *which* failed:

1. butterfly-compact the blocks of the failed segments (a private mask —
   the routing labels are encrypted data, so the trace is the same
   whatever the mask) into a fixed-capacity scratch array ``F``;
2. rewrite ``F``'s records with composite ``(segment, key)`` sort keys,
   turning exactly enough empty cells into per-segment *dummy* records
   that every failed segment is padded to a whole number of blocks;
3. sort ``F`` with the deterministic oblivious sort (Lemma 2) — the
   padding makes the sorted stream block-aligned per segment, so the
   first ``cap`` blocks are precisely the repaired failed slots in order;
4. strip the dummies, tag each block with a hidden destination rank,
   obliviously permute, and butterfly-*expand* the blocks back over the
   original array, merging with the untouched segments in a final scan.

Every pass is a fixed scan / network: the trace depends only on the
array length, the segment layout, and ``max_failed_blocks`` — never on
the failure mask.  Capacity must be chosen a priori; the paper uses
``O(n^{3/4})`` for at most ``n^{1/4}`` failures (Lemma 20).

Record keys must lie in ``[0, 2^40)`` (they are embedded in composite
sort keys together with segment ids and a dummy marker).
"""

from __future__ import annotations

import numpy as np

from repro.core._helpers import copy_blocks
from repro.core.block_sort import oblivious_block_sort
from repro.core.external_sort import oblivious_external_sort
from repro.em.batch import empty_blocks, hold_scan, scan_chunks
from repro.em.block import NULL_KEY, is_empty
from repro.em.errors import EMError
from repro.errors import LasVegasFailure
from repro.em.machine import EMMachine
from repro.em.storage import EMArray
from repro.networks.butterfly import butterfly_compact, butterfly_expand

__all__ = ["failure_sweep", "SweepOverflow"]

#: Composite-key span: composite = (segment + 1) * SPAN + key.
_KEY_SPAN = 1 << 41
#: Within-segment dummy marker (sorts after every real key of the segment).
_DUMMY_MARK = _KEY_SPAN - 1


class SweepOverflow(EMError, LasVegasFailure):
    """More failed blocks than the sweep capacity (Lemma 20's tail)."""


def failure_sweep(
    machine: EMMachine,
    concat: EMArray,
    segment_bounds: list[tuple[int, int]],
    failed: list[bool],
    max_failed_blocks: int,
) -> EMArray:
    """Repair the failed segments of ``concat``; returns a new array.

    ``segment_bounds[i] = (lo, hi)`` delimits segment ``i``'s blocks in
    ``concat``; ``failed[i]`` is Alice's private knowledge of which
    recursive sorts went wrong.  Each repaired segment comes back with
    its records sorted and tightly packed in a prefix of its original
    slot range.
    """
    if len(segment_bounds) != len(failed):  # oblint: public(failed) -- shape validation: aborts only on a malformed caller argument
        raise ValueError("one failed flag per segment required")
    n = concat.num_blocks
    B = machine.B
    cap = max(1, max_failed_blocks)
    if cap > n:
        raise ValueError("sweep capacity larger than the array itself")

    # Private metadata about the failed slots.
    failed_slots: list[int] = []
    slot_segment: list[int] = []
    for seg, ((lo, hi), bad) in enumerate(zip(segment_bounds, failed)):  # oblint: public(failed) -- segment failure flags are data-independent Las Vegas tail events (Lemma 5)
        if not (0 <= lo <= hi <= n):  # oblint: public(segment_bounds) -- bounds validation: aborts only on a caller contract violation
            raise ValueError(f"segment {seg} bounds ({lo}, {hi}) out of range")
        if bad:
            failed_slots.extend(range(lo, hi))
            slot_segment.extend([seg] * (hi - lo))
    if len(failed_slots) > cap:  # oblint: public(len(failed_slots)) -- capacity probe: overflow past the Chernoff cap is a data-independent tail event
        raise SweepOverflow(
            f"{len(failed_slots)} failed blocks exceed sweep capacity {cap}"
        )
    failed_set = set(failed_slots)

    # 1. Compact the failed blocks to the front (private positional mask).
    mask = [j in failed_set for j in range(n)]
    routed = butterfly_compact(machine, concat, occupied_mask=mask)
    F = machine.alloc(cap, "sweep.F")
    copy_blocks(machine, routed, 0, F, 0, min(cap, routed.num_blocks))
    machine.free(routed)

    # 2a. Count real records per failed segment (read-only scan).
    seg_real: dict[int, int] = {}
    for lo, hi in scan_chunks(machine, cap):
        with hold_scan(machine, 1, hi - lo):
            blocks = machine.read_many(F, (lo, hi))
            per_block = np.count_nonzero(~is_empty(blocks), axis=1)
            for p in range(lo, min(hi, len(slot_segment))):
                seg = slot_segment[p]
                seg_real[seg] = seg_real.get(seg, 0) + int(per_block[p - lo])

    # 2b. Build the dummy agenda: pad each failed segment to exactly
    #     slot_count * B cells.
    agenda: list[int] = []  # segment id, one entry per dummy needed
    for seg, bad in enumerate(failed):  # oblint: public(failed) -- failure flags are data-independent Las Vegas tail events
        if not bad:
            continue
        lo, hi = segment_bounds[seg]
        need = (hi - lo) * B - seg_real.get(seg, 0)
        if need < 0:  # oblint: public(need) -- dummy-budget probe: a deficit occurs only in the Las Vegas tail
            machine.free(F)
            raise SweepOverflow(
                f"segment {seg} holds more records than its slots can take"
            )
        agenda.extend([seg] * need)
    overflow_key = (len(failed) + 2) * _KEY_SPAN  # sorts after everything

    # 2c. Tagging scan: real records get composite (segment, key) keys;
    #     empty cells become dummies per the agenda, then global overflow.
    agenda_pos = 0
    agenda_arr = np.asarray(agenda, dtype=np.int64)
    seg_vec = np.zeros(cap, dtype=np.int64)
    seg_vec[: len(slot_segment)] = slot_segment
    for lo, hi in scan_chunks(machine, cap, streams=2):
        with hold_scan(machine, 2, hi - lo):

            def tagged(reads, lo=lo, hi=hi):
                nonlocal agenda_pos
                blocks = reads[0]
                real = ~is_empty(blocks)
                keys = blocks[..., 0]
                if np.any(keys[real] < 0) or np.any(keys[real] >= _DUMMY_MARK):
                    machine.free(F)
                    raise ValueError("sweepable keys must lie in [0, 2^41 - 1)")
                shift = (seg_vec[lo:hi] + 1) * _KEY_SPAN
                blocks[..., 0] = np.where(real, keys + shift[:, None], keys)
                # Empty cells, in the scalar scan's block-major order,
                # consume the dummy agenda then turn into overflow pads.
                flat = blocks.reshape(-1, blocks.shape[-1])
                empties = np.flatnonzero(~real.reshape(-1))
                take = min(len(agenda_arr) - agenda_pos, len(empties))
                dsegs = agenda_arr[agenda_pos : agenda_pos + take]
                flat[empties[:take], 0] = (dsegs + 1) * _KEY_SPAN + _DUMMY_MARK
                flat[empties[:take], 1] = 0
                flat[empties[take:], 0] = overflow_key
                flat[empties[take:], 1] = 0
                agenda_pos += take
                return blocks

            machine.io_rounds([("r", F, (lo, hi)), ("w", F, (lo, hi), tagged)])
    if agenda_pos != len(agenda):  # oblint: public(agenda_pos) -- agenda accounting invariant: fires only on an internal bug
        machine.free(F)
        raise SweepOverflow("not enough spare cells to pad the failed segments")

    # 3. One oblivious sort block-aligns every failed segment: segment
    #    s's (reals + dummies) fill exactly its slot count in blocks.
    F_sorted = oblivious_external_sort(machine, F)
    machine.free(F)

    # 4a. Strip scan: restore original keys, blank the dummies, and tag
    #     each block with its hidden destination rank.
    unused = [j for j in range(n) if j not in failed_set]
    dest = sorted(failed_slots + unused[: cap - len(failed_slots)])
    rank_of_dest = {d: t for t, d in enumerate(dest)}
    real_ranks = [rank_of_dest[s] for s in failed_slots]
    pad_ranks = sorted(set(range(cap)) - set(real_ranks))
    G = machine.alloc(cap, "sweep.G")
    G_rank = machine.alloc(cap, "sweep.G.rank")
    rank_vec = np.concatenate(
        [np.asarray(real_ranks, dtype=np.int64),
         np.asarray(pad_ranks, dtype=np.int64)]
    )
    for lo, hi in scan_chunks(machine, cap, streams=3):
        with hold_scan(machine, 3, hi - lo):

            def stripped(reads):
                blocks = reads[0]
                comp = blocks[..., 0]
                dummy = (comp % _KEY_SPAN == _DUMMY_MARK) | (comp >= overflow_key)
                real = ~is_empty(blocks) & ~dummy
                new = blocks.copy()
                new[..., 0] = np.where(real, comp % _KEY_SPAN, NULL_KEY)
                new[..., 1] = np.where(real, new[..., 1], 0)
                return new

            rank_blks = empty_blocks(hi - lo, B)
            rank_blks[:, 0, 0] = rank_vec[lo:hi]
            rank_blks[:, 0, 1] = 0
            machine.io_rounds(
                [
                    ("r", F_sorted, (lo, hi)),
                    ("w", G, (lo, hi), stripped),
                    ("w", G_rank, (lo, hi), rank_blks),
                ]
            )
    machine.free(F_sorted)

    # 4b. Interleave pads and reals by the hidden ranks, then expand with
    #     the strictly-increasing destination plan.
    oblivious_block_sort(machine, [G_rank, G])
    machine.free(G_rank)
    expansion = np.asarray([dest[t] - t for t in range(cap)], dtype=np.int64)
    expanded = butterfly_expand(machine, G, expansion, n)
    machine.free(G)

    # 5. Merge: take the expanded block on failed slots, the original
    #    elsewhere (a private per-position decision inside one scan).
    out = machine.alloc(n, f"{concat.name}.swept")
    failed_vec = np.zeros(n, dtype=bool)
    failed_vec[list(failed_set)] = True
    for lo, hi in scan_chunks(machine, n, streams=3):
        with hold_scan(machine, 3, hi - lo):

            def merged(reads, lo=lo, hi=hi):
                orig, fixed = reads[0], reads[1]
                return np.where(failed_vec[lo:hi, None, None], fixed, orig)

            machine.io_rounds(
                [
                    ("r", concat, (lo, hi)),
                    ("r", expanded, (lo, hi)),
                    ("w", out, (lo, hi), merged),
                ]
            )
    machine.free(expanded)
    return out
