"""Butterfly-like compaction network (paper §3, Theorem 6, Lemma 5, Figure 1).

The network has ``ceil(log2 n)`` levels; cell ``j`` of level ``L_i`` feeds
cells ``j`` and ``j - 2^i`` of level ``L_{i+1}``.  Each occupied cell
carries a *distance label* ``d_j`` — how far left it must travel for a
tight compaction — and at level ``i`` moves by ``d_j mod 2^{i+1}`` (either
0 or ``2^i``).  Lemma 5 proves no two cells ever collide.

Two views are provided:

* :func:`butterfly_levels_trace` — an in-memory, per-level simulation that
  records every intermediate level.  This regenerates **Figure 1**.
* :func:`butterfly_compact` — the external-memory algorithm on block
  arrays, with the paper's windowing optimization: each scan routes
  ``g = Theta(log m)`` levels through a window of ``2^g`` cells, for
  ``O(n log_m n)`` I/Os.  After ``p`` levels the residue classes mod
  ``2^p`` are independent, so the next scan routes every class where
  it lies, in place, rather than copying the classes out and back.
  The per-level circuit simulation (``O(n log n)`` I/Os) survives only
  as the E3 comparator in :mod:`repro.baselines.butterfly_naive`.

:func:`butterfly_expand` runs the network "in reverse" (the remark after
Theorem 6): each element carries a non-decreasing *expansion factor* and
moves right instead of left.

All external-memory passes issue their I/O through the machine's batched
engine in cache-sized chunks; each batch emits exactly the event sequence
of the original scalar loop (see :meth:`repro.em.machine.EMMachine.
io_rounds`), so the Theorem 6 obliviousness argument is untouched.
"""

from __future__ import annotations

import numpy as np

from repro.em.batch import empty_blocks, hold_scan, scan_chunks
from repro.em.block import NULL_KEY, RECORD_WIDTH, is_empty
from repro.em.errors import EMError
from repro.em.machine import EMMachine
from repro.em.storage import EMArray
from repro.util.mathx import ceil_div, ilog2

__all__ = [
    "ButterflyCollisionError",
    "distance_labels",
    "butterfly_levels_trace",
    "butterfly_compact",
    "butterfly_expand",
]


class ButterflyCollisionError(EMError):
    """Two cells were routed to the same slot — impossible for valid labels
    (Lemma 5); raised only on malformed label inputs."""


def distance_labels(occupied: np.ndarray) -> np.ndarray:
    """Compute valid distance labels for a tight compaction.

    ``occupied`` is a boolean mask; the label of the ``r``-th occupied
    cell (0-based) at position ``j`` is ``j - r`` — the number of empty
    cells to its left.  Empty cells get label 0 (ignored by the router).
    """
    occupied = np.asarray(occupied, dtype=bool)
    ranks = np.cumsum(occupied) - 1
    idx = np.arange(len(occupied), dtype=np.int64)
    return np.where(occupied, idx - ranks, 0).astype(np.int64)


def _num_levels(n: int) -> int:
    """Number of network levels for ``n`` cells."""
    if n <= 1:
        return 0
    return ilog2(n - 1) + 1  # ceil(log2 n) for n >= 2


def butterfly_levels_trace(
    occupied: np.ndarray,
) -> list[list[tuple[bool, int]]]:
    """Simulate the network level by level, returning every level's state.

    Each level is a list of ``(occupied, remaining_distance)`` per cell —
    exactly the annotations of the paper's Figure 1.  The first entry is
    level ``L_0``; the last has every remaining distance 0.
    """
    occupied = np.asarray(occupied, dtype=bool)
    n = len(occupied)
    labels = distance_labels(occupied)
    occ = occupied.copy()
    lab = labels.copy()
    trace = [[(bool(o), int(d)) for o, d in zip(occ, lab)]]
    for i in range(_num_levels(n)):
        occ, lab, _ = _route_one_level(occ, lab, None, i)
        trace.append([(bool(o), int(d)) for o, d in zip(occ, lab)])
    return trace


def _route_one_level(
    occ: np.ndarray,
    lab: np.ndarray,
    payload: np.ndarray | None,
    level: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Apply one network level in memory; returns new (occ, lab, payload)."""
    n = len(occ)
    modulus = 1 << (level + 1)
    idx = np.arange(n, dtype=np.int64)
    moves = np.where(occ, lab % modulus, 0)
    dests = idx - moves
    if np.any(dests < 0):
        raise ButterflyCollisionError("a label routed a cell past the left edge")
    new_occ = np.zeros_like(occ)
    new_lab = np.zeros_like(lab)
    new_payload = None if payload is None else np.full_like(payload, 0)
    if new_payload is not None:
        new_payload[..., 0] = NULL_KEY
    src = idx[occ]
    dst = dests[occ]
    uniq, counts = np.unique(dst, return_counts=True)
    if np.any(counts > 1):
        raise ButterflyCollisionError(
            f"collision at level {level}: slots {uniq[counts > 1].tolist()}"
        )
    new_occ[dst] = True
    new_lab[dst] = lab[src] - moves[src]
    if new_payload is not None:
        new_payload[dst] = payload[src]
    return new_occ, new_lab, new_payload


# ---------------------------------------------------------------------------
# External-memory routing
# ---------------------------------------------------------------------------

#: Label block layout: record 0 of the label block for data block ``j``
#: holds ``(occupied_flag, distance)``.


def _make_label_blocks(B: int, occ: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """The ``(k, B, 2)`` label blocks of ``k`` cells."""
    occ = np.asarray(occ, dtype=bool)
    blocks = empty_blocks(len(occ), B)
    blocks[:, 0, 0] = occ
    blocks[:, 0, 1] = np.where(occ, dist, 0)
    return blocks


def _read_labels(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(occupied, distance)`` vectors of ``(k, B, 2)`` label blocks."""
    return blocks[:, 0, 0] == 1, blocks[:, 0, 1]


def _write_labels_scan(
    machine: EMMachine,
    A: EMArray,
    occupied_fn,
    occupied_vec: np.ndarray | None = None,
) -> tuple[EMArray, int]:
    """Scan ``A`` computing distance labels into a parallel label array.

    Returns the label array and the number of occupied blocks.  The scan's
    access pattern (read ``A[j]``, write ``labels[j]``) is fixed.
    ``occupied_vec`` supplies a private per-position occupancy mask
    (failure sweeping); otherwise ``occupied_fn`` (or the default
    any-non-empty-record test) decides per block, in cache.
    """
    n = A.num_blocks
    B = machine.B
    labels = machine.alloc(n, f"{A.name}.labels")
    rank = 0
    for lo, hi in scan_chunks(machine, n, streams=2):
        with hold_scan(machine, 2, hi - lo):
            idx = np.arange(lo, hi, dtype=np.int64)

            def label_blocks(reads, lo=lo, hi=hi, idx=idx):
                nonlocal rank
                blocks = reads[0]
                if occupied_vec is not None:
                    occ = np.asarray(occupied_vec[lo:hi], dtype=bool)
                elif occupied_fn is None or occupied_fn is _default_occupied:
                    occ = np.any(~is_empty(blocks), axis=1)
                else:
                    occ = np.array(
                        [bool(occupied_fn(b)) for b in blocks], dtype=bool
                    )
                ranks_before = rank + np.cumsum(occ) - occ
                rank += int(np.count_nonzero(occ))
                return _make_label_blocks(B, occ, idx - ranks_before)

            machine.io_rounds(
                [("r", A, (lo, hi)), ("w", labels, (lo, hi), label_blocks)]
            )
    return labels, rank


def _default_occupied(block: np.ndarray) -> bool:
    """A block is occupied when it holds at least one non-empty record."""
    return bool(np.any(~is_empty(block)))


def _route_em(machine: EMMachine, data: EMArray, labels: EMArray) -> None:
    """Route every network level in place on ``data`` and ``labels``.

    This is Theorem 6's windowing with the residue classes routed where
    they lie.  Pass ``p`` routes the next ``g`` levels of every residue
    class mod ``T = 2^(levels already routed)``; class ``r`` holds the
    positions ``r, r + T, r + 2T, ...``.  Labels keep global distances,
    so a cell moves ``(d / T) mod 2^g`` slots left within its class.
    ``g`` is the largest value with ``2·2^g + 2 <= m``, and a pass whose
    largest class fits in cache routes every remaining level.  Each pass
    costs exactly ``4n`` I/Os (see :func:`_route_pass`), so the whole
    route costs ``O(n log_m n)``.
    """
    n = data.num_blocks
    levels = _num_levels(n)
    m = machine.cache.capacity_blocks
    g = max(1, ilog2(max(1, (m - 2) // 2)))
    done = 0
    while done < levels:
        T = 1 << done
        size = ceil_div(n, T)
        step = levels - done if 2 * size + 2 <= m else min(g, levels - done)
        lag = min(1 << step, size) - 1
        # The window: lag + 1 slots of cells and labels, plus the pair
        # being read.  Below m = 6 not even g = 1 fits, so the lease is
        # clamped to the whole cache.
        with machine.cache.hold(min(m, 2 * lag + 4)):
            _route_pass(machine, data, labels, T, 1 << step, lag)
        done += step


def _route_pass(
    machine: EMMachine,
    data: EMArray,
    labels: EMArray,
    T: int,
    span: int,
    lag: int,
) -> None:
    """One lagged scan: route ``log2(span)`` levels of every class mod ``T``.

    The classes are scanned back to back in class-major order.  Round
    ``u`` reads cell ``u`` (data, then label) and writes slot ``u -
    lag`` (data, then label).  A slot receives cells only from at most
    ``lag`` positions to its right in its class, so it is final when
    written; and every write lands on a position an earlier round read,
    so the pass is safe in place even inside one ``io_rounds`` call,
    whose reads see the state before the call.  The rounds run as a
    head of reads only, a scan-chunked body of reads and writes, and a
    tail of writes only.  Private staging holds the routed image of the
    slots read but not yet written: one chunk plus ``lag`` slots.
    """
    n = data.num_blocks
    B = machine.B
    q, rem = divmod(n, T)  # ``rem`` classes of q + 1 cells, then q-cell ones
    big = rem * (q + 1)

    def positions(lo: int, hi: int) -> np.ndarray:
        """Array positions of scan rounds ``[lo, hi)``."""
        u = np.arange(lo, hi, dtype=np.int64)
        small = u >= big
        size = q + 1 - small
        v = u - big * small
        return rem * small + v // size + v % size * T

    # Routed image of the slots read but not yet written.
    pay = empty_blocks(0, B)
    occ = np.zeros(0, dtype=bool)
    dist = np.zeros(0, dtype=np.int64)

    def route(reads: list, src: np.ndarray) -> None:
        nonlocal pay, occ, dist
        k = len(src)
        pay = np.concatenate([pay, empty_blocks(k, B)])
        occ = np.concatenate([occ, np.zeros(k, dtype=bool)])
        dist = np.concatenate([dist, np.zeros(k, dtype=np.int64)])
        cell, d = _read_labels(reads[1])
        sel = np.flatnonzero(cell)
        d = d[sel]
        move = d // T % span
        if np.any(src[sel] < move * T):  # oblint: public(src) -- collision probe: valid labels never route a cell out of its class; an abort is an invalid plan or a tag-collision tail event
            raise ButterflyCollisionError("a label routed a cell past the start of its class")
        dst = len(occ) - k + sel - move
        if np.any(np.bincount(dst, minlength=len(occ)) + occ > 1):  # oblint: public(dst) -- collision probe: same invalid-plan / tail event as the class-edge check above
            raise ButterflyCollisionError(
                f"collision routing {span}-slot windows of the classes mod {T}"
            )
        occ[dst] = True
        dist[dst] = d - move * T
        pay[dst] = reads[0][sel]

    def flush(k: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal pay, occ, dist
        out = pay[:k], _make_label_blocks(B, occ[:k], dist[:k])
        pay, occ, dist = pay[k:], occ[k:], dist[k:]
        return out

    body = [(lag + lo, lag + hi) for lo, hi in scan_chunks(machine, n - lag, streams=4)]
    for lo, hi in [(0, lag), *body, (n, n + lag)]:
        src = positions(min(lo, n), min(hi, n))
        dst = positions(max(lo - lag, 0), max(hi - lag, 0))
        steps: list = []
        if len(src):
            steps += [("r", data, src), ("r", labels, src)]
        if len(dst):
            flushed: list = []

            def write_data(reads, src=src, k=len(dst), flushed=flushed):
                if len(src):
                    route(reads, src)
                flushed.extend(flush(k))
                return flushed[0]

            steps += [
                ("w", data, dst, write_data),
                ("w", labels, dst, lambda reads, flushed=flushed: flushed[1]),
            ]
        reads = machine.io_rounds(steps)
        if not len(dst):
            route(reads, src)


def butterfly_compact(
    machine: EMMachine,
    A: EMArray,
    *,
    occupied_fn=None,
    occupied_mask=None,
) -> EMArray:
    """Tight order-preserving compaction of the blocks of ``A`` (Theorem 6).

    Returns a new array of ``A.num_blocks`` blocks in which all occupied
    blocks appear first, in their original relative order, followed by
    empty blocks.  ``A`` itself is consumed conceptually (its contents are
    copied; the array remains allocated and untouched).

    ``occupied_fn`` decides in cache whether a block counts as occupied
    (default: holds any non-empty record).  Alternatively
    ``occupied_mask`` supplies a per-position boolean mask from the
    client's private knowledge (used by failure sweeping); the mask only
    shapes the encrypted routing labels, never the access pattern.

    Cost: one copy scan and one label scan (``2n`` I/Os each), then
    ``4n`` I/Os per routing pass, each pass routing ``g`` levels with
    ``g`` the largest value such that ``2·2^g + 2 <= m``, and the last
    pass every level left once a residue class fits in cache.  The
    router works in place on the copy and its label array, so the call
    allocates exactly those two arrays.
    """
    n = A.num_blocks
    occupied_vec = None
    if occupied_mask is not None:
        if occupied_fn is not None:
            raise ValueError("pass occupied_fn or occupied_mask, not both")
        if len(occupied_mask) != n:  # oblint: public(occupied_mask) -- shape validation: aborts only on a malformed mask argument
            raise ValueError(f"mask length {len(occupied_mask)} != {n} blocks")
        occupied_vec = np.asarray(
            [bool(x) for x in occupied_mask], dtype=bool
        )
    # Work on a private copy of the data array so A survives.
    work = machine.alloc(n, f"{A.name}.bfly")
    for lo, hi in scan_chunks(machine, n):
        with hold_scan(machine, 1, hi - lo):
            machine.copy_many(A, (lo, hi), work, (lo, hi))
    labels, _ = _write_labels_scan(
        machine, work, occupied_fn, occupied_vec=occupied_vec
    )
    _route_em(machine, work, labels)
    machine.free(labels)
    return work


def butterfly_expand(
    machine: EMMachine,
    D: EMArray,
    expansion: np.ndarray,
    n_out: int,
) -> EMArray:
    """Run the network in reverse: expand a compact array (post-Theorem 6).

    ``expansion[p]`` is the number of cells block ``p`` of ``D`` moves to
    the right; the paper requires these factors to form a non-decreasing
    sequence.  Returns an array of ``n_out`` blocks in which block ``p``
    of ``D`` sits at position ``p + expansion[p]``.

    Expansion is the exact inverse of a tight compaction of its own
    output, so we run the forward network's levels in *reverse* order
    (peeling label bits high-to-low instead of low-to-high); the routing
    visits the forward network's collision-free states in reverse, hence
    never collides.  When the whole problem fits in cache the composite
    map ``j -> j + e_j`` is applied directly.
    """
    expansion = np.asarray(expansion, dtype=np.int64)
    nd = D.num_blocks
    if len(expansion) != nd:  # oblint: public(expansion) -- shape validation: aborts only on a malformed caller argument
        raise ValueError(f"need one expansion factor per block ({nd}), got {len(expansion)}")
    if nd == 0:
        return machine.alloc(n_out, f"{D.name}.expanded")
    if np.any(expansion < 0):  # oblint: public(expansion) -- validation abort: expansion factors are schedule metadata, checked against the contract
        raise ValueError("expansion factors must be non-negative")
    if np.any(np.diff(expansion) < 0):  # oblint: public(expansion) -- validation abort: monotonicity is part of the caller contract
        raise ValueError("expansion factors must be non-decreasing")
    if nd - 1 + int(expansion[-1]) >= n_out:  # oblint: public(expansion) -- validation abort: overflow of the declared output size is a contract violation
        raise ValueError("expansion factors overflow the output array")
    B = machine.B
    m = machine.cache.capacity_blocks

    # In-cache fast path: composite placement.
    if 2 * n_out + 2 <= m:
        out = machine.alloc(n_out, f"{D.name}.expanded")
        with machine.cache.hold(n_out + nd):
            blocks = machine.read_many(D, (0, nd))
            placed = empty_blocks(n_out, B)
            placed[np.arange(nd, dtype=np.int64) + expansion] = blocks
            machine.write_many(out, (0, n_out), placed)
        return out

    # Lay out the initial level: block p of D at position p with its full
    # expansion label; the rest empty.
    cur_d = machine.alloc(n_out, f"{D.name}.exp.L")
    cur_l = machine.alloc(n_out, f"{D.name}.exp.L.lab")
    for lo, hi in scan_chunks(machine, nd, streams=3):
        with hold_scan(machine, 3, hi - lo):
            machine.io_rounds(
                [
                    ("r", D, (lo, hi)),
                    ("w", cur_d, (lo, hi), lambda reads: reads[0]),
                    ("w", cur_l, (lo, hi),
                     _make_label_blocks(B, np.ones(hi - lo, dtype=bool),
                                        expansion[lo:hi])),
                ]
            )
    for lo, hi in scan_chunks(machine, n_out - nd, streams=2):
        with hold_scan(machine, 2, hi - lo):
            k = hi - lo
            machine.io_rounds(
                [
                    ("w", cur_d, (nd + lo, nd + hi), empty_blocks(k, B)),
                    ("w", cur_l, (nd + lo, nd + hi),
                     _make_label_blocks(B, np.zeros(k, dtype=bool),
                                        np.zeros(k, dtype=np.int64))),
                ]
            )

    def expand_chunk(j_idx, here, far, level: int, step: int):
        """Vectorized reverse-routing decision for output cells ``j_idx``."""
        lab_here, blk_here = here
        occ_h, e_h = _read_labels(lab_here)
        take_h = occ_h & ((e_h >> level) & 1 == 0)
        k = len(j_idx)
        out_blk = empty_blocks(k, B)
        out_occ = np.zeros(k, dtype=bool)
        out_e = np.zeros(k, dtype=np.int64)
        out_blk[take_h] = blk_here[take_h]
        out_occ[take_h] = True
        out_e[take_h] = e_h[take_h]
        if far is not None:
            lab_far, blk_far = far
            occ_f, e_f = _read_labels(lab_far)
            take_f = occ_f & ((e_f >> level) & 1 == 1)
            both = take_h & take_f
            if np.any(both):
                raise ButterflyCollisionError(
                    f"expansion collision at level {level}, "
                    f"output {int(j_idx[np.flatnonzero(both)[0]])}"
                )
            out_blk[take_f] = blk_far[take_f]
            out_occ[take_f] = True
            out_e[take_f] = e_f[take_f]
        return out_blk, _make_label_blocks(B, out_occ, out_e)

    # Reverse the network: apply label bits from high to low, moving right.
    for level in reversed(range(_num_levels(n_out))):
        step = 1 << level
        nxt_d = machine.alloc(n_out, f"{D.name}.exp.L{level}")
        nxt_l = machine.alloc(n_out, f"{D.name}.exp.L{level}.lab")
        split = min(step, n_out)
        for lo, hi in scan_chunks(machine, split, streams=4):
            with hold_scan(machine, 4, hi - lo):
                idx = np.arange(lo, hi, dtype=np.int64)
                out: dict[str, np.ndarray] = {}

                def emit_head(reads, idx=idx, out=out):
                    out["d"], out["l"] = expand_chunk(
                        idx, (reads[0], reads[1]), None, level, step
                    )
                    return out["d"]

                machine.io_rounds(
                    [
                        ("r", cur_l, (lo, hi)),
                        ("r", cur_d, (lo, hi)),
                        ("w", nxt_d, (lo, hi), emit_head),
                        ("w", nxt_l, (lo, hi), lambda reads, out=out: out["l"]),
                    ]
                )
        for lo, hi in scan_chunks(machine, n_out - split, streams=6):
            with hold_scan(machine, 6, hi - lo):
                idx = np.arange(split + lo, split + hi, dtype=np.int64)
                out = {}

                def emit_body(reads, idx=idx, out=out):
                    out["d"], out["l"] = expand_chunk(
                        idx, (reads[0], reads[1]), (reads[2], reads[3]),
                        level, step,
                    )
                    return out["d"]

                lo2, hi2 = split + lo, split + hi
                machine.io_rounds(
                    [
                        ("r", cur_l, (lo2, hi2)),
                        ("r", cur_d, (lo2, hi2)),
                        ("r", cur_l, (lo2 - step, hi2 - step)),
                        ("r", cur_d, (lo2 - step, hi2 - step)),
                        ("w", nxt_d, (lo2, hi2), emit_body),
                        ("w", nxt_l, (lo2, hi2), lambda reads, out=out: out["l"]),
                    ]
                )
        machine.free(cur_d)
        machine.free(cur_l)
        cur_d, cur_l = nxt_d, nxt_l
    machine.free(cur_l)
    return cur_d
