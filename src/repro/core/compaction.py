"""Data-oblivious compaction (paper §3 and Appendix B).

Four algorithms, each trading off guarantees against cost exactly as the
paper's Table-of-results describes:

* :func:`tight_compact` — Theorem 6: deterministic, tight,
  order-preserving, ``O((N/B) log_{M/B}(N/B))`` I/Os, via the butterfly
  network.
* :func:`tight_compact_sparse` — Theorem 4: randomized, tight,
  order-preserving, linear-time for sparse arrays, via a data-oblivious
  invertible Bloom lookup table whose ``listEntries`` peel runs inside an
  oblivious-RAM simulation.
* :func:`loose_compact` — Theorem 8: randomized, loose (output ``5R``),
  ``O(N/B)`` I/Os under the wide-block and tall-cache assumptions, via
  thinning passes and region halving.
* :func:`loose_compact_logstar` — Theorem 9 / Appendix B: randomized,
  loose (output ``4.25R``), ``O((N/B) log*(N/B))`` I/Os assuming only
  ``B >= 1`` and ``M >= 2B``, via tower-of-twos phases.

All functions operate at *block* granularity — run
:func:`repro.core.consolidation.consolidate` first to turn a record-level
problem into a block-level one (that is what the paper does, Lemma 3).
A block is "distinguished" when it holds at least one non-empty record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core._helpers import (
    block_occupied,
    concat_arrays,
    copy_array,
    copy_blocks,
    empty_block,
)
from repro.core.block_sort import oblivious_block_sort
from repro.core.thinning import thinning_rounds
from repro.em.batch import blocks_occupied, empty_blocks, hold_scan, scan_chunks
from repro.em.block import NULL_KEY, RECORD_WIDTH, is_empty
from repro.em.errors import EMError
from repro.errors import LasVegasFailure
from repro.em.machine import EMMachine
from repro.em.storage import EMArray
from repro.iblt.hashing import PartitionedHashFamily
from repro.networks.butterfly import butterfly_compact
from repro.oram import make_oram
from repro.util.mathx import ceil_div, ilog2, log_base

__all__ = [
    "CompactionFailure",
    "AssumptionError",
    "tight_compact",
    "tight_compact_sparse",
    "loose_compact",
    "loose_compact_logstar",
]

#: Sort key marking unused output slots (sorts after any real index).
_INF_KEY = 1 << 62


class CompactionFailure(EMError, LasVegasFailure):
    """A randomized compaction exceeded its probabilistic capacity bounds.

    The paper's algorithms fail with probability ``<= (N/B)^-d``; callers
    may retry with fresh randomness (each attempt is individually
    oblivious)."""


class AssumptionError(EMError):
    """A model assumption (wide-block / tall-cache) does not hold for the
    given machine, so the requested algorithm is inapplicable."""


def wide_block_ok(n_blocks: int, cache_blocks: int, c1: int = 4) -> bool:
    """Public check of Theorem 8's wide-block/tall-cache precondition:
    a compaction region of ``c1 * log2(n)`` blocks must fit in cache."""
    if n_blocks <= 1:
        return True
    g = c1 * max(1, math.ceil(math.log2(max(2, n_blocks))))
    return g + 2 <= cache_blocks


# ---------------------------------------------------------------------------
# Theorem 6: tight order-preserving compaction (butterfly network)
# ---------------------------------------------------------------------------


def tight_compact(
    machine: EMMachine,
    A: EMArray,
    out_blocks: int | None = None,
) -> EMArray:
    """Tight order-preserving compaction of ``A``'s occupied blocks.

    Returns an array of ``out_blocks`` blocks (default: same size as
    ``A``) whose prefix holds the occupied blocks of ``A`` in their
    original order.  Deterministic; ``O((N/B) log_{M/B}(N/B))`` I/Os.
    Raises :class:`CompactionFailure` if more than ``out_blocks`` blocks
    are occupied (detected privately after routing — the trace up to the
    failure is identical either way).
    """
    routed = butterfly_compact(machine, A)
    if out_blocks is None or out_blocks == A.num_blocks:
        return routed
    out = machine.alloc(out_blocks, f"{A.name}.tight")
    limit = min(out_blocks, routed.num_blocks)
    copy_blocks(machine, routed, 0, out, 0, limit)
    # Check nothing was truncated: the first dropped slot must be empty.
    if routed.num_blocks > out_blocks:
        with machine.cache.hold(1):
            probe = machine.read(routed, out_blocks)
        if block_occupied(probe):  # oblint: public(probe) -- truncation probe: aborts only when the caller's out_blocks bound is violated; the trace up to it is identical either way
            machine.free(routed)
            machine.free(out)
            raise CompactionFailure(
                f"more than {out_blocks} occupied blocks in tight compaction"
            )
    machine.free(routed)
    return out


# ---------------------------------------------------------------------------
# Theorem 4: tight order-preserving compaction for sparse arrays (IBLT)
# ---------------------------------------------------------------------------


def _encode_payload(block: np.ndarray) -> np.ndarray:
    """Make a block summable: empty cells become ``(-1, 0)`` rows.

    Requires real keys to be non-negative (the library-wide contract for
    IBLT-based compaction); field-wise int64 sums of encoded blocks are
    then invertible by subtraction.
    """
    out = block.copy()
    mask = is_empty(block)
    out[mask, 0] = -1
    out[mask, 1] = 0
    return out


def _encode_payloads(blocks: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_encode_payload` over a ``(t, B, 2)`` stack."""
    out = blocks.copy()
    mask = is_empty(blocks)
    out[..., 0] = np.where(mask, -1, out[..., 0])
    out[..., 1] = np.where(mask, 0, out[..., 1])
    return out


def _segmented_running_sum(cells: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Per-occurrence inclusive running sum of ``deltas`` grouped by cell.

    ``cells`` is a flat occurrence list (one IBLT cell per occurrence, in
    program order); the result at occurrence ``o`` is the sum of
    ``deltas[o']`` over all ``o' <= o`` hitting the same cell — exactly
    the intermediate value the scalar read-modify-write loop would hold
    after its write at ``o``.  ``deltas`` may be scalar-per-occurrence
    (1-D) or block-shaped (``(t, B, 2)``)."""
    if len(cells) == 0:
        return deltas.copy()
    order = np.argsort(cells, kind="stable")
    sorted_deltas = deltas[order]
    csum = np.cumsum(sorted_deltas, axis=0)
    starts = np.flatnonzero(
        np.r_[True, cells[order][1:] != cells[order][:-1]]
    )
    counts = np.diff(np.r_[starts, len(cells)])
    # Subtract the cumulative total *before* each group start.
    base = np.zeros_like(csum[:1])
    offsets = np.concatenate([base, csum[starts[1:] - 1]]) if len(starts) > 1 else base
    seg = csum - np.repeat(offsets, counts, axis=0)
    out = np.empty_like(seg)
    out[order] = seg
    return out


def _decode_payload(block: np.ndarray) -> np.ndarray:
    out = block.copy()
    mask = block[:, 0] == -1
    out[mask, 0] = NULL_KEY
    out[mask, 1] = 0
    return out


@dataclass
class _IBLTState:
    meta: EMArray  # record 0 = (count, keySum-of-source-indices)
    payload: EMArray  # field-wise sum of encoded source blocks
    hashes: PartitionedHashFamily
    inserted: int  # private


def _iblt_insert_pass(
    machine: EMMachine,
    A: EMArray,
    m_cells: int,
    k: int,
    rng: np.random.Generator,
) -> _IBLTState:
    """The data-oblivious IBLT insertion pass of Theorem 4.

    For every block index ``i`` (occupied or not) the same ``k`` cells —
    a function of ``i`` alone — are read and written back, re-encrypted;
    only occupied blocks actually change the cell contents.
    """
    B = machine.B
    hashes = PartitionedHashFamily(k, m_cells, seed=int(rng.integers(0, 2**62)))
    meta = machine.alloc(m_cells, f"{A.name}.iblt.meta")
    payload = machine.alloc(m_cells, f"{A.name}.iblt.data")
    for lo, hi in scan_chunks(machine, m_cells, streams=2):
        with hold_scan(machine, 2, hi - lo):
            zeros = np.zeros((hi - lo, B, RECORD_WIDTH), dtype=np.int64)
            machine.io_rounds(
                [("w", meta, (lo, hi), zeros), ("w", payload, (lo, hi), zeros)]
            )
    inserted = 0
    # The insert loop as fused streams: per source block, one read plus
    # k (read, write) pairs on each of the two tables — the scalar event
    # order R A, (R m, W m, R p, W p) × k, byte-identical (golden-pinned
    # in tests/test_core_compaction.py).  Within a chunk, duplicate cells
    # receive their scalar intermediate values via segmented running sums
    # over occurrence order, so "last write wins" lands the same bytes
    # the scalar read-modify-write loop would.  The *modeled* working set
    # is unchanged — one source block plus one table block at a time, the
    # paper's weakest M >= 2B regime (see hold_scan's modeled-residency
    # note).
    for lo, hi in scan_chunks(machine, A.num_blocks, streams=2 + 4 * k):
        t = hi - lo
        cells = hashes.locations(np.arange(lo, hi, dtype=np.int64))  # (t, k)
        memo: dict = {}

        def computed(reads, lo=lo, t=t, cells=cells, memo=memo):
            if memo:
                return memo
            src = reads[0]
            occupied = blocks_occupied(src)
            flat_keys = src[..., 0]
            if bool(np.any((flat_keys < 0) & ~is_empty(src) & occupied[:, None])):
                raise ValueError(
                    "IBLT compaction requires non-negative record keys"
                )
            enc = _encode_payloads(src)
            enc[~occupied] = 0
            idx = np.arange(lo, lo + t, dtype=np.int64)
            occ64 = occupied.astype(np.int64)
            cells_flat = cells.reshape(-1)
            run_cnt = _segmented_running_sum(cells_flat, np.repeat(occ64, k))
            run_key = _segmented_running_sum(cells_flat, np.repeat(idx * occ64, k))
            run_pay = _segmented_running_sum(cells_flat, np.repeat(enc, k, axis=0))
            # Pre-state per occurrence, from the per-stream gathers.
            pre_meta = np.stack([reads[1 + 4 * j] for j in range(k)], axis=1)
            pre_pay = np.stack([reads[3 + 4 * j] for j in range(k)], axis=1)
            meta_vals = pre_meta.reshape(t * k, B, RECORD_WIDTH).copy()
            meta_vals[:, 0, 0] += run_cnt
            meta_vals[:, 0, 1] += run_key
            pay_vals = pre_pay.reshape(t * k, B, RECORD_WIDTH) + run_pay
            memo["meta"] = meta_vals.reshape(t, k, B, RECORD_WIDTH)
            memo["payload"] = pay_vals.reshape(t, k, B, RECORD_WIDTH)
            memo["occupied"] = int(np.count_nonzero(occupied))
            return memo

        steps: list = [("r", A, (lo, hi))]
        for j in range(k):
            col = np.ascontiguousarray(cells[:, j])
            steps.append(("r", meta, col))
            steps.append((
                "w", meta, col,
                lambda reads, j=j: computed(reads)["meta"][:, j],
            ))
            steps.append(("r", payload, col))
            steps.append((
                "w", payload, col,
                lambda reads, j=j: computed(reads)["payload"][:, j],
            ))
        with hold_scan(machine, 2, t):
            machine.io_rounds(steps)
        inserted += memo["occupied"]
    return _IBLTState(meta, payload, hashes, inserted)


def _peel_direct(  # oblint: nonoblivious -- documented plain peel (data-dependent access), reachable only with oblivious_list=False
    machine: EMMachine,
    state: _IBLTState,
    r: int,
) -> tuple[list[tuple[int, np.ndarray]], bool]:
    """Non-hiding peel: data-dependent access pattern, used when the
    caller opts out of the ORAM simulation (``oblivious_list=False``)."""
    m_cells = state.meta.num_blocks
    out: list[tuple[int, np.ndarray]] = []
    with machine.cache.hold(4):
        queue = []
        for c in range(m_cells):
            mb = machine.read(state.meta, c)
            if mb[0, 0] == 1:
                queue.append(c)
        head = 0
        while head < len(queue):
            c = queue[head]
            head += 1
            mb = machine.read(state.meta, c)
            if mb[0, 0] != 1:
                continue
            i_key = int(mb[0, 1])
            pb = machine.read(state.payload, c)
            out.append((i_key, _decode_payload(pb)))
            enc = pb.copy()
            for cell in state.hashes.locations(i_key):
                cb = machine.read(state.meta, int(cell))
                cb[0, 0] -= 1
                cb[0, 1] -= i_key
                machine.write(state.meta, int(cell), cb)
                db = machine.read(state.payload, int(cell))
                db -= enc
                machine.write(state.payload, int(cell), db)
                if cb[0, 0] == 1:
                    queue.append(int(cell))
    return out, len(out) == state.inserted


def _peel_shelter_factor(m_cells: int) -> int:
    """Shelter-size multiplier for the peel's ORAMs.

    The peel is rebuild-dominated: each rebuild pays an
    ``O((n + s) log^2 n)`` oblivious sort every ``s`` accesses, so
    stretching the epoch to ``s ~ sqrt(n) log n`` (the classic
    epoch-length optimization) trades a longer fixed shelter scan for a
    ``~log n`` cut in amortized rebuild cost.  Measured at the reference
    shapes (see ``analysis/bounds.py``), ``log2(n) + 2`` is the sweet
    spot — below it rebuilds dominate, far above it the shelter scan
    does."""
    return max(1, ilog2(max(2, m_cells)) + 2)


def _peel_oram(
    machine: EMMachine,
    state: _IBLTState,
    r: int,
    rng: np.random.Generator,
    oram_backend: str = "square_root",
) -> tuple[EMArray, EMArray, bool]:
    """Oblivious peel: every data-dependent memory access of the peeling
    RAM program goes through ORAMs (square-root by default, hierarchical
    via ``oram_backend``) on a fixed schedule (Theorem 4's use of the
    oblivious-RAM simulation).

    Per iteration the program performs exactly one queue pop, one cell
    examine, one payload read, two fixed-position output writes, and
    ``k`` rounds of (meta update, payload update, queue push) — with
    dummy ORAM operations standing in whenever there is no real work.
    Three engineering moves cut the measured I/O constant ~4× against
    the original formulation while keeping the schedule data-independent:

    * read-modify-write cells via :meth:`SquareRootORAM.update` (one
      access where the scalar program paid a read plus a write);
    * emit outputs to *plain* arrays at the fixed position ``round`` —
      the write schedule is public, only the (encrypted) content says
      whether a slot is real — then compact reals with one oblivious
      sort, replacing two output ORAMs and their extraction sorts;
    * seed the queue from a fixed linear scan of the pre-ORAM table
      (compacted to a prefix by one oblivious sort) instead of ``m``
      ORAM reads, and bound the queue by ``2kr`` — at most ``k·r`` pure
      seeds (a pure cell hosts one of ≤ r items, each covering k cells)
      plus ``k·r`` cascade pushes — instead of ``m + kr``.

    Returns (out_meta, out_payload) arrays of ``2kr`` slots sorted by
    original block index (+inf-keyed dummies last), plus a success flag.
    """
    m_cells = state.meta.num_blocks
    k = state.hashes.k
    B = machine.B
    seeds_cap = min(m_cells, k * r)
    qcap = seeds_cap + k * r
    rounds = qcap
    factor = _peel_shelter_factor(m_cells)

    # Queue seeding: one fixed scan of the (pre-ORAM) cell table marks
    # pure cells; an oblivious sort compacts them to a prefix of the
    # queue image.  The scan pattern is a function of m alone; how many
    # entries are real (``tail``) stays private.
    qinit = machine.alloc(max(qcap, m_cells), "peel.queue.init")
    tail = 0
    for lo, hi in scan_chunks(machine, m_cells, streams=2):
        with hold_scan(machine, 2, hi - lo):

            def seeded(reads, lo=lo):
                mb = reads[0]
                pure = mb[:, 0, 0] == 1
                blks = empty_blocks(len(mb), B)
                cellnos = np.arange(lo, lo + len(mb), dtype=np.int64)
                blks[:, 0, 0] = np.where(pure, cellnos, _INF_KEY)
                blks[:, 0, 1] = pure.astype(np.int64)
                return blks

            metas, _ = machine.io_rounds([
                ("r", state.meta, (lo, hi)),
                ("w", qinit, (lo, hi), seeded),
            ])
            tail += int(np.count_nonzero(metas[:, 0, 0] == 1))
    for lo, hi in scan_chunks(machine, qinit.num_blocks - m_cells):
        with hold_scan(machine, 1, hi - lo):
            pad = empty_blocks(hi - lo, B)
            pad[:, 0, 0] = _INF_KEY
            machine.write_many(qinit, (m_cells + lo, m_cells + hi), pad)
    oblivious_block_sort(machine, [qinit])

    oram_cells = make_oram(
        oram_backend, machine, m_cells, rng, initial=state.meta,
        name="peel.meta", shelter_factor=factor,
    )
    oram_pay = make_oram(
        oram_backend, machine, m_cells, rng, initial=state.payload,
        name="peel.data", shelter_factor=factor,
    )
    oram_q = make_oram(
        oram_backend, machine, qcap, rng, initial=qinit,
        name="peel.queue", shelter_factor=factor,
    )
    machine.free(qinit)
    out_meta = machine.alloc(rounds, "peel.out.meta")
    out_pay = machine.alloc(rounds, "peel.out.data")

    head = 0  # private cursor (tail seeded above)

    def queue_push(cell: int | None) -> None:
        nonlocal tail
        if cell is not None and tail < qcap:
            blk = empty_block(B)
            blk[0, 0] = cell
            blk[0, 1] = 1
            oram_q.write(tail, blk)
            tail += 1
        else:
            oram_q.dummy_op()

    out_count = 0
    for rnd in range(rounds):
        # Pop (or dummy).
        if head < tail:  # oblint: public(head, tail) -- pop-or-dummy: both arms perform exactly one ORAM queue access per round
            qb = oram_q.read(head)
            head += 1
            cand = int(qb[0, 0])
        else:
            oram_q.dummy_op()
            cand = None
        # Examine the candidate cell (stale entries fail the pure test).
        if cand is not None:  # oblint: public(cand is not None) -- balanced probe: both arms perform exactly one ORAM cell access
            mb = oram_cells.read(cand)
            pure = int(mb[0, 0]) == 1
            i_key = int(mb[0, 1])
        else:
            oram_cells.dummy_op()
            pure = False
            i_key = 0
        # Read its payload (or dummy).
        if pure:  # oblint: public(pure) -- balanced probe: both arms perform exactly one ORAM payload access
            enc = oram_pay.read(cand)
        else:
            oram_pay.dummy_op()
            enc = None
        # Emit to the fixed output position for this round; dummy slots
        # carry a +inf sort key, distinguishable only under encryption.
        with machine.cache.hold(2):
            keyblk = empty_block(B)
            keyblk[0, 0] = i_key if pure else _INF_KEY
            machine.write(out_meta, rnd, keyblk)
            machine.write(out_pay, rnd, enc if pure else empty_block(B))
        if pure:
            out_count += 1
        # Delete the item from all k of its cells in one RMW access each,
        # cascading newly-pure cells into the queue.
        locs = state.hashes.locations(i_key) if pure else [None] * k
        for cell in locs:
            if pure:

                def decremented(old, i_key=i_key):
                    nb = old.copy()
                    nb[0, 0] -= 1
                    nb[0, 1] -= i_key
                    return nb

                old_mb = oram_cells.update(int(cell), decremented)
                oram_pay.update(int(cell), lambda old, e=enc: old - e)
                queue_push(int(cell) if int(old_mb[0, 0]) - 1 == 1 else None)
            else:
                oram_cells.dummy_op()
                oram_pay.dummy_op()
                queue_push(None)

    ok = out_count == state.inserted
    oram_cells.free()
    oram_pay.free()
    oram_q.free()
    # Compact the real outputs (at most r of them) to a sorted prefix.
    oblivious_block_sort(machine, [out_meta, out_pay])
    return out_meta, out_pay, ok


def tight_compact_sparse(
    machine: EMMachine,
    A: EMArray,
    r: int,
    rng: np.random.Generator,
    *,
    k: int = 3,
    table_factor: int = 6,
    oblivious_list: bool = True,
    strict: bool = True,
    oram_backend: str = "square_root",
) -> EMArray | tuple[EMArray, bool]:
    """Theorem 4: tight order-preserving compaction via an IBLT.

    ``A`` has ``n`` blocks of which at most ``r`` are occupied; returns an
    array of exactly ``r`` blocks holding them in their original order.
    The IBLT has ``table_factor * r`` cells (Lemma 1 wants
    ``delta * k * n`` with ``delta >= 2``; the default ``6r`` matches
    ``delta = 2, k = 3``).

    ``oblivious_list=True`` (default) routes the peeling through the ORAM
    simulation, making the whole operation data-oblivious; ``False`` uses
    a direct (access-revealing) peel — faster, with identical output —
    for use inside larger constructions that only need the result.
    ``oram_backend`` selects the simulation backend for the peel's ORAMs
    (see :func:`repro.oram.make_oram`).

    With ``strict=True`` a peeling failure raises
    :class:`CompactionFailure`; with ``strict=False`` the function returns
    ``(result, ok)`` and, on failure, a best-effort result.
    """
    if r < 1:
        raise ValueError(f"capacity r must be >= 1, got {r}")
    B = machine.B
    m_cells = max(k, table_factor * r)
    state = _iblt_insert_pass(machine, A, m_cells, k, rng)
    if state.inserted > r:
        machine.free(state.meta)
        machine.free(state.payload)
        if strict:
            raise CompactionFailure(
                f"{state.inserted} occupied blocks exceed capacity r={r}"
            )
        return machine.alloc(r, f"{A.name}.sparse"), False

    if oblivious_list:
        # The peel returns its outputs already sorted by original index
        # (+inf-keyed dummies last): the ≤ r real items are a prefix.
        out_meta, out_pay, ok = _peel_oram(machine, state, r, rng, oram_backend)
        result = machine.alloc(r, f"{A.name}.sparse")
        for lo, hi in scan_chunks(machine, r, streams=3):
            with hold_scan(machine, 3, hi - lo):

                def assembled(reads, k=hi - lo):
                    mb, pb = reads[0], reads[1]
                    keep = mb[:, 0, 0] < _INF_KEY
                    out = empty_blocks(k, B)
                    for t in np.flatnonzero(keep):
                        out[t] = _decode_payload(pb[t])
                    return out

                machine.io_rounds(
                    [
                        ("r", out_meta, (lo, hi)),
                        ("r", out_pay, (lo, hi)),
                        ("w", result, (lo, hi), assembled),
                    ]
                )
        machine.free(out_meta)
        machine.free(out_pay)
    else:
        items, ok = _peel_direct(machine, state, r)
        items.sort(key=lambda kv: kv[0])
        result = machine.alloc(r, f"{A.name}.sparse")
        for lo, hi in scan_chunks(machine, r):
            with hold_scan(machine, 1, hi - lo):
                stacked = empty_blocks(hi - lo, B)
                for t in range(lo, min(hi, len(items))):
                    stacked[t - lo] = items[t][1]
                machine.write_many(result, (lo, hi), stacked)
    machine.free(state.meta)
    machine.free(state.payload)
    if strict and not ok:  # oblint: public(ok) -- Las Vegas overflow flag: the failure event is a data-independent tail event (Theorem 4)
        raise CompactionFailure(
            "IBLT listEntries failed to recover every item (Lemma 1 tail event)"
        )
    return result if strict else (result, ok)


# ---------------------------------------------------------------------------
# Theorem 8: loose compaction (thinning + region halving)
# ---------------------------------------------------------------------------


def loose_compact(
    machine: EMMachine,
    A: EMArray,
    r: int,
    rng: np.random.Generator,
    *,
    c0: int = 3,
    c1: int = 4,
) -> EMArray:
    """Theorem 8: compact ``<= r`` occupied blocks of ``A`` into ``5r``.

    ``O(N/B)`` I/Os; not order-preserving.  Requires the paper's density
    bound ``r <= n/4`` and (for the region step) the wide-block +
    tall-cache regime ``c1 * log2(n) <= M/B``.

    ``c0`` is the number of thinning passes per round (Lemma 7 needs
    ``c0 >= 3``); ``c1`` scales the region size (``c1 = d + 2`` gives
    failure probability ``(N/B)^-(d+1)``).
    """
    n = A.num_blocks
    if r < 1:
        raise ValueError(f"capacity r must be >= 1, got {r}")
    if 4 * r > n:
        raise ValueError(
            f"loose compaction requires R <= N/4 (got r={r}, n={n} blocks)"
        )
    if c0 < 3:
        raise ValueError(f"Lemma 7 requires c0 >= 3 thinning rounds, got {c0}")
    m = machine.cache.capacity_blocks
    B = machine.B
    C = machine.alloc(4 * r, f"{A.name}.loose.C")
    work = copy_array(machine, A, f"{A.name}.loose.work")

    # Loop control uses only public quantities (n, m, r, iteration sizes).
    final_threshold = max(
        r,
        int(n / max(1.0, log_base(n, max(2, m)) ** 2)),
    )
    while work.num_blocks > max(final_threshold, m - 2):
        thinning_rounds(machine, work, C, c0, rng)
        n_cur = work.num_blocks
        g = min(n_cur, c1 * max(1, math.ceil(math.log2(max(2, n_cur)))))
        if g + 2 > m:
            raise AssumptionError(
                f"region of {g} blocks exceeds cache of {m} blocks — "
                "wide-block/tall-cache assumption violated; "
                "use loose_compact_logstar instead"
            )
        if g >= n_cur:
            break  # a single region: halving no longer shrinks anything
        half = ceil_div(g, 2)
        regions = ceil_div(n_cur, g)
        nxt = machine.alloc(regions * half, f"{A.name}.loose.w")
        with machine.cache.hold(g):
            for reg in range(regions):
                lo = reg * g
                real = min(g, n_cur - lo)
                blocks = machine.read_many(work, (lo, lo + real))
                occupied = blocks[blocks_occupied(blocks)]
                if len(occupied) > half:  # oblint: public(len(occupied)) -- halving probe: overflow past the Lemma 7 bound is a data-independent tail event
                    machine.free(nxt)
                    raise CompactionFailure(
                        f"region kept {len(occupied)} > {half} blocks after "
                        f"{c0} thinning rounds (Lemma 7 tail event)"
                    )
                outb = empty_blocks(half, B)
                outb[: len(occupied)] = occupied
                machine.write_many(nxt, (reg * half, reg * half + half), outb)
        machine.free(work)
        work = nxt

    # Final stage: fully compact the small remainder into r blocks.
    thinning_rounds(machine, work, C, c0, rng)
    E = machine.alloc(r, f"{A.name}.loose.E")
    if work.num_blocks + 1 <= m:
        with machine.cache.hold(work.num_blocks):
            blocks = machine.read_many(work, (0, work.num_blocks))
            occupied = blocks[blocks_occupied(blocks)]
            if len(occupied) > r:  # oblint: public(len(occupied)) -- residual probe: overflow past the Lemma 7 bound is a data-independent tail event
                raise CompactionFailure(
                    f"{len(occupied)} blocks remain for a tail of capacity {r}"
                )
            outb = empty_blocks(r, B)
            outb[: len(occupied)] = occupied
            machine.write_many(E, (0, r), outb)
    else:
        # Occupied-first oblivious sort, then take the first r blocks.
        oblivious_block_sort(
            machine, [work], key_fn=lambda blk: 0 if block_occupied(blk) else 1
        )
        with machine.cache.hold(1):
            probe = machine.read(work, r) if work.num_blocks > r else None
        if probe is not None and block_occupied(probe):  # oblint: public(probe) -- overflow probe: a data-independent Las Vegas tail event
            raise CompactionFailure(
                f"more than {r} blocks remain for the compaction tail"
            )
        copy_blocks(machine, work, 0, E, 0, min(r, work.num_blocks))
    machine.free(work)
    out = concat_arrays(machine, [C, E], f"{A.name}.loose.out")
    machine.free(C)
    machine.free(E)
    return out


# ---------------------------------------------------------------------------
# Theorem 9 / Appendix B: loose compaction with only B >= 1, M >= 2B
# ---------------------------------------------------------------------------


def loose_compact_logstar(
    machine: EMMachine,
    A: EMArray,
    r: int,
    rng: np.random.Generator,
    *,
    c0: int = 8,
    tower_base: int = 4,
    n0: int = 32,
    region_compactor: str = "butterfly",
    oblivious_list: bool = False,
) -> EMArray:
    """Theorem 9: loose compaction into ``ceil(4.25 r)`` blocks using
    ``O((N/B) log*(N/B))`` I/Os and only ``B >= 1``, ``M >= 2B``.

    Follows Appendix B: an initial burst of ``c0`` thinning passes, then
    tower-of-twos phases, each consisting of a *thinning-out* step
    (through a shrinking auxiliary array ``C_i``) and a
    *region-compaction* step that compacts regions of ``2^{4 t_i}`` cells
    and thins the compacted prefixes into the output.

    ``tower_base`` sets ``t_1`` (the paper uses ``t_1 = 2^2 = 4``; tests
    use 2 so that a phase actually executes at laptop scale — with the
    paper's value the phase condition ``r/t_i^4 > n/log^2 n`` only
    triggers beyond ``n ~ 2^32``).  ``region_compactor`` selects the
    per-region tight compactor: ``"butterfly"`` (deterministic, default)
    or ``"iblt"`` (the paper's Theorem-4 choice).  ``oblivious_list``
    routes every Theorem-4 subroutine's peel through the ORAM simulation
    (the paper's fully-oblivious construction); the default ``False``
    keeps the historical fast direct peel, whose access pattern reveals
    which blocks were occupied — callers needing a data-independent
    transcript (e.g. the ``compact_logstar`` registry entry) must pass
    ``True``.
    """
    n = A.num_blocks
    if r < 1:
        raise ValueError(f"capacity r must be >= 1, got {r}")
    if 4 * r > n:
        raise ValueError(f"requires R <= N/4 (got r={r}, n={n} blocks)")
    if region_compactor not in ("butterfly", "iblt"):
        raise ValueError(f"unknown region_compactor {region_compactor!r}")
    B = machine.B
    tail_cap = max(1, ceil_div(r, 4))
    out_cap = 4 * r + tail_cap

    def finish_small(work: EMArray) -> EMArray:
        """Base case: compact everything with the deterministic network."""
        tight = tight_compact(machine, work, out_cap)
        return tight

    if n < n0:
        return finish_small(A)

    log2n_sq = max(1.0, math.log2(n)) ** 2
    if r < n / log2n_sq:
        # Sparse base case: Theorem 4 directly, padded to the loose size.
        sparse = tight_compact_sparse(  # oblint: public(sparse) -- array handle; its capacity is the public loose bound
            machine, A, r, rng, oblivious_list=oblivious_list, strict=True
        )
        out = machine.alloc(out_cap, f"{A.name}.lstar.out")
        copy_blocks(machine, sparse, 0, out, 0, sparse.num_blocks)
        machine.free(sparse)
        return out

    D_main = machine.alloc(4 * r, f"{A.name}.lstar.D")
    work = copy_array(machine, A, f"{A.name}.lstar.work")
    thinning_rounds(machine, work, D_main, c0, rng)

    t_i = tower_base
    phase = 1
    while r / t_i**4 > n / log2n_sq and phase <= 4:
        # --- Thinning-out step -------------------------------------------
        ci_size = max(1, r // t_i)
        C_i = machine.alloc(ci_size, f"{A.name}.lstar.C{phase}")
        thinning_rounds(machine, work, C_i, 2, rng)
        thinning_rounds(machine, C_i, D_main, t_i, rng)
        grown = concat_arrays(machine, [work, C_i], f"{A.name}.lstar.w{phase}")
        machine.free(work)
        machine.free(C_i)
        work = grown
        # --- Region-compaction step --------------------------------------
        n_w = work.num_blocks
        region = min(n_w, 2 ** (4 * t_i))
        r_i = max(1, region // (t_i * t_i))
        regions = ceil_div(n_w, region)
        for reg in range(regions):
            lo = reg * region
            size = min(region, n_w - lo)
            reg_arr = machine.alloc(size, f"{A.name}.lstar.reg")
            copy_blocks(machine, work, lo, reg_arr, 0, size)
            if region_compactor == "butterfly":
                compacted = butterfly_compact(machine, reg_arr)
            else:
                compacted, _ok = tight_compact_sparse(  # oblint: public(compacted) -- array handle with public capacity
                    machine,
                    reg_arr,
                    min(r_i, size),
                    rng,
                    oblivious_list=oblivious_list,
                    strict=False,
                )
            # Copy the compacted region back over its slot in `work`; the
            # prefix A'_j is what the thinning below will draw from, and
            # overflow blocks (over-crowded regions) simply stay behind
            # for the next phase.
            back = min(size, compacted.num_blocks)
            copy_blocks(machine, compacted, 0, work, lo, back)
            for zlo, zhi in scan_chunks(machine, size - back):
                with hold_scan(machine, 1, zhi - zlo):
                    machine.write_many(
                        work,
                        (lo + back + zlo, lo + back + zhi),
                        empty_blocks(zhi - zlo, B),
                    )
            machine.free(compacted)
            machine.free(reg_arr)
            # Thin the compacted prefix A'_j into D_main.
            prefix = min(r_i, size)
            pref_arr = machine.alloc(prefix, f"{A.name}.lstar.pref")
            copy_blocks(machine, work, lo, pref_arr, 0, prefix)
            thinning_rounds(machine, pref_arr, D_main, t_i * t_i, rng)
            copy_blocks(machine, pref_arr, 0, work, lo, prefix)
            machine.free(pref_arr)
        t_i = 2**t_i
        phase += 1

    # Final: Theorem 4 into the last 0.25 r cells of D.
    tail, ok = tight_compact_sparse(  # oblint: public(tail) -- array handle; the ok flag stays private
        machine, work, tail_cap, rng, oblivious_list=oblivious_list, strict=False
    )
    machine.free(work)
    if not ok:  # oblint: public(ok) -- loose-compaction overflow flag: a data-independent Las Vegas tail event
        machine.free(D_main)
        machine.free(tail)
        raise CompactionFailure(
            "log* compaction finished with more than 0.25 r blocks remaining"
        )
    out = concat_arrays(machine, [D_main, tail], f"{A.name}.lstar.out")
    machine.free(D_main)
    machine.free(tail)
    return out
