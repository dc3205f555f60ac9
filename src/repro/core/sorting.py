"""Data-oblivious external-memory sorting (paper §5, Theorem 21).

Sorts ``N`` key-value records with ``O((N/B) log_{M/B}(N/B))`` I/Os,
succeeding w.v.h.p. — the paper's main result, and the first
asymptotically-optimal oblivious external-memory sort.

Pipeline per recursion level (following §5):

1. **Quantiles** — compute ``q = (M/B)^{1/4}`` exact pivots (Theorem 17),
   defining ``q + 1`` colours with *public* per-colour counts (records
   are made distinct up front by appending their position to the key, so
   colour ``c``'s count is the difference of consecutive pivot ranks).
2. **Multi-way consolidation** — make every block monochromatic.
3. **Shuffle-and-deal** — Knuth-shuffle the blocks, then deal them to one
   array per colour in fixed-size batches with fixed per-colour padding
   (Lemma 18 / Corollary 19 bound the per-batch colour counts).
4. **Loose compaction** — shrink each colour array to ``O(N/(qB))``
   blocks (Theorem 8), when that actually shrinks it.
5. **Recurse** per colour; small subproblems sort inside private memory.
6. **Failure sweeping** — always executed: check each colour's output
   privately, butterfly-compact whatever failed into a fixed-size
   scratch area, fix it with the deterministic sort, and expand back
   (§5's data-oblivious failure-sweeping technique).
7. **Final tight compaction** — consolidate (Lemma 3) + butterfly
   (Theorem 6) produce the dense sorted output.

Every step's access pattern is a fixed function of the public parameters
``(N, M, B)``; the randomized bounds can fail (raising one of the
library's failure exceptions), in which case :func:`oblivious_sort`
retries with fresh randomness — each attempt individually oblivious.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core._helpers import concat_arrays
from repro.core.compaction import (
    CompactionFailure,
    loose_compact,
    tight_compact,
    wide_block_ok,
)
from repro.core.consolidation import consolidate, multiway_consolidate
from repro.core.external_sort import oblivious_external_sort
from repro.core.failure_sweep import SweepOverflow, failure_sweep
from repro.core.quantiles import QuantileFailure, quantiles_em
from repro.core.shuffle import DealOverflow, shuffle_and_deal
from repro.em.batch import hold_scan, scan_chunks
from repro.em.block import NULL_KEY, RECORD_WIDTH, is_empty
from repro.em.errors import EMError
from repro.errors import LasVegasFailure
from repro.em.machine import EMMachine
from repro.em.storage import EMArray
from repro.networks.comparator import sort_records
from repro.util.mathx import ceil_div, next_pow2
from repro.util.rng import child_rng

__all__ = ["SortFailure", "oblivious_sort", "SortStats"]

_RETRYABLE = (QuantileFailure, DealOverflow, CompactionFailure, SweepOverflow)


class SortFailure(EMError, LasVegasFailure):
    """All retries of the randomized sort failed — probability
    ``(N/B)^{-d}`` per attempt under the paper's analysis."""


@dataclass
class SortStats:
    """Private diagnostics accumulated over one sort attempt."""

    levels: int = 0
    swept_segments: int = 0
    attempts: int = 1
    color_counts: list[list[int]] = field(default_factory=list)


def _check_sorted_scan(machine: EMMachine, A: EMArray) -> bool:
    """Private check: do the non-empty records of ``A`` appear in
    non-decreasing key order?  Fixed-pattern scan."""
    prev = None
    ok = True
    for lo, hi in scan_chunks(machine, A.num_blocks):
        with hold_scan(machine, 1, hi - lo):
            blocks = machine.read_many(A, (lo, hi))
            keys = blocks[..., 0][~is_empty(blocks)]
            if len(keys):
                if np.any(np.diff(keys) < 0):
                    ok = False
                if prev is not None and keys[0] < prev:
                    ok = False
                prev = int(keys[-1])
    return ok


def _sort_in_cache(machine: EMMachine, A: EMArray) -> EMArray:
    """Base case: the whole subarray fits in private memory."""
    n = A.num_blocks
    B = machine.B
    out = machine.alloc(n, f"{A.name}.base")
    with machine.cache.hold(n + 1):
        records = machine.read_many(A, (0, n)).reshape(-1, RECORD_WIDTH)
        ordered = sort_records(records).reshape(n, B, RECORD_WIDTH)
        machine.write_many(out, (0, n), ordered)
    return out


def _sort_padded(
    machine: EMMachine,
    A: EMArray,
    n_items: int,
    rng: np.random.Generator,
    stats: SortStats,
    depth: int,
) -> EMArray:
    """Recursive worker: returns an array (possibly padded with empties)
    whose non-empty records are in non-decreasing key order."""
    if depth > 32:
        raise SortFailure("recursion failed to shrink the problem")
    n_blocks = A.num_blocks
    m = machine.cache.capacity_blocks
    B = machine.B
    if n_blocks + 2 <= m:
        return _sort_in_cache(machine, A)
    stats.levels = max(stats.levels, depth + 1)

    q = max(1, int(m**0.25))
    colors = q + 1
    if n_items <= 2 * colors or colors < 2:
        # Too small to distribute meaningfully: deterministic fallback.
        return oblivious_external_sort(machine, A)

    # 1. Exact pivots (Theorem 17).
    pivots = quantiles_em(machine, A, n_items, q, child_rng(rng, depth))
    pivots = np.sort(np.asarray(pivots, dtype=np.int64))
    targets = [
        max(1, min(n_items, round(i * n_items / (q + 1)))) for i in range(1, q + 1)
    ]
    # Public per-colour counts (keys are distinct by construction).
    counts = [targets[0] - 1]
    counts += [targets[c + 1] - targets[c] for c in range(q - 1)]
    counts.append(n_items - targets[-1] + 1)
    stats.color_counts.append(counts)

    def color_of_records(records: np.ndarray) -> np.ndarray:
        return np.searchsorted(pivots, records[:, 0], side="right")

    # 2. Monochromatic blocks.
    mc = multiway_consolidate(machine, A, colors, color_of_records)

    # 3. Shuffle-and-deal.
    def color_of_block(block: np.ndarray) -> int:
        real = block[~is_empty(block)]
        return int(np.searchsorted(pivots, int(real[0, 0]), side="right"))

    deal = shuffle_and_deal(
        machine,
        mc.array,
        colors,
        color_of_block,
        child_rng(rng, 1000 + depth),
        deal_factor=8.0,
    )
    machine.free(mc.array)

    # 4 + 5. Loose-compact (when it shrinks) and recurse per colour.
    results: list[EMArray] = []
    for c in range(colors):
        C_c = deal.arrays[c]
        r_c = ceil_div(max(1, counts[c]), B) + 3  # occupied-block bound
        if int(deal.occupied[c]) > r_c:
            raise DealOverflow(
                f"colour {c} holds {int(deal.occupied[c])} blocks > bound {r_c}"
            )
        # The deal pads each colour array; compaction must undo that
        # inflation or the recursion's block counts grow geometrically.
        # Use Theorem 8 (linear I/O) when its preconditions hold and it
        # shrinks; otherwise fall back to the deterministic butterfly
        # (Theorem 6) — same obliviousness, a log_m factor more I/Os.
        if (
            5 * r_c < C_c.num_blocks
            and 4 * r_c <= C_c.num_blocks
            and wide_block_ok(C_c.num_blocks, m)
        ):
            D_c = loose_compact(machine, C_c, r_c, child_rng(rng, 2000 + depth * 64 + c))
            machine.free(C_c)
        elif r_c < C_c.num_blocks:
            D_c = tight_compact(machine, C_c, r_c)
            machine.free(C_c)
        else:
            D_c = C_c
        sorted_c = _sort_padded(
            machine, D_c, counts[c], child_rng(rng, 3000 + depth * 64 + c), stats, depth + 1
        )
        if sorted_c is not D_c:
            machine.free(D_c)
        results.append(sorted_c)

    # 6. Failure sweeping — run unconditionally; the mask is private.
    failed = [not _check_sorted_scan(machine, arr) for arr in results]
    bounds: list[tuple[int, int]] = []
    pos = 0
    for arr in results:
        bounds.append((pos, pos + arr.num_blocks))
        pos += arr.num_blocks
    concat = concat_arrays(machine, results, f"{A.name}.concat{depth}")
    for arr in results:
        machine.free(arr)
    max_seg = max(hi - lo for lo, hi in bounds)
    cap = min(concat.num_blocks, max_seg)
    stats.swept_segments += sum(failed)
    swept = failure_sweep(machine, concat, bounds, failed, cap)
    machine.free(concat)
    return swept


@dataclass
class _KeySpace:
    span: int
    max_key: int


def _count_real(machine: EMMachine, A: EMArray) -> int:
    """Private count of the real (non-NULL) records of ``A`` — one
    fixed-pattern read scan."""
    total = 0
    for lo, hi in scan_chunks(machine, A.num_blocks):
        with hold_scan(machine, 1, hi - lo):
            blocks = machine.read_many(A, (lo, hi))
            total += int(np.count_nonzero(~is_empty(blocks)))
    return total


def _distinctify(
    machine: EMMachine, A: EMArray, n_items: int, pad_fill: int | None = None
) -> tuple[EMArray, _KeySpace]:
    """Scan rewriting each record's key to ``key * span + position`` so
    keys become distinct (ties broken by original position, making the
    sort stable) while preserving order.

    A non-``None`` ``pad_fill`` (padded mode) promotes the first
    ``pad_fill`` NULL slots, in scan order, to max-key sentinel records
    — bringing the tagged real count up to exactly ``n_items`` so the
    sort's rank arithmetic (pivot targets, public colour counts) stays
    valid on inputs whose real count sits privately below the declared
    public bound.  The sentinels sort to the very end and are stripped
    back to NULLs by :func:`_undistinctify`; real keys must then stay
    below ``limit - 1`` (one key sacrificed to the sentinel).
    """
    span = next_pow2(max(2, n_items))
    out = machine.alloc(A.num_blocks, f"{A.name}.tagged")
    pos = 0
    limit = (1 << 62) // span
    key_cap = limit if pad_fill is None else limit - 1
    fill_left = pad_fill or 0
    for lo, hi in scan_chunks(machine, A.num_blocks, streams=2):
        with hold_scan(machine, 2, hi - lo):

            def tagged(reads):
                nonlocal pos, fill_left
                blocks = reads[0]
                real = ~is_empty(blocks)
                keys = blocks[..., 0][real]
                if len(keys) and (keys.min() < 0 or keys.max() >= key_cap):
                    machine.free(out)
                    raise ValueError(
                        f"sortable keys must lie in [0, {key_cap}) "
                        f"for N={n_items}"
                    )
                new = blocks.copy()
                if fill_left:
                    holes = np.flatnonzero(~real.ravel())[:fill_left]
                    new[..., 0].reshape(-1)[holes] = limit - 1
                    new[..., 1].reshape(-1)[holes] = 0
                    fill_left -= len(holes)
                    real = ~is_empty(new)
                count = int(np.count_nonzero(real))
                new[..., 0][real] = new[..., 0][real] * span + np.arange(
                    pos, pos + count, dtype=np.int64
                )
                pos += count
                return new

            machine.io_rounds([("r", A, (lo, hi)), ("w", out, (lo, hi), tagged)])
    return out, _KeySpace(span=span, max_key=limit)


def _undistinctify(
    machine: EMMachine, A: EMArray, span: int, strip_sentinels: bool = False
) -> None:
    """Inverse of :func:`_distinctify`, in place.  In padded mode the
    max-key sentinel records turn back into NULLs (they sorted to the
    end, so the output stays front-packed)."""
    sentinel = (1 << 62) // span - 1
    for lo, hi in scan_chunks(machine, A.num_blocks, streams=2):
        with hold_scan(machine, 2, hi - lo):

            def untagged(reads):
                blocks = reads[0]
                real = ~is_empty(blocks)
                blocks[..., 0][real] = blocks[..., 0][real] // span
                if strip_sentinels:
                    sent = blocks[..., 0] == sentinel
                    blocks[..., 0] = np.where(sent, NULL_KEY, blocks[..., 0])
                    blocks[..., 1] = np.where(sent, 0, blocks[..., 1])
                return blocks

            machine.io_rounds([("r", A, (lo, hi)), ("w", A, (lo, hi), untagged)])


def oblivious_sort(
    machine: EMMachine,
    A: EMArray,
    n_items: int,
    rng: np.random.Generator,
    *,
    retries: int = 3,
    stats: SortStats | None = None,
    padded: bool = False,
) -> EMArray:
    """Sort the records of ``A`` (Theorem 21).

    Returns a new array of ``ceil(n_items / B) + 1`` blocks holding the
    records in non-decreasing key order, tightly packed.  ``n_items`` is
    the public number of real records.  Keys must be non-negative and
    fit in ``[0, 2^62 / next_pow2(N))``.

    ``padded=True`` relaxes ``n_items`` to a public *upper bound*: the
    input may hold fewer real records (e.g. downstream of a masking
    scan, whose surviving count is private).  The sort then pays one
    extra counting scan, promotes exactly ``n_items - real`` NULL slots
    to max-key sentinels so its rank arithmetic sees a full ``n_items``
    records, and strips them afterwards — the output holds the real
    records front-packed, NULL-padded to the same public bound, and the
    whole transcript is a function of ``(num_blocks, n_items)`` only.
    ``padded`` is itself public (derived from plan structure), so
    branching on it leaks nothing; the dense path is byte-identical to
    before.  In padded mode keys must stay below the limit minus one
    (the sentinel key).

    Stable: equal keys keep their input order (a by-product of the
    distinctness transform).  On a probabilistic failure the sort retries
    with fresh randomness, up to ``retries`` times.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be non-negative, got {n_items}")
    pad_fill = 0
    if padded:
        real = _count_real(machine, A)
        if real > n_items:  # oblint: public(real) -- validation abort: fires only when the caller understates the real occupancy
            raise ValueError(
                f"padded sort declared n_items={n_items} but the input "
                f"holds {real} real records"
            )
        pad_fill = n_items - real
    stats = stats if stats is not None else SortStats()
    last_error: Exception | None = None
    for attempt in range(max(1, retries)):
        stats.attempts = attempt + 1
        try:
            tagged, keyspace = _distinctify(
                machine, A, n_items, pad_fill if padded else None
            )
            padded_arr = _sort_padded(
                machine, tagged, n_items, child_rng(rng, attempt), stats, 0
            )
            machine.free(tagged)
            cons = consolidate(machine, padded_arr)
            machine.free(padded_arr)
            out = tight_compact(
                machine, cons.array, ceil_div(max(1, n_items), machine.B) + 1
            )
            machine.free(cons.array)
            _undistinctify(machine, out, keyspace.span, strip_sentinels=padded)
            return out
        except _RETRYABLE as exc:  # noqa: PERF203
            last_error = exc
            continue
    raise SortFailure(
        f"oblivious sort failed after {retries} attempts: {last_error}"
    )
