"""Data-oblivious selection (paper §4, Theorems 12 and 13).

Finds the ``k``-th smallest of ``n`` comparable items in ``O(N/B)`` I/Os,
with a high probability of success — beating the ``Omega(n log log n)``
lower bound of Leighton et al. for compare-exchange-only circuits by
using copying, summation, and random hashing as additional primitives
(the point the paper makes after Theorem 12).

Algorithm (following §4):

1. sample each item with probability ``n^{-1/2}`` into a marked copy;
2. compact and sort the ``~ n^{1/2}`` samples; pick bracket items
   ``x', y'`` at ranks that straddle ``k``'s scaled rank;
3. widen with the true min/max (``x = max(x', min A)``, ``y = min(y',
   max A)``) so extreme ``k`` stay covered;
4. one more scan marks the ``O(n^{7/8})`` items in ``[x, y]`` and counts
   (privately) the items below ``x``;
5. compact and sort the marked items; the answer sits at (private) rank
   ``k - |{a < x}|`` of that array, read off by a final scan.

Step 5's capacity is ``8 n^{7/8}``, which is at least ``n`` for every
``n <= 8^8`` (about 16.8 million items): at every size this library
runs, steps 1-4 cannot remove a single item and step 5 sorts them all.
:func:`select_em` therefore goes straight to step 5 whenever the cap
covers ``n`` — it compacts a sparse input, sorts every item with Lemma 2
and reads rank ``k`` off at its public position — and runs the sampling
path (:func:`_select_sampled`) only above that size.  The direct branch
does a subset of the sampling path's work and returns the same key.

Every step is a scan, a compaction, or an oblivious sort, so the access
pattern is a fixed function of ``(n, M, B)``.  The probabilistic size
bounds of the sampling path can fail (Lemmas 10-11); failures are
detected privately and raise :class:`SelectionFailure` — callers may
retry with fresh randomness.  The direct branch draws no randomness and
cannot fail this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core._helpers import ranked_records_scan
from repro.core.compaction import tight_compact
from repro.core.consolidation import consolidate
from repro.core.external_sort import oblivious_external_sort
from repro.em.batch import hold_scan, scan_chunks
from repro.em.block import NULL_KEY, is_empty
from repro.em.errors import EMError
from repro.errors import LasVegasFailure
from repro.em.machine import EMMachine
from repro.em.storage import EMArray
from repro.util.mathx import ceil_div

__all__ = ["SelectionFailure", "select_em", "SelectionReport"]


class SelectionFailure(EMError, LasVegasFailure):
    """A probabilistic size/bracket bound failed (paper Lemmas 10-11).

    Each attempt is individually data-oblivious; retry with fresh
    randomness."""


@dataclass
class SelectionReport:
    """Selection result plus private diagnostics (sizes of the sample and
    of the bracketed candidate set — useful for the E6 benchmarks)."""

    key: int
    value: int
    sample_size: int
    candidate_size: int


def _scan_min_max_count(
    machine: EMMachine, A: EMArray
) -> tuple[int, int, int]:
    """One scan: (min key, max key, number of real items) — all private."""
    lo, hi, count = None, None, 0
    for clo, chi in scan_chunks(machine, A.num_blocks):
        with hold_scan(machine, 1, chi - clo):
            blocks = machine.read_many(A, (clo, chi))
            keys = blocks[..., 0][~is_empty(blocks)]
            if len(keys):
                count += len(keys)
                blk_lo, blk_hi = int(keys.min()), int(keys.max())
                lo = blk_lo if lo is None else min(lo, blk_lo)
                hi = blk_hi if hi is None else max(hi, blk_hi)
    if lo is None:
        raise ValueError("selection over an empty array")
    return lo, hi, count


def _scan_checked(
    machine: EMMachine, A: EMArray, n_items: int
) -> tuple[int, int]:
    """:func:`_scan_min_max_count`, checked against the caller's public
    item count; returns the (private) min and max keys."""
    lo_key, hi_key, count = _scan_min_max_count(machine, A)
    if count != n_items:  # oblint: public(count) -- validation abort: fires only when the caller's n_items claim is wrong
        raise ValueError(f"A holds {count} items, caller claimed {n_items}")
    return lo_key, hi_key


def _mark_scan(
    machine: EMMachine,
    A: EMArray,
    keep_fn,
    name: str,
) -> tuple[EMArray, int]:
    """Scan ``A`` writing a copy in which records failing ``keep_fn``
    become empty.  Returns (marked array, private count kept)."""
    out = machine.alloc(A.num_blocks, name)
    kept = 0
    for lo, hi in scan_chunks(machine, A.num_blocks, streams=2):
        with hold_scan(machine, 2, hi - lo):

            def marked(reads):
                nonlocal kept
                blocks = reads[0]
                # keep_fn is called once per block, in scan order — it may
                # consume caller randomness (the Bernoulli sampling scan).
                keep = np.stack([
                    ~is_empty(b) & np.asarray(keep_fn(b), dtype=bool)
                    for b in blocks
                ])
                kept += int(np.count_nonzero(keep))
                new = blocks.copy()
                new[..., 0] = np.where(keep, new[..., 0], NULL_KEY)
                new[..., 1] = np.where(keep, new[..., 1], 0)
                return new

            machine.io_rounds([("r", A, (lo, hi)), ("w", out, (lo, hi), marked)])
    return out, kept


def _compact_records(
    machine: EMMachine, marked: EMArray, cap_records: int
) -> EMArray:
    """Consolidate + tight-compact (Theorem 6) marked records into
    ``cap_records``.

    Returns an array of ``ceil(cap_records / B) + 1`` blocks.  The +1
    absorbs the partial block that consolidation leaves at the end.
    """
    cons = consolidate(machine, marked)
    cap_blocks = ceil_div(max(1, cap_records), machine.B) + 1
    out = tight_compact(machine, cons.array, cap_blocks)
    machine.free(cons.array)
    return out


def compact_and_sort(machine: EMMachine, A: EMArray, n_items: int) -> EMArray:
    """Lemma 2 sort of every record of ``A``, empties last.

    A sparse ``A`` is compacted first (consolidation + tight compaction
    into ``ceil(n/B) + 1`` blocks), so the sort's log-squared factor is
    not paid on empty blocks.  It counts as sparse when it has more than
    ``ceil(n/B) + 3`` blocks, the occupied-block bound that Theorem 21's
    deal leaves each colour; the sort's recursive inputs are therefore
    sorted as they are.  Only public sizes decide.  ``A`` is left
    untouched.
    """
    if A.num_blocks <= ceil_div(n_items, machine.B) + 3:
        return oblivious_external_sort(machine, A)
    D = _compact_records(machine, A, n_items)
    try:
        return oblivious_external_sort(machine, D)
    finally:
        machine.free(D)


def _bracket_cap(n: int) -> int:
    """Capacity of step 5's candidate set (Lemma 11): ``8 n^{7/8}``."""
    return int(math.ceil(8 * n**0.875))


def _sorted_rank_pick(
    machine: EMMachine, arr: EMArray, ranks: list[int]
) -> list[tuple[int, int] | None]:
    """Scan a sorted array picking the records at the given 1-based ranks
    (private positions; the scan pattern is fixed)."""
    found = ranked_records_scan(machine, arr, ranks)
    return [found.get(r) if r >= 1 else None for r in ranks]


def select_em(
    machine: EMMachine,
    A: EMArray,
    n_items: int,
    k: int,
    rng: np.random.Generator,
    *,
    report: bool = False,
) -> tuple[int, int] | SelectionReport:
    """Select the ``k``-th smallest item (1-based) of ``A`` (Theorem 13).

    ``n_items`` is the (public) number of real records in ``A``.  Every
    compaction is Theorem 6's butterfly.

    When step 5's candidate cap covers ``n`` (``n <= 8^8``), the
    sampling cannot shrink the candidate set, so every item is sorted
    directly (:func:`compact_and_sort`) and rank ``k`` read off; the
    report's ``sample_size`` is then 0 and ``candidate_size`` is ``n``.
    Larger inputs take the sampling path, :func:`_select_sampled`.

    Returns ``(key, value)`` of the selected record, or a
    :class:`SelectionReport` when ``report=True``.
    """
    if not (1 <= k <= n_items):
        raise ValueError(f"rank k={k} out of range [1, {n_items}]")
    if _bracket_cap(n_items) < n_items:
        return _select_sampled(machine, A, n_items, k, rng, report=report)
    _scan_checked(machine, A, n_items)
    D_sorted = compact_and_sort(machine, A, n_items)
    try:
        key, value = select_sorted_em(machine, D_sorted, n_items, k)
    finally:
        machine.free(D_sorted)
    if report:
        return SelectionReport(key=key, value=value, sample_size=0, candidate_size=n_items)
    return key, value


def _select_sampled(
    machine: EMMachine,
    A: EMArray,
    n_items: int,
    k: int,
    rng: np.random.Generator,
    *,
    report: bool = False,
) -> tuple[int, int] | SelectionReport:
    """Theorem 13's sampling path, steps 1-5 (see the module docstring).

    :func:`select_em` runs it when step 5's cap is below ``n``; it is
    callable at any size, which is how the tests and E6 measure it.
    """
    if not (1 <= k <= n_items):
        raise ValueError(f"rank k={k} out of range [1, {n_items}]")
    n = n_items
    sqrt_n = math.sqrt(n)

    # Step 0: global min/max and an item-count sanity check (one scan).
    lo_key, hi_key = _scan_checked(machine, A, n_items)

    # Step 1: Bernoulli(n^-1/2) sampling scan.
    p = 1.0 / sqrt_n
    draws_per_block = machine.B

    def sample_fn(block: np.ndarray) -> np.ndarray:
        return rng.random(draws_per_block) < p

    S, c_s = _mark_scan(machine, A, sample_fn, f"{A.name}.sample")
    cap_sample = int(math.ceil(sqrt_n + n**0.375))
    if c_s > cap_sample or c_s < 1:
        machine.free(S)
        raise SelectionFailure(
            f"sample size {c_s} outside (0, {cap_sample}] (Lemma 10 tail)"
        )

    # Step 2: compact + sort the sample; pick the bracket.
    C = _compact_records(machine, S, cap_sample)
    machine.free(S)
    C_sorted = oblivious_external_sort(machine, C)
    machine.free(C)
    rank_x = math.ceil(k / sqrt_n - n**0.375)
    rank_y = c_s - math.ceil((n - k) / sqrt_n - 2 * n**0.375)
    picks = _sorted_rank_pick(machine, C_sorted, [rank_x, min(rank_y, c_s)])
    machine.free(C_sorted)
    x_prime = picks[0][0] if picks[0] is not None else None
    y_prime = picks[1][0] if (picks[1] is not None and rank_y >= 1) else None

    # Step 3: widen with the true extremes.
    x = lo_key if x_prime is None else max(x_prime, lo_key)
    y = hi_key if y_prime is None else min(y_prime, hi_key)
    if x > y:  # oblint: public(x, y) -- empty-bracket probe: a Lemma 11 tail event, data-independent w.h.p.
        raise SelectionFailure(f"empty bracket [{x}, {y}] (Lemma 11 tail)")

    # Step 4: mark the bracketed candidates; count items below x.
    below = 0
    candidates = 0

    def bracket_fn(block: np.ndarray) -> np.ndarray:
        nonlocal below
        keys = block[:, 0]
        real = ~is_empty(block)
        below += int(np.count_nonzero(real & (keys < x)))
        return (keys >= x) & (keys <= y)

    T, c_t = _mark_scan(machine, A, bracket_fn, f"{A.name}.bracket")
    candidates = c_t
    cap_bracket = _bracket_cap(n)
    if c_t > cap_bracket:
        machine.free(T)
        raise SelectionFailure(
            f"bracket holds {c_t} > {cap_bracket} items (Lemma 11 tail)"
        )
    target = k - below
    if not (1 <= target <= c_t):
        machine.free(T)
        raise SelectionFailure(
            f"k-th item escaped the bracket (target rank {target} of {c_t})"
        )

    # Step 5: compact + sort the candidates; read off the answer.
    D = _compact_records(machine, T, min(cap_bracket, n))
    machine.free(T)
    D_sorted = oblivious_external_sort(machine, D)
    machine.free(D)
    answer = _sorted_rank_pick(machine, D_sorted, [target])[0]
    machine.free(D_sorted)
    if answer is None:
        raise SelectionFailure("rank pick failed after compaction")
    if report:
        return SelectionReport(
            key=answer[0], value=answer[1], sample_size=c_s, candidate_size=candidates
        )
    return answer


def select_sorted_em(
    machine: EMMachine,
    A: EMArray,
    n_items: int,
    k: int,
) -> tuple[int, int]:
    """Select the ``k``-th smallest record of an *already key-sorted* ``A``.

    The degenerate case of Theorem 13: with the input order known to be
    sorted, rank ``k`` is a public position and a single fixed-pattern
    ranked scan reads the answer off — ``O(N/B)`` I/Os, deterministic.
    The plan optimizer substitutes this for ``select`` when the
    producing step declares sorted output; direct callers own the
    sortedness precondition.
    """
    if not (1 <= k <= n_items):
        raise ValueError(f"rank k={k} out of range [1, {n_items}]")
    picked = _sorted_rank_pick(machine, A, [k])[0]
    if picked is None:
        raise ValueError(
            f"array holds fewer than {k} real records (caller claimed {n_items})"
        )
    return picked
