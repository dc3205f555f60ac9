"""Data-oblivious quantile selection (paper §4, Theorem 17).

Selects the ``q`` quantile keys of an ``N``-item array using ``O(N/B)``
I/Os, for ``q <= (M/B)^{1/4}`` — the subroutine the oblivious sort
(§5 / Theorem 21) uses to pick its distribution pivots.

Algorithm (following the paper, with one simplification):

1. if the array fits in private memory, sort it there and read the
   quantiles off directly (the paper's ``(M/B) > (N/B)^{1/4}`` case);
2. otherwise sample each item with probability ``N^{-1/4}``, compact and
   sort the sample, and pick bracketing pairs ``[x_i, y_i]`` around every
   quantile's scaled rank (Lemmas 14-16 give the w.h.p. guarantees);
3. scan ``A`` classifying every item against the brackets, counting
   (privately) the items in each bracket and each gap between brackets;
4. compact the bracketed items into a fixed-capacity array, sort it
   obliviously once, and read all ``q`` quantiles off in one final scan
   using the private gap counts to convert global ranks to local ones.

The paper instead pads each bracket to exactly ``8 N^{3/4}`` items and
runs a per-bracket selection (Theorem 13); because we already know the
private gap/bracket counts, a single sorted scan recovers every quantile
without the padding.  The access pattern is unchanged in kind (scan +
compact + sort + scan) and the I/O bound is the same; see DESIGN.md.
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
from repro.em.block import NULL_KEY, RECORD_WIDTH, is_empty
from repro.em.errors import EMError
from repro.errors import LasVegasFailure
from repro.em.machine import EMMachine
from repro.em.storage import EMArray
from repro.networks.comparator import sort_records
from repro.util.mathx import ceil_div

__all__ = [
    "QuantileFailure",
    "quantiles_em",
    "quantiles_sorted_em",
    "QuantileReport",
]


class QuantileFailure(EMError, LasVegasFailure):
    """A probabilistic bound of Lemmas 14-16 failed; retry with fresh
    randomness (each attempt is individually oblivious)."""


@dataclass
class QuantileReport:
    """Quantile keys plus private diagnostics."""

    keys: np.ndarray
    sample_size: int
    marked: int


def _target_ranks(n_items: int, q: int) -> list[int]:
    """1-based global ranks of the q quantiles: i * N / (q + 1), rounded."""
    return [max(1, min(n_items, round(i * n_items / (q + 1)))) for i in range(1, q + 1)]


def _ranked_keys_scan(machine: EMMachine, arr: EMArray, wanted) -> dict[int, int]:
    """Fixed-pattern scan of a sorted array returning ``{rank: key}`` for
    the (private) 1-based ranks in ``wanted``."""
    picked = ranked_records_scan(machine, arr, wanted)
    return {rank: kv[0] for rank, kv in picked.items()}


def quantiles_em(
    machine: EMMachine,
    A: EMArray,
    n_items: int,
    q: int,
    rng: np.random.Generator,
    *,
    slack: float = 1.0,
    enforce_model_bound: bool = False,
    report: bool = False,
) -> np.ndarray | QuantileReport:
    """Return the ``q`` quantile keys of ``A`` (Theorem 17).

    ``enforce_model_bound=True`` rejects ``q > (M/B)^{1/4}`` (the paper's
    hypothesis); by default any ``q >= 1`` is accepted — useful on small
    test machines where the fourth root is tiny.
    """
    if q < 1:
        raise ValueError(f"need q >= 1 quantiles, got {q}")
    if n_items < q:
        raise ValueError(f"cannot take {q} quantiles of {n_items} items")
    m = machine.cache.capacity_blocks
    if enforce_model_bound and q > max(1.0, m**0.25):
        raise ValueError(
            f"Theorem 17 requires q <= (M/B)^(1/4) = {m ** 0.25:.2f}, got {q}"
        )
    targets = _target_ranks(n_items, q)
    n = n_items

    # Case 1: everything fits in private memory — sort there.
    if A.num_blocks + 1 <= m:
        with machine.cache.hold(A.num_blocks):
            records = machine.read_many(A, (0, A.num_blocks)).reshape(
                -1, RECORD_WIDTH
            )
            ordered = sort_records(records)
            real = ordered[~is_empty(ordered)]
            keys = np.array([int(real[t - 1, 0]) for t in targets], dtype=np.int64)
        if report:
            return QuantileReport(keys, sample_size=0, marked=0)
        return keys

    # Case 2: sample at rate N^(-1/4).
    p = n**-0.25
    cap_sample = int(math.ceil((n**0.75 + n**0.5) * slack))
    sample_out = machine.alloc(A.num_blocks, f"{A.name}.qsample")
    c_s = 0
    for lo, hi in scan_chunks(machine, A.num_blocks, streams=2):
        with hold_scan(machine, 2, hi - lo):

            def sampled(reads, k=hi - lo):
                nonlocal c_s
                blocks = reads[0]
                # One row of draws per block: identical to the scalar
                # per-block rng.random(B) stream, in scan order.
                draws = rng.random((k, machine.B)) < p
                keep = draws & ~is_empty(blocks)
                c_s += int(np.count_nonzero(keep))
                new = blocks.copy()
                new[..., 0] = np.where(keep, new[..., 0], NULL_KEY)
                new[..., 1] = np.where(keep, new[..., 1], 0)
                return new

            machine.io_rounds(
                [("r", A, (lo, hi)), ("w", sample_out, (lo, hi), sampled)]
            )
    if not (1 <= c_s <= cap_sample):
        machine.free(sample_out)
        raise QuantileFailure(
            f"sample size {c_s} outside (0, {cap_sample}] (Lemma 14 tail)"
        )

    # Compact and sort the sample.
    cons = consolidate(machine, sample_out)
    machine.free(sample_out)
    C = tight_compact(machine, cons.array, ceil_div(cap_sample, machine.B) + 1)
    machine.free(cons.array)
    C_sorted = oblivious_external_sort(machine, C)
    machine.free(C)

    # Bracket ranks in the sample (paper's formulas, scaled by p).
    nhat = n**0.75
    rank_pairs: list[tuple[int, int]] = []
    for i in range(1, q + 1):
        rx = math.ceil(i * nhat / (q + 1) - n**0.5)
        ry = c_s - math.ceil(nhat - nhat * i / (q + 1) - 2 * n**0.5)
        rank_pairs.append((rx, ry))
    wanted = sorted(
        {r for pair in rank_pairs for r in pair if 1 <= r <= c_s}
    )
    found = _ranked_keys_scan(machine, C_sorted, wanted)
    machine.free(C_sorted)

    KEY_MIN, KEY_MAX = -(1 << 62), 1 << 62
    brackets: list[tuple[int, int]] = []
    for i, (rx, ry) in enumerate(rank_pairs):
        x_i = found.get(rx, KEY_MIN) if rx >= 1 else KEY_MIN
        y_i = found.get(ry, KEY_MAX) if 1 <= ry <= c_s else KEY_MAX
        brackets.append((x_i, y_i))
    # First and last brackets are widened to the extremes (paper's
    # convention: x_1 = min A, y_q = max A).
    brackets[0] = (KEY_MIN, brackets[0][1])
    brackets[-1] = (brackets[-1][0], KEY_MAX)

    # Effective (disjoint, value-ordered) brackets: an item belongs to the
    # first bracket that contains it.
    y_sorted = [b[1] for b in brackets]
    if any(y_sorted[i] > y_sorted[i + 1] for i in range(q - 1)):  # oblint: public(y_sorted) -- degenerate-sample probe: bracket disorder is a Las Vegas tail event (Lemma 9)
        raise QuantileFailure("bracket ends out of order (degenerate sample)")

    # Classification scan: per-bracket and per-gap private counts, plus a
    # marked copy holding the in-bracket items.
    in_bracket = np.zeros(q, dtype=np.int64)
    gap_before = np.zeros(q + 1, dtype=np.int64)  # gap i precedes bracket i
    marked = machine.alloc(A.num_blocks, f"{A.name}.qmarked")
    c_marked = 0
    ys = np.asarray(y_sorted, dtype=np.int64)
    xs = np.asarray([b[0] for b in brackets], dtype=np.int64)
    for lo, hi in scan_chunks(machine, A.num_blocks, streams=2):
        with hold_scan(machine, 2, hi - lo):

            def classified(reads):
                nonlocal c_marked, in_bracket, gap_before
                blocks = reads[0]
                real = ~is_empty(blocks)
                keys = blocks[..., 0]
                # First bracket whose upper end covers the key (vectorized).
                kv = keys[real]
                bidx = np.searchsorted(ys, kv)
                idx_clip = np.minimum(bidx, q - 1)
                keep = (bidx < q) & (kv >= xs[idx_clip])
                in_bracket += np.bincount(idx_clip[keep], minlength=q)
                gap_before += np.bincount(
                    np.minimum(bidx[~keep], q), minlength=q + 1
                )
                keep_mask = np.zeros(real.shape, dtype=bool)
                keep_mask[real] = keep
                c_marked += int(np.count_nonzero(keep_mask))
                new = blocks.copy()
                new[..., 0] = np.where(keep_mask, new[..., 0], NULL_KEY)
                new[..., 1] = np.where(keep_mask, new[..., 1], 0)
                return new

            machine.io_rounds(
                [("r", A, (lo, hi)), ("w", marked, (lo, hi), classified)]
            )

    cap_marked = int(math.ceil(min(n, 8 * q * n**0.75) * slack))
    if c_marked > cap_marked:
        machine.free(marked)
        raise QuantileFailure(
            f"{c_marked} bracketed items exceed capacity {cap_marked} "
            "(Lemma 15 tail)"
        )

    # Compact + single oblivious sort of all bracketed items.
    cons2 = consolidate(machine, marked)
    machine.free(marked)
    D = tight_compact(machine, cons2.array, ceil_div(cap_marked, machine.B) + 1)
    machine.free(cons2.array)
    D_sorted = oblivious_external_sort(machine, D)
    machine.free(D)

    # Final scan: convert each global target rank to a rank within the
    # sorted bracketed items using the private gap counts.
    # Items before bracket b (by value) = gaps 0..b plus brackets 0..b-1.
    cum_gap = np.cumsum(gap_before)  # cum_gap[b] = gaps 0..b
    cum_in = np.concatenate([[0], np.cumsum(in_bracket)])
    local_targets: list[int] = []
    for i, t in enumerate(targets):
        # Which effective bracket holds the globally t-th item?
        b = None
        for cand in range(q):
            lo = cum_gap[cand] + cum_in[cand]
            hi = lo + in_bracket[cand]
            if lo < t <= hi:
                b = cand
                break
        if b is None:
            machine.free(D_sorted)
            raise QuantileFailure(
                f"quantile {i + 1} (rank {t}) fell in a gap (Lemma 16 tail)"
            )
        local_targets.append(int(t - cum_gap[b]))  # rank within sorted D
    pick = sorted(set(local_targets))
    got = _ranked_keys_scan(machine, D_sorted, pick)
    machine.free(D_sorted)
    keys = np.array([got[t] for t in local_targets], dtype=np.int64)
    if report:
        return QuantileReport(keys, sample_size=c_s, marked=c_marked)
    return keys


def quantiles_sorted_em(
    machine: EMMachine,
    A: EMArray,
    n_items: int,
    q: int,
) -> np.ndarray:
    """Return the ``q`` quantile keys of an *already key-sorted* ``A``.

    The degenerate case of Theorem 17: when the input order is known to
    be sorted (e.g. the step follows an oblivious sort in a pipeline),
    every quantile sits at a public rank and one fixed-pattern ranked
    scan reads them all off — ``O(N/B)`` I/Os, deterministic, no
    sampling and no Las Vegas retry.  The plan optimizer substitutes
    this for ``quantiles`` when the producing step declares sorted
    output; callers using it directly are responsible for the sortedness
    precondition (an unsorted input silently yields the keys at the
    quantile *positions*, not the true quantiles).
    """
    if q < 1:
        raise ValueError(f"need q >= 1 quantiles, got {q}")
    if n_items < q:
        raise ValueError(f"cannot take {q} quantiles of {n_items} items")
    targets = _target_ranks(n_items, q)
    got = _ranked_keys_scan(machine, A, sorted(set(targets)))
    missing = [t for t in targets if t not in got]
    if missing:  # oblint: public(missing) -- validation abort: fires only when the caller's targets violate the contract
        raise ValueError(
            f"array holds fewer than {max(missing)} real records "
            f"(caller claimed {n_items})"
        )
    return np.array([got[t] for t in targets], dtype=np.int64)
