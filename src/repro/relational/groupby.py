"""Oblivious group-by-aggregate: sort by key + segmented fixed scans.

``group_by_em`` sorts its input by key, then runs :func:`group_scan` —
two full fixed-schedule passes whose access patterns depend only on the
layout length:

1. a **forward** pass computing, at every real record's position, the
   inclusive running aggregate of its key's run so far (carried
   ``(current key, accumulator)`` state crosses chunk boundaries);
2. a **backward** pass that keeps the pass-1 row only at the *last*
   position of each key run (carried "nearest real key to the right"
   state) and NULLs every other cell.

The output therefore has exactly one real record ``(key, aggregate)``
per distinct key, at that key's last input position, with interior NULL
padding everywhere else — the layout size stays the public input bound,
so group *counts and sizes* never become a downstream public size.

``group_by_sorted_em`` skips the sort (``requires_input_order="sorted"``
in the registry): correct whenever the real records' keys are
non-decreasing in layout order, interior NULLs allowed — exactly what a
prior ``sort`` (possibly followed by masking scans) guarantees.

Aggregates: ``sum``/``min``/``max`` over values, ``count`` of rows.
"""

from __future__ import annotations

import numpy as np

from repro.core.sorting import oblivious_sort
from repro.em.batch import hold_scan, scan_chunks
from repro.em.block import NULL_KEY, RECORD_WIDTH, is_empty
from repro.em.machine import EMMachine
from repro.em.storage import EMArray

__all__ = ["AGGREGATES", "group_scan", "group_by_em", "group_by_sorted_em"]

#: agg name -> (inclusive accumulate over one run, fold carry into run).
AGGREGATES = {
    "sum": (np.add.accumulate, lambda a, c: a + c),
    "count": (np.add.accumulate, lambda a, c: a + c),
    "min": (np.minimum.accumulate, lambda a, c: np.minimum(a, c)),
    "max": (np.maximum.accumulate, lambda a, c: np.maximum(a, c)),
}


def _running_aggregate(machine: EMMachine, A: EMArray, agg: str) -> EMArray:
    """Forward pass: T[p] = (key_p, inclusive run aggregate) at real cells."""
    accumulate, fold_carry = AGGREGATES[agg]
    T = machine.alloc(A.num_blocks, f"{A.name}.gb.acc")
    carry_key, carry_acc = None, 0
    for lo, hi in scan_chunks(machine, A.num_blocks, streams=2):
        with hold_scan(machine, 2, hi - lo):

            def running(reads):
                nonlocal carry_key, carry_acc
                flat = reads[0].reshape(-1, RECORD_WIDTH)
                out = flat.copy()
                idx = np.flatnonzero(~is_empty(flat))
                if idx.size:
                    keys = flat[idx, 0]
                    vals = (
                        np.ones(len(idx), dtype=np.int64)
                        if agg == "count"
                        else flat[idx, 1]
                    )
                    starts = np.flatnonzero(
                        np.concatenate(([True], keys[1:] != keys[:-1]))
                    )
                    acc = np.empty(len(idx), dtype=np.int64)
                    bounds = np.append(starts, len(idx))
                    for s, e in zip(bounds[:-1], bounds[1:]):
                        run = accumulate(vals[s:e])
                        if s == 0 and carry_key == int(keys[0]):
                            run = fold_carry(run, carry_acc)
                        acc[s:e] = run
                    carry_key, carry_acc = int(keys[-1]), int(acc[-1])
                    out[idx, 1] = acc
                return out.reshape(reads[0].shape)

            machine.io_rounds([("r", A, (lo, hi)), ("w", T, (lo, hi), running)])
    return T


def _last_of_run(machine: EMMachine, T: EMArray) -> EMArray:
    """Backward pass: keep T's row only at each key run's last position."""
    out = machine.alloc(T.num_blocks, f"{T.name}.last")
    next_key = None  # key of the nearest real record to the right
    for lo, hi in reversed(list(scan_chunks(machine, T.num_blocks, streams=2))):
        with hold_scan(machine, 2, hi - lo):

            def emit(reads):
                nonlocal next_key
                flat = reads[0].reshape(-1, RECORD_WIDTH)
                out_flat = flat.copy()
                idx = np.flatnonzero(~is_empty(flat))
                if idx.size:
                    keys = flat[idx, 0]
                    last = np.empty(len(idx), dtype=bool)
                    last[:-1] = keys[:-1] != keys[1:]
                    last[-1] = next_key is None or next_key != int(keys[-1])
                    drop = idx[~last]
                    out_flat[drop, 0] = NULL_KEY
                    out_flat[drop, 1] = 0
                    next_key = int(keys[0])
                return out_flat.reshape(reads[0].shape)

            machine.io_rounds([("r", T, (lo, hi)), ("w", out, (lo, hi), emit)])
    return out


def group_scan(machine: EMMachine, A: EMArray, agg: str) -> EMArray:
    """Two-pass segmented aggregate over a key-ordered layout.

    Precondition: real records' keys are non-decreasing in layout order;
    interior NULL cells pass through as padding.  The trace is a fixed
    function of ``A``'s length."""
    if agg not in AGGREGATES:
        raise ValueError(
            f"unknown aggregate {agg!r}; choose from {sorted(AGGREGATES)}"
        )
    T = _running_aggregate(machine, A, agg)
    out = _last_of_run(machine, T)
    machine.free(T)
    return out


def group_by_em(
    machine: EMMachine,
    A: EMArray,
    n_items: int,
    rng: np.random.Generator,
    *,
    agg: str = "sum",
    padded: bool = False,
) -> EMArray:
    """Sort by key, then :func:`group_scan` (Theorem 21 sort + 4 scans).

    ``padded=True`` (public, from plan structure) declares the input's
    real count may sit below ``n_items`` — e.g. downstream of a masking
    scan — and selects the sort's padded mode."""
    if agg not in AGGREGATES:
        raise ValueError(
            f"unknown aggregate {agg!r}; choose from {sorted(AGGREGATES)}"
        )
    srt = oblivious_sort(machine, A, n_items, rng, retries=1, padded=padded)
    out = group_scan(machine, srt, agg)
    machine.free(srt)
    return out


def group_by_sorted_em(
    machine: EMMachine, A: EMArray, n_items: int, *, agg: str = "sum"
) -> EMArray:
    """:func:`group_scan` on an already key-ordered layout (sort elided)."""
    return group_scan(machine, A, agg)
