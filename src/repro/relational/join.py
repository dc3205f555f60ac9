"""Oblivious equi-join: sort-merge over the tagged union of two relations.

The classic data-oblivious join shape (Goodrich's framework, §sorting
applications): encode both relations into one array of composite keys,
oblivious-sort it, and resolve matches with one fixed-schedule scan.
Every access is a function of the *public bounds* ``(n_left, n_right,
fanout, B)`` — never of key values or match counts — and the output is
padded to the public bound ``n_left * fanout + n_right`` with interior
NULL rows, so the join's selectivity stays hidden from the server.

Composite-key encoding, with ``k = fanout`` (the declared public bound
on matches per key on the right) and ``span = 2·max(k, n_right)``:

* the ``c``-th right row of a key (``c`` counted in sorted order) gets
  composite key ``key*span + 2c`` — ``c < n_right <= span/2`` always,
  so every right row keeps a real slot.  Rows beyond the fanout bound
  (``c >= k``) simply never match a left copy: a silent, oblivious
  bound violation, never a raised error (which would leak the
  overflow);
* each left row is expanded into ``k`` copies tagged ``key*span + 2c +
  1`` for ``c in 0..k-1``.

Keeping over-fanout right rows real (rather than NULLing them) makes
the union's real record count the exact public value ``n_left*k +
n_right`` whatever the key distribution — which the oblivious sort's
rank arithmetic requires.

After a stable oblivious sort of the union, each left copy ``(key, c)``
lands directly after its matching right row ``(key, c)`` (only sibling
left copies may sit between), so one forward scan with a carried "last
right row" resolves every match: matched left copies emit ``(key,
combine(left value, right value))``, everything else NULLs.  Duplicate
*left* keys each get their own ``k`` copies and match independently.

Requires non-negative keys small enough that composite keys stay inside
the sort's key range (the sort validates and raises ``ValueError``
otherwise — a documented precondition, as for ``oblivious_sort``).
"""

from __future__ import annotations

import numpy as np

from repro.core.sorting import oblivious_sort
from repro.em.batch import hold_scan, scan_chunks
from repro.em.block import NULL_KEY, RECORD_WIDTH, is_empty
from repro.em.machine import EMMachine
from repro.em.storage import EMArray

__all__ = ["COMBINES", "equi_join_em"]

#: combine name -> vectorized (left values, right values) -> output values.
COMBINES = {
    "sum": lambda lv, rv: lv + rv,
    "diff": lambda lv, rv: lv - rv,
    "product": lambda lv, rv: lv * rv,
    "left": lambda lv, rv: lv,
    "right": lambda lv, rv: rv,
}


def _tag_right(machine: EMMachine, rs: EMArray, u: EMArray, span: int) -> None:
    """Rewrite sorted right rows to composite keys ``key*span + 2c``,
    positionally into ``u[0:rs.num_blocks)`` (one fixed read+write pass).

    ``c`` is the row's occurrence index within its key run (carried
    across chunks); ``span`` is wide enough that every ordinal fits, so
    no row is dropped here — over-fanout rows just never match."""
    carry_key, carry_count = None, 0
    for lo, hi in scan_chunks(machine, rs.num_blocks, streams=2):
        with hold_scan(machine, 2, hi - lo):

            def tagged(reads):
                nonlocal carry_key, carry_count
                flat = reads[0].reshape(-1, RECORD_WIDTH)
                out = flat.copy()
                idx = np.flatnonzero(~is_empty(flat))
                if idx.size:
                    keys = flat[idx, 0]
                    pos = np.arange(len(idx), dtype=np.int64)
                    new_run = np.concatenate(([True], keys[1:] != keys[:-1]))
                    run_start = np.maximum.accumulate(np.where(new_run, pos, 0))
                    c = pos - run_start
                    if carry_key is not None and int(keys[0]) == carry_key:
                        first_len = (
                            int(np.flatnonzero(new_run[1:])[0]) + 1
                            if new_run[1:].any()
                            else len(idx)
                        )
                        c[:first_len] += carry_count
                    carry_key, carry_count = int(keys[-1]), int(c[-1]) + 1
                    out[idx, 0] = keys * span + 2 * c
                return out.reshape(reads[0].shape)

            machine.io_rounds([("r", rs, (lo, hi)), ("w", u, (lo, hi), tagged)])


def _expand_left(
    machine: EMMachine, left: EMArray, u: EMArray, base: int, span: int, k: int
) -> None:
    """Write ``k`` tagged copies ``key*span + 2c + 1`` of every left cell
    into ``u[base + j*k : ...)`` — each read chunk fans out to exactly
    ``k`` write chunks, a fixed 1-in/k-out schedule."""
    for lo, hi in scan_chunks(machine, left.num_blocks, streams=k + 1):
        with hold_scan(machine, k + 1, hi - lo):
            blocks = machine.read_many(left, (lo, hi))
            flat = blocks.reshape(-1, RECORD_WIDTH)
            out = np.repeat(flat, k, axis=0)
            real = ~is_empty(out)
            c = np.tile(np.arange(k, dtype=np.int64), len(flat))
            out[:, 0] = np.where(real, out[:, 0] * span + 2 * c + 1, NULL_KEY)
            out[:, 1] = np.where(real, out[:, 1], 0)
            machine.write_many(
                u,
                (base + lo * k, base + hi * k),
                out.reshape(-1, machine.B, RECORD_WIDTH),
            )


def _match_scan(
    machine: EMMachine, us: EMArray, span: int, combine: str
) -> EMArray:
    """Resolve matches over the sorted union: matched left copies emit
    ``(original key, combine(left, right))``, all else NULL."""
    fn = COMBINES[combine]
    out = machine.alloc(us.num_blocks, f"{us.name}.match")
    # Carried "last right row seen" — key -1 never matches (keys are >= 0).
    carry_key, carry_c, carry_val = -1, -1, 0
    for lo, hi in scan_chunks(machine, us.num_blocks, streams=2):
        with hold_scan(machine, 2, hi - lo):

            def match(reads):
                nonlocal carry_key, carry_c, carry_val
                flat = reads[0].reshape(-1, RECORD_WIDTH)
                out_flat = np.zeros_like(flat)
                out_flat[:, 0] = NULL_KEY
                idx = np.flatnonzero(~is_empty(flat))
                if idx.size:
                    comp = flat[idx, 0]
                    val = flat[idx, 1]
                    okey = comp // span
                    rem = comp - okey * span
                    c = rem >> 1
                    is_right = (rem & 1) == 0
                    pos = np.arange(len(idx), dtype=np.int64)
                    # Governing right row per position: entry 0 is the
                    # carried one, entry p+1 the in-chunk row at p.
                    r_keys = np.concatenate(([carry_key], okey))
                    r_cs = np.concatenate(([carry_c], c))
                    r_vals = np.concatenate(([carry_val], val))
                    gov = np.maximum.accumulate(np.where(is_right, pos + 1, 0))
                    matched = (
                        ~is_right & (r_keys[gov] == okey) & (r_cs[gov] == c)
                    )
                    out_flat[idx[matched], 0] = okey[matched]
                    out_flat[idx[matched], 1] = fn(val, r_vals[gov])[matched]
                    rights = np.flatnonzero(is_right)
                    if rights.size:
                        j = rights[-1]
                        carry_key = int(okey[j])
                        carry_c = int(c[j])
                        carry_val = int(val[j])
                return out_flat.reshape(reads[0].shape)

            machine.io_rounds([("r", us, (lo, hi)), ("w", out, (lo, hi), match)])
    return out


def equi_join_em(
    machine: EMMachine,
    left: EMArray,
    n_left: int,
    right: EMArray,
    n_right: int,
    rng: np.random.Generator,
    *,
    fanout: int = 1,
    combine: str = "sum",
    padded: bool = False,
) -> EMArray:
    """Oblivious equi-join of ``left`` with ``right`` (module docstring).

    Output layout holds at most ``n_left*fanout + n_right`` records,
    sorted by key with interior NULL padding; one real row per (left
    row, matching right row) pair, value ``combine(left, right)``.

    ``padded=True`` (public, from plan structure) declares that either
    input may hold fewer real records than its public bound — e.g.
    downstream of a masking scan — and threads through to the two
    oblivious sorts' padded mode (see :func:`oblivious_sort`).
    """
    k = int(fanout)
    if k < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    if combine not in COMBINES:
        raise ValueError(
            f"unknown combine {combine!r}; choose from {sorted(COMBINES)}"
        )
    span = 2 * max(k, n_right, 1)
    rs = oblivious_sort(machine, right, n_right, rng, retries=1, padded=padded)
    u = machine.alloc(
        rs.num_blocks + left.num_blocks * k, f"{left.name}.join.union"
    )
    _tag_right(machine, rs, u, span)
    machine.free(rs)
    _expand_left(machine, left, u, rs.num_blocks, span, k)
    n_union = n_left * k + n_right
    us = oblivious_sort(machine, u, n_union, rng, retries=1, padded=padded)
    machine.free(u)
    out = _match_scan(machine, us, span, combine)
    machine.free(us)
    return out
