"""Shared helpers for driving the batched I/O engine.

These are the chunking and block-stack utilities every batched scan uses:
:func:`scan_chunks` splits a scan into chunks, :func:`hold_scan` leases
the *modeled* residency (capped at the cache budget) from the client
cache, and :func:`empty_blocks` / :func:`blocks_occupied` are the
vectorized forms of the per-block primitives; :func:`round_chunks` splits
a scan of rounds that each read a run of blocks.  Chunks have a large
floor (``_CHUNK_FLOOR``) — the engine may stage more blocks physically
than the model's ``M/B``; the cache lease records what the *algorithm*
claims to hold.  They live in the EM layer so both the algorithm
packages and the networks can use them without import cycles.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.em.block import NULL_KEY, RECORD_WIDTH, is_empty
from repro.em.machine import EMMachine

__all__ = ["empty_blocks", "blocks_occupied", "scan_chunks", "round_chunks", "hold_scan"]


#: Template cache for :func:`empty_blocks` — a memcpy of a prebuilt
#: template beats zero-fill + key-fill for the small stacks the batched
#: hot loops allocate constantly.  Bounded: only modest ``k`` are cached.
_EMPTY_TEMPLATES: dict[tuple[int, int], np.ndarray] = {}
_EMPTY_TEMPLATE_MAX = 1 << 14


def empty_blocks(k: int, B: int) -> np.ndarray:
    """A stack of ``k`` empty blocks, shape ``(k, B, 2)``."""
    if k <= _EMPTY_TEMPLATE_MAX:
        tpl = _EMPTY_TEMPLATES.get((k, B))
        if tpl is None:
            tpl = np.zeros((k, B, RECORD_WIDTH), dtype=np.int64)
            tpl[:, :, 0] = NULL_KEY
            _EMPTY_TEMPLATES[(k, B)] = tpl
            if len(_EMPTY_TEMPLATES) > 256:
                _EMPTY_TEMPLATES.clear()
        return tpl.copy()
    blks = np.zeros((k, B, RECORD_WIDTH), dtype=np.int64)
    blks[:, :, 0] = NULL_KEY
    return blks


def blocks_occupied(blocks: np.ndarray) -> np.ndarray:
    """Per-block any-non-empty-record test over a ``(k, B, 2)`` stack."""
    return np.any(~is_empty(blocks), axis=1)


#: Minimum rounds per scan chunk.  The *modeled* residency of a batched
#: scan stays within the cache lease (see :func:`hold_scan`); the engine
#: is free to stage more physically, so small caches do not force
#: per-handful Python round trips.
_CHUNK_FLOOR = 4096


def scan_chunks(
    machine: EMMachine, total: int, *, streams: int = 1, cap: int | None = None
) -> Iterator[tuple[int, int]]:
    """Yield ``(lo, hi)`` chunk bounds for a batched scan of ``total`` rounds.

    Chunk bounds depend only on public quantities (cache capacity and
    current public reservations), never on data — so chunking can never
    perturb the emitted event order, which is the scalar scan's.
    """
    if total <= 0:
        return
    chunk = max(_CHUNK_FLOOR, machine.cache.available // max(1, streams))
    if cap is not None:
        chunk = max(1, min(chunk, cap))
    for lo in range(0, total, chunk):
        yield lo, min(lo + chunk, total)


def round_chunks(
    machine: EMMachine, rounds: int, width: int, total: int, *, cap: int
) -> list[tuple[int, int, int]]:
    """Chunks ``(lo, hi, w)`` of a scan whose round ``u`` reads blocks
    ``[u * width, min((u + 1) * width, total))``: rounds ``[lo, hi)`` each
    read ``w`` blocks.

    ``rounds`` is ``ceil(total / width)``, or 1 for a scan that still
    writes a round when there is nothing to read.  Full rounds come in
    chunks of at most ``cap``; the last round, when it reads fewer than
    ``width`` blocks, is a chunk of its own — so every chunk is one engine
    call whose wide streams each have one width.
    """
    full = min(rounds, total // width)
    chunks = [(lo, hi, width) for lo, hi in scan_chunks(machine, full, cap=cap)]
    if full < rounds:
        chunks.append((full, rounds, total - full * width))
    return chunks


def hold_scan(machine: EMMachine, streams: int, rounds: int):
    """Cache lease for one batched scan chunk of ``rounds`` rounds over
    ``streams`` block streams.

    Reserves the staged blocks, capped at the machine's free budget (a
    chunk of 1 round may still touch more streams than the cache holds —
    the same transient the scalar loops' fixed small leases modeled).

    Note the lease is *informational* for plain scans: because it clamps
    to the free budget it cannot raise ``CacheOverflowError``.  The
    paper's load-bearing memory preconditions (merge-split run sizes,
    butterfly window sizes, in-cache base cases, multiway buffers) are
    still enforced by those algorithms' own explicit unclamped
    ``machine.cache.hold(...)`` calls.
    """
    return machine.cache.hold(
        min(streams * rounds, max(1, machine.cache.available))
    )
