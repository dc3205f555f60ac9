"""Tagged-store core shared by the Goldreich–Ostrovsky ORAM backends.

Both :class:`~repro.oram.square_root.SquareRootORAM` and
:class:`~repro.oram.hierarchical.HierarchicalORAM` are built from the
same parts, which live here once:

* a *buffer* of slots that every access scans in full;
* one or more *stores* (:class:`Store`), each a pair of parallel arrays
  kept sorted by a per-store, per-epoch pseudorandom tag.

Each slot is a meta block whose first record is
``(tag_or_sortkey, logical_index)`` plus a payload block holding the
user's data.  Store ``k`` holds real cells tagged ``PRF(key_k, i)``, its
dummy budget of slots tagged ``PRF(key_k, n + rank)`` (index ``n``
marks a dummy), and any surplus tagged ``+inf``.

Access protocol (one logical read, write, or read-modify-write):

1. scan the entire buffer for the target index (the latest copy wins);
2. probe every *occupied* store, youngest to oldest, by a fixed-length
   binary search on a pseudorandom tag — the target's tag under that
   store's key while the item is still unfound, the store's next unused
   dummy tag afterwards;
3. append the (possibly updated) item to the next buffer slot.

When the buffer fills, the backend's ``_spill`` picks a destination
store and the stores to fold into it (its *cadence*), and
:meth:`TaggedStoreORAM._rebuild` merges them with the buffer under a
fresh key: copy the sources under a composite
``index * span + staleness`` key, pad, sort, dedup (the freshest copy
per index survives), re-tag (reals by index, the first ``budget``
dummies get probe-able ranked tags, the surplus ``+inf``), sort, and
truncate into the destination.  :meth:`TaggedStoreORAM.extract_to` runs
the same merge but sorts by index and copies the cells out.

Obliviousness: the buffer scan is fixed; which stores are occupied is a
public function of the access counter; each probe's descent is a
function of a fresh pseudorandom tag that is never searched twice
within a store's epoch; the buffer append position is the access
counter; merges are fixed scans and oblivious block sorts.  None of it
depends on the logical access sequence.  The guarantee is
*distributional* (the paper's §1 definition): at a fixed seed the probe
path tracks the searched tag's rank, so transcripts are bit-identical
across data *values* and read/write/update op kinds, while different
logical index sequences produce different — identically distributed —
probe positions (:mod:`repro.oblivious` pins both halves).

The hot loops — seeding, the buffer scan, merges and extraction — run
through the machine's batched engine
(:meth:`repro.em.machine.EMMachine.io_rounds`) and emit *exactly* the
event sequence of the equivalent scalar loops (pinned by golden
fingerprints in ``tests/test_oram.py`` and
``tests/test_oram_hierarchical.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.block_sort import oblivious_block_sort
from repro.em.batch import empty_blocks, hold_scan, scan_chunks
from repro.em.errors import EMError
from repro.em.machine import EMMachine
from repro.em.storage import EMArray
from repro.util.mathx import ilog2

__all__ = ["Store", "TaggedStoreORAM"]

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = 0xFFFFFFFFFFFFFFFF
#: Tag of empty buffer slots, padding and surplus dummies (sorts last).
_INF_TAG = int(np.iinfo(np.int64).max)
#: Stands for the buffer in a merge's source list.
_BUFFER = -1


def _prf(key: int, x: int) -> int:
    """63-bit pseudorandom tag for slot ``x`` under epoch ``key``."""
    v = (key ^ (x * _GOLDEN)) & _MASK64
    v = (v + _GOLDEN) & _MASK64
    v ^= v >> 30
    v = (v * _MIX1) & _MASK64
    v ^= v >> 27
    v = (v * _MIX2) & _MASK64
    v ^= v >> 31
    return v & 0x7FFFFFFFFFFFFFFE  # < INF_TAG


def _prf_many(key: int, xs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_prf` (bit-exact: uint64 wraparound == mask)."""
    v = np.uint64(key) ^ (xs.astype(np.uint64) * np.uint64(_GOLDEN))
    v = v + np.uint64(_GOLDEN)
    v ^= v >> np.uint64(30)
    v *= np.uint64(_MIX1)
    v ^= v >> np.uint64(27)
    v *= np.uint64(_MIX2)
    v ^= v >> np.uint64(31)
    return (v & np.uint64(0x7FFFFFFFFFFFFFFE)).astype(np.int64)


@dataclass
class Store:
    """One tag-sorted store: its arrays, epoch key and dummy budget."""

    meta: EMArray
    payload: EMArray
    key: int
    #: Dummy tags a probe may consume before the store is rebuilt.
    budget: int
    dummies_used: int = 0
    occupied: bool = True


class TaggedStoreORAM:
    """Oblivious memory of ``n`` logical blocks: the shared protocol.

    A backend allocates ``buf_meta``/``buf_payload`` and ``stores``
    (youngest first) through :meth:`_alloc`, seeds them with
    :meth:`_seed_store`, and implements ``_spill()``, which runs when
    the buffer fills.  ``accesses`` counts accesses (dummies included);
    ``rebuilds`` counts store rebuilds (merges).
    """

    stores: list[Store]
    buf_meta: EMArray
    buf_payload: EMArray
    #: Merges copy the buffer before the stores (False: after them).
    _buffer_first = True

    def __init__(
        self, machine: EMMachine, n: int, rng: np.random.Generator, name: str
    ) -> None:
        if n < 1:
            raise ValueError(f"ORAM needs at least one cell, got {n}")
        self.machine = machine
        self.n = n
        self.rng = rng
        self.name = name
        self.accesses = 0
        self.rebuilds = 0
        self._fill = 0  # next buffer slot to append to
        self._arrays: list[EMArray] = []  # allocation order

    # -- public API ---------------------------------------------------------

    def read(self, i: int) -> np.ndarray:
        """Obliviously read logical block ``i``."""
        return self._access(i, None)

    def write(self, i: int, block: np.ndarray) -> np.ndarray:
        """Obliviously write logical block ``i``; returns the old value."""
        return self._access(i, np.asarray(block, dtype=np.int64))

    def update(self, i: int, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Read-modify-write in ONE access: store ``fn(current)`` at ``i``
        and return the old value.

        The transcript is identical to :meth:`read` / :meth:`write` (the
        access protocol never depends on whether the buffer append
        carries the old, a fresh, or a derived value), so fixed-schedule
        programs like the Theorem-4 peel halve their access counts by
        folding each read+write pair into one ``update``.
        """
        return self._access(i, None, update_fn=fn)

    def dummy_op(self) -> None:
        """Perform an access indistinguishable from a real one.

        Fixed-schedule programs (like the Theorem-4 peeling loop) call
        this when they have no real work in a step.
        """
        self._access(None, None)

    def free(self) -> None:
        """Release every physical array, in allocation order (adversary-
        visible, like any free); the ORAM is unusable afterwards.
        Embedding algorithms (the Theorem-4 peel, the ``oram_read_batch``
        pipeline step) call this so sessions do not accumulate dead
        simulation arrays."""
        self._free(*self._arrays)

    def extract_to(self, out: EMArray) -> None:
        """Obliviously dump the logical memory, in index order, into ``out``.

        Merges the buffer and every occupied store sorted by logical
        index and scans the result out; the ORAM is left unusable
        afterwards.
        """
        if out.num_blocks < self.n:
            raise ValueError(f"output needs {self.n} blocks, has {out.num_blocks}")
        occupied = [k for k, st in enumerate(self.stores) if st.occupied]
        meta, payload = self._merge(
            self._sources(occupied), min_total=self.n, sort_by_index=True
        )
        mach = self.machine
        # Real items are a sorted-by-index prefix after the merge, so the
        # scalar loop's conditional write fires exactly on the first n
        # rounds: scan the prefix with a fused R/R/W stream, the tail with
        # R/R — the same event sequence, validated after the fact.
        recovered = 0
        for lo, hi in scan_chunks(mach, self.n, streams=3):
            with hold_scan(mach, 3, hi - lo):
                metas, _, _ = mach.io_rounds([
                    ("r", meta, (lo, hi)),
                    ("r", payload, (lo, hi)),
                    ("w", out, (lo, hi), lambda reads: reads[1]),
                ])
                recovered += int(np.count_nonzero(metas[:, 0, 1] < self.n))
        for lo, hi in scan_chunks(mach, meta.num_blocks - self.n, streams=2):
            with hold_scan(mach, 2, hi - lo):
                metas, _ = mach.io_rounds([
                    ("r", meta, (self.n + lo, self.n + hi)),
                    ("r", payload, (self.n + lo, self.n + hi)),
                ])
                recovered += int(np.count_nonzero(metas[:, 0, 1] < self.n))
        if recovered != self.n:  # oblint: public(recovered) -- extract integrity check: fires only on store corruption
            raise EMError(f"ORAM extract recovered {recovered}/{self.n} cells")
        self._free(meta, payload)

    # -- layout helpers -----------------------------------------------------

    def _alloc(self, num_blocks: int, label: str) -> EMArray:
        arr = self.machine.alloc(num_blocks, f"{self.name}.{label}")
        self._arrays.append(arr)
        return arr

    def _free(self, *arrays: EMArray) -> None:
        for arr in arrays:
            self.machine.free(arr)

    def _fresh_key(self) -> int:
        return int(self.rng.integers(0, 2**62))

    def _empty_block(self) -> np.ndarray:
        return empty_blocks(1, self.machine.B)[0]

    def _meta_block(self, key: int, idx: int) -> np.ndarray:
        blk = empty_blocks(1, self.machine.B)[0]
        blk[0, 0] = key
        blk[0, 1] = idx
        return blk

    def _meta_blocks(self, keys: np.ndarray, idxs: np.ndarray) -> np.ndarray:
        """Stack of meta blocks: byte-identical to ``_meta_block`` rows."""
        blks = empty_blocks(len(keys), self.machine.B)
        blks[:, 0, 0] = keys
        blks[:, 0, 1] = idxs
        return blks

    def _dummy_tags(self, key: int, ranks: np.ndarray, budget: int) -> np.ndarray:
        """Tags of the dummies ranked ``ranks``: ``PRF(key, n + rank)`` for
        the first ``budget`` (the ones probes may search), else ``+inf``."""
        return np.where(
            ranks < budget, _prf_many(key, self.n + np.maximum(ranks, 0)), _INF_TAG
        )

    def _seed_store(self, k: int, initial: EMArray | None) -> None:
        """Write all ``n`` cells (from ``initial``, else empty) and store
        ``k``'s dummies into its arrays, tagged but not yet sorted."""
        mach = self.machine
        st = self.stores[k]
        # Real cells [0, n): R initial, W meta, W payload per slot when
        # seeded, W meta, W payload otherwise.
        for lo, hi in scan_chunks(mach, self.n, streams=3):
            idxs = np.arange(lo, hi, dtype=np.int64)
            metas = self._meta_blocks(_prf_many(st.key, idxs), idxs)
            with hold_scan(mach, 3, hi - lo):
                if initial is not None:
                    mach.io_rounds([
                        ("r", initial, (lo, hi)),
                        ("w", st.meta, (lo, hi), metas),
                        ("w", st.payload, (lo, hi), lambda reads: reads[0]),
                    ])
                else:
                    mach.io_rounds([
                        ("w", st.meta, (lo, hi), metas),
                        ("w", st.payload, (lo, hi), empty_blocks(hi - lo, mach.B)),
                    ])
        # Dummies tagged PRF(key, n), PRF(key, n+1), ... up to the budget;
        # the rest of the store (if any) +inf.
        n = self.n
        for lo, hi in scan_chunks(mach, st.meta.num_blocks - n, streams=2):
            tags = self._dummy_tags(st.key, np.arange(lo, hi, dtype=np.int64), st.budget)
            metas = self._meta_blocks(tags, np.full(hi - lo, n, dtype=np.int64))
            with hold_scan(mach, 2, hi - lo):
                mach.io_rounds([
                    ("w", st.meta, (n + lo, n + hi), metas),
                    ("w", st.payload, (n + lo, n + hi), empty_blocks(hi - lo, mach.B)),
                ])

    def _write_inf(self, meta: EMArray, payload: EMArray, start: int, stop: int) -> None:
        """Fill slots ``[start, stop)`` with ``+inf``-tagged dummies."""
        mach = self.machine
        for lo, hi in scan_chunks(mach, stop - start, streams=2):
            infs = self._meta_blocks(
                np.full(hi - lo, _INF_TAG, dtype=np.int64),
                np.full(hi - lo, self.n, dtype=np.int64),
            )
            with hold_scan(mach, 2, hi - lo):
                mach.io_rounds([
                    ("w", meta, (start + lo, start + hi), infs),
                    ("w", payload, (start + lo, start + hi), empty_blocks(hi - lo, mach.B)),
                ])

    def _reset_buffer(self) -> None:
        """Empty the buffer and rewind its append position."""
        self._write_inf(self.buf_meta, self.buf_payload, 0, self.buf_meta.num_blocks)
        self._fill = 0

    # -- access -------------------------------------------------------------

    def _access(
        self,
        i: int | None,
        new_block: np.ndarray | None,
        update_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> np.ndarray:
        """Unified oblivious access; ``i=None`` performs a dummy access."""
        if i is not None and not (0 <= i < self.n):
            raise IndexError(f"logical index {i} out of range [0, {self.n})")
        mach = self.machine
        found: np.ndarray | None = None
        # 1. Scan the whole buffer (fixed pattern): R meta t, R payload t
        #    per slot, batched chunk-wise — the scalar loop's event order.
        for lo, hi in scan_chunks(mach, self.buf_meta.num_blocks, streams=2):
            with hold_scan(mach, 2, hi - lo):
                metas, pays = mach.io_rounds([
                    ("r", self.buf_meta, (lo, hi)),
                    ("r", self.buf_payload, (lo, hi)),
                ])
                if i is not None:
                    hits = np.flatnonzero(
                        (metas[:, 0, 1] == i) & (metas[:, 0, 0] != _INF_TAG)
                    )
                    if len(hits):
                        found = pays[hits[-1]].copy()  # freshest (latest) copy
        with mach.cache.hold(3):
            # 2. Probe each occupied store, youngest to oldest.  Which
            #    stores are occupied is a public function of the access
            #    counter; the searched tag is fresh pseudorandomness
            #    either way, so the descent leaks nothing.
            for k, st in enumerate(self.stores):
                if not st.occupied:
                    continue
                if i is None or found is not None:
                    if st.dummies_used >= st.budget:
                        raise EMError(f"ORAM store {k} exhausted its dummies")
                    tag = _prf(st.key, self.n + st.dummies_used)
                    st.dummies_used += 1
                    _, hit = self._probe(st, tag)
                    if not hit:  # oblint: public(hit) -- dummy-probe integrity check: fires only on PRF tag collision or corruption
                        raise EMError(
                            "ORAM dummy probe missed its tag — tag collision "
                            "or corrupted store"
                        )
                else:
                    # Real probe: the item may live in an older store (or
                    # not in this one at all) — a miss is a valid descent.
                    pay, hit = self._probe(st, _prf(st.key, i))
                    if hit:
                        found = pay
            if i is not None and found is None:
                raise EMError(
                    f"ORAM lost logical cell {i} — tag collision or corrupted store"
                )
            # 3. Append to the buffer.
            if update_fn is not None and i is not None:
                value = update_fn(found)
            elif new_block is None:
                value = found
            else:
                value = new_block
            if i is None:
                buf_meta = self._meta_block(0, self.n)  # dummy entry
                buf_payload = self._empty_block()
            else:
                buf_meta = self._meta_block(0, i)
                buf_payload = value
            mach.write(self.buf_meta, self._fill, buf_meta)
            mach.write(self.buf_payload, self._fill, buf_payload)
        self.accesses += 1
        self._fill += 1
        if self._fill == self.buf_meta.num_blocks:
            self._spill()
        if i is None:
            return self._empty_block()
        # Reads and updates return the pre-access value; writes return the
        # displaced one.
        return found

    def _probe(self, st: Store, tag: int) -> tuple[np.ndarray, bool]:
        """Fixed-length binary search for ``tag`` in a tag-sorted store.

        Runs exactly ``ilog2(slots) + 2`` probe iterations and one
        payload read whether or not the tag is present; on a miss the
        payload read lands at the descent's final position — like a hit,
        a deterministic function of the (pseudorandom) tag's rank.  Each
        iteration's position depends on the previous comparison, so the
        loop stays scalar — it is ``O(log n)`` I/Os, not a hot loop.
        """
        mach = self.machine
        nblk = st.meta.num_blocks
        lo, hi = 0, nblk - 1
        found_slot = -1
        mid = 0
        for _ in range(ilog2(nblk) + 2):
            mid = (lo + hi) // 2  # oblint: public(mid) -- binary search over sorted PRF tags: the probe path depends only on pseudorandom tag order
            mid_tag = int(mach.read(st.meta, mid)[0, 0])
            if mid_tag == tag:
                found_slot = mid
            if mid_tag < tag:
                lo = min(mid + 1, nblk - 1)
            else:
                hi = max(mid - 1, 0)
        slot = found_slot if found_slot >= 0 else mid  # oblint: public(slot) -- slot in the tag-sorted store is determined by PRF tag order alone
        return mach.read(st.payload, slot), found_slot >= 0

    # -- merge / rebuild ----------------------------------------------------

    def _sources(self, stores: list[int]) -> list[int]:
        """Merge copy order of the buffer and ``stores``."""
        return [_BUFFER, *stores] if self._buffer_first else [*stores, _BUFFER]

    def _merge(
        self, sources: list[int], *, min_total: int, sort_by_index: bool
    ) -> tuple[EMArray, EMArray]:
        """Merge ``sources`` (store numbers in copy order, ``_BUFFER`` for
        the buffer) and keep the freshest copy per index, marking the
        rest dummy.

        Returns scratch (meta, payload) arrays of ``max(min_total,
        source slots)`` slots, left in post-dedup order, or sorted by
        index (real items a sorted prefix) when ``sort_by_index``.
        """
        mach = self.machine
        arrays = [
            (self.buf_meta, self.buf_payload) if k == _BUFFER
            else (self.stores[k].meta, self.stores[k].payload)
            for k in sources
        ]
        total = max(min_total, sum(meta.num_blocks for meta, _ in arrays))
        nbuf = self.buf_meta.num_blocks
        span = nbuf + len(self.stores) + 1
        meta = mach.alloc(total, f"{self.name}.merge.meta")
        payload = mach.alloc(total, f"{self.name}.merge.data")
        # Copy the sources under the composite key idx * span + staleness:
        # buffer slot p ranks nbuf-1-p (later = fresher), store k ranks
        # nbuf+k (younger = fresher); dummies get +inf.  Event order per
        # slot: R src meta, W meta, R src payload, W payload.
        off = 0
        for k, (src_meta, src_payload) in zip(sources, arrays):
            for lo, hi in scan_chunks(mach, src_meta.num_blocks, streams=4):
                with hold_scan(mach, 4, hi - lo):
                    def rekeyed(reads, k=k, p0=lo):
                        idx = reads[0][:, 0, 1]
                        if k == _BUFFER:
                            stale = nbuf - 1 - np.arange(p0, p0 + len(idx), dtype=np.int64)
                        else:
                            stale = nbuf + k
                        keys = np.where(idx < self.n, idx * span + stale, _INF_TAG)
                        return self._meta_blocks(keys, idx)

                    mach.io_rounds([
                        ("r", src_meta, (lo, hi)),
                        ("w", meta, (off + lo, off + hi), rekeyed),
                        ("r", src_payload, (lo, hi)),
                        ("w", payload, (off + lo, off + hi), lambda reads: reads[2]),
                    ])
            off += src_meta.num_blocks
        self._write_inf(meta, payload, off, total)
        oblivious_block_sort(mach, [meta, payload])
        # Dedup scan: the first slot of each index (freshest) survives.
        # Sorted order makes "is a duplicate" a comparison with the
        # previous slot's index, carried across chunks.
        prev_idx = -1
        for lo, hi in scan_chunks(mach, total, streams=2):
            with hold_scan(mach, 2, hi - lo):
                def deduped(reads, prev=prev_idx):
                    mb = reads[0]
                    idx = mb[:, 0, 1]
                    shifted = np.concatenate(([prev], idx[:-1]))
                    drop = (idx == shifted) | (idx >= self.n)
                    out = mb.copy()
                    out[drop] = self._meta_blocks(
                        mb[drop, 0, 0],
                        np.full(int(drop.sum()), self.n, dtype=np.int64),
                    )
                    return out

                metas, _ = mach.io_rounds([
                    ("r", meta, (lo, hi)),
                    ("w", meta, (lo, hi), deduped),
                ])
                prev_idx = int(metas[-1, 0, 1])
        if sort_by_index:
            for lo, hi in scan_chunks(mach, total, streams=2):
                with hold_scan(mach, 2, hi - lo):
                    def indexed(reads):
                        idx = reads[0][:, 0, 1]
                        keys = np.where(idx < self.n, idx, _INF_TAG)
                        return self._meta_blocks(keys, idx)

                    mach.io_rounds([
                        ("r", meta, (lo, hi)),
                        ("w", meta, (lo, hi), indexed),
                    ])
            oblivious_block_sort(mach, [meta, payload])
        return meta, payload

    def _rebuild(self, k: int, stores: list[int]) -> tuple[EMArray, EMArray]:
        """Merge the buffer and ``stores`` into store ``k`` under a fresh
        key; the sources other than ``k`` are left empty.  Returns the
        scratch pair, which the caller frees (the buffer is not reset)."""
        mach = self.machine
        dest = self.stores[k]
        cap = dest.meta.num_blocks
        meta, payload = self._merge(
            self._sources(stores), min_total=cap, sort_by_index=False
        )
        key = self._fresh_key()
        # Fresh tags: reals by index, the first `budget` dummies get
        # probe-able ranked tags, surplus dummies +inf (truncated after
        # the sort).
        dummies_before = 0
        for lo, hi in scan_chunks(mach, meta.num_blocks, streams=2):
            with hold_scan(mach, 2, hi - lo):
                def retagged(reads, base=dummies_before):
                    mb = reads[0]
                    idx = mb[:, 0, 1]
                    is_dummy = idx >= self.n
                    rank = base + np.cumsum(is_dummy) - 1  # rank of each dummy
                    dummy_tags = self._dummy_tags(key, rank, dest.budget)
                    return self._meta_blocks(
                        np.where(is_dummy, dummy_tags, _prf_many(key, idx)), idx
                    )

                metas, _ = mach.io_rounds([
                    ("r", meta, (lo, hi)),
                    ("w", meta, (lo, hi), retagged),
                ])
                dummies_before += int(np.count_nonzero(metas[:, 0, 1] >= self.n))
        oblivious_block_sort(mach, [meta, payload])
        # The first `cap` slots (all reals + the fresh dummies) become
        # store k; the +inf surplus is dropped.
        for lo, hi in scan_chunks(mach, cap, streams=4):
            with hold_scan(mach, 4, hi - lo):
                mach.io_rounds([
                    ("r", meta, (lo, hi)),
                    ("w", dest.meta, (lo, hi), lambda reads: reads[0]),
                    ("r", payload, (lo, hi)),
                    ("w", dest.payload, (lo, hi), lambda reads: reads[2]),
                ])
        for j in stores:
            self.stores[j].occupied = False
        dest.occupied = True
        dest.key = key
        dest.dummies_used = 0
        self.rebuilds += 1
        return meta, payload
