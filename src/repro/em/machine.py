"""The external-memory machine: Alice's view of the world.

``EMMachine(M, B)`` bundles the client cache, the server-side arrays, the
I/O counters and the access trace.  Every algorithm in the library takes a
machine (or an array belonging to one) and performs all server access via
:meth:`read` / :meth:`write` or their batched counterparts, so I/O counts
and traces are complete by construction.

The batched engine
------------------

The scalar :meth:`read`/:meth:`write` pair models one I/O per Python call;
at scale the interpreter overhead of that call dominates the simulation.
The batched entry points amortize it into vectorized gather/scatter
kernels (:meth:`repro.em.storage.StorageBackend.gather` / ``scatter``)
while emitting *exactly* the event sequence the equivalent scalar loop
would have produced:

* :meth:`read_many` / :meth:`write_many` — one operation over many
  indices, events in index order;
* :meth:`copy_many` — the fused ``write(dst, read(src))`` loop, events
  interleaved ``R, W, R, W, ...``;
* :meth:`swap_many` — the fused sequential swap loop of the Knuth
  shuffle, events ``R i, R j, W i, W j`` per pair;
* :meth:`io_rounds` — the general form: ``t`` parallel I/O streams
  interleaved round-robin, exactly the trace of a scalar loop running one
  operation (or, for a wide stream, one run of operations) per stream per
  iteration.

Because the trace and the counters are identical to the scalar
formulation, obliviousness arguments transfer verbatim.  The *modeled*
private-memory residency is what the cache leases account for — the
algorithm's claim of how many blocks it holds at once, which the scans
keep within ``M/B``.  The engine itself may stage more blocks physically
while replaying a fixed event pattern; that is a simulation detail,
never part of the model.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.em.block import RECORD_WIDTH
from repro.em.cache import ClientCache
from repro.em.errors import EMError
from repro.em.storage import EMArray, MemoryBackend, StorageBackend
from repro.em.trace import AccessTrace, Op

__all__ = ["EMMachine", "IOMeter", "IOStep"]

#: One stream of a fused :meth:`EMMachine.io_rounds` batch: ``("r", arr,
#: indices)`` or ``("w", arr, indices, blocks_or_fn)``.  ``indices`` is a
#: ``(lo, hi[, step])`` range or a 1-D index array (one block per round),
#: or a ``(k, w)`` index matrix (a wide stream: a run of ``w`` blocks per
#: round).
IOStep = tuple

_OP_READ = int(Op.READ)
_OP_WRITE = int(Op.WRITE)


def _parse(indices, wide: bool = False) -> tuple:
    """``(lo, hi, step, idx, k)`` of one stream's indices: a ``(lo, hi[,
    step])`` range (``idx`` None) or an int64 index array, 1-D or, when
    ``wide``, a ``(k, w)`` matrix."""
    if type(indices) is tuple:
        lo, hi, st = indices if len(indices) == 3 else (*indices, 1)
        return lo, hi, st, None, len(range(lo, hi, st)) if hi > lo else 0
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 and (idx.ndim != 2 or not wide):
        form = "1-D or (k, w)" if wide else "1-D"
        raise ValueError(f"indices must be {form}, got shape {idx.shape}")
    return 0, 0, 1, idx, len(idx)


def _checked_write(group: list, k: int) -> tuple:
    """One array's write streams in a ``k``-round call as one write
    ``(arr, lo, hi, step, idx, blocks)``, its bounds and block shapes
    checked.  A lone range or 1-D index stream stays as it is; several
    streams, or a wide one, become one scatter laid out round by round,
    then stream by stream, then column by column: the scalar loop's
    write order.  ``group`` holds ``(stream, blocks)`` pairs."""
    (_, arr, lo, hi, st, idx, _), blocks = group[0]
    B = arr.B
    if len(group) == 1 and (idx is None or idx.ndim == 1):
        if blocks.shape != (k, B, RECORD_WIDTH):
            raise ValueError(
                f"blocks shape {blocks.shape} does not match {(k, B, RECORD_WIDTH)}"
            )
        if idx is None:
            arr._check_range(lo, hi, st)
        else:
            arr._check_many(idx)
        return arr, lo, hi, st, idx, blocks
    mats, stacks = [], []
    for (_, _, lo, hi, st, idx, _), blocks in group:
        if idx is None:
            idx = np.arange(lo, hi, st)
        shape = idx.shape + (B, RECORD_WIDTH)
        if blocks.shape != shape:
            raise ValueError(f"blocks shape {blocks.shape} does not match {shape}")
        mats.append(idx if idx.ndim == 2 else idx[:, None])
        stacks.append(blocks.reshape(mats[-1].shape + (B, RECORD_WIDTH)))
    if len(group) > 1:
        mats = [np.concatenate(mats, axis=1)]
        stacks = [np.concatenate(stacks, axis=1)]
    idx = mats[0].reshape(-1)
    arr._check_many(idx)
    return arr, 0, 0, 1, idx, stacks[0].reshape(-1, B, RECORD_WIDTH)


@dataclass
class IOMeter:
    """Counts of I/Os observed between two points in time.

    ``batches``/``batched_ios`` describe how much of the traffic went
    through the batched engine (one "batch" per bulk call; ``batched_ios``
    is the number of I/Os those calls covered).
    """

    reads: int = 0
    writes: int = 0
    batches: int = 0
    batched_ios: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes

    @property
    def mean_batch_size(self) -> float:
        """Average I/Os per batched call (0.0 when nothing was batched)."""
        return self.batched_ios / self.batches if self.batches else 0.0


class EMMachine:
    """An external-memory machine with cache size ``M`` and block size ``B``.

    Parameters
    ----------
    M:
        Client private memory, in *words* (records).  Must be at least
        ``2 * B`` (the weakest assumption any algorithm in the paper makes).
    B:
        Words per block, ``B >= 1``.
    trace:
        Record the adversary-visible access trace (default True).  Large
        benchmark runs may disable it; I/O counters are always maintained.
    retain_trace:
        Keep every trace event for :meth:`AccessTrace.as_array` (default
        False: the trace keeps running digests only, see
        :mod:`repro.em.trace`).
    backend:
        Storage backend providing the server-side buffers (default:
        :class:`repro.em.storage.MemoryBackend`).  Backends change where
        the bytes live, never the I/O counts or the trace.
    owns_backend:
        Whether :meth:`close` closes the backend (default True).  The
        service layer shares one backend across many machines and passes
        ``False`` so a session teardown frees its own arrays without
        destroying its neighbours' storage.
    """

    def __init__(
        self,
        M: int,
        B: int,
        *,
        trace: bool = True,
        retain_trace: bool = False,
        backend: StorageBackend | None = None,
        owns_backend: bool = True,
    ) -> None:
        if B < 1:
            raise ValueError(f"block size B must be >= 1, got {B}")
        if M < 2 * B:
            raise ValueError(f"private memory M={M} violates M >= 2B (B={B})")
        self.M = M
        self.B = B
        self.cache = ClientCache(M // B)
        self.trace = AccessTrace(retain=retain_trace)
        self.trace.enabled = trace
        self.backend = backend if backend is not None else MemoryBackend()
        self.owns_backend = owns_backend
        #: Optional ``fn(rounds, streams)`` called once per I/O entry
        #: point with the round-robin shape of the batch (``rounds``
        #: iterations of ``streams`` parallel streams).  The service's
        #: cross-session batcher listens here; the hook observes only
        #: batch *shapes* — public schedule information — never data.
        self.io_observer = None
        self.reads = 0
        self.writes = 0
        self.batch_count = 0
        self.batched_io_count = 0
        #: Largest single client→server upload, in records — the peak
        #: client-side residency a plan demanded.  Streamed sources keep
        #: this at one chunk where a one-shot upload pays the full ``n``.
        self.peak_upload_records = 0
        #: Client↔server round trips: bulk uploads of problem instances
        #: (:meth:`load_records`) and bulk downloads of final outputs
        #: (:meth:`extract_records`).  Server-local handoffs
        #: (:meth:`repack_resident`) move nothing across the link and are
        #: not counted — this is what lets a pipeline prove it paid for
        #: exactly one load and one extract.
        self.client_loads = 0
        self.client_extracts = 0
        self._arrays: dict[int, EMArray] = {}
        self._next_id = 0

    # -- model parameters -------------------------------------------------

    @property
    def m(self) -> int:
        """Number of blocks that fit in private memory (``M // B``)."""
        return self.M // self.B

    @property
    def total_ios(self) -> int:
        """Total I/Os performed since construction."""
        return self.reads + self.writes

    @property
    def resident_bytes(self) -> int:
        """Bytes of server storage held by this machine's live arrays."""
        return sum(arr._data.nbytes for arr in self._arrays.values())

    # -- allocation --------------------------------------------------------

    def alloc(self, num_blocks: int, name: str = "") -> EMArray:
        """Allocate a server-side array of ``num_blocks`` blocks.

        Allocation is adversary-visible (Bob provisions the space), so an
        ``ALLOC`` event carrying the length is traced.
        """
        arr = EMArray(
            self._next_id,
            name or f"arr{self._next_id}",
            num_blocks,
            self.B,
            backend=self.backend,
        )
        self._arrays[arr.array_id] = arr
        self._next_id += 1
        self.trace.record(Op.ALLOC, arr.array_id, num_blocks)
        return arr

    def alloc_cells(self, num_cells: int, name: str = "") -> EMArray:
        """Allocate an array with room for at least ``num_cells`` records."""
        num_blocks = -(-num_cells // self.B) if num_cells > 0 else 0
        return self.alloc(num_blocks, name)

    def free(self, arr: EMArray) -> None:
        """Release a server-side array (adversary-visible)."""
        if arr.array_id not in self._arrays:
            raise EMError(f"array {arr.name!r} is not owned by this machine")
        del self._arrays[arr.array_id]
        self.backend.release(arr._data)
        self.trace.record(Op.FREE, arr.array_id, arr.num_blocks)

    # -- client↔server bulk transfer and server-local handoff -------------
    #
    # These are *setup/teardown* affordances, like ``EMArray.load_flat``:
    # they move whole problem instances across the client↔server link (or,
    # for ``repack_resident``, within the server) outside the I/O model —
    # the model's block-I/O cost only covers the algorithms themselves.
    # The round-trip counters make the data-movement story auditable.

    def load_records(self, records: np.ndarray, name: str = "") -> EMArray:
        """Upload ``records`` from the client into a fresh minimally-sized
        server array (one client→server round trip).

        Allocates ``ceil(max(1, len(records)) / B)`` blocks and bulk-loads
        the records, preserving their layout (``NULL_KEY`` rows included,
        so sparse compaction instances survive the trip).
        """
        arr = self.alloc_cells(max(1, len(records)), name)
        arr.load_flat(records)
        self.client_loads += 1
        self.peak_upload_records = max(self.peak_upload_records, len(records))
        return arr

    def begin_chunked_load(self, total_records: int, name: str = "") -> EMArray:
        """Provision the server array for a chunked upload.

        Emits exactly the ``ALLOC`` event :meth:`load_records` would for
        ``total_records`` records — the adversary sees the same public
        total either way — but moves no data yet: chunks arrive via
        :meth:`load_chunk`.  The fresh array's cells are all empty
        (``NULL_KEY``), matching a one-shot upload padded to the total.
        """
        if total_records < 0:
            raise ValueError(
                f"total_records must be non-negative, got {total_records}"
            )
        return self.alloc_cells(max(1, total_records), name)

    def load_chunk(
        self, arr: EMArray, offset_records: int, records: np.ndarray
    ) -> None:
        """Upload one mini-batch into cells ``[offset, offset+len)`` of a
        :meth:`begin_chunked_load` array (one client→server round trip).

        Like :meth:`load_records` this is a setup affordance outside the
        block-I/O model: nothing is traced (the ``ALLOC`` already pinned
        the public total, and the chunk *schedule* is public via
        :attr:`client_loads`), but each chunk pays one round trip and
        only ``len(records)`` records ever sit client-side.
        """
        self._own(arr)
        records = np.asarray(records, dtype=np.int64)
        if records.ndim != 2 or records.shape[1] != RECORD_WIDTH:
            raise ValueError(
                f"records must have shape (n, 2), got {records.shape}"
            )
        end = offset_records + len(records)
        if offset_records < 0 or end > arr.num_cells:
            raise ValueError(
                f"chunk cells [{offset_records}, {end}) out of range for "
                f"array '{arr.name}' of {arr.num_cells} cells"
            )
        flat = arr._data.reshape(-1, RECORD_WIDTH)
        flat[offset_records:end] = records
        self.client_loads += 1
        self.peak_upload_records = max(self.peak_upload_records, len(records))

    def extract_records(self, arr: EMArray) -> np.ndarray:
        """Download the non-empty records of ``arr`` to the client (one
        server→client round trip)."""
        self.client_extracts += 1
        return arr.nonempty()

    def repack_resident(
        self, arr: EMArray, name: str = "", *, keep_layout: bool = False
    ) -> np.ndarray:
        """Server-local handoff: return ``arr``'s records and free it,
        *without* a client round trip.

        The pipeline executor uses this between steps: the server packs an
        intermediate's records (a server-local operation in a real
        deployment — the data never crosses the client↔server link, so
        :attr:`client_loads` / :attr:`client_extracts` are untouched) and
        the executor immediately re-stages them into the next step's input
        array via :meth:`stage_records`.

        ``keep_layout=True`` returns *every* cell — NULL padding included
        — so the handoff size is the layout's public cell count rather
        than the data-dependent surviving count.  This is the
        selectivity-hiding path for padded intermediates (masking scans,
        joins, group-by, streamed sources): the adversary-visible size of
        the next step stays a function of public bounds only.
        """
        records = arr.flat() if keep_layout else arr.nonempty()
        self.free(arr)
        return records

    def stage_records(self, records: np.ndarray, name: str = "") -> EMArray:
        """Stage already-server-resident ``records`` into a fresh
        minimally-sized array (the second half of a server-local handoff;
        no client round trip, no modeled I/O)."""
        arr = self.alloc_cells(max(1, len(records)), name)
        arr.load_flat(records)
        return arr

    # -- scalar block I/O --------------------------------------------------

    def read(self, arr: EMArray, index: int) -> np.ndarray:
        """Read block ``index`` of ``arr`` into private memory (1 I/O)."""
        self._own(arr)
        block = arr._read(index)
        self.reads += 1
        self._notify_io(1, 1)
        self.trace.record(Op.READ, arr.array_id, index)
        return block

    def write(self, arr: EMArray, index: int, block: np.ndarray) -> None:
        """Write ``block`` to block ``index`` of ``arr`` (1 I/O).

        The server stores a fresh ciphertext regardless of whether the
        plaintext changed — the version bump in
        :class:`repro.em.crypto.CiphertextVersions` models re-encryption.
        """
        self._own(arr)
        arr._write(index, np.asarray(block, dtype=np.int64))
        self.writes += 1
        self._notify_io(1, 1)
        self.trace.record(Op.WRITE, arr.array_id, index)

    # -- batched block I/O -------------------------------------------------
    #
    # Every batched entry point accepts either an explicit int64 index
    # array or a contiguous ``(lo, hi)`` / strided ``(lo, hi, step)`` range
    # tuple.  Ranges are the fast path: O(1) bounds checks and slice-based
    # gather/scatter instead of fancy indexing — the dominant case, since
    # hot loops scan in chunks.  :meth:`read_many`, :meth:`write_many`,
    # :meth:`copy_many` and :meth:`io_rounds` parse their streams and hand
    # them to one core, :meth:`_rounds`.

    def read_many(self, arr: EMArray, indices) -> np.ndarray:
        """Read the indexed blocks (``k`` I/Os) as ``(k, B, 2)``.

        ``indices`` is a 1-D index array or a ``(lo, hi[, step])`` range
        tuple.  The trace records one READ per index, in index order —
        identical to a scalar ``read`` loop.  Callers must chunk requests
        so the returned blocks fit the private memory they have reserved.
        """
        self._own(arr)
        lo, hi, st, idx, k = _parse(indices)
        return self._rounds([("r", arr, lo, hi, st, idx, None)], k, False)[0]

    def write_many(self, arr: EMArray, indices, blocks: np.ndarray) -> None:
        """Write ``blocks[t]`` to block ``indices[t]`` (``k`` I/Os).

        One WRITE event per index, in index order; duplicate indices
        behave like the equivalent sequential loop (last write wins).
        """
        self._own(arr)
        lo, hi, st, idx, k = _parse(indices)
        self._rounds([("w", arr, lo, hi, st, idx, blocks)], k, True)

    def copy_many(self, src: EMArray, src_indices, dst: EMArray, dst_indices) -> None:
        """Fused ``write(dst, d[t], read(src, s[t]))`` loop (``2k`` I/Os).

        Trace: ``R src s[0], W dst d[0], R src s[1], W dst d[1], ...`` —
        byte-identical to the scalar copy loop.  ``src`` and ``dst`` may
        be the same array as long as no destination index is also a
        *later* source index (the gather happens before the scatter).
        """
        self._own(src)
        self._own(dst)
        s_lo, s_hi, s_st, sidx, k = _parse(src_indices)
        d_lo, d_hi, d_st, didx, kd = _parse(dst_indices)
        if kd != k:
            raise ValueError(f"source and destination counts differ ({k} != {kd})")
        self._rounds(
            [
                ("r", src, s_lo, s_hi, s_st, sidx, None),
                ("w", dst, d_lo, d_hi, d_st, didx, lambda reads: reads[0]),
            ],
            k,
            True,
        )

    def swap_many(self, arr: EMArray, left, right) -> None:
        """Fused sequential swap loop: for each ``t``, swap blocks
        ``left[t]`` and ``right[t]`` of ``arr`` (``4k`` I/Os).

        Semantics are *sequential*: swap ``t`` observes the effect of
        swaps ``0..t-1`` (the Knuth-shuffle contract).  The engine applies
        the composed permutation in one gather/scatter; the trace is the
        scalar loop's ``R l, R r, W l, W r`` per pair and every touched
        position is re-encrypted per write, in write order.
        """
        self._own(arr)
        if type(left) is tuple:
            left = np.arange(*left, dtype=np.int64)
        if type(right) is tuple:
            right = np.arange(*right, dtype=np.int64)
        lidx = _parse(left)[3]
        ridx = _parse(right)[3]
        if len(lidx) != len(ridx):
            raise ValueError(
                f"left and right counts differ ({len(lidx)} != {len(ridx)})"
            )
        k = len(lidx)
        if k == 0:
            return
        arr._check_many(lidx)
        arr._check_many(ridx)
        uniq, inv = np.unique(np.concatenate([lidx, ridx]), return_inverse=True)
        values = arr.backend.gather(arr._data, uniq)
        # Compose the swaps on private index labels (cheap ints, no block
        # movement), then apply the permutation to the gathered blocks.
        cur = np.arange(len(uniq), dtype=np.int64)
        li, ri = inv[:k], inv[k:]
        for t in range(k):
            a, b = li[t], ri[t]
            cur[a], cur[b] = cur[b], cur[a]
        arr.backend.scatter(arr._data, uniq, values[cur])
        widx = np.empty(2 * k, dtype=np.int64)
        widx[0::2] = lidx
        widx[1::2] = ridx
        arr.versions.reencrypt_many(widx)
        self.reads += 2 * k
        self.writes += 2 * k
        self.batch_count += 1
        self.batched_io_count += 4 * k
        self._notify_io(k, 4)
        if self.trace.enabled:
            ops = np.empty(4 * k, dtype=np.int64)
            ops[0::4] = int(Op.READ)
            ops[1::4] = int(Op.READ)
            ops[2::4] = int(Op.WRITE)
            ops[3::4] = int(Op.WRITE)
            idx = np.empty(4 * k, dtype=np.int64)
            idx[0::4] = lidx
            idx[1::4] = ridx
            idx[2::4] = lidx
            idx[3::4] = ridx
            self.trace.record_events(ops, arr.array_id, idx)

    def io_rounds(self, steps: Sequence[IOStep]) -> list[np.ndarray | None]:
        """Run ``t`` parallel I/O streams interleaved round-robin.

        ``steps`` is a sequence of ``("r", arr, indices)`` read streams
        and ``("w", arr, indices, blocks)`` write streams whose indices
        all share one round count ``k``.  A stream's indices are a 1-D
        int64 array or a ``(lo, hi[, step])`` range (one block per
        round), or a ``(k, w)`` int64 matrix: a *wide* stream, whose round
        ``u`` covers the ``w`` blocks ``idx[u, 0], ..., idx[u, w-1]`` in
        that order (each wide stream has its own ``w``, which may be 0).
        The emitted events are::

            step0[0], step1[0], ..., stepT[0], step0[1], step1[1], ...

        with a wide stream's ``step[u]`` standing for its ``w`` events —
        exactly the trace of the scalar loop ``for u in range(k): <one op,
        or one run of ops, per stream>``, which is how every rewritten hot
        loop proves its transcript unchanged.

        A write stream's ``blocks`` may be an array — ``(k, B, 2)``, or
        ``(k, w, B, 2)`` for a wide stream — or a callable ``fn(reads)``
        returning one, invoked after all gathers, where ``reads`` is this
        function's return value (entries are the gathered blocks for read
        streams, in the same shapes, and ``None`` for write streams).
        All reads observe the machine state *before* the call; a caller
        whose later rounds depend on earlier rounds' writes must
        compensate in the payload callable (see ``thinning_pass``) or
        split the batch.

        Writes land in the scalar loop's order.  The engine builds every
        payload before the first write.  An array written by one stream
        takes one write; an array written by several takes one scatter
        and one re-encryption over their blocks laid out round by round,
        stream by stream within a round and column by column within a
        wide stream, so contents (last write wins) and ciphertext
        versions match the loop even when the streams interleave or
        overlap.

        If a payload callable raises, or a write stream fails its bounds
        or block-shape check, the whole batch is abandoned — nothing is
        written, counted or traced.  Error transcripts
        therefore are not byte-stable against the scalar engine (which
        recorded events up to the failing block); every such error aborts
        the attempt, so only success transcripts carry obliviousness
        claims.

        Returns the per-step list of gathered read results.
        """
        if not steps:
            return []
        k = -1
        writes = False
        streams: list[tuple] = []
        for step in steps:
            kind = step[0]
            if kind == "w":
                writes = True
                payload = step[3]
            elif kind == "r":
                payload = None
            else:
                raise ValueError(f"unknown io_rounds step kind {kind!r}")
            arr = step[1]
            self._own(arr)
            lo, hi, st, idx, kk = _parse(step[2], wide=True)
            if k < 0:
                k = kk
            elif kk != k:
                raise ValueError(
                    f"io_rounds streams disagree on length ({kk} != {k})"
                )
            streams.append((kind, arr, lo, hi, st, idx, payload))
        if k == 0:
            return [None for _ in streams]
        return self._rounds(streams, k, writes)

    # -- metering ------------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero the cumulative I/O, batch and round-trip counters (the
        trace is untouched)."""
        self.reads = 0
        self.writes = 0
        self.batch_count = 0
        self.batched_io_count = 0
        self.client_loads = 0
        self.client_extracts = 0
        self.peak_upload_records = 0

    @contextmanager
    def metered(self) -> Iterator[IOMeter]:
        """Measure the I/Os performed inside a ``with`` body.

        Yields an :class:`IOMeter` whose ``reads``/``writes`` (and batch
        statistics) are filled in when the body exits (normally or via an
        exception) — no hand-subtraction of ``total_ios`` snapshots
        required.
        """
        start_r, start_w = self.reads, self.writes
        start_b, start_bio = self.batch_count, self.batched_io_count
        m = IOMeter()
        try:
            yield m
        finally:
            m.reads = self.reads - start_r
            m.writes = self.writes - start_w
            m.batches = self.batch_count - start_b
            m.batched_ios = self.batched_io_count - start_bio

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Release every server array, then close the storage backend if
        this machine owns it (shared service backends stay open), then
        wait for the trace's last full chunk to be hashed, re-raising
        the hashing thread's error (:meth:`AccessTrace.sync`)."""
        for arr in list(self._arrays.values()):
            self.free(arr)
        if self.owns_backend:
            self.backend.close()
        self.trace.sync()

    # -- internals -------------------------------------------------------------

    def _rounds(self, streams: list, k: int, writes: bool) -> list[np.ndarray | None]:
        """The engine core: run parsed streams of ``k`` rounds each.

        A stream is ``(kind, arr, lo, hi, step, idx, payload)``, with
        ``idx`` None for a range; ``writes`` says whether any stream
        writes.  Range streams move by slice and index streams by fancy
        index, whatever their width.  Every payload is built, and every
        write's bounds and block shapes are checked, before the first
        write; then each written array takes one write: a slice or a
        scatter when one stream writes it, else one scatter over its
        streams' blocks (:func:`_checked_write`).  The counters, the
        observer and the trace rows of the whole call come last.
        """
        results: list[np.ndarray | None] = []
        n_reads = n_events = 0
        for kind, arr, lo, hi, st, idx, _ in streams:
            n = k if idx is None else idx.size
            n_events += n
            if kind == "w":
                results.append(None)
                continue
            n_reads += n
            if idx is None:
                results.append(arr._gather_range(lo, hi, st))
            elif idx.ndim == 1:
                results.append(arr._gather(idx))
            else:
                got = arr._gather(idx.reshape(-1))
                results.append(got.reshape(idx.shape + got.shape[1:]))
        if writes:
            by_array: dict[int, list] = {}
            for s in streams:
                if s[0] == "w":
                    blocks = s[6](results) if callable(s[6]) else s[6]
                    by_array.setdefault(s[1].array_id, []).append(
                        (s, np.asarray(blocks, dtype=np.int64))
                    )
            checked = []
            for group in by_array.values():
                checked.append(_checked_write(group, k))
            for arr, lo, hi, st, idx, blocks in checked:
                if idx is None:
                    arr._scatter_range(lo, hi, blocks, st)
                else:
                    arr._scatter(idx, blocks)
        self.reads += n_reads
        self.writes += n_events - n_reads
        if n_events:
            self.batch_count += 1
            self.batched_io_count += n_events
        if self.io_observer is not None and k:
            self.io_observer(k, len(streams))
        if self.trace.enabled and n_events:
            # Row u * E + j is round u's j-th event, E the events a round.
            rows = np.empty((n_events, 3), dtype=np.int64)
            E = n_events // k
            at = 0
            for kind, arr, lo, hi, st, idx, _ in streams:
                op = _OP_READ if kind == "r" else _OP_WRITE
                if idx is None or idx.ndim == 1:
                    col = rows[at::E]
                    col[:, 0] = op
                    col[:, 1] = arr.array_id
                    col[:, 2] = np.arange(lo, hi, st) if idx is None else idx
                    at += 1
                else:
                    w = idx.shape[1]
                    run = rows.reshape(k, E, 3)[:, at : at + w]
                    run[:, :, 0] = op
                    run[:, :, 1] = arr.array_id
                    run[:, :, 2] = idx
                    at += w
            self.trace.append_rows(rows)
        return results

    def _notify_io(self, rounds: int, streams: int) -> None:
        if self.io_observer is not None and rounds > 0:
            self.io_observer(rounds, streams)

    def _own(self, arr: EMArray) -> None:
        if self._arrays.get(arr.array_id) is not arr:
            raise EMError(f"array {arr.name!r} is not owned by this machine")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EMMachine(M={self.M}, B={self.B}, reads={self.reads}, "
            f"writes={self.writes}, arrays={len(self._arrays)})"
        )
