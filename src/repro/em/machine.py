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
while replaying a fixed event pattern (the same affordance the
historical ``read_range`` provided); that is a simulation detail, never
part of the model.
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

#: Memoized 0..k-1 round-number columns for trace-row building.  The
#: cached arrays are only ever used as read-only operands.
_ROUND_NUMBERS: dict[int, np.ndarray] = {}


def _round_numbers(k: int) -> np.ndarray:
    arr = _ROUND_NUMBERS.get(k)
    if arr is None:
        arr = np.arange(k, dtype=np.int64)
        if len(_ROUND_NUMBERS) > 512:
            _ROUND_NUMBERS.clear()
        _ROUND_NUMBERS[k] = arr
    return arr


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
    # Every batched entry point accepts either an explicit 1-D int64 index
    # array or a contiguous ``(lo, hi)`` tuple.  Ranges are the fast path:
    # O(1) bounds checks and slice-based gather/scatter instead of fancy
    # indexing — the dominant case, since hot loops scan in chunks.

    def read_many(self, arr: EMArray, indices) -> np.ndarray:
        """Read the indexed blocks (``k`` I/Os) as ``(k, B, 2)``.

        ``indices`` is a 1-D index array or a ``(lo, hi)`` range tuple.
        The trace records one READ per index, in index order — identical
        to a scalar ``read`` loop.  Callers must chunk requests so the
        returned blocks fit the private memory they have reserved.
        """
        self._own(arr)
        if type(indices) is tuple:
            lo, hi, step = indices if len(indices) == 3 else (*indices, 1)
            idx = None
            k = len(range(lo, hi, step)) if hi > lo else 0
        else:
            idx = self._as_indices(indices)
            lo = hi = 0
            step = 1
            k = len(idx)
        blocks = arr._gather_range(lo, hi, step) if idx is None else arr._gather(idx)
        self.reads += k
        self._count_batch(k)
        self._notify_io(k, 1)
        if self.trace.enabled and k:
            rows = np.empty((k, 3), dtype=np.int64)
            rows[:, 0] = _OP_READ
            rows[:, 1] = arr.array_id
            rows[:, 2] = idx if idx is not None else np.arange(lo, hi, step)
            self.trace.append_rows(rows)
        return blocks

    def write_many(self, arr: EMArray, indices, blocks: np.ndarray) -> None:
        """Write ``blocks[t]`` to block ``indices[t]`` (``k`` I/Os).

        One WRITE event per index, in index order; duplicate indices
        behave like the equivalent sequential loop (last write wins).
        """
        self._own(arr)
        blocks = np.asarray(blocks, dtype=np.int64)
        if type(indices) is tuple:
            lo, hi, step = indices if len(indices) == 3 else (*indices, 1)
            idx = None
            k = len(blocks)
        else:
            idx = self._as_indices(indices)
            lo = hi = 0
            step = 1
            k = len(idx)
        if idx is None:
            arr._scatter_range(lo, hi, blocks, step)
        else:
            arr._scatter(idx, blocks)
        self.writes += k
        self._count_batch(k)
        self._notify_io(k, 1)
        if self.trace.enabled and k:
            rows = np.empty((k, 3), dtype=np.int64)
            rows[:, 0] = _OP_WRITE
            rows[:, 1] = arr.array_id
            rows[:, 2] = idx if idx is not None else np.arange(lo, hi, step)
            self.trace.append_rows(rows)

    def copy_many(self, src: EMArray, src_indices, dst: EMArray, dst_indices) -> None:
        """Fused ``write(dst, d[t], read(src, s[t]))`` loop (``2k`` I/Os).

        Trace: ``R src s[0], W dst d[0], R src s[1], W dst d[1], ...`` —
        byte-identical to the scalar copy loop.  ``src`` and ``dst`` may
        be the same array as long as no destination index is also a
        *later* source index (the gather happens before the scatter).
        """
        self._own(src)
        self._own(dst)
        if type(src_indices) is tuple:
            s_lo, s_hi, s_st = (
                src_indices if len(src_indices) == 3 else (*src_indices, 1)
            )
            sidx = None
            k = len(range(s_lo, s_hi, s_st)) if s_hi > s_lo else 0
        else:
            sidx = self._as_indices(src_indices)
            s_lo = s_hi = 0
            s_st = 1
            k = len(sidx)
        blocks = (
            src._gather_range(s_lo, s_hi, s_st) if sidx is None else src._gather(sidx)
        )
        if type(dst_indices) is tuple:
            d_lo, d_hi, d_st = (
                dst_indices if len(dst_indices) == 3 else (*dst_indices, 1)
            )
            didx = None
        else:
            didx = self._as_indices(dst_indices)
            d_lo = d_hi = 0
            d_st = 1
            if len(didx) != k:
                raise ValueError(
                    f"source and destination counts differ ({k} != {len(didx)})"
                )
        if didx is None:
            dst._scatter_range(d_lo, d_hi, blocks, d_st)
        else:
            dst._scatter(didx, blocks)
        self.reads += k
        self.writes += k
        self._count_batch(2 * k)
        self._notify_io(k, 2)
        if self.trace.enabled and k:
            rows = np.empty((2 * k, 3), dtype=np.int64)
            rows[0::2, 0] = _OP_READ
            rows[1::2, 0] = _OP_WRITE
            rows[0::2, 1] = src.array_id
            rows[1::2, 1] = dst.array_id
            rows[0::2, 2] = (
                sidx if sidx is not None else np.arange(s_lo, s_hi, s_st)
            )
            rows[1::2, 2] = (
                didx if didx is not None else np.arange(d_lo, d_hi, d_st)
            )
            self.trace.append_rows(rows)

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
        lidx = self._as_indices(left)
        ridx = self._as_indices(right)
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
        self._count_batch(4 * k)
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

        Writes land in the scalar loop's order.  When several streams
        write one array, the engine builds every payload first and then
        applies each array's streams together — round by round, stream by
        stream within a round and column by column within a wide stream —
        so contents (last write wins) and ciphertext versions match the
        loop even when the streams interleave or overlap: one index
        matrix, one scatter and one re-encryption per array, or one slice
        write when that order is a contiguous range (``S`` range streams
        of stride ``S`` starting at ``lo, lo + 1, ..., lo + S - 1``).
        Streams that each write their own array are written one after
        another.  A call with a wide stream gathers each stream with one
        fancy index and builds every payload before the first write.

        If a payload callable raises, the whole batch is abandoned —
        nothing is counted or traced.  Error transcripts therefore are
        not byte-stable against the scalar engine (which recorded events
        up to the failing block); every such error aborts the attempt,
        so only success transcripts carry obliviousness claims.

        Returns the per-step list of gathered read results.
        """
        if not steps:
            return []
        k = -1
        all_ranges = True
        wide = False
        parsed: list[list] = []
        writers: list[int] = []
        for step in steps:
            kind = step[0]
            if kind not in ("r", "w"):
                raise ValueError(f"unknown io_rounds step kind {kind!r}")
            arr = step[1]
            self._own(arr)
            indices = step[2]
            if type(indices) is tuple:
                lo, hi, st = indices if len(indices) == 3 else (*indices, 1)
                idx = None
                if st == 1:
                    kk = hi - lo if hi > lo else 0
                else:
                    kk = len(range(lo, hi, st)) if hi > lo else 0
            else:
                idx = np.asarray(indices, dtype=np.int64)
                if idx.ndim != 1:
                    if idx.ndim != 2:
                        raise ValueError(
                            f"indices must be 1-D or (k, w), got shape {idx.shape}"
                        )
                    wide = True
                lo = hi = 0
                st = 1
                kk = len(idx)
                all_ranges = False
            if k < 0:
                k = kk
            elif kk != k:
                raise ValueError(
                    f"io_rounds streams disagree on length ({kk} != {k})"
                )
            if kind == "w":
                payload = step[3]
                writers.append(arr.array_id)
            else:
                payload = None
            parsed.append([kind, arr, lo, hi, st, idx, payload])
        if k == 0:
            return [None for _ in parsed]
        if wide:
            return self._wide_rounds(parsed, k)

        results: list[np.ndarray | None] = []
        n_reads = n_writes = 0
        for kind, arr, lo, hi, st, idx, _ in parsed:
            if kind == "r":
                results.append(
                    arr._gather_range(lo, hi, st) if idx is None else arr._gather(idx)
                )
                n_reads += k
            else:
                results.append(None)
                n_writes += k
        if len(set(writers)) == len(writers):
            for kind, arr, lo, hi, st, idx, payload in parsed:
                if kind != "w":
                    continue
                blocks = payload(results) if callable(payload) else payload
                blocks = np.asarray(blocks, dtype=np.int64)
                if idx is None:
                    arr._scatter_range(lo, hi, blocks, st)
                else:
                    arr._scatter(idx, blocks)
        else:
            self._write_rounds(parsed, results, k)
        self.reads += n_reads
        self.writes += n_writes
        self._count_batch(k * len(parsed))
        self._notify_io(k, len(parsed))
        if self.trace.enabled:
            t = len(parsed)
            rows = np.empty((k, t, 3), dtype=np.int64)
            rows[:, :, 0] = np.array(
                [_OP_READ if p[0] == "r" else _OP_WRITE for p in parsed],
                dtype=np.int64,
            )
            rows[:, :, 1] = np.array(
                [p[1].array_id for p in parsed], dtype=np.int64
            )
            if all_ranges:
                # All-range batch: one broadcast build of every index.
                rows[:, :, 2] = _round_numbers(k)[:, None] * np.array(
                    [p[4] for p in parsed], dtype=np.int64
                ) + np.array([p[2] for p in parsed], dtype=np.int64)
            else:
                for s, (kind, arr, lo, hi, st, idx, _) in enumerate(parsed):
                    rows[:, s, 2] = (
                        idx if idx is not None else np.arange(lo, hi, st)
                    )
            self.trace.append_rows(rows.reshape(-1, 3))
        return results

    def read_range(self, arr: EMArray, start: int, count: int) -> np.ndarray:
        """Read ``count`` consecutive blocks (``count`` I/Os) as one array.

        Returns shape ``(count, B, 2)``.  A thin wrapper over
        :meth:`read_many`; the trace records each block read
        individually, as the adversary would see them.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return self.read_many(arr, (start, start + count))

    def write_range(self, arr: EMArray, start: int, blocks: np.ndarray) -> None:
        """Write consecutive ``blocks`` starting at ``start`` (len I/Os)."""
        blocks = np.asarray(blocks, dtype=np.int64)
        if blocks.ndim != 3 or blocks.shape[1:] != (self.B, RECORD_WIDTH):
            raise ValueError(
                f"blocks must have shape (k, {self.B}, {RECORD_WIDTH}), "
                f"got {blocks.shape}"
            )
        count = blocks.shape[0]
        self.write_many(arr, (start, start + count), blocks)

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
        this machine owns it (shared service backends stay open)."""
        for arr in list(self._arrays.values()):
            self.free(arr)
        if self.owns_backend:
            self.backend.close()

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _as_indices(indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {idx.shape}")
        return idx

    @staticmethod
    def _write_rounds(parsed: list, results: list, k: int) -> None:
        """Apply write streams as the scalar loop would when several
        write one array: per array, round by round and stream by stream
        within a round, after every payload is built."""
        by_array: dict[int, list] = {}
        for p in parsed:
            if p[0] == "w":
                blocks = p[6](results) if callable(p[6]) else p[6]
                by_array.setdefault(p[1].array_id, []).append(
                    (p, np.asarray(blocks, dtype=np.int64))
                )
        for group in by_array.values():
            arr = group[0][0][1]
            S = len(group)
            shape = (k, arr.B, RECORD_WIDTH)
            bad = [b.shape for _, b in group if b.shape != shape]
            if bad:
                raise ValueError(f"blocks shape {bad[0]} does not match {shape}")
            blocks = np.stack([b for _, b in group], axis=1).reshape(
                k * S, arr.B, RECORD_WIDTH
            )
            lo0 = group[0][0][2]
            if all(
                p[5] is None and p[4] == S and p[2] == lo0 + s
                for s, (p, _) in enumerate(group)
            ):
                # Stream s writes lo0 + s, lo0 + s + S, ...: round-major
                # order is the contiguous range [lo0, lo0 + k * S).
                arr._scatter_range(lo0, lo0 + k * S, blocks)
                continue
            idx = np.empty((k, S), dtype=np.int64)
            for s, ((_, _, lo, hi, st, sidx, _), _) in enumerate(group):
                idx[:, s] = sidx if sidx is not None else np.arange(lo, hi, st)
            arr._scatter(idx.reshape(-1), blocks)

    def _wide_rounds(self, parsed: list, k: int) -> list[np.ndarray | None]:
        """:meth:`io_rounds` for a call with a ``(k, w)`` stream.

        Every stream becomes a ``(k, w)`` index matrix (a 1-D stream is
        one column) and is gathered with one fancy index.  Every payload
        is built before the first write; then each array's write streams
        are laid side by side — round, then stream, then column, the
        scalar loop's order — for one scatter and one re-encryption per
        array.  The trace rows of the whole call are built at once.
        """
        mats: list[np.ndarray] = []
        results: list[np.ndarray | None] = []
        n_reads = 0
        for kind, arr, lo, hi, st, idx, _ in parsed:
            if idx is None:
                mat = np.arange(lo, hi, st)[:, None]
            else:
                mat = idx if idx.ndim == 2 else idx[:, None]
            mats.append(mat)
            if kind == "w":
                results.append(None)
                continue
            n_reads += mat.size
            if idx is None:
                results.append(arr._gather_range(lo, hi, st))
            else:
                got = arr._gather(mat.reshape(-1))
                results.append(got.reshape(idx.shape + got.shape[1:]))
        writes: dict[int, list] = {}
        for (kind, arr, _, _, _, idx, payload), mat in zip(parsed, mats):
            if kind != "w":
                continue
            blocks = np.asarray(
                payload(results) if callable(payload) else payload, dtype=np.int64
            )
            shape = ((k,) if idx is None else idx.shape) + (arr.B, RECORD_WIDTH)
            if blocks.shape != shape:
                raise ValueError(f"blocks shape {blocks.shape} does not match {shape}")
            writes.setdefault(arr.array_id, [arr]).append(
                (mat, blocks.reshape(*mat.shape, arr.B, RECORD_WIDTH))
            )
        for arr, *streams in writes.values():
            mat, blocks = streams[0] if len(streams) == 1 else (
                np.concatenate([s[0] for s in streams], axis=1),
                np.concatenate([s[1] for s in streams], axis=1),
            )
            arr._scatter(mat.reshape(-1), blocks.reshape(-1, arr.B, RECORD_WIDTH))
        n_events = sum(mat.size for mat in mats)
        self.reads += n_reads
        self.writes += n_events - n_reads
        self._count_batch(n_events)
        self._notify_io(k, len(parsed))
        if self.trace.enabled and n_events:
            rows = np.empty((k, n_events // k, 3), dtype=np.int64)
            at = 0
            for p, mat in zip(parsed, mats):
                w = mat.shape[1]
                rows[:, at : at + w, 0] = _OP_READ if p[0] == "r" else _OP_WRITE
                rows[:, at : at + w, 1] = p[1].array_id
                rows[:, at : at + w, 2] = mat
                at += w
            self.trace.append_rows(rows.reshape(-1, 3))
        return results

    def _count_batch(self, ios: int) -> None:
        if ios > 0:
            self.batch_count += 1
            self.batched_io_count += ios

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
