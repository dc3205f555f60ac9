"""Access traces — the adversary's transcript, kept as running digests.

Bob observes, for each of Alice's I/Os, the operation kind (read or write),
which array it touched, and the block address.  He does *not* observe block
contents (they are semantically encrypted, see :mod:`repro.em.crypto`).

The obliviousness contract of the paper (§1) says the *distribution* of
this transcript must be independent of the data values; because all of our
randomized algorithms draw from an explicit seeded generator, fixing the
seed makes the transcript a deterministic function of ``(P, N, M, B)``, so
the verifier can demand byte-identical transcripts across adversarially
chosen inputs.

Every reader of the transcript compares SHA-256 digests of *windows* of
it, so the trace keeps digests, not events.  An event is one ``(op,
array_id, index)`` int64 row.  Appends (``append_rows``, the engine's bulk
path, and the ``record`` / ``record_batch`` / ``record_events`` forms)
copy rows into a staging chunk of 32,768 rows.  Each full chunk is handed,
with the windows open at that moment, to one hashing thread per process,
which hashes it into every one of those windows while appends go on
into the trace's second chunk.  A trace keeps at most one chunk in
flight: it waits for that chunk before it hands off the next one and
before any digest is read, so a chunk is overwritten only once it has
been hashed.  Memory stays at two chunks however many I/Os the machine
performs.  The thread starts on the first full chunk, so importing the
library or running an untraced machine starts none.

* The whole-trace window is always open: :meth:`AccessTrace.fingerprint`
  with no argument digests every event recorded so far.
* :meth:`AccessTrace.mark` opens a window at the current position and
  returns that position.  :meth:`AccessTrace.fingerprint_pair` digests
  the window both as recorded and *canonically*, with array ids renamed
  0, 1, 2, … by first appearance inside the window — the adversary view
  up to array renaming.  :meth:`AccessTrace.release` closes the window;
  ``with trace.window() as mark:`` opens one for a block and closes it
  on every exit.  An open window costs the hashing thread a hash and a
  renaming of each full chunk, so windows are closed as soon as they
  have been read.  A window opened while a chunk is in flight starts
  after that chunk; a window released while one is in flight may still
  receive it, which changes no open window's digest.

Reading a window waits for the chunk in flight, re-raising the hashing
thread's error if it failed, then hashes the staged partial chunk into
copies of its hashers, so an open window can be read any number of
times as it grows.
Each digest is ``sha256`` of the window's events as one ``(n, 3)``
C-contiguous int64 array, the bytes every golden fingerprint was pinned
on.  Raw events are kept only by ``AccessTrace(retain=True)``
(``EMMachine(retain_trace=True)``), for readers that inspect individual
events through :meth:`AccessTrace.as_array`.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from enum import IntEnum

import numpy as np

__all__ = ["Op", "AccessTrace"]

#: Rows per staging chunk; a trace stages into two.
_CHUNK_EVENTS = 1 << 15

_NO_ROWS = np.empty((0, 3), dtype=np.int64)


class Op(IntEnum):
    """Operation kinds visible to the adversary.

    For ``ALLOC`` events the index column carries the array length in
    blocks (the adversary can see how much space Alice provisions).
    """

    READ = 0
    WRITE = 1
    ALLOC = 2
    FREE = 3


def _first_seen(ids: np.ndarray) -> tuple[np.ndarray, ...]:
    """``np.unique(ids, return_index=True, return_inverse=True)``.

    Array ids are allocation counters, so a chunk's ids usually span
    fewer values than there are ids; those are bucketed in linear time
    and memory instead of sorted."""
    lo = int(ids.min())
    span = int(ids.max()) - lo + 1
    if span > len(ids):
        return np.unique(ids, return_index=True, return_inverse=True)
    offsets = ids - lo
    first = np.full(span, len(ids))
    np.minimum.at(first, offsets, np.arange(len(ids)))
    keys = np.flatnonzero(first < len(ids))
    index = np.empty(span, dtype=np.int64)
    index[keys] = np.arange(len(keys))
    return keys + lo, first[keys], index[offsets]


def _renamed(rows: np.ndarray, ranks: dict[int, int]) -> np.ndarray:
    """Copy of ``rows`` with each array id replaced by its rank in
    ``ranks``; ids not yet ranked take the next ranks in order of first
    appearance and are added to ``ranks``."""
    out = rows.copy()
    if len(rows):
        keys, first, codes = _first_seen(rows[:, 1])
        for key in keys[np.argsort(first)].tolist():
            ranks.setdefault(key, len(ranks))
        out[:, 1] = np.array([ranks[key] for key in keys.tolist()])[codes]
    return out


#: The process's hashing thread, a one-worker executor started by the
#: first full chunk of any trace, and the job handed to it last.  Jobs
#: run in the order they were handed off, so once that job is done every
#: job is.
_hasher = None
_last_job = None
_hasher_lock = threading.Lock()


def _hash_later(folds: list):
    """Hand ``folds`` to the hashing thread, starting it on first use;
    returns the job's future."""
    global _hasher, _last_job
    with _hasher_lock:
        if _hasher is None:
            from concurrent.futures import ThreadPoolExecutor

            _hasher = ThreadPoolExecutor(1, thread_name_prefix="repro-trace")
        _last_job = _hasher.submit(_fold_all, folds)
        return _last_job


def _drain_before_fork() -> None:
    # A child inherits every trace but not the thread: let the chunks in
    # flight finish, so none is left half hashed in the child.  The job's
    # error, if any, stays with the trace that reads it.  This waits on
    # the last job rather than submitting one, because concurrent.futures'
    # own before-fork hook already holds the lock that submit takes.
    job = _last_job
    if job is not None:
        job.exception()


def _forget_after_fork() -> None:
    # The child's first full chunk starts the child's own thread.
    global _hasher, _last_job, _hasher_lock
    _hasher = _last_job = None
    _hasher_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_drain_before_fork, after_in_child=_forget_after_fork)


def _fold_all(folds: list) -> None:
    """The hashing thread's job: fold each ``(window, rows)`` pair."""
    for window, rows in folds:
        window.fold(rows)


class _Window:
    """Running digests of the events from position ``start`` on."""

    __slots__ = ("start", "plain", "canonical", "ranks", "refs")

    def __init__(self, start: int, canonical: bool) -> None:
        self.start = start
        self.plain = hashlib.sha256()
        self.canonical = hashlib.sha256() if canonical else None
        #: Array id -> canonical id, by first appearance in the window.
        self.ranks: dict[int, int] = {}
        self.refs = 1

    def fold(self, rows: np.ndarray) -> None:
        """Hash ``rows``, the window's next events, into its digests."""
        self.plain.update(rows)
        if self.canonical is not None:
            self.canonical.update(_renamed(rows, self.ranks))

    def digests(self, tail: np.ndarray) -> tuple[str, str | None]:
        """``(plain, canonical)`` hex digests as if ``tail`` were folded
        in, leaving the window unchanged."""
        plain = self.plain.copy()
        plain.update(tail)
        if self.canonical is None:
            return plain.hexdigest(), None
        canonical = self.canonical.copy()
        canonical.update(_renamed(tail, dict(self.ranks)))
        return plain.hexdigest(), canonical.hexdigest()


class AccessTrace:
    """Append-only transcript of adversary-visible events, kept as
    running SHA-256 digests of its open windows.

    ``retain=True`` also keeps every event for :meth:`as_array`; without
    it the trace holds two staging chunks (none before the first event,
    one until the first is full).
    """

    __slots__ = ("enabled", "_retain", "_chunk", "_spare", "_pos", "_base",
                 "_kept", "_whole", "_windows", "_pending")

    def __init__(self, *, retain: bool = False) -> None:
        #: When False, appends are no-ops.  Benchmarks that only need
        #: I/O counts can disable tracing to cut overhead.
        self.enabled: bool = True
        self._retain = retain
        self._chunk: np.ndarray | None = None
        self._spare: np.ndarray | None = None  # the chunk handed off last
        self._pos = 0  # events staged in _chunk
        self._base = 0  # events handed off before _chunk[0]
        self._kept: list[np.ndarray] = []  # full chunks, retain=True only
        self._whole = _Window(0, canonical=False)
        self._windows: dict[int, _Window] = {}
        self._pending = None  # the future of the chunk in flight

    # -- appending ---------------------------------------------------------

    def _staging(self) -> np.ndarray:
        if self._chunk is None:
            self._chunk = np.empty((_CHUNK_EVENTS, 3), dtype=np.int64)
        return self._chunk

    def _fold_chunk(self) -> None:
        """Hand the full staging chunk, with every window open now, to
        the hashing thread, and stage on into the other chunk."""
        chunk = self._chunk
        folds = [(self._whole, chunk)]
        for window in self._windows.values():
            folds.append((window, chunk[max(0, window.start - self._base):]))
        self.sync()  # the chunk handed off last is hashed: it may be reused
        self._pending = _hash_later(folds)
        self._base += _CHUNK_EVENTS
        self._pos = 0
        if self._retain:
            self._kept.append(chunk)
            self._chunk = None
        else:
            self._chunk = self._spare if self._spare is not None else np.empty_like(chunk)
            self._spare = chunk

    def sync(self) -> None:
        """Wait until every full chunk has been hashed, re-raising the
        hashing thread's error.  A chunk that failed to hash fails every
        later wait too, because the digests no longer cover it."""
        if self._pending is not None:
            self._pending.result()
            self._pending = None

    def record(self, op: Op, array_id: int, index: int) -> None:
        """Append one event (no-op when tracing is disabled)."""
        if not self.enabled:
            return
        chunk = self._chunk
        if chunk is None:
            chunk = self._staging()
        pos = self._pos
        chunk[pos, 0] = op
        chunk[pos, 1] = array_id
        chunk[pos, 2] = index
        self._pos = pos + 1
        if self._pos == _CHUNK_EVENTS:
            self._fold_chunk()

    def record_batch(self, op: Op, array_id: int, indices: np.ndarray) -> None:
        """Append one event per index, all with the same ``op``/``array_id``.

        Convenience form of :meth:`append_rows` for uniform sequences:
        the event order is exactly the order of ``indices``, as if
        :meth:`record` had been called once per index.  (The machine's
        bulk operations build their interleaved rows directly and call
        :meth:`append_rows`.)
        """
        if not self.enabled:
            return
        indices = np.asarray(indices, dtype=np.int64).ravel()
        k = len(indices)
        if k == 0:
            return
        rows = np.empty((k, 3), dtype=np.int64)
        rows[:, 0] = int(op)
        rows[:, 1] = array_id
        rows[:, 2] = indices
        self.append_rows(rows)

    def record_events(
        self,
        ops: np.ndarray | int,
        array_ids: np.ndarray | int,
        indices: np.ndarray,
    ) -> None:
        """Append fully general event columns (each scalar or length-k).

        Used for interleaved batch patterns (e.g. ``R a, W b, R a, W b``)
        where op and array vary per event; the emitted order is the row
        order of the columns.
        """
        if not self.enabled:
            return
        indices = np.asarray(indices, dtype=np.int64).ravel()
        k = len(indices)
        if k == 0:
            return
        rows = np.empty((k, 3), dtype=np.int64)
        rows[:, 0] = ops
        rows[:, 1] = array_ids
        rows[:, 2] = indices
        self.append_rows(rows)

    def append_rows(self, rows: np.ndarray) -> None:
        """Append pre-built ``(k, 3)`` int64 event rows (the engine's
        lowest-overhead path; no-op when tracing is disabled)."""
        if not self.enabled or not len(rows):
            return
        chunk, room = self._staging(), _CHUNK_EVENTS - self._pos
        while len(rows) >= room:
            chunk[self._pos :] = rows[:room]
            rows = rows[room:]
            self._fold_chunk()
            chunk, room = self._staging(), _CHUNK_EVENTS
        chunk[self._pos : self._pos + len(rows)] = rows
        self._pos += len(rows)

    # -- windows -----------------------------------------------------------

    def __len__(self) -> int:
        return self._base + self._pos

    def mark(self) -> int:
        """Open a window at the current position and return the position.

        Pass the returned value to :meth:`fingerprint` /
        :meth:`fingerprint_pair` as ``since`` to digest the events
        recorded after the mark, and to :meth:`release` once the window
        is no longer needed.  This is how the pipeline executor
        snapshots *per-attempt* fingerprints without clearing the
        transcript — earlier history (e.g. ORAM traffic on the same
        machine) stays in the whole-trace digest.  Marking a position
        that already has an open window shares it; each ``mark`` needs
        its own ``release``.  Until then the hashing thread also hashes,
        and renames, every full chunk into the window, so a window left
        open loads that thread for the rest of the run; :meth:`window`
        releases it automatically.
        """
        pos = len(self)
        window = self._windows.get(pos)
        if window is None:
            self._windows[pos] = _Window(pos, canonical=True)
        else:
            window.refs += 1
        return pos

    def release(self, mark: int) -> None:
        """Close the window :meth:`mark` opened at ``mark``."""
        window = self._open(mark)
        window.refs -= 1
        if not window.refs:
            del self._windows[mark]

    @contextmanager
    def window(self) -> Iterator[int]:
        """:meth:`mark` a window for the ``with`` block and
        :meth:`release` it when the block exits, however it exits::

            with trace.window() as mark:
                ...
                digest, canonical = trace.fingerprint_pair(mark)
        """
        mark = self.mark()
        try:
            yield mark
        finally:
            self.release(mark)

    @property
    def open_windows(self) -> tuple[int, ...]:
        """Start positions of the open windows: the whole-trace window
        (``0``) first, then one per position :meth:`mark` holds open."""
        return (0, *sorted(self._windows))

    def _digests(self, window: _Window) -> tuple[str, str | None]:
        """Digests of ``window`` over the staged partial chunk too."""
        self.sync()
        if self._chunk is None:
            return window.digests(_NO_ROWS)
        start = max(0, window.start - self._base)
        return window.digests(self._chunk[start : self._pos])

    def fingerprint(self, since: int = 0) -> str:
        """SHA-256 hex digest of the events from ``since`` on.

        Two runs are indistinguishable to the adversary iff their
        fingerprints match (up to the negligible collision probability).
        ``since=0`` is the whole trace; any other ``since`` must be a
        :meth:`mark` whose window is still open.  A window's digest
        equals the digest an empty trace would have produced for the
        same events.
        """
        window = self._whole if since == 0 else self._open(since)
        return self._digests(window)[0]

    def fingerprint_pair(self, since: int) -> tuple[str, str]:
        """``(fingerprint, canonical fingerprint)`` of the window opened
        by :meth:`mark` at ``since``.  The canonical digest renames array
        ids by first appearance within the window, so it is equal across
        runs that differ only in how many arrays existed before it —
        e.g. the same pipeline step run after different earlier work."""
        return self._digests(self._open(since))

    def _open(self, since: int) -> _Window:
        window = self._windows.get(since)
        if window is None:
            raise ValueError(
                f"no window open at event {since}; open one with mark()"
            )
        return window

    # -- retained events ---------------------------------------------------

    def as_array(self, since: int = 0) -> np.ndarray:
        """Export the events from ``since`` on as an ``(n, 3)`` int64
        array of ``(op, array_id, index)`` rows (``retain=True`` only)."""
        if not self._retain:
            raise ValueError(
                "this trace keeps digests only; construct it with "
                "retain=True (EMMachine(retain_trace=True)) to export events"
            )
        staged = [] if self._chunk is None else [self._chunk[: self._pos]]
        return np.concatenate([_NO_ROWS, *self._kept, *staged])[max(0, since):]

    @property
    def nbytes(self) -> int:
        """Bytes of event storage held: both staging chunks, plus every
        full chunk under ``retain=True``."""
        staged = [c for c in (self._chunk, self._spare) if c is not None]
        return sum(chunk.nbytes for chunk in (*self._kept, *staged))
