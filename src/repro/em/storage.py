"""Server-side arrays (Bob's disk) and their storage backends.

An :class:`EMArray` is a named, fixed-length array of blocks living on the
simulated server.  All access goes through :class:`repro.em.machine.EMMachine`
so that I/Os are counted and traced; direct access to the backing store is
exposed only through the explicitly "omniscient" ``raw`` view used by tests
and result extraction (never by the algorithms themselves).

Where the blocks physically live is pluggable.  A *storage backend*
provides zero-initialised ``(num_blocks, B, 2)`` int64 buffers:

* :class:`MemoryBackend` — plain ``numpy`` arrays in RAM (the default);
* :class:`MemmapBackend` — one ``numpy.memmap`` file per array, for
  out-of-core runs whose server arrays exceed RAM.

Backends only change where bytes are stored: the machine's I/O counters
and the adversary-visible trace are identical across backends, which
``tests/test_api_backends.py`` asserts via trace fingerprints.
"""

from __future__ import annotations

import re
import tempfile
from pathlib import Path

import numpy as np

from repro.em.block import NULL_KEY, RECORD_WIDTH, is_empty
from repro.em.crypto import CiphertextVersions
from repro.em.errors import OutOfBoundsError

__all__ = ["EMArray", "StorageBackend", "MemoryBackend", "MemmapBackend"]


class StorageBackend:
    """Protocol for server-side block storage.

    Subclasses implement :meth:`_allocate`; :meth:`_release` and
    :meth:`close` are no-ops unless the backend owns external resources.
    ``_allocate`` must return a *zero-filled* int64 ndarray (or ndarray
    subclass) of the requested shape.  The public :meth:`allocate` /
    :meth:`release` pair is a template method that additionally keeps
    the :attr:`live_bytes` ledger, which the service layer
    (:mod:`repro.service`) uses for admission control and which leak
    regression tests compare against a baseline.

    :meth:`gather` and :meth:`scatter` are the two bulk-I/O hooks the
    batched engine (:class:`repro.em.machine.EMMachine`) drives; the
    default numpy fancy-indexing implementations work for any backend
    whose ``_allocate`` returns an ndarray (plain RAM and ``memmap``
    alike), so Memory and Memmap share one code path.
    """

    #: Short name used by :class:`repro.api.EMConfig` to select a backend.
    name = "abstract"

    def allocate(self, shape: tuple[int, ...], label: str = "") -> np.ndarray:
        """Return a zero-initialised int64 buffer of ``shape``.

        Records the buffer in the live-bytes ledger; subclasses supply
        the storage itself via :meth:`_allocate`.
        """
        data = self._allocate(shape, label)
        self._ledger[id(data)] = int(data.nbytes)
        return data

    def _allocate(self, shape: tuple[int, ...], label: str = "") -> np.ndarray:
        """Backend-specific storage for :meth:`allocate`."""
        raise NotImplementedError

    @property
    def _ledger(self) -> dict[int, int]:
        # Lazy so subclasses need not call (or even have) __init__.
        sizes = getattr(self, "_live_sizes", None)
        if sizes is None:
            sizes = {}
            self._live_sizes = sizes
        return sizes

    @property
    def live_bytes(self) -> int:
        """Total bytes of buffers allocated and not yet released."""
        return sum(self._ledger.values())

    def gather(self, data: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Return a fresh ``(k, B, 2)`` copy of ``data[indices]``.

        Fancy indexing always copies, so the result never aliases the
        backing store (reads must not alias disk).
        """
        return data[indices]

    def scatter(
        self, data: np.ndarray, indices: np.ndarray, blocks: np.ndarray
    ) -> None:
        """Overwrite ``data[indices]`` with ``blocks``.

        Duplicate indices follow numpy fancy-assignment semantics: the
        *last* occurrence wins, matching a sequential scalar write loop.
        """
        data[indices] = blocks

    def release(self, data: np.ndarray) -> None:
        """Reclaim a buffer previously returned by :meth:`allocate`."""
        self._ledger.pop(id(data), None)
        self._release(data)

    def _release(self, data: np.ndarray) -> None:
        """Backend-specific reclamation for :meth:`release`."""

    def close(self) -> None:
        """Release every resource the backend still holds."""
        self._ledger.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class MemoryBackend(StorageBackend):
    """The default backend: ordinary ``numpy`` arrays in RAM."""

    name = "memory"

    def _allocate(self, shape: tuple[int, ...], label: str = "") -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)


class MemmapBackend(StorageBackend):
    """File-backed storage: one ``numpy.memmap`` per server array.

    Parameters
    ----------
    directory:
        Where the backing files live.  ``None`` (default) creates a
        private temporary directory that :meth:`close` removes.

    Released arrays have their backing file unlinked immediately (the
    mapping itself stays valid until the last ndarray reference dies, so
    stale ``raw`` views cannot crash).  Always :meth:`close` the backend
    — or use :class:`repro.api.ObliviousSession` as a context manager,
    which does it for you — to reclaim the files of still-live arrays.
    """

    name = "memmap"

    def __init__(self, directory: str | Path | None = None) -> None:
        if directory is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-em-")
            self.directory = Path(self._tmpdir.name)
        else:
            self._tmpdir = None
            self.directory = Path(directory)
            self.directory.mkdir(parents=True, exist_ok=True)
        self._paths: dict[int, Path] = {}
        self._seq = 0

    def _allocate(self, shape: tuple[int, ...], label: str = "") -> np.ndarray:
        if int(np.prod(shape)) == 0:
            # mmap cannot map zero bytes; empty arrays never do I/O anyway.
            return np.zeros(shape, dtype=np.int64)
        safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", label) or "arr"
        path = self.directory / f"{self._seq:06d}-{safe}.blk"
        self._seq += 1
        data = np.memmap(path, dtype=np.int64, mode="w+", shape=shape)
        self._paths[id(data)] = path
        return data

    def _release(self, data: np.ndarray) -> None:
        path = self._paths.pop(id(data), None)
        if path is not None:
            path.unlink(missing_ok=True)

    def close(self) -> None:
        super().close()
        for path in self._paths.values():
            path.unlink(missing_ok=True)
        self._paths.clear()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemmapBackend(directory={str(self.directory)!r})"


class EMArray:
    """A fixed-size array of ``num_blocks`` blocks of ``B`` records each.

    Created via :meth:`repro.em.machine.EMMachine.alloc`; not constructed
    directly by user code.
    """

    __slots__ = ("array_id", "name", "num_blocks", "B", "_data", "versions", "backend")

    def __init__(
        self,
        array_id: int,
        name: str,
        num_blocks: int,
        B: int,
        backend: StorageBackend | None = None,
    ) -> None:
        if num_blocks < 0:
            raise ValueError(f"num_blocks must be non-negative, got {num_blocks}")
        if B < 1:
            raise ValueError(f"block size B must be >= 1, got {B}")
        self.array_id = array_id
        self.name = name
        self.num_blocks = num_blocks
        self.B = B
        self.backend = backend if backend is not None else MemoryBackend()
        self._data = self.backend.allocate((num_blocks, B, RECORD_WIDTH), name)
        self._data[:, :, 0] = NULL_KEY
        self.versions = CiphertextVersions(num_blocks)

    # -- server-side primitives (called only by EMMachine) ---------------

    def _read(self, index: int) -> np.ndarray:
        """Return a *copy* of block ``index`` (reads must not alias disk)."""
        self._check(index)
        return self._data[index].copy()

    def _write(self, index: int, block: np.ndarray) -> None:
        """Overwrite block ``index`` with a copy of ``block``."""
        self._check(index)
        if block.shape != (self.B, RECORD_WIDTH):
            raise ValueError(
                f"block shape {block.shape} does not match (B={self.B}, {RECORD_WIDTH})"
            )
        self._data[index] = block
        self.versions.reencrypt(index)

    def _gather(self, indices: np.ndarray) -> np.ndarray:
        """Bulk read: a fresh ``(k, B, 2)`` copy of the indexed blocks."""
        self._check_many(indices)
        return self.backend.gather(self._data, indices)

    def _scatter(self, indices: np.ndarray, blocks: np.ndarray) -> None:
        """Bulk write: overwrite the indexed blocks, re-encrypting each.

        The caller has checked the indices' bounds and the blocks' shape
        (the machine checks every write of a call before the first).
        Duplicate indices behave like a sequential write loop (last
        occurrence wins, both for contents and ciphertext versions).
        """
        self.backend.scatter(self._data, indices, blocks)
        self.versions.reencrypt_many(indices)

    def _check_range(self, lo: int, hi: int) -> None:
        if lo < 0 or lo > hi or (hi > lo and hi > self.num_blocks):
            raise OutOfBoundsError(
                f"block range [{lo}, {hi}) out of range for array "
                f"'{self.name}' of {self.num_blocks} blocks"
            )

    def _gather_range(self, lo: int, hi: int) -> np.ndarray:
        """Range bulk read: O(1) bounds check, slice copy."""
        self._check_range(lo, hi)
        return self._data[lo:hi].copy()

    def _scatter_range(self, lo: int, hi: int, blocks: np.ndarray) -> None:
        """Range bulk write, re-encrypting each block in order.  The
        caller has checked the range and the blocks' shape, as for
        :meth:`_scatter`."""
        self._data[lo:hi] = blocks
        self.versions.reencrypt_range(lo, hi)

    def _check(self, index: int) -> None:
        if not (0 <= index < self.num_blocks):
            raise OutOfBoundsError(
                f"block {index} out of range for array '{self.name}' "
                f"of {self.num_blocks} blocks"
            )

    def _check_many(self, indices: np.ndarray) -> None:
        if len(indices) and (
            int(indices.min()) < 0 or int(indices.max()) >= self.num_blocks
        ):
            bad = indices[(indices < 0) | (indices >= self.num_blocks)]
            raise OutOfBoundsError(
                f"block {int(bad[0])} out of range for array '{self.name}' "
                f"of {self.num_blocks} blocks"
            )

    # -- omniscient views (tests / final result extraction only) ---------

    @property
    def raw(self) -> np.ndarray:
        """The backing ``(num_blocks, B, 2)`` store.

        This is the *omniscient* view: using it does not count I/Os and is
        reserved for assertions in tests and for reading final outputs
        after an algorithm completes.  Library algorithms never touch it.
        """
        return self._data

    def flat(self) -> np.ndarray:
        """Return all cells as a flat ``(num_blocks * B, 2)`` copy (omniscient)."""
        return self._data.reshape(-1, RECORD_WIDTH).copy()

    def nonempty(self) -> np.ndarray:
        """Return the non-empty records in array order (omniscient)."""
        cells = self._data.reshape(-1, RECORD_WIDTH)
        return cells[~is_empty(cells)].copy()

    def load_flat(self, records: np.ndarray) -> None:
        """Bulk-load ``records`` into the array, padding with empties.

        Omniscient setup helper for building problem instances; does not
        count I/Os (the input is considered to pre-exist on the server).
        """
        records = np.asarray(records, dtype=np.int64)
        if records.ndim != 2 or records.shape[1] != RECORD_WIDTH:
            raise ValueError(f"records must have shape (n, 2), got {records.shape}")
        capacity = self.num_blocks * self.B
        if len(records) > capacity:
            raise ValueError(
                f"{len(records)} records exceed capacity {capacity} "
                f"of array '{self.name}'"
            )
        flat = self._data.reshape(-1, RECORD_WIDTH)
        flat[:, 0] = NULL_KEY
        flat[:, 1] = 0
        flat[: len(records)] = records

    @property
    def num_cells(self) -> int:
        """Total number of record cells (``num_blocks * B``)."""
        return self.num_blocks * self.B

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EMArray(id={self.array_id}, name={self.name!r}, "
            f"blocks={self.num_blocks}, B={self.B})"
        )
