"""Square-root ORAM (Goldreich–Ostrovsky) over the EM substrate.

Layout, on the shared tagged-store core (:mod:`repro.oram.tagged_store`):
one *store* of ``n + s`` slots (the ``n`` cells plus ``s`` dummies) and a
*shelter* — the core's buffer — of ``s`` slots.  Each access scans the
shelter and probes the store once: the target's tag if it was not
sheltered, the next unused dummy tag otherwise.

Cadence: every epoch (``s`` accesses) the shelter is merged back and the
store is reshuffled under a fresh key, using the oblivious block sort —
an ``O((n + s) log^2 n)``-I/O rebuild.  With the default shelter of
``s = ceil(sqrt(n))`` slots that is ``O(sqrt(n) log^2 n)`` amortized per
access; ``shelter_factor`` scales ``s`` by an integer factor, trading a
longer (still fixed) shelter scan for proportionally rarer rebuilds —
the classic epoch-length optimization, worth a ``log n`` factor when the
rebuild dominates (as it does in the Theorem-4 peel; see
:func:`repro.core.compaction.tight_compact_sparse`).  A store tag is
never searched twice within an epoch, and the ``s`` dummies cover one
dummy probe per access.
"""

from __future__ import annotations

import numpy as np

from repro.core.block_sort import oblivious_block_sort
from repro.em.machine import EMMachine
from repro.em.storage import EMArray
from repro.oram.tagged_store import Store, TaggedStoreORAM

__all__ = ["SquareRootORAM"]


class SquareRootORAM(TaggedStoreORAM):
    """Oblivious memory of ``n`` logical blocks.

    Parameters
    ----------
    machine:
        The external-memory machine hosting the physical arrays.
    n:
        Number of logical cells, each one payload block.
    rng:
        Client randomness (epoch keys).
    initial:
        Optional ``EMArray`` of at least ``n`` blocks with initial payloads
        (copied in obliviously); otherwise cells start empty.
    shelter_factor:
        Integer multiplier on the shelter size ``s = ceil(sqrt(n))``
        (default 1, the textbook scheme).  Larger shelters lengthen the
        fixed per-access scan but amortize the ``O((n+s) log^2 n)``
        rebuild over proportionally more accesses; rebuild-dominated
        workloads (the Theorem-4 peel) pass ``log2(n) + 2``.
    """

    #: A rebuild copies the store before the shelter.
    _buffer_first = False

    def __init__(
        self,
        machine: EMMachine,
        n: int,
        rng: np.random.Generator,
        *,
        initial: EMArray | None = None,
        name: str = "oram",
        shelter_factor: int = 1,
    ) -> None:
        super().__init__(machine, n, rng, name)
        if shelter_factor < 1:
            raise ValueError(f"shelter_factor must be >= 1, got {shelter_factor}")
        self.s = max(1, int(np.ceil(np.sqrt(n)))) * int(shelter_factor)
        self.n_store = n + self.s
        key = self._fresh_key()
        store = Store(
            self._alloc(self.n_store, "store.meta"),
            self._alloc(self.n_store, "store.data"),
            key,
            budget=self.s,
        )
        self.stores = [store]
        self.buf_meta = self._alloc(self.s, "shelter.meta")
        self.buf_payload = self._alloc(self.s, "shelter.data")
        self._seed_store(0, initial)
        self._reset_buffer()
        oblivious_block_sort(machine, [store.meta, store.payload])

    def _spill(self) -> None:
        """End-of-epoch reshuffle of the store under a fresh key."""
        scratch = self._rebuild(0, [0])
        self._reset_buffer()
        self._free(*scratch)
