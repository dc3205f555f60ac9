"""Hierarchical (Goldreich–Ostrovsky log²-style) ORAM over the EM substrate.

Layout, on the shared tagged-store core (:mod:`repro.oram.tagged_store`):
a *buffer* of ``s0`` slots (the top of the hierarchy) plus ``L + 1``
*levels* of doubling capacity.  Level ``k`` is a store of
``2 * s0 * 2^k`` slots — ``s0 * 2^k`` for real items and as many for
dummies — kept sorted by a per-level, per-epoch pseudorandom tag (the
sorted-tag analogue of the classic hashed level).  Each access probes
every *occupied* level, youngest to oldest.

Cadence: every ``s0`` accesses the buffer spills: it is merged with
levels ``0 .. j-1`` into the smallest empty level ``j`` (binary-counter
cadence), or with *every* level into level ``L`` when none is empty.
Level ``j`` then lives exactly ``s0 * 2^j`` accesses before the counter
consumes it, so its dummy budget — one per access — never runs dry.
Which levels are occupied is a public function of the access counter
alone, and once an item is touched it sits in the buffer, then in a
*younger* level, until the level is consumed — so its real tag is stale
by the time the level could be probed for it again.

Amortized cost: each access pays the ``2 s0`` buffer scan plus
``O(log n)`` probes of ``O(log n)`` I/Os each, and every level ``k``
charges its ``O(s0 2^k log^2 n)`` rebuild to the ``s0 2^k`` accesses of
its lifetime — ``O(log^2 n)``-ish per access per level, summed over
``O(log n)`` levels; contrast the square-root scheme's
``O(sqrt(n) log^2 n)``.  Experiment E9 (``oram/simulation.py``)
measures where the crossover lands on this machine.
"""

from __future__ import annotations

import numpy as np

from repro.core.block_sort import oblivious_block_sort
from repro.em.machine import EMMachine
from repro.em.storage import EMArray
from repro.oram.tagged_store import Store, TaggedStoreORAM
from repro.util.mathx import ilog2

__all__ = ["HierarchicalORAM", "hierarchy_shape"]


def hierarchy_shape(n: int) -> tuple[int, int]:
    """``(s0, L)`` of a hierarchical ORAM over ``n`` cells: the buffer
    size ``s0 = max(4, log2(n) + 1)`` (the classic ``Theta(log n)`` top
    level) and the smallest ``L`` with ``s0 * 2^L >= n``, so level ``L``
    alone can hold everything.  Level ``k`` holds ``s0 * 2^k`` items in
    a store of ``2 * s0 * 2^k`` slots."""
    s0 = max(4, ilog2(max(2, n)) + 1)
    L = 0
    while s0 * (1 << L) < n:
        L += 1
    return s0, L


class HierarchicalORAM(TaggedStoreORAM):
    """Oblivious memory of ``n`` logical blocks with polylog amortized cost.

    Drop-in sibling of :class:`~repro.oram.square_root.SquareRootORAM`:
    the same tagged-store core, so the same interface and slot encoding.

    Parameters
    ----------
    machine:
        The external-memory machine hosting the physical arrays.
    n:
        Number of logical cells, each one payload block.
    rng:
        Client randomness (per-level epoch keys).
    initial:
        Optional ``EMArray`` of at least ``n`` blocks with initial payloads
        (copied in obliviously); otherwise cells start empty.
    """

    def __init__(
        self,
        machine: EMMachine,
        n: int,
        rng: np.random.Generator,
        *,
        initial: EMArray | None = None,
        name: str = "horam",
    ) -> None:
        super().__init__(machine, n, rng, name)
        self.s0, self.L = hierarchy_shape(n)
        #: Real-slot capacity of level k — also its dummy budget and lifetime.
        self.reals = [self.s0 << k for k in range(self.L + 1)]
        self.caps = [2 * r for r in self.reals]
        keys = [self._fresh_key() for _ in self.reals]
        self.buf_meta = self._alloc(self.s0, "buf.meta")
        self.buf_payload = self._alloc(self.s0, "buf.data")
        metas = [self._alloc(cap, f"L{k}.meta") for k, cap in enumerate(self.caps)]
        payloads = [self._alloc(cap, f"L{k}.data") for k, cap in enumerate(self.caps)]
        self.stores = [
            Store(metas[k], payloads[k], keys[k], budget=self.reals[k],
                  occupied=k == self.L)
            for k in range(self.L + 1)
        ]
        # Seed level L with all n cells + its dummies, tag-sorted.
        top = self.stores[self.L]
        self._seed_store(self.L, initial)
        oblivious_block_sort(machine, [top.meta, top.payload])
        self._reset_buffer()

    #: Bound on this class too, so instrumentation that patches the
    #: access and merge entry points per class (``perfbench``) finds them.
    _access = TaggedStoreORAM._access

    def _spill(self) -> None:
        """Binary-counter cadence: spill into the smallest empty level, or
        rebuild the bottom level from everything when none is empty."""
        j = next((k for k in range(self.L) if not self.stores[k].occupied), self.L)
        self._merge_into(j, [k for k in range(j + 1) if self.stores[k].occupied])

    def _merge_into(self, j: int, levels: list[int]) -> None:
        """Spill the buffer and ``levels`` into level ``j`` under a fresh key."""
        self._free(*self._rebuild(j, levels))
        self._reset_buffer()
