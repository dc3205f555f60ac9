"""Oblivious RAM simulation substrate.

Theorem 4 needs a data-oblivious simulation of the IBLT ``listEntries``
RAM program; the paper invokes the Goodrich–Mitzenmacher simulation with
``O(log^2 r)`` amortized overhead.  Two interchangeable backends provide
it:

* :class:`~repro.oram.square_root.SquareRootORAM` — the classical
  Goldreich–Ostrovsky square-root scheme, ``O(sqrt(n) log^2 n)``
  amortized, small constants;
* :class:`~repro.oram.hierarchical.HierarchicalORAM` — the
  Goldreich–Ostrovsky hierarchical (log²-style) scheme, polylog
  amortized, larger constants.

Both are layers over one tagged-store core
(:mod:`repro.oram.tagged_store`): a fully scanned buffer plus tag-sorted
stores probed by a fixed-length binary search and rebuilt through the
oblivious block sort; each backend supplies only its layout and rebuild
cadence.  So the paper's closing observation — a faster oblivious sort
improves ORAM simulation overhead — applies to either; experiment E9
(:func:`measure_oram_overhead`) measures where the crossover between
them lands.  :func:`make_oram` maps a public backend name to a
construction; the cost model (``analysis/bounds.py``) prices both so the
plan optimizer can select the backend per shape.
"""

from repro.oram.hierarchical import HierarchicalORAM
from repro.oram.simulation import ORAMStats, measure_oram_overhead
from repro.oram.square_root import SquareRootORAM

__all__ = [
    "SquareRootORAM",
    "HierarchicalORAM",
    "ORAMStats",
    "ORAM_BACKENDS",
    "make_oram",
    "measure_oram_overhead",
]

#: Public backend names accepted by :func:`make_oram` (and the
#: ``oram_backend`` parameter of
#: :func:`~repro.core.compaction.tight_compact_sparse`).
ORAM_BACKENDS = ("square_root", "hierarchical")


def make_oram(
    backend,
    machine,
    n,
    rng,
    *,
    initial=None,
    name="oram",
    shelter_factor=1,
):
    """Construct an ORAM backend by public name.

    ``shelter_factor`` is the square-root scheme's epoch-length knob; the
    hierarchical scheme has no equivalent (its epochs are already
    polylog), so the argument is accepted — callers like the Theorem-4
    peel pass it unconditionally — and ignored there.
    """
    if backend == "square_root":
        return SquareRootORAM(
            machine, n, rng, initial=initial, name=name,
            shelter_factor=shelter_factor,
        )
    if backend == "hierarchical":
        return HierarchicalORAM(machine, n, rng, initial=initial, name=name)
    raise ValueError(
        f"unknown ORAM backend {backend!r}; expected one of {ORAM_BACKENDS}"
    )
