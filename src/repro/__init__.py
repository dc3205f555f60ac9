"""repro — data-oblivious external-memory algorithms for outsourced data.

A production-quality reproduction of Goodrich, *"Data-Oblivious
External-Memory Algorithms for the Compaction, Selection, and Sorting of
Outsourced Data"* (SPAA 2011, arXiv:1103.5102).

Quickstart::

    import numpy as np
    from repro.api import ObliviousSession

    with ObliviousSession(M=64, B=4, seed=0) as session:
        result = session.sort(np.random.permutation(1000))
        print(result.records[:5])              # sorted records
        print(result.cost.total)               # the model's cost measure
        print(result.cost.trace_fingerprint)   # what the adversary saw
        print(result.cost.attempts)            # Las Vegas attempts used

The session facade owns the external-memory machine, derives all
randomness from one seed, retries the paper's Las Vegas failures within
a bounded budget, and supports pluggable storage backends
(``backend="memmap"`` for out-of-core runs).  The machine-level API
shown below remains available for algorithm-level work::

    from repro import EMMachine, make_records, oblivious_sort, make_rng

    machine = EMMachine(M=64, B=4)          # Alice's cache, Bob's block size
    data = machine.alloc_cells(1000)
    data.load_flat(make_records(np.random.permutation(1000)))
    out = oblivious_sort(machine, data, 1000, make_rng(0))

Subpackages
-----------
``repro.api``
    The :class:`~repro.api.ObliviousSession` facade: algorithm registry,
    storage backends, retry policies, unified cost reports.
``repro.em``
    The external-memory model substrate: simulated block device, client
    cache, I/O counters, access traces.
``repro.core``
    The paper's algorithms: consolidation (Lemma 3), the four compaction
    algorithms (Theorems 4/6/8/9), selection (Theorems 12/13), quantiles
    (Theorem 17), shuffle-and-deal, the oblivious sort (Theorem 21), and
    §5's failure sweep as a standalone primitive the sort does not call.
``repro.networks``
    Comparator networks (bitonic, odd-even) and the butterfly
    compaction network of Figure 1.
``repro.iblt``
    Invertible Bloom lookup tables (§2).
``repro.oram``
    Square-root and hierarchical ORAMs, the RAM-simulation substrate for
    Theorem 4.
``repro.oblivious``
    The obliviousness checker: bit-identical adversary views across
    same-shape inputs for every registered algorithm, streams, tenants
    and ORAM access sequences (not imported by ``import repro``).
``repro.baselines``
    Non-oblivious external merge sort and oblivious strawmen.
``repro.util``
    Math helpers, RNG plumbing, the Chernoff toolkit (Appendix A).
"""

from repro.baselines import bitonic_external_sort, external_merge_sort, sort_then_pick
from repro.core import (
    CompactionFailure,
    QuantileFailure,
    SelectionFailure,
    SortFailure,
    consolidate,
    loose_compact,
    loose_compact_logstar,
    multiway_consolidate,
    oblivious_block_sort,
    oblivious_external_sort,
    oblivious_sort,
    quantiles_em,
    select_em,
    tight_compact,
    tight_compact_sparse,
)
from repro.em import (
    NULL_KEY,
    AccessTrace,
    EMArray,
    EMMachine,
    make_block,
    make_records,
)
from repro.api import CostReport, EMConfig, ObliviousSession, Result, RetryPolicy
from repro.errors import LasVegasFailure, ReproError, RetryExhausted
from repro.iblt import IBLT
from repro.networks import butterfly_compact, butterfly_expand
from repro.oram import SquareRootORAM
from repro.util.rng import make_rng

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # facade
    "ObliviousSession",
    "EMConfig",
    "RetryPolicy",
    "Result",
    "CostReport",
    # errors
    "ReproError",
    "LasVegasFailure",
    "RetryExhausted",
    # model
    "EMMachine",
    "EMArray",
    "AccessTrace",
    "NULL_KEY",
    "make_block",
    "make_records",
    "make_rng",
    # core algorithms
    "consolidate",
    "multiway_consolidate",
    "tight_compact",
    "tight_compact_sparse",
    "loose_compact",
    "loose_compact_logstar",
    "select_em",
    "quantiles_em",
    "oblivious_sort",
    "oblivious_external_sort",
    "oblivious_block_sort",
    # failures
    "CompactionFailure",
    "SelectionFailure",
    "QuantileFailure",
    "SortFailure",
    # substrates
    "IBLT",
    "SquareRootORAM",
    "butterfly_compact",
    "butterfly_expand",
    # baselines
    "external_merge_sort",
    "bitonic_external_sort",
    "sort_then_pick",
]
