"""The paper's core contributions: consolidation, compaction, selection,
quantiles, shuffle-and-deal, and the oblivious external-memory sort
(Theorems 4-21), plus §5's failure sweep as a standalone primitive."""

from repro.core.block_sort import oblivious_block_sort
from repro.core.compaction import (
    AssumptionError,
    CompactionFailure,
    loose_compact,
    loose_compact_logstar,
    tight_compact,
    tight_compact_sparse,
)
from repro.core.consolidation import (
    ConsolidationResult,
    MultiwayConsolidationResult,
    consolidate,
    multiway_consolidate,
)
from repro.core.external_sort import oblivious_external_sort
from repro.core.failure_sweep import SweepOverflow, failure_sweep
from repro.core.quantiles import QuantileFailure, QuantileReport, quantiles_em
from repro.core.selection import SelectionFailure, SelectionReport, select_em
from repro.core.shuffle import (
    DealOverflow,
    DealResult,
    knuth_block_shuffle,
    shuffle_and_deal,
)
from repro.core.sorting import SortFailure, SortStats, oblivious_sort
from repro.core.thinning import thinning_pass, thinning_rounds

__all__ = [
    "oblivious_block_sort",
    "AssumptionError",
    "CompactionFailure",
    "loose_compact",
    "loose_compact_logstar",
    "tight_compact",
    "tight_compact_sparse",
    "ConsolidationResult",
    "MultiwayConsolidationResult",
    "consolidate",
    "multiway_consolidate",
    "oblivious_external_sort",
    "SweepOverflow",
    "failure_sweep",
    "QuantileFailure",
    "QuantileReport",
    "quantiles_em",
    "SelectionFailure",
    "SelectionReport",
    "select_em",
    "DealOverflow",
    "DealResult",
    "knuth_block_shuffle",
    "shuffle_and_deal",
    "SortFailure",
    "SortStats",
    "oblivious_sort",
    "thinning_pass",
    "thinning_rounds",
]
