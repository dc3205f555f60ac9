"""Sorting and routing networks.

Deterministic comparator networks (bitonic, Batcher odd-even mergesort)
and the butterfly-like compaction network of Theorem 6 / Figure 1.
"""

from repro.networks.comparator import (
    compare_exchange,
    order_keys,
    sort_records,
)
from repro.networks.bitonic import bitonic_pairs, bitonic_sort
from repro.networks.odd_even import batcher_pairs, batcher_sort
from repro.networks.butterfly import (
    ButterflyCollisionError,
    butterfly_compact,
    butterfly_expand,
    butterfly_levels_trace,
    distance_labels,
)

__all__ = [
    "compare_exchange",
    "order_keys",
    "sort_records",
    "bitonic_pairs",
    "bitonic_sort",
    "batcher_pairs",
    "batcher_sort",
    "ButterflyCollisionError",
    "butterfly_compact",
    "butterfly_expand",
    "butterfly_levels_trace",
    "distance_labels",
]
