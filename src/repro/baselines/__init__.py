"""Baselines for the benchmark harness.

* :func:`external_merge_sort` — the classical *non-oblivious* optimal
  external-memory sort (Aggarwal–Vitter [1]); its I/O count is the
  paper's lower-bound reference for Theorem 21's optimality claim.
* :func:`bitonic_external_sort` — a purely network-based oblivious sort
  (no run formation), the "log-squared and then some" strawman.
* :func:`sort_then_pick` — selection-by-sorting, the baseline Theorem 13
  beats by an unbounded factor.
* :func:`naive_butterfly_compact` — Theorem 6's compaction network
  simulated one level per scan, ``O(n log n)`` I/Os: the comparator for
  the library router's ``O(n log_m n)`` (E3).
"""

from repro.baselines.butterfly_naive import naive_butterfly_compact
from repro.baselines.external_merge_sort import external_merge_sort
from repro.baselines.oblivious_baselines import bitonic_external_sort, sort_then_pick

__all__ = [
    "external_merge_sort",
    "bitonic_external_sort",
    "sort_then_pick",
    "naive_butterfly_compact",
]
