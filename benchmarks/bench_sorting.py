"""E8 — Theorem 21: the oblivious external-memory sort.

The paper's headline: O((N/B) log_{M/B}(N/B)) I/Os, matching the
non-oblivious optimum's growth rate and beating the log-squared
oblivious strawman.  The series reports all three algorithms' I/Os so
the shape comparison — who wins, and how the gaps move with N and M —
is visible directly.  All three sorters run through the ``repro.api``
session facade; ``Result.cost`` supplies the I/O counts.
"""

import numpy as np
import pytest

from repro.api import EMConfig, ObliviousSession

from _workloads import series_table, experiment


def _ios(algorithm, n, M, B=4, seed=0):
    keys = np.random.default_rng(seed).permutation(np.arange(n))
    with ObliviousSession(EMConfig(M=M, B=B, trace=False), seed=11) as session:
        result = session.run(algorithm, keys)
    assert np.array_equal(result.keys, np.arange(n))
    return result.cost.total


@experiment
def bench_e8_three_way_series(capsys):
    rows = []
    M = 128
    for n in (256, 512, 1024, 2048):
        t21 = _ios("sort", n, M)
        merge = _ios("merge_sort", n, M)
        bitonic = _ios("bitonic_sort", n, M)
        rows.append(
            [n, merge, t21, bitonic, t21 / merge, bitonic / t21]
        )
    with capsys.disabled():
        print()
        print(series_table(
            "E8 (Theorem 21) sorting I/Os at M = 128, B = 4.  At "
            "laptop-feasible N the distribution pipeline's constants "
            "dominate, so Theorem 21 sits far above both comparators in "
            "absolute terms.  Of the n = 2048 sort's 146,405 I/Os, the "
            "per-colour butterfly compaction (Theorem 6) takes 55%, the "
            "quantile calls 21% (their 8q N^{3/4} bracket cap holds every "
            "item below N ~ (8q)^4, so each sorts all of its input) and "
            "shuffle-and-deal 9%; loose compaction (Theorem 8) runs 0 "
            "times, because the sort tight-compacts every colour.  "
            "The log_{M/B} structure that separates it from the log^2 "
            "strawman is measured in the cache sweep below.",
            ["n", "merge", "theorem21", "bitonic", "t21/merge", "bitonic/t21"],
            rows,
        ))
    # Shape claims that DO hold at this scale: growth far below the
    # quadratic comparator count, and all outputs correct (asserted in
    # _ios).  8x the data should cost well under 64x the I/Os.
    assert rows[-1][2] / rows[0][2] < 40
    assert rows[-1][1] / rows[0][1] <= 10  # merge: near-linear here


@experiment
def bench_e8_cache_sweep(capsys):
    """The log_{M/B} factor: more cache, fewer I/Os for Theorem 21,
    while the base-2 bitonic strawman barely moves."""
    rows = []
    n = 1024
    for M in (64, 128, 256, 512):
        t21 = _ios("sort", n, M)
        bitonic = _ios("bitonic_sort", n, M)
        rows.append([M // 4, t21, bitonic, bitonic / t21])
    with capsys.disabled():
        print()
        print(series_table(
            "E8 Theorem 21 I/Os vs cache size (n = 1024) — Theorem 21's "
            "cost falls steeply with M (the log_{M/B} factor) while the "
            "base-2 bitonic strawman is cache-blind: the paper's "
            "structural advantage, measured",
            ["m_blocks", "theorem21", "bitonic", "bitonic/t21"],
            rows,
        ))
    t21s = [r[1] for r in rows]
    bitonics = [r[2] for r in rows]
    assert t21s[-1] < t21s[0] / 3  # strongly cache-sensitive
    assert max(bitonics) == min(bitonics)  # cache-blind
    # The relative gap moves in Theorem 21's favour as M grows.
    assert rows[-1][3] > rows[0][3]


@pytest.mark.parametrize("n", [512, 1024])
def bench_e8_wall_time(benchmark, n):
    keys = np.random.default_rng(3).permutation(np.arange(n))

    def run():
        with ObliviousSession(EMConfig(M=128, B=4, trace=False), seed=4) as s:
            return s.sort(keys)

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["n"] = n
