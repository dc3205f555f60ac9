"""E9 — the paper's ORAM remark: oblivious sorting is the inner loop of
oblivious-RAM simulation, so a faster sort means lower amortized
overhead.

We measure both ORAM backends' amortized I/O per access and the
fraction spent inside rebuilds (= inside the oblivious sort).  The
rebuild fraction dominating is precisely why the paper's sorting result
improves ORAM simulation by a log factor — and the hierarchical
backend's lower amortized figure at the larger shapes is the log²-vs-√n
crossover the plan optimizer prices.
"""

import pytest

from repro.oram import ORAM_BACKENDS
from repro.oram.simulation import measure_oram_overhead

from _workloads import series_table, experiment


@experiment
def bench_e9_overhead_series(capsys):
    rows = {backend: [] for backend in ORAM_BACKENDS}
    for n in (16, 36, 64, 144):
        for backend in ORAM_BACKENDS:
            stats = measure_oram_overhead(
                n=n, num_accesses=3 * n, M=4096, B=4, seed=0,
                oram_factory=backend,
            )
            rows[backend].append([
                n,
                stats.accesses,
                stats.rebuilds,
                stats.amortized_ios_per_access,
                stats.rebuild_fraction,
            ])
    with capsys.disabled():
        print()
        for backend in ORAM_BACKENDS:
            print(series_table(
                f"E9 {backend} ORAM amortized cost — rebuilds (the "
                "oblivious sort inner loop) dominate, so Theorem 21's "
                "faster sort directly lowers the amortized overhead",
                ["n", "accesses", "rebuilds", "ios/access", "rebuild_frac"],
                rows[backend],
            ))
    for backend in ORAM_BACKENDS:
        # Rebuilds must dominate the cost (the paper's premise).
        assert all(r[4] > 0.5 for r in rows[backend])
        # Overhead grows with n (sqrt(n)·polylog resp. polylog shape).
        assert rows[backend][-1][3] > rows[backend][0][3]
    # The crossover: hierarchical amortizes cheaper at the larger shapes.
    assert rows["hierarchical"][-1][3] < rows["square_root"][-1][3]
    # The square-root scheme's cost per access grows slower than n: per
    # n it falls at every step, from 16.69 at n=16 to 4.32 at n=144.
    per_n = [r[3] / r[0] for r in rows["square_root"]]
    assert all(a > b for a, b in zip(per_n, per_n[1:]))
    assert (round(per_n[0], 2), round(per_n[-1], 2)) == (16.69, 4.32)


@experiment
def bench_e9_sort_cost_inside_rebuild(capsys):
    """Directly attribute rebuild cost: a cache-aware block sort (our
    Lemma-2-style merge-split) vs the base-2 comparator network it
    replaces — the log-factor the paper's observation is about."""
    import numpy as np

    from repro.core.block_sort import oblivious_block_sort
    from repro.em import EMMachine, make_block

    rows = []
    for n in (64, 128, 256):
        def ios(run_blocks):
            mach = EMMachine(M=256, B=4, trace=False)
            arr = mach.alloc(n)
            rng = np.random.default_rng(0)
            for j in range(n):
                arr.raw[j] = make_block([int(rng.integers(0, 10**6))], B=4)
            with mach.metered() as meter:
                oblivious_block_sort(mach, [arr], run_blocks=run_blocks)
            return meter.total

        naive = ios(1)           # comparator-per-block: O(n log^2 n)
        cache_aware = ios(None)  # merge-split runs: O(n log^2 (n/m))
        rows.append([n, naive, cache_aware, naive / cache_aware])
    with capsys.disabled():
        print()
        print(series_table(
            "E9 rebuild sort: base-2 network vs cache-aware merge-split "
            "(the log-factor saving that transfers to ORAM overhead)",
            ["n", "network_ios", "cache_aware_ios", "saving"],
            rows,
        ))
    assert all(r[3] > 1.5 for r in rows)


@pytest.mark.parametrize("n", [36, 100])
def bench_e9_wall_time(benchmark, n):
    def run():
        return measure_oram_overhead(n=n, num_accesses=2 * n, M=4096, B=4, seed=1)

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["n"] = n
