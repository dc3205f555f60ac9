"""E12 — Lemma 18 / Corollary 19: shuffle-and-deal colour balance.

After the Knuth shuffle, each batch of (M/B)^{3/4} blocks holds at most
c (M/B)^{1/2} blocks of any colour w.h.p.; we measure the empirical
maximum per-batch colour load over many shuffles against the slot bound
the deal provisions."""

import numpy as np

from repro.core.shuffle import DealOverflow, shuffle_and_deal
from repro.em import EMMachine, make_block
from repro.util.rng import make_rng

from _workloads import series_table, experiment


def _max_batch_load(n_blocks, colors, batch, seed):
    """Shuffle a balanced colouring and report the max per-batch load."""
    mach = EMMachine(M=1024, B=4, trace=False)
    arr = mach.alloc(n_blocks, "A")
    for j in range(n_blocks):
        arr.raw[j] = make_block([j % colors], B=4)
    from repro.core.shuffle import knuth_block_shuffle

    knuth_block_shuffle(mach, arr, make_rng(seed))
    worst = 0
    for lo in range(0, n_blocks, batch):
        hi = min(lo + batch, n_blocks)
        counts = np.zeros(colors, dtype=int)
        for j in range(lo, hi):
            counts[int(arr.raw[j][0, 0])] += 1
        worst = max(worst, int(counts.max()))
    return worst


@experiment
def bench_e12_balance_series(capsys):
    rows = []
    trials = 40
    for colors, batch in ((2, 16), (4, 32), (4, 64)):
        n_blocks = 512
        mu = batch / colors
        slot_bound = int(np.ceil(mu + 6.0 * np.sqrt(mu) + 2))
        worsts = [
            _max_batch_load(n_blocks, colors, batch, seed) for seed in range(trials)
        ]
        rows.append([
            colors, batch, round(mu, 1), max(worsts),
            float(np.mean(worsts)), slot_bound,
            "yes" if max(worsts) <= slot_bound else "NO",
        ])
        assert max(worsts) <= slot_bound
    with capsys.disabled():
        print()
        print(series_table(
            "E12 (Lemma 18) max per-batch colour load over "
            f"{trials} shuffles vs the provisioned slot bound",
            ["colors", "batch", "mean", "max_seen", "avg_max", "bound", "holds"],
            rows,
        ))


@experiment
def bench_e12_deal_never_overflows(capsys):
    failures = 0
    trials = 30
    for seed in range(trials):
        mach = EMMachine(M=1024, B=4, trace=False)
        arr = mach.alloc(256, "A")
        for j in range(256):
            arr.raw[j] = make_block([j % 4], B=4)
        try:
            shuffle_and_deal(
                mach, arr, 4, lambda blks: blks[:, 0, 0], make_rng(seed)
            )
        except DealOverflow:
            failures += 1
    with capsys.disabled():
        print(f"\nE12 deal overflow rate: {failures}/{trials} "
              "(Corollary 19: <= (N/B)^-d)")
    assert failures == 0


def bench_e12_wall_time(benchmark):
    mach = EMMachine(M=1024, B=4, trace=False)
    arr = mach.alloc(512, "A")
    for j in range(512):
        arr.raw[j] = make_block([j % 4], B=4)

    def run():
        return shuffle_and_deal(
            mach, arr, 4, lambda blks: blks[:, 0, 0], make_rng(7)
        )

    benchmark.pedantic(run, rounds=2, iterations=1)
