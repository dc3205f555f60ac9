"""E5 — Theorem 9: loose compaction in O((N/B) log*(N/B)) I/Os with only
B >= 1 and M >= 2B (no wide-block / tall-cache assumptions).

The tower-of-twos phases only trigger beyond astronomical n with the
paper's t_1 = 4; the series below uses the scaled tower (t_1 = 2) so a
phase actually executes, and reports ios / (n log* n).
"""

import numpy as np
import pytest

from repro.core.compaction import loose_compact_logstar
from repro.em import EMMachine, make_block
from repro.util.mathx import log_star
from repro.util.rng import make_rng

from _workloads import series_table, experiment


def _instance(n, r, M=2048, B=4, seed=0):
    mach = EMMachine(M=M, B=B, trace=False)
    arr = mach.alloc(n, "A")
    rng = np.random.default_rng(seed)
    for j in rng.choice(n, size=r, replace=False):
        arr.raw[j] = make_block([int(j)], B=B)
    return mach, arr


@experiment
def bench_e5_logstar_series(capsys):
    rows = []
    for n in (128, 256, 512, 1024):
        r = n // 4  # densest allowed: forces the general path
        mach, arr = _instance(n, r)
        with mach.metered() as meter:
            loose_compact_logstar(mach, arr, r, make_rng(2), tower_base=2)
        norm = meter.total / (n * max(1, log_star(n)))
        rows.append([n, r, meter.total, meter.total / n, norm])
    with capsys.disabled():
        print()
        print(series_table(
            "E5 (Theorem 9) log* loose compaction (tower_base=2; output "
            "4.25R) — ios/(n log* n) should stay bounded",
            ["n", "r", "ios", "ios/n", "ios/(n log* n)"],
            rows,
        ))
    norm = [row[4] for row in rows]
    assert max(norm) / min(norm) < 2.5


@experiment
def bench_e5_minimal_model(capsys):
    """Theorem 9's selling point: works where Theorem 8's wide-block
    assumption is impossible.  Here M = 8B (8 cache blocks) while the
    Theorem-8 region step would need c1*log2(n) + 2 = 26 blocks."""
    mach = EMMachine(M=32, B=4, trace=False)
    arr = mach.alloc(64, "A")
    rng = np.random.default_rng(1)
    occupied = sorted(rng.choice(64, size=16, replace=False).tolist())
    for j in occupied:
        arr.raw[j] = make_block([int(j)], B=4)
    with mach.metered() as meter:
        out = loose_compact_logstar(mach, arr, 16, make_rng(3))
    from repro.em.block import is_empty

    got = sorted(
        int(out.raw[j][0, 0])
        for j in range(out.num_blocks)
        if not is_empty(out.raw[j]).all()
    )
    assert got == occupied
    with capsys.disabled():
        print(f"\nE5 at M=8B (wide-block impossible): compacted 16/64 "
              f"blocks into 4.25R = {out.num_blocks} blocks in "
              f"{meter.total} I/Os")


@pytest.mark.parametrize("n", [256, 1024])
def bench_e5_wall_time(benchmark, n):
    mach, arr = _instance(n, n // 4)

    def run():
        loose_compact_logstar(mach, arr, n // 4, make_rng(1), tower_base=2)

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["n_blocks"] = n
