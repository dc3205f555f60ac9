"""E7 — Theorem 17: q quantiles in O(N/B) I/Os for q <= (M/B)^(1/4).

The series measure the sampling path directly
(:func:`repro.core.quantiles._quantiles_sampled`, retried by hand) next
to the public ``quantiles``, which runs through the ``repro.api`` session
facade (it owns the Las Vegas retries; ``Result.cost`` supplies the I/O
counts).  At every size here the public path sorts all items directly,
because the sampling path's bracket cap ``8 q N^{3/4}`` covers ``N``.
"""

import numpy as np
import pytest

from repro.api import EMConfig, ObliviousSession, RetryPolicy
from repro.core.quantiles import QuantileFailure, _quantiles_sampled
from repro.em import EMMachine, make_records
from repro.util.rng import make_rng

from _workloads import series_table, experiment

_RETRY = RetryPolicy(max_attempts=8)


def _case(n, q):
    keys = np.random.default_rng(n).permutation(np.arange(1, n + 1))
    expected = [
        int(np.sort(keys)[max(1, min(n, round(i * n / (q + 1)))) - 1])
        for i in range(1, q + 1)
    ]
    return keys, expected


def _sampled_ios(n, q, M=256, B=4):
    """I/Os of the successful attempt of Theorem 17's sampling path."""
    keys, expected = _case(n, q)
    for attempt in range(_RETRY.max_attempts):
        machine = EMMachine(M=M, B=B, trace=False)
        arr = machine.alloc_cells(n)
        arr.load_flat(make_records(keys))
        try:
            with machine.metered() as meter:
                got = _quantiles_sampled(machine, arr, n, q, make_rng(attempt))
        except QuantileFailure:
            continue
        assert got.tolist() == expected
        return meter.total
    raise AssertionError("the sampling path kept failing")


def _quantile_ios(n, q, M=256, B=4):
    keys, expected = _case(n, q)
    with ObliviousSession(
        EMConfig(M=M, B=B, trace=False), seed=0, retry=_RETRY
    ) as session:
        result = session.quantiles(keys, q=q)
    assert result.value.tolist() == expected
    return result.cost.total


@experiment
def bench_e7_linear_series(capsys):
    rows = []
    for n in (256, 512, 1024, 2048):
        ios = _sampled_ios(n, q=2)
        rows.append([n, 2, ios, ios / (n // 4), _quantile_ios(n, q=2)])
    with capsys.disabled():
        print()
        print(series_table(
            "E7 (Theorem 17) sampling-path quantile I/Os — expected flat "
            "ios/block; public_ios sorts every item, as 8q N^{3/4} >= N here",
            ["n", "q", "sampled_ios", "ios/blk", "public_ios"],
            rows,
        ))
    per_block = [r[3] for r in rows]
    assert max(per_block) / min(per_block) < 1.8
    # The public path costs no more than the sampling path it replaces.
    assert all(r[4] <= r[2] for r in rows)


@experiment
def bench_e7_q_sweep(capsys):
    rows = []
    n = 1024
    for q in (1, 2, 3, 4):
        ios = _sampled_ios(n, q=q)
        rows.append([q, ios, ios / (n // 4), _quantile_ios(n, q=q)])
    with capsys.disabled():
        print()
        print(series_table(
            "E7 sampling-path quantile I/Os vs q (n = 1024) — mild growth "
            "only; public_ios sorts every item",
            ["q", "sampled_ios", "ios/blk", "public_ios"],
            rows,
        ))
    assert all(r[3] <= r[1] for r in rows)


@pytest.mark.parametrize("n", [512, 2048])
def bench_e7_wall_time(benchmark, n):
    keys = np.random.default_rng(2).permutation(np.arange(1, n + 1))

    def run():
        with ObliviousSession(
            EMConfig(M=256, B=4, trace=False), seed=0, retry=_RETRY
        ) as session:
            return session.quantiles(keys, q=2)

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["n"] = n
