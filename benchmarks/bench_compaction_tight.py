"""E3 — Theorem 6: butterfly tight compaction.

Measures the library router's ``O(n log_m n)`` I/O scaling against the
naive per-level circuit simulation's ``O(n log n)`` (kept as a
comparator in ``repro.baselines.butterfly_naive``) — the speedup the
paper's windowing argument buys — and verifies Lemma 5 (zero
collisions) along the way (the router raises on any collision).
"""

import numpy as np
import pytest

from repro.baselines.butterfly_naive import naive_butterfly_compact, route_em_naive
from repro.em import EMMachine
from repro.networks.butterfly import _route_em, _write_labels_scan, butterfly_compact
from repro.util.mathx import log_base

from _workloads import load_sparse_blocks, series_table, experiment


def _ios(n, m_blocks, compact=butterfly_compact, B=4, seed=0):
    mach = EMMachine(M=m_blocks * B, B=B, trace=False)
    rng = np.random.default_rng(seed)
    arr, _ = load_sparse_blocks(mach, n, 0.5, rng)
    with mach.metered() as meter:
        compact(mach, arr)
    return meter.total


@experiment
def bench_e3_router_vs_naive(capsys):
    """At m = 64 the router routes g = 4 levels per 4n-I/O pass (the
    largest g with 2·2^g + 2 <= m), while the per-level simulation pays
    about 6n per level: the router wins at every size."""
    rows = []
    for n in (64, 128, 256, 512):
        naive = _ios(n, 64, naive_butterfly_compact)
        routed = _ios(n, 64)
        rows.append([n, naive, routed, naive / routed])
    with capsys.disabled():
        print()
        print(series_table(
            "E3 (Theorem 6) butterfly I/Os: naive O(n log n) levels vs "
            "router O(n log_m n) (m = 64 blocks)",
            ["n", "naive_ios", "router_ios", "speedup"],
            rows,
        ))
    assert all(r[3] > 1.0 for r in rows)


#: Routing-only block I/Os (labels already written, 40% of blocks
#: occupied, B = 4): ``(m, blocks) -> (router, naive)``.  The router
#: costs exactly 4n per pass: 6, 4, 5 and 3 passes.
ROUTING_IOS = {
    (16, 2048): (49152, 131074),
    (32, 2048): (32768, 131074),
    (32, 8192): (163840, 622594),
    (128, 8192): (98304, 622594),
}


@experiment
def bench_e3_routing_only_ios(capsys):
    """Routing alone, pinned exactly: the in-place router against the
    per-level simulation on the same labelled arrays."""
    rows = []
    for (m, n), want in ROUTING_IOS.items():
        got = []
        for route in (_route_em, route_em_naive):
            mach = EMMachine(M=m * 4, B=4, trace=False)
            arr, mask = load_sparse_blocks(mach, n, 0.4, np.random.default_rng(0))
            labels, _ = _write_labels_scan(mach, arr, None)
            with mach.metered() as meter:
                out = route(mach, arr, labels)
            out = arr if out is None else out[0]
            keys = out.raw[: int(mask.sum()), 0, 0]
            assert np.array_equal(keys, np.flatnonzero(mask))
            got.append(meter.total)
        rows.append([m, n, *got, got[0] / got[1]])
        assert tuple(got) == want, (m, n, got)
    with capsys.disabled():
        print()
        print(series_table(
            "E3 routing-only I/Os (40% occupied, B = 4)",
            ["m", "blocks", "router_ios", "naive_ios", "ratio"],
            rows,
        ))


@experiment
def bench_e3_cache_scaling(capsys):
    """Bigger cache => smaller log_m factor: the router's I/Os at fixed
    n should drop as m grows."""
    rows = []
    n = 512
    for m in (12, 24, 48, 96, 192):
        ios = _ios(n, m)
        rows.append([m, ios, ios / (2 * n), log_base(n, m)])
    with capsys.disabled():
        print()
        print(series_table(
            "E3 butterfly router I/Os vs cache size (n = 512 blocks) — "
            "expected shape ~ n log_m n",
            ["m", "ios", "ios/2n", "log_m(n)"],
            rows,
        ))
    ios_values = [r[1] for r in rows]
    assert ios_values[-1] < ios_values[0]


@pytest.mark.parametrize(
    "compact", [butterfly_compact, naive_butterfly_compact], ids=["router", "naive"]
)
def bench_e3_wall_time(benchmark, compact):
    mach = EMMachine(M=128, B=4, trace=False)
    rng = np.random.default_rng(1)
    arr, _ = load_sparse_blocks(mach, 512, 0.5, rng)

    def run():
        mach.free(compact(mach, arr))

    benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["compact"] = compact.__name__
