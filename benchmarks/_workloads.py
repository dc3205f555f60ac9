"""Shared workload builders and reporting helpers for the benchmark
harness (experiments E1-E12)."""

from __future__ import annotations

import numpy as np

from repro.em import EMMachine, make_block, make_records
from repro.em.storage import EMArray

__all__ = [
    "experiment",
    "record_machine",
    "block_machine",
    "load_sparse_blocks",
    "series_table",
    "facade_chain",
    "pipeline_chain",
]


def experiment(fn):
    """Adapt a measurement-series function to pytest-benchmark.

    The experiment functions (E1-E12) measure I/O counts, print their
    series table, and assert the paper's shape claims; wrapping them in
    ``benchmark.pedantic`` makes them first-class benchmark targets so
    ``pytest benchmarks/ --benchmark-only`` runs the whole harness.
    """

    def wrapper(benchmark, capsys):
        benchmark.pedantic(lambda: fn(capsys), rounds=1, iterations=1)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def facade_chain(keys, seed, config, retry=None):
    """The 3-step shuffle→compact→sort workload as three facade calls.

    Returns ``(total_ios, client_round_trips, final_result)`` — the
    baseline both pipeline benchmarks compare against.
    """
    from repro.api import ObliviousSession

    with ObliviousSession(config, seed=seed, retry=retry) as session:
        r1 = session.shuffle(keys)
        r2 = session.compact(r1.records)
        r3 = session.sort(r2.records)
        trips = session.machine.client_loads + session.machine.client_extracts
        return r1.cost.total + r2.cost.total + r3.cost.total, trips, r3


def pipeline_chain(keys, seed, config, retry=None, optimize=False):
    """The same 3-step workload as one lazy pipeline.

    Returns ``(total_ios, client_round_trips, plan_result)``; with
    ``optimize=False`` the block I/Os are identical to
    :func:`facade_chain` by construction — the saving is the round
    trips.  With ``optimize=True`` the cost-based optimizer rewrites the
    plan first (here: the sort picks its cheapest oblivious variant), so
    the I/Os drop too while the output stays byte-identical.
    """
    from repro.api import ObliviousSession

    with ObliviousSession(config, seed=seed, retry=retry) as session:
        result = (
            session.dataset(keys).shuffle().compact().sort().run(optimize)
        )
        return result.total.total, result.loads + result.extracts, result


def record_machine(keys, *, B=4, M=64, trace=False) -> tuple[EMMachine, EMArray]:
    """A machine plus an array pre-loaded with record keys."""
    mach = EMMachine(M=M, B=B, trace=trace)
    arr = mach.alloc_cells(max(1, len(keys)))
    arr.load_flat(make_records(keys))
    return mach, arr


def block_machine(n_blocks, occupied, *, B=4, M=256, trace=False):
    """A machine plus a block array with the given occupied positions."""
    mach = EMMachine(M=M, B=B, trace=trace)
    arr = mach.alloc(n_blocks, "A")
    for j in occupied:
        arr.raw[j] = make_block([int(j)], B=B)
    return mach, arr


def load_sparse_blocks(mach, n_blocks, density, rng) -> tuple[EMArray, np.ndarray]:
    arr = mach.alloc(n_blocks, "A")
    mask = rng.random(n_blocks) < density
    for j in np.flatnonzero(mask):
        arr.raw[j] = make_block([int(j)], B=mach.B)
    return arr, mask


def series_table(title: str, header: list[str], rows: list[list]) -> str:
    """Format a measurement series the way the paper would report it."""
    widths = [
        max(len(str(h)), max((len(f"{r[i]:.3g}" if isinstance(r[i], float) else str(r[i]))
                              for r in rows), default=0))
        for i, h in enumerate(header)
    ]
    out = [title]
    out.append("  " + "  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for r in rows:
        cells = [
            (f"{v:.3g}" if isinstance(v, float) else str(v)).rjust(w)
            for v, w in zip(r, widths)
        ]
        out.append("  " + "  ".join(cells))
    return "\n".join(out)
