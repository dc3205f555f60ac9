"""E10 — the §1 definition itself: for EVERY registered oblivious
algorithm, the adversary's view is independent of the data.

Each algorithm runs through
:func:`repro.oblivious.assert_adversary_view_invariant` at the checker's
fixed seed over several :func:`~repro.oblivious.workload` draws (same
public shape, fresh private contents).  The record-input sorts,
selection and quantiles also run the standard adversarial input family
(all-equal / sorted / reversed / random keys).  Lemma 3 consolidation
and the Lemma 2 sort are covered as sub-steps of ``compact``, ``select``
and ``quantiles``.  Every check is trace-exact."""

import numpy as np

from repro.api import algorithm_names, get_algorithm
from repro.oblivious import (
    adversarial_inputs,
    assert_adversary_view_invariant,
    workload,
)

from _workloads import series_table, experiment

#: Private-content draws per algorithm.
DRAWS = 3
#: Algorithms whose only public input shape is the record count, so the
#: adversarial family is a valid set of same-shape inputs.
FAMILY = ("sort", "bitonic_sort", "select", "sort_then_pick", "quantiles")
OBLIVIOUS = [n for n in algorithm_names() if get_algorithm(n).oblivious]


def _inputs(name):
    """``(datasets, params, config_kwargs)`` for one algorithm."""
    draws = [workload(name, np.random.default_rng(v)) for v in range(DRAWS)]
    datasets = [data for data, _, _ in draws]
    _, params, cfg = draws[0]
    if name in FAMILY:
        datasets += adversarial_inputs(len(datasets[0])).values()
    return datasets, params, cfg


@experiment
def bench_e10_all_algorithms(capsys):
    rows = []
    for name in OBLIVIOUS:
        datasets, params, cfg = _inputs(name)
        fp = assert_adversary_view_invariant(
            name, datasets, params, config_kwargs=cfg
        )
        rows.append([name, len(datasets), fp[:16]])
    with capsys.disabled():
        print()
        print(series_table(
            "E10 obliviousness verification — identical adversary views "
            "across same-shape inputs (fixed seed)",
            ["algorithm", "inputs", "fingerprint"],
            rows,
        ))


def bench_e10_wall_time(benchmark):
    datasets, params, cfg = _inputs("compact")
    benchmark.pedantic(
        assert_adversary_view_invariant,
        args=("compact", datasets, params),
        kwargs={"config_kwargs": cfg},
        rounds=1,
        iterations=1,
    )
