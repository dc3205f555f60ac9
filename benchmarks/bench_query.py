"""The oblivious relational query pipeline: mask → join → group-by.

Runs the layer's reference analytics query — filter one relation by a
key window, equi-join it with a second relation, aggregate the joined
values per key — as a single machine-resident plan, and measures:

* modeled block I/Os per step (join's sort-merge over the tagged union
  dominates) against the ``plan.explain()`` analytical estimates;
* the selectivity-hiding property as a *measured* fact: the complete
  transcript fingerprint is bit-identical across mask survivor counts;
* wall time for the whole pipeline.

``run_all.py`` calls :func:`run_query_benchmark`; the
``bench_query_reference`` target pins the per-step I/Os.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import EMConfig, ObliviousSession, RetryPolicy


def _relations(n: int, survivors: int, seed: int):
    """A left relation with exactly ``survivors`` keys inside the mask
    window [0, 10**4) and a right relation over the same key space."""
    rng = np.random.default_rng(seed)
    key_space = max(4, n // 8)
    keep = rng.integers(0, key_space, size=survivors)
    drop = rng.integers(10**5, 10**5 + key_space, size=n - survivors)
    left = np.stack(
        [rng.permutation(np.concatenate([keep, drop])),
         rng.integers(0, 10**6, size=n)],
        axis=1,
    ).astype(np.int64)
    right = np.stack(
        [rng.integers(0, key_space, size=n),
         rng.integers(0, 10**6, size=n)],
        axis=1,
    ).astype(np.int64)
    return left, right


def _run_query(left, right, config, seed, retry):
    with ObliviousSession(config, seed=seed, retry=retry) as session:
        ds = (
            session.dataset(left)
            .apply("mask", hi=10**4)
            .join(session.dataset(right), fanout=2, combine="product")
            .group_by("sum")
        )
        explain = ds.explain()
        result = ds.run()
        return explain, result, session.machine.trace.fingerprint()


def _reference(left, right, fanout):
    """Plaintext answer: per-key sum of products over the first
    ``fanout`` right matches of each surviving left row."""
    rmap: dict = {}
    for k, v in right:
        rmap.setdefault(int(k), []).append(int(v))
    groups: dict = {}
    for k, v in left:
        if not 0 <= k <= 10**4:
            continue
        for rv in rmap.get(int(k), [])[:fanout]:
            groups[int(k)] = groups.get(int(k), 0) + int(v) * rv
    return sorted(groups.items())


def measure_query(n: int, config, seed: int) -> tuple[dict, dict]:
    """Run the reference query over ``n``-record relations, check its
    answer and that its transcript hides the mask's selectivity, and
    return ``({step: I/Os}, {step: est/meas ratio})``."""
    retry = RetryPolicy(max_attempts=8)
    qcfg = EMConfig(M=config.M, B=config.B, backend=config.backend)
    left, right = _relations(n, survivors=n // 4, seed=seed)
    explain, result, fp = _run_query(left, right, qcfg, seed, retry)
    got = sorted((int(k), int(v)) for k, v in result.records)
    assert got == _reference(left, right, 2), "query returned wrong rows"

    # Selectivity hiding, measured: a very different survivor count,
    # same public shape -> bit-identical full transcript.
    left2, right2 = _relations(n, survivors=n - n // 8, seed=seed + 1)
    _, _, fp2 = _run_query(left2, right2, qcfg, seed, retry)
    assert fp == fp2, "query transcript leaked the mask survivor count"

    est = {s.algorithm: s.est_ios for s in explain.steps}
    meas = {s.algorithm: s.cost.total for s in result.steps}
    ratios = {
        a: max(est[a] / meas[a], meas[a] / est[a]) for a in ("join", "group_by")
    }
    return meas, ratios


def run_query_benchmark(smoke: bool, config, seed: int) -> int:
    """Measure the mask→join→group_by pipeline; 0 on success, 1 on
    failure (mirrors the other ``run_all`` sub-benchmarks)."""
    n = 256 if smoke else 1024
    try:
        start = time.perf_counter()
        meas, ratios = measure_query(n, config, seed)
        wall = time.perf_counter() - start
        print(
            f"\nquery mask→join→group_by (n={n}, fanout=2): "
            f"{sum(meas.values())} I/Os "
            f"(join {meas['join']}, group_by {meas['group_by']}); "
            f"est/meas ratio join {ratios['join']:.2f}, "
            f"group_by {ratios['group_by']:.2f}; transcript invariant "
            f"across selectivities; {wall:.2f}s"
        )
        return 0
    except Exception as exc:  # noqa: BLE001 - report, then fail the run
        print(f"\nquery benchmark FAILED: {exc}")
        return 1


# -- pytest-benchmark entry point (run with `pytest benchmarks/`) -----------


def bench_query_reference(capsys):
    meas, _ = measure_query(256, EMConfig(M=128, B=4), seed=0)
    with capsys.disabled():
        print()
        print(
            f"query mask→join→group_by n=256 — join {meas['join']} I/Os, "
            f"group_by {meas['group_by']} I/Os, transcript invariant "
            f"across selectivities"
        )
    assert (meas["join"], meas["group_by"]) == (104198, 90140)
