#!/usr/bin/env python
"""Exercise every registered algorithm through the ``repro.api`` facade.

Iterates the algorithm registry, builds a suitable workload for each
entry, runs it in an :class:`repro.api.ObliviousSession`, validates the
output, and prints one cost-report row per algorithm.

Modes::

    python benchmarks/run_all.py --smoke            # small inputs, <60 s
    python benchmarks/run_all.py                    # full sizes
    python benchmarks/run_all.py --backend memmap   # file-backed storage
    python benchmarks/run_all.py --list             # registry contents

After the registry it runs the pipeline, ORAM peel, service and query
comparisons.  Exits non-zero if any algorithm fails or validates
incorrectly, so CI can use ``--smoke`` as a facade-wide regression gate.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.api import (
    NULL_KEY,
    EMConfig,
    ObliviousSession,
    RetryPolicy,
    algorithm_names,
    get_algorithm,
)
from bench_query import run_query_benchmark
from bench_service import run_service_benchmark


def build_workload(name: str, n: int, B: int, rng: np.random.Generator, M: int):
    """Return ``(data, params, validate)`` for one registered algorithm,
    or ``(None, reason, None)`` when the algorithm's model assumptions
    (sparsity / wide-block) do not hold at this benchmark shape."""
    keys = rng.permutation(np.arange(n))

    def _sparse(every: int):
        """A sparse layout plus its live block indices: one record in the
        first cell of every ``every``-th block."""
        n_blocks = max(1, n // B)
        layout = np.zeros((n_blocks * B, 2), dtype=np.int64)
        layout[:, 0] = NULL_KEY
        live = np.arange(0, n_blocks, every)
        layout[live * B, 0] = live
        layout[live * B, 1] = live * 10
        return layout, live, n_blocks

    if name == "compact":
        layout, live, _ = _sparse(3)

        def validate(result):
            assert result.keys.tolist() == live.tolist(), "compact lost records"

        return layout, {}, validate

    if name in ("compact_sparse", "compact_sparse_hier"):
        # Very sparse (r stays tiny): the ORAM-simulated peel dominates
        # (square-root or hierarchical backend per the spec).
        layout, live, _ = _sparse(max(8, (n // B) // 8))

        def validate(result):
            assert result.keys.tolist() == live.tolist(), (
                "sparse compaction lost records or order"
            )

        return layout, {}, validate

    if name in ("compact_loose", "compact_logstar"):
        from repro.core.compaction import wide_block_ok

        layout, live, n_blocks = _sparse(8)
        r = len(live) // B + 2
        if 4 * r > n_blocks:
            return None, "density bound R <= N/4 fails at this shape", None
        if name == "compact_loose" and not wide_block_ok(n_blocks + 1, M // B):
            return None, "wide-block assumption fails at this shape", None

        def validate(result):
            assert sorted(result.keys.tolist()) == live.tolist(), (
                "loose compaction lost records"
            )

        return layout, {}, validate

    if name in ("select", "sort_then_pick"):
        def validate(result):
            assert result.value[0] == n // 2 - 1, "wrong selected key"

        return keys, {"k": n // 2}, validate

    if name == "select_sorted":
        def validate(result):
            assert result.value[0] == n // 2 - 1, "wrong selected key"

        return np.sort(keys), {"k": n // 2}, validate

    if name == "quantiles_sorted":
        q = 3
        expected = [
            int(np.sort(keys)[max(1, min(n, round(i * n / (q + 1)))) - 1])
            for i in range(1, q + 1)
        ]

        def validate(result):
            assert result.value.tolist() == expected, "wrong quantiles"

        return np.sort(keys), {"q": q}, validate

    if name == "mask":
        lo, hi = n // 4, 3 * n // 4

        def validate(result):
            assert sorted(result.keys.tolist()) == list(range(lo, hi + 1)), (
                "mask kept the wrong records"
            )

        return keys, {"lo": lo, "hi": hi}, validate

    if name == "scale_values":
        def validate(result):
            assert sorted(result.values.tolist()) == [
                3 * k + 7 for k in range(n)
            ], "wrong scaled values"

        return keys, {"mul": 3, "add": 7}, validate

    if name == "quantiles":
        q = 3
        expected = [
            int(np.sort(keys)[max(1, min(n, round(i * n / (q + 1)))) - 1])
            for i in range(1, q + 1)
        ]

        def validate(result):
            assert result.value.tolist() == expected, "wrong quantiles"

        return keys, {"q": q}, validate

    if name == "shuffle":
        def validate(result):
            assert sorted(result.keys.tolist()) == list(range(n)), (
                "shuffle lost records"
            )

        return keys, {}, validate

    if name == "join":
        # Arity-2: the facade's single-input run() cannot build it — the
        # dedicated query benchmark runs it through Dataset.join.
        return None, "arity-2 (Dataset.join); covered by the query benchmark", None

    if name in ("group_by", "group_by_sorted"):
        kvals = rng.integers(0, max(2, n // 8), size=n)
        if name == "group_by_sorted":
            kvals = np.sort(kvals)
        vals = rng.integers(0, 10**6, size=n)
        data = np.stack([kvals, vals], axis=1).astype(np.int64)
        expected = sorted(
            (int(k), int(vals[kvals == k].sum())) for k in np.unique(kvals)
        )

        def validate(result):
            got = sorted((int(k), int(v)) for k, v in result.records)
            assert got == expected, "wrong group aggregates"

        return data, {"agg": "sum"}, validate

    if name in ("oram_read_batch", "oram_read_batch_hier"):
        ranks = list(range(0, n, max(1, n // 16)))

        def validate(result):
            assert result.keys.tolist() == [int(keys[r]) for r in ranks], (
                "ORAM reads returned the wrong records"
            )

        return keys, {"indices": ranks}, validate

    # Sorting algorithms — and a sensible default for future entries.
    def validate(result):
        if result.records is not None:
            assert np.array_equal(result.keys, np.arange(n)), "wrong sort order"

    return keys, {}, validate


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small inputs: every algorithm in well under 60 s",
    )
    parser.add_argument(
        "--backend", default="memory", choices=("memory", "memmap"),
        help="storage backend for the session machine",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--list", action="store_true", help="list registered algorithms and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in algorithm_names():
            spec = get_algorithm(name)
            kind = "las-vegas" if spec.randomized else "deterministic"
            print(f"{name:>15}  [{kind}]  {spec.summary}")
        return 0

    n, M, B = (256, 128, 4) if args.smoke else (1024, 256, 8)
    config = EMConfig(M=M, B=B, trace=True, backend=args.backend)
    rng = np.random.default_rng(args.seed)
    print(
        f"running {len(algorithm_names())} registered algorithms through "
        f"ObliviousSession (n={n}, M={M}, B={B}, backend={args.backend})\n"
    )
    header = f"{'algorithm':>15}  {'ios':>8}  {'attempts':>8}  {'secs':>6}  status"
    print(header)
    print("-" * len(header))
    failures = 0
    for name in algorithm_names():
        data, params, validate = build_workload(name, n, B, rng, M)
        if data is None:
            print(f"{name:>15}  {'-':>8}  {'-':>8}  {'-':>6}  skip: {params}")
            continue
        start = time.perf_counter()
        try:
            with ObliviousSession(
                config, seed=args.seed, retry=RetryPolicy(max_attempts=8)
            ) as session:
                result = session.run(name, data, **params)
            validate(result)
            elapsed = time.perf_counter() - start
            print(
                f"{name:>15}  {result.cost.total:>8}  "
                f"{result.cost.attempts:>8}  {elapsed:>6.2f}  ok"
            )
        except Exception as exc:  # noqa: BLE001 - report, then fail the run
            elapsed = time.perf_counter() - start
            print(f"{name:>15}  {'-':>8}  {'-':>8}  {elapsed:>6.2f}  FAIL: {exc}")
            failures += 1
    failures += run_pipeline_comparison(n, config, args.seed)
    failures += run_oram_benchmark(args.smoke, args.seed)
    failures += run_service_benchmark(args.smoke, config, args.seed)
    failures += run_query_benchmark(args.smoke, config, args.seed)
    if failures:
        print(f"\n{failures} algorithm(s) failed")
        return 1
    print("\nall registered algorithms ran clean through the facade")
    return 0


def run_oram_benchmark(smoke: bool, seed: int) -> int:
    """Measure the ORAM-simulated Theorem-4 peel at the reference shapes
    and the per-backend E9 amortized access cost.  The peel shapes
    mirror the calibration comments in ``repro.analysis.bounds`` (scalar
    baseline was 82k–105k; the batched + restructured peel measures
    ~24k–28k); the amortized figures run the E9 reference workload (3n
    reads at M=4096, B=4, seed 0) where the hierarchical backend's
    polylog amortization beats the square-root scheme."""
    import math

    from repro.core.compaction import tight_compact_sparse
    from repro.em.block import NULL_KEY as NULL
    from repro.em.machine import EMMachine
    from repro.oram.simulation import measure_oram_overhead

    shapes = [(32, 2), (64, 3)] + ([] if smoke else [(128, 5)])
    M, B = 64, 4
    constants = []
    try:
        start = time.perf_counter()
        for n_blocks, r in shapes:
            layout = np.zeros((n_blocks * B, 2), dtype=np.int64)
            layout[:, 0] = NULL
            rng = np.random.default_rng(seed)
            live = np.sort(rng.choice(n_blocks, size=r, replace=False))
            layout[live * B, 0] = live + 1
            machine = EMMachine(M=M, B=B, trace=False)
            A = machine.alloc(n_blocks, "bench.oram")
            A.load_flat(layout)
            out = tight_compact_sparse(
                machine, A, r, np.random.default_rng(seed + 99),
                oblivious_list=True,
            )
            got = [int(out.raw[j][0, 0]) for j in range(r)]
            assert got == (live + 1).tolist(), "oblivious peel lost records"
            constants.append((machine.total_ios - 13 * n_blocks) / r**1.5)
        # Per-backend E9 amortized access cost at the reference shape
        # (smoke uses the smaller one).  The hierarchical figure beating
        # the square-root one is the crossover pinned in
        # ``tests/test_oram_hierarchical.py``.
        e9_n = 64 if smoke else 144
        amortized = {}
        for backend in ("square_root", "hierarchical"):
            stats = measure_oram_overhead(
                n=e9_n, num_accesses=3 * e9_n, M=4096, B=4, seed=0,
                oram_factory=backend,
            )
            amortized[backend] = stats.amortized_ios_per_access
        wall = time.perf_counter() - start
        geomean = math.exp(sum(math.log(c) for c in constants) / len(constants))
        print(
            f"\nORAM-simulated peel (Theorem 4, oblivious_list=True): "
            f"constant {geomean:.0f} I/Os per r^1.5 over {shapes}; "
            f"E9 amortized at n={e9_n}: "
            f"sqrt {amortized['square_root']:.1f} vs "
            f"hier {amortized['hierarchical']:.1f} I/Os/access "
            f"({wall:.2f}s)"
        )
        return 0
    except Exception as exc:  # noqa: BLE001 - report, then fail the run
        print(f"\nORAM peel benchmark FAILED: {exc}")
        return 1


def run_pipeline_comparison(n, config, seed) -> int:
    """Run the 3-step shuffle→compact→sort chain three ways — facade,
    verbatim pipeline, optimized pipeline — and report the round-trip
    and optimizer savings."""
    from _workloads import facade_chain, pipeline_chain

    keys = np.random.default_rng(seed).permutation(np.arange(n))
    retry = RetryPolicy(max_attempts=8)
    try:
        start = time.perf_counter()
        facade_ios, facade_trips, r3 = facade_chain(keys, seed, config, retry)
        facade_secs = time.perf_counter() - start

        start = time.perf_counter()
        _, pipeline_trips, result = pipeline_chain(keys, seed, config, retry)
        pipeline_secs = time.perf_counter() - start

        start = time.perf_counter()
        opt_ios, opt_trips, opt_result = pipeline_chain(
            keys, seed, config, retry, optimize=True
        )
        opt_secs = time.perf_counter() - start

        assert np.array_equal(result.records, r3.records), "pipeline diverged"
        assert result.total.total == facade_ios, "pipeline changed the model cost"
        assert np.array_equal(opt_result.records, r3.records), (
            "optimized pipeline diverged"
        )
        assert opt_ios <= facade_ios, "optimizer increased the model cost"
        print(
            f"\npipeline shuffle→compact→sort: {result.total.total} I/Os "
            f"either way; round trips {facade_trips} → {pipeline_trips}, "
            f"wall {facade_secs:.2f}s → {pipeline_secs:.2f}s; "
            f"optimized: {opt_ios} I/Os "
            f"({[s.algorithm for s in opt_result.steps]}, {opt_secs:.2f}s)"
        )
        return 0
    except Exception as exc:  # noqa: BLE001 - report, then fail the run
        print(f"\npipeline comparison FAILED: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
