"""Analytical I/O estimates from the paper's bounds, for ``plan.explain()``.

Each entry maps a registered algorithm's ``cost_model`` to the paper
bound that governs it and to a closed-form block-I/O estimate.  The
paper states the bounds asymptotically; the leading constants here are
calibrated against the implementation (measured at the reference shapes
``(M=64, B=4)`` and ``(M=256, B=8)``, see ``tests/test_api_pipeline.py``)
so that ``explain()`` predicts measured I/Os within a small constant
factor — close enough to compare plans and spot the expensive step
*before* paying for an execution.  The plan optimizer
(:mod:`repro.api.optimizer`) leans on the same estimates to gate its
rewrites, so a bound may also declare a ``feasible`` predicate naming
the model assumptions (wide-block, density) under which its algorithm
applies at all.

All estimates are functions of the input size in blocks ``n = ceil(N/B)``
and the cache size in blocks ``m = M/B``; the ``params`` dict carries the
step's call parameters (``q``, ``k``, …) for bounds that depend on them,
plus ``_r_blocks`` — the public occupied-block capacity ``r`` the
compaction bounds price (injected by the estimate plumbing; defaults to
``n`` when absent, i.e. a dense input).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.core.compaction import wide_block_ok
from repro.oram.hierarchical import hierarchy_shape
from repro.util.mathx import log_base, log_star

__all__ = [
    "IOBound",
    "PAPER_BOUNDS",
    "estimate_ios",
]


@dataclass(frozen=True)
class IOBound:
    """One paper bound: provenance, human-readable formula, estimator.

    ``feasible`` (optional) returns whether the algorithm's model
    assumptions hold at ``(n_blocks, m, params)`` — the optimizer never
    substitutes a variant whose bound declares itself infeasible."""

    name: str
    source: str  #: where the bound comes from (theorem / lemma)
    formula: str  #: human-readable growth law, in blocks n and cache m
    estimate: Callable[[int, int, Mapping], float]  #: (n_blocks, m, params)
    feasible: Callable[[int, int, Mapping], bool] | None = None


def _logm(n: int, m: int) -> float:
    """``max(1, log_m n)`` — the recursion depth factor."""
    return max(1.0, log_base(max(2, n), max(2, m)))


def _log2(n: int) -> float:
    return max(1.0, math.log2(max(2, n)))


def _log_star(n: int) -> float:
    """``max(1, log*(n))`` — the Theorem 9 pass factor."""
    return float(max(1, log_star(max(1, n))))


def _r_blocks(n: int, params: Mapping) -> int:
    """Occupied-block capacity ``r`` for the compaction bounds (defaults
    to a dense input, ``r = n``)."""
    return int(params.get("_r_blocks", n))


def _bsort_pair(K: float, m: int) -> float:
    """Measured cost of ``oblivious_block_sort`` moving a meta+payload
    array *pair* of ``K`` blocks at cache size ``m``: per-block cost fits
    ``35 + 3.6·log2²(K/(m-2))`` for a single array (measured across
    K=16..1024, m=8..512); the paired sort moves both arrays through
    every merge-split level, costing ~1.9× that."""
    depth = math.log2(max(1.0, K / max(2.0, m - 2.0)))
    return 1.9 * K * (35.0 + 3.6 * depth * depth)


def _hier_access_ios(n_cells: int, m: int) -> float:
    """Amortized I/Os per hierarchical-ORAM access: the fixed probe
    schedule (buffer scan + one fixed-length binary search per level +
    shelter append) plus the amortized merge cost.  A merge into level
    ``j < L`` sorts ~``caps_j`` blocks twice (dedup key, then new-epoch
    tags) and happens every ``s0·2^(j+1)`` accesses; the full merge into
    ``L`` sorts ~``2·caps_L`` blocks every ``s0·2^L`` accesses.  The
    linear scans (copy-in/dedup/retag/copy-back) add ~12 I/Os per merged
    block.  Overestimates measurement by ~1.2–1.3× at the reference
    shapes (n=128 cells, m=16: est 2801 vs 2290; n=256, m=32: 3128 vs
    2386) — within the documented ×4 envelope."""
    s0, L = hierarchy_shape(n_cells)
    caps = [2 * s0 * (1 << k) for k in range(L + 1)]
    probes = 2.0 * s0 + 2.0
    for cap in caps:
        probes += math.floor(math.log2(cap)) + 3.0
    merges = 0.0
    for j in range(L):
        merges += (2.0 * _bsort_pair(caps[j], m) + 12.0 * caps[j]) / (
            s0 * (1 << (j + 1))
        )
    merges += (2.0 * _bsort_pair(2 * caps[L], m) + 20.0 * caps[L]) / (
        s0 * (1 << L)
    )
    return probes + merges


def _hier_build_ios(n_cells: int, m: int) -> float:
    """One-time hierarchical-ORAM build: populate level ``L`` (read the
    n source cells, write ``caps_L`` tagged slots twice) plus one paired
    oblivious sort of the level.  Est 48.7k vs measured 39.8k at
    (n=128 cells, m=16); 111k vs 89.3k at (n=256, m=32)."""
    s0, L = hierarchy_shape(n_cells)
    cap_top = 2 * s0 * (1 << L)
    return 3.0 * n_cells + 2.0 * cap_top + _bsort_pair(cap_top, m)


def _rhs(n: int, params: Mapping) -> int:
    """Right-relation size in blocks for the arity-2 bounds (injected by
    the estimate plumbing as ``_rhs_blocks``; defaults to ``n``)."""
    return max(1, int(params.get("_rhs_blocks", n)))


def _union(n: int, params: Mapping) -> int:
    """Tagged-union size ``u = k·n + r`` the join sorts and scans."""
    return max(1, int(params.get("fanout", 1))) * n + _rhs(n, params)


#: Calibrated leading constants (implementation-measured; the paper gives
#: only asymptotics).  Measured per-block constants across the reference
#: shapes (M=64,B=4,n=512 … M=256,B=8,n=2048, dense keys) with the
#: in-place butterfly router: compact 6.4–8.1, select 66–103, quantiles
#: 66–105, sort 420–615 (its recursion constant is large and drifts with
#: how many levels the shape needs — the paper's own constant-factor
#: caveat).  Compact, select and quantiles sit near the geometric means
#: (7.3, 78, 80); sort keeps its earlier 550, within 1.03–1.31× of every
#: shape.  ``tests/test_api_pipeline.py`` pins a documented ×4 envelope.
_C_COMPACT = 7.5
_C_SELECT = 80.0
_C_QUANTILES = 80.0
_C_SORT = 550.0
#: Sparse-IBLT compaction (Theorem 4): the linear insert pass costs
#: ``13·n`` exactly (one read plus k=3 read-modify-write pairs on two
#: tables per block, plus 6r-cell table zeroing); the dominating term is
#: the ORAM-simulated peel — ``Θ(r)`` RAM steps of square-root-ORAM ops
#: with periodic oblivious-shuffle rebuilds.  The original scalar peel
#: measured 82k–105k I/Os per ``r^1.5`` (231k/461k/1175k total at
#: (n=32,r=2)/(64,3)/(128,5)); the restructured peel — read-modify-write
#: cell accesses, plain fixed-schedule output arrays, a 2kr-bounded
#: queue seeded by one scan, and ``log2(n)+2``-stretched ORAM epochs
#: (see ``repro.core.compaction._peel_oram``) — measures 24.3k–25.8k at
#: the same shapes (80k/118k/304k total), a ≥3.3× cut.  That is what
#: moves the Theorem 4 crossover from *extreme* to *moderate* sparsity:
#: e.g. at n=8192 blocks, m=16, r=2 the old constant priced it at 361k
#: (butterfly: 261k — never chosen); now 177k, so the optimizer selects
#: it (pinned in tests/test_oram_pipeline.py).
_C_SPARSE_PEEL = 25000.0
#: Theorem 4 peel with hierarchical ORAMs instead of square-root ones.
#: The peel's three stores hold only ~6r cells each — far below the
#: hierarchical scheme's crossover (~64 cells, see ``oram_read_batch``
#: measurements) — so its polylog amortization never pays for its larger
#: constants here: measured 41.6k–52.8k I/Os per ``r^1.5`` at the same
#: (n=32,r=2)/(64,3)/(128,5) shapes (134k/216k/590k total), ~2× the
#: square-root peel.  Priced honestly so the optimizer keeps selecting
#: ``compact_sparse``; the variant exists for completeness and for the
#: obliviousness harness to cover.
_C_HIER_PEEL = 55000.0
#: Loose compaction (Theorem 8): c0=3 thinning passes (4·n each) per
#: halving level with geometrically shrinking levels, plus the final
#: in-cache stage.  Measured 27–45 I/Os per block at wide-block-feasible
#: shapes (M=256..512, n=64..256 blocks).
_C_LOOSE = 40.0
#: log* compaction (Theorem 9, oblivious_list=True): the c0=8 thinning
#: burst plus tower phases cost ~35·n·log*(n); the Theorem 4 tail into
#: the last 0.25·r cells pays the ORAM peel on ``ceil(r/4)`` blocks.
_C_LOGSTAR = 35.0

PAPER_BOUNDS: dict[str, IOBound] = {
    "shuffle": IOBound(
        name="shuffle",
        source="Knuth block shuffle (§5)",
        formula="4·n",
        # Exact: each of the n swaps reads and rewrites both partners.
        estimate=lambda n, m, params: 4.0 * n,
    ),
    "scan": IOBound(
        name="scan",
        source="one full read+write pass",
        formula="2·n",
        # Exact: every block is read once and written once, however many
        # fused kernels the pass applies.
        estimate=lambda n, m, params: 2.0 * n,
    ),
    "ranked_scan": IOBound(
        name="ranked_scan",
        source="fixed-pattern ranked scan (Theorems 13/17, sorted case)",
        formula="n",
        # Exact: one read of every block, no writes.
        estimate=lambda n, m, params: 1.0 * n,
    ),
    "compact": IOBound(
        name="compact",
        source="Lemma 3 + Theorem 6",
        formula="c·n·(1 + log_m n)",
        # One consolidation scan plus the deterministic butterfly
        # compaction (m-ary routing: log_m n passes of O(n) I/Os each).
        estimate=lambda n, m, params: _C_COMPACT * n * (1.0 + _logm(n, m)),
    ),
    "compact_sparse": IOBound(
        name="compact_sparse",
        source="Theorem 4 (IBLT + ORAM peel)",
        formula="13·n + c·r^1.5",
        # Linear insert pass over all n blocks, then the ORAM-simulated
        # peel over a 6r-cell table: Θ(r) steps × O(sqrt(r)) per
        # square-root-ORAM op (probe + amortized rebuild).
        estimate=lambda n, m, params: (
            13.0 * n + _C_SPARSE_PEEL * max(1, _r_blocks(n, params)) ** 1.5
        ),
        # Theorem 4's sparse regime: the ``r^1.5`` peel term must stay
        # within the linear insert pass's order (r <= n^(2/3)), else the
        # "linear-time for sparse arrays" hypothesis is void and the
        # estimate would price a regime the bound does not cover.
        feasible=lambda n, m, params: (
            max(1, _r_blocks(n, params)) ** 1.5 <= n
        ),
    ),
    "compact_loose": IOBound(
        name="compact_loose",
        source="Theorem 8 (thinning + region halving)",
        formula="c·n",
        estimate=lambda n, m, params: _C_LOOSE * n,
        # Density bound R <= N/4 plus the wide-block/tall-cache regime
        # (checked at n+1 blocks: consolidation can add a partial block).
        feasible=lambda n, m, params: (
            4 * _r_blocks(n, params) <= n and wide_block_ok(n + 1, m)
        ),
    ),
    "compact_logstar": IOBound(
        name="compact_logstar",
        source="Theorem 9 / Appendix B (tower-of-twos phases)",
        formula="c·n·log*(n) + peel(r/4) (+ Theorem 4 base case)",
        # Mirrors the runner's branch structure: tiny arrays fall through
        # to the butterfly; genuinely sparse ones to Theorem 4 (ORAM peel
        # on r blocks); the rest pay the thinning burst and phases plus
        # the oblivious Theorem 4 tail on the last 0.25·r cells.
        estimate=lambda n, m, params: (
            _C_COMPACT * n * (1.0 + _logm(n, m))
            if n < 32
            else (
                13.0 * n
                + _C_SPARSE_PEEL * max(1, _r_blocks(n, params)) ** 1.5
                if _r_blocks(n, params) < n / max(1.0, _log2(n)) ** 2
                else (
                    _C_LOGSTAR * n * _log_star(n)
                    + _C_SPARSE_PEEL
                    * max(1, -(-_r_blocks(n, params) // 4)) ** 1.5
                )
            )
        ),
        feasible=lambda n, m, params: 4 * _r_blocks(n, params) <= n,
    ),
    "join": IOBound(
        name="join",
        source="sort-merge equi-join over a tagged union (Theorem 21 ×2)",
        formula="c·(r·log_m r + u·log_m u) + O(u), u = k·n + r",
        # Sort the right relation (r blocks), tag it in one scan (2·r),
        # expand the left k-fold into the union (reads n, writes k·n),
        # sort the union of u = k·n + r blocks, then one match scan that
        # reads u and writes the padded output (≤ u blocks).  Both sorts
        # pay the Theorem 21 constant; the scans are exact.
        estimate=lambda n, m, params: (
            _C_SORT
            * (
                _rhs(n, params) * _logm(_rhs(n, params), m)
                + _union(n, params) * _logm(_union(n, params), m)
            )
            + 2.0 * _rhs(n, params)
            + (1.0 + int(params.get("fanout", 1))) * n
            + 4.0 * _union(n, params)
        ),
    ),
    "group_by": IOBound(
        name="group_by",
        source="Theorem 21 sort + two fixed-schedule scans",
        formula="c·n·log_m n + 4·n",
        # One oblivious sort groups equal keys into runs; a forward scan
        # (read+write) carries the running aggregate across chunk
        # boundaries, and a backward scan (read+write) keeps only each
        # run's last row.  Output stays padded at the public n blocks.
        estimate=lambda n, m, params: _C_SORT * n * _logm(n, m) + 4.0 * n,
    ),
    "group_by_scan": IOBound(
        name="group_by_scan",
        source="two fixed-schedule scans (sorted input)",
        formula="4·n",
        # Exact: the forward aggregate pass and the backward last-of-run
        # pass each read and write every block once.
        estimate=lambda n, m, params: 4.0 * n,
    ),
    "oram_read_batch": IOBound(
        name="oram_read_batch",
        source="square-root ORAM simulation (§1; Goldreich–Ostrovsky)",
        formula="c·n·log2²(n)·(1 + k/√n)",
        # Building the ORAM is one oblivious block sort of the store
        # (c·n·log² n); each of the k requests pays a shelter scan plus a
        # probe, with the epoch rebuild amortizing to ~√n·log² n.
        # Measured within ×2 at (n=256..4096 cells, k=8..64) for c = 3.
        estimate=lambda n, m, params: (
            3.0
            * n
            * _log2(n) ** 2
            * (1.0 + len(params.get("indices", ())) / math.sqrt(max(1, n)))
        ),
    ),
    "oram_read_batch_hier": IOBound(
        name="oram_read_batch_hier",
        source="hierarchical ORAM simulation (§1; Goldreich–Ostrovsky log²)",
        formula="build(n) + k·(probes(n) + amortized merge(n))",
        # Bigger build (sorts the 2n..4n-slot top level instead of n+√n
        # shelter slots) but polylog amortized accesses, so the backend
        # choice genuinely depends on the request count k: at n=128
        # blocks, m=16 the square-root backend measures 20.1k build +
        # 3.7k/access vs 39.8k + 2.3k here — the hierarchical variant
        # wins once k is large enough to amortize the build.
        estimate=lambda n, m, params: (
            _hier_build_ios(n, m)
            + len(params.get("indices", ())) * _hier_access_ios(n, m)
        ),
    ),
    "compact_sparse_hier": IOBound(
        name="compact_sparse_hier",
        source="Theorem 4 (IBLT + ORAM peel, hierarchical backend)",
        formula="13·n + c·r^1.5",
        estimate=lambda n, m, params: (
            13.0 * n + _C_HIER_PEEL * max(1, _r_blocks(n, params)) ** 1.5
        ),
        # Same sparse-regime hypothesis as compact_sparse.
        feasible=lambda n, m, params: (
            max(1, _r_blocks(n, params)) ** 1.5 <= n
        ),
    ),
    "select": IOBound(
        name="select",
        source="Theorem 13",
        formula="c·n",
        # Linear: O(1) scans plus compaction of an O(N/sqrt(N))-size
        # candidate band.
        estimate=lambda n, m, params: _C_SELECT * n,
    ),
    "quantiles": IOBound(
        name="quantiles",
        source="Theorem 17",
        formula="c·n",
        # Linear for q <= m^(1/4); the per-quantile refinement touches
        # only sub-linear candidate bands.
        estimate=lambda n, m, params: _C_QUANTILES * n,
    ),
    "sort": IOBound(
        name="sort",
        source="Theorem 21",
        formula="c·n·log_m n",
        # The optimal oblivious sort: per recursion level, quantiles +
        # consolidation + shuffle-and-deal + loose compaction are all
        # O(n); there are O(log_m n) levels.  The constant is large —
        # the paper's own constant-factor caveat.
        estimate=lambda n, m, params: _C_SORT * n * _logm(n, m),
    ),
    "stream_source": IOBound(
        name="stream_source",
        source="chunked upload (service layer; §1 client↔server model)",
        formula="0 block I/Os (c round trips of n/c records each)",
        # Uploads are setup affordances outside the block-I/O model —
        # identical for one-shot and chunked arrival.  What changes is
        # the *round-trip* count (c instead of 1) and the peak client
        # residency (one chunk instead of n records).
        estimate=lambda n, m, params: 0.0,
    ),
    "merge_sort": IOBound(
        name="merge_sort",
        source="Aggarwal–Vitter (baseline, not oblivious)",
        formula="2·n·(1 + log_m n)",
        estimate=lambda n, m, params: 2.0 * n * (1.0 + _logm(n, m)),
    ),
    "bitonic_sort": IOBound(
        name="bitonic_sort",
        source="Lemma 2 substrate",
        formula="c·n·log2²(n)",
        estimate=lambda n, m, params: 0.5 * n * _log2(n) ** 2,
    ),
}


def estimate_ios(
    cost_model: str, n_blocks: int, m: int, params: Mapping | None = None
) -> float:
    """Estimated block I/Os for ``cost_model`` on ``n_blocks`` input blocks.

    Raises ``KeyError`` for an unknown model — callers that tolerate
    unmodelled algorithms should check :data:`PAPER_BOUNDS` membership.
    """
    bound = PAPER_BOUNDS[cost_model]
    return float(bound.estimate(max(1, n_blocks), max(2, m), params or {}))
