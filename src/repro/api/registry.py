"""Algorithm registry: the dispatch table behind ``session.run(name, …)``.

Every entry is an :class:`AlgorithmSpec` wrapping one of the library's
algorithm kernels behind a uniform runner signature::

    runner(machine, A, n_items, rng, params) -> AlgorithmOutput

where ``A`` is the input :class:`~repro.em.storage.EMArray` the session
loaded, ``n_items`` the public count of real records, ``rng`` the
per-attempt generator the session derived from its seed, and ``params``
the caller's keyword arguments (runners must consume them all — unknown
parameters raise ``TypeError``).  The returned :class:`AlgorithmOutput`
names the output array (``None`` for value-only algorithms) and an
optional Python-level value; the session turns both into a
:class:`repro.api.Result`.

Beyond the runner, a spec *declares* the algorithm's algebraic
properties (obliviousness, output order, permutation invariance,
fusibility, interchangeable variants) so the plan optimizer
(:mod:`repro.api.optimizer`) can rewrite plans without per-algorithm
code.  Third-party algorithms can join the facade via :func:`register`;
specs with ``randomized=True`` get the session's Las Vegas retry
treatment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.baselines import bitonic_external_sort, external_merge_sort, sort_then_pick
from repro.core.compaction import (
    CompactionFailure,
    loose_compact,
    loose_compact_logstar,
    tight_compact,
    tight_compact_sparse,
)
from repro.core.consolidation import consolidate
from repro.core.quantiles import quantiles_em, quantiles_sorted_em
from repro.core.selection import select_em, select_sorted_em
from repro.core.shuffle import knuth_block_shuffle
from repro.core.sorting import oblivious_sort
from repro.em.batch import hold_scan, scan_chunks
from repro.em.block import NULL_KEY, empty_block, is_empty
from repro.em.machine import EMMachine
from repro.em.storage import EMArray
from repro.oram import make_oram
from repro.relational.groupby import group_by_em, group_by_sorted_em
from repro.relational.join import equi_join_em
from repro.util.mathx import ceil_div

__all__ = [
    "AlgorithmOutput",
    "AlgorithmSpec",
    "register",
    "unregister",
    "get",
    "names",
    "run_scan_stages",
    "occupied_capacity",
]


@dataclass
class AlgorithmOutput:
    """What a runner hands back to the session.

    ``array`` is the server array holding the output records (may be the
    input array itself for in-place algorithms, or ``None`` when the
    algorithm produces only ``value``).  The session extracts the
    non-empty records, frees the arrays, and builds the ``Result``.
    """

    array: EMArray | None = None
    value: Any = None


Runner = Callable[
    [EMMachine, EMArray, int, np.random.Generator, dict], AlgorithmOutput
]

#: A fusible scan's per-chunk transform: ``(blocks, params) -> blocks``
#: where ``blocks`` is a ``(k, B, 2)`` int64 stack.  Kernels must be pure
#: (no machine access — the generic scan runner owns the I/O) and
#: pointwise per record, so composing two kernels in one pass is exactly
#: equivalent to running them in two passes.
ScanKernel = Callable[[np.ndarray, dict], np.ndarray]

#: Valid ``output_order`` declarations.
_ORDERS = (None, "sorted", "random", "same")


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm.

    Beyond the runner itself, a spec *declares* how the algorithm behaves
    so that generic drivers — the session facade, the pipeline executor
    (:mod:`repro.api.executor`) and the plan optimizer
    (:mod:`repro.api.optimizer`) — can run and rewrite it without
    per-algorithm code:

    ``randomized``
        Las Vegas: the runner may raise a
        :class:`repro.errors.LasVegasFailure` and is retried with fresh
        derived randomness under the session's
        :class:`~repro.api.config.RetryPolicy`.
    ``output``
        ``"records"`` if the runner produces an output record array
        (chainable in a pipeline), ``"value"`` if it produces only a
        Python-level value (terminal in a pipeline).
    ``in_place``
        The output array *is* the input array (the runner permutes or
        rewrites it rather than allocating a fresh result).  This is a
        contract both ways: runners that mutate their input **must**
        declare ``in_place=True`` — the pipeline executor relies on
        non-in-place inputs staying pristine to restore a step cheaply
        on a Las Vegas retry, and only pays for an up-front shadow copy
        of the input when the spec declares mutation.
    ``cost_model``
        Key into :data:`repro.analysis.bounds.PAPER_BOUNDS` naming the
        paper bound that governs this algorithm's I/O cost; ``None``
        leaves ``explain()`` estimates unavailable for the step.
    ``oblivious``
        The adversary-visible transcript is a function of the public
        parameters ``(n, M, B, params, seed)`` only — never of data
        values.  ``False`` (e.g. ``merge_sort``) excludes the algorithm
        from the adversary-view test harness and makes it ineligible as
        an optimizer substitution target.
    ``output_order``
        Declared order of the output records: ``"sorted"`` (ascending by
        key; runs of equal keys in a deterministic but unspecified
        order), ``"random"`` (a *pure uniformly random permutation* of
        the input records — nothing but order changes), ``"same"`` (the
        input's record order is preserved), or ``None`` (deterministic
        but unspecified, e.g. loose compaction).  The optimizer drops
        ``"random"`` steps feeding only permutation-invariant consumers
        and elides ``"sorted"`` steps whose input is already sorted.
    ``permutation_invariant``
        The output (records or value) depends only on the *multiset* of
        input records, never on their order — e.g. sorting, selection,
        quantiles.  For keys with duplicates this holds at the record
        level up to the ``"sorted"`` tie caveat above.
    ``permutation_only``
        The output records are exactly the input records, reordered
        (nothing dropped, nothing rewritten) — true for shuffles and
        sorts, false for compaction (which repacks layouts) and scans.
    ``scan_kernel`` / ``scan_params``
        When set, the algorithm is a single full read+write pass whose
        per-chunk transform is ``scan_kernel`` (see :data:`ScanKernel`).
        The optimizer fuses adjacent such steps into one
        :meth:`~repro.em.machine.EMMachine.io_rounds` pass.
        ``scan_params`` names the parameters the kernel understands; a
        step whose params are not all declared is never fused, so it
        reaches the standalone runner's strict validation exactly as an
        unoptimized plan would.
    ``requires_input_order``
        The runner is only correct when its input satisfies this order
        (``"sorted"``); such specs are reachable only as optimizer
        variants (or by callers who know their data).
    ``variants``
        Names of registered algorithms that compute the same function
        (byte-identical output on distinct keys; identical record
        multiset otherwise) with different cost profiles.  The optimizer
        substitutes the cheapest *legal* variant by estimated I/O at the
        step's actual ``(n, M, B)``.
    ``null_tolerant``
        The runner is correct on layouts containing interior ``NULL``
        padding with ``n_items`` set to the *padded* total: NULL records
        pass through harmlessly (sorting first, compacting away, being
        shuffled or scanned as empties) and the non-NULL output is
        exactly the run over the real records alone.  Streamed sources
        (:meth:`repro.api.ObliviousSession.stream`) pad short chunks to
        the public chunk size to hide data-dependent arrival sizes, so
        only null-tolerant algorithms may consume a stream directly.
        Rank-semantics algorithms (selection, quantiles, ORAM reads)
        would count the padding and must declare ``False``.
    ``padded_output``
        The output layout may contain NULL padding whose real-record
        count is *data-dependent* (masking scans, joins, group-by).
        The executor hands such outputs downstream at their full public
        layout size instead of repacking to the surviving count — the
        selectivity-hiding contract — and the plan layer keeps the
        "padded" property sticky through every later step (nothing
        short of terminal client extraction sees the real count).
        Consequently only ``null_tolerant`` steps may consume a padded
        intermediate, mirroring the streamed-source rule.
    ``arity``
        Number of input relations (1, or 2 for joins).  Arity-2 steps
        receive the staged second input as ``params["_rhs"]`` /
        ``params["_rhs_n"]`` from the executor and are built via
        :meth:`repro.api.plan.Dataset.join`, never bare ``apply``.
    ``pad_aware``
        The runner accepts the executor-injected ``params["_padded"]``
        flag — a *public* fact of plan structure saying the input's real
        count may sit below the declared ``n_items`` (it is downstream
        of a ``padded_output`` step) — and conditions a fixed
        padding-repair pass on it (see ``oblivious_sort``'s padded
        mode).  Null-tolerance alone is not enough for rank-arithmetic
        steps like sorting: they tolerate NULL *holes*, but their pivot
        targets assume ``n_items`` is exact.
    """

    name: str
    summary: str
    runner: Runner
    randomized: bool = False
    output: str = "records"
    in_place: bool = False
    cost_model: str | None = None
    oblivious: bool = True
    output_order: str | None = None
    permutation_invariant: bool = False
    permutation_only: bool = False
    scan_kernel: ScanKernel | None = None
    scan_params: tuple[str, ...] = ()
    requires_input_order: str | None = None
    variants: tuple[str, ...] = ()
    null_tolerant: bool = False
    padded_output: bool = False
    arity: int = 1
    pad_aware: bool = False
    #: Optional output-size rule ``(n_items, params) -> int``; when absent
    #: the default is "record count preserved" (or 0 for value outputs).
    out_items: Callable[[int, dict], int] | None = None
    #: Machine-readable sanitizer declarations for the static linter
    #: (:mod:`repro.lint`): ``(name, justification)`` pairs naming
    #: runner-level quantities that are deliberately public (mirrors an
    #: in-source ``public(...)`` pragma, but lives on the spec so tools
    #: can enumerate every declassification per algorithm).  Every entry
    #: MUST carry a non-empty justification (checked by rule SPEC208).
    lint_public: tuple[tuple[str, str], ...] = ()
    #: The runner consumes derived randomness (``rng``) even though it
    #: is not Las Vegas (``randomized=False`` means "never fails /
    #: retried"; it does not have to mean "deterministic").  Lint rule
    #: SPEC204 treats RNG use in a non-randomized spec as a mismatch
    #: unless this flag documents it.
    draws_randomness: bool = False

    def __post_init__(self) -> None:
        if self.output not in ("records", "value"):
            raise ValueError(
                f"output must be 'records' or 'value', got {self.output!r}"
            )
        if self.arity not in (1, 2):
            raise ValueError(f"arity must be 1 or 2, got {self.arity!r}")
        if self.padded_output and self.output != "records":
            raise ValueError("padded_output only applies to record outputs")
        if self.output_order not in _ORDERS:
            raise ValueError(
                f"output_order must be one of {_ORDERS}, got {self.output_order!r}"
            )
        if self.requires_input_order not in (None, "sorted"):
            raise ValueError(
                "requires_input_order must be None or 'sorted', "
                f"got {self.requires_input_order!r}"
            )
        if self.scan_kernel is not None and self.output != "records":
            raise ValueError("fusible scans must produce records")

    def estimate_out_items(self, n_items: int, params: dict) -> int:
        """Estimated output record count for ``n_items`` input records.

        Specs with an ``out_items`` rule (e.g. ``oram_read_batch``, whose
        output size is the request length) use it; all other algorithms
        preserve the record count (or produce only a value).
        ``plan.explain()`` uses this to propagate sizes through a chain
        without executing.  Masking scans may *reduce* the real count
        below this estimate — the executor always uses the measured
        occupancy at run time, so this only affects pre-execution
        estimates."""
        if self.out_items is not None:
            return int(self.out_items(n_items, params))
        return 0 if self.output == "value" else n_items


_REGISTRY: dict[str, AlgorithmSpec] = {}


def register(spec: AlgorithmSpec, *, replace: bool = False) -> AlgorithmSpec:
    """Add ``spec`` to the registry (``replace=True`` to overwrite)."""
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"algorithm {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove an algorithm (no-op if absent) — mainly for tests."""
    _REGISTRY.pop(name, None)


def get(name: str) -> AlgorithmSpec:
    """Look up an algorithm by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; registered: {', '.join(names())}"
        ) from None


def names() -> list[str]:
    """Registered algorithm names, sorted."""
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# Parameter plumbing
# ---------------------------------------------------------------------------


def _done(name: str, params: dict) -> None:
    if params:
        raise TypeError(
            f"algorithm {name!r} got unexpected parameters: "
            f"{', '.join(sorted(params))}"
        )


def occupied_capacity(n_items: int, blocks: int, B: int) -> int:
    """Public occupied-block capacity ``r`` for ``n_items`` records in a
    ``blocks``-long layout: full blocks plus the partial block
    consolidation may leave at the end (the same ``+1`` the selection
    kernels use).  Shared by the compaction runners (their actual
    capacity) and the optimizer's feasibility/pricing (its estimated
    ``r``) so the two can never drift apart."""
    return min(blocks, ceil_div(max(1, n_items), B) + 1)


def _compact_capacity(machine: EMMachine, cons_blocks: int, n_items: int) -> int:
    return occupied_capacity(n_items, cons_blocks, machine.B)


# ---------------------------------------------------------------------------
# Generic scan runner (the substrate the optimizer's fusion rule uses)
# ---------------------------------------------------------------------------


def run_scan_stages(
    machine: EMMachine,
    A: EMArray,
    stages: list[tuple[ScanKernel, dict]],
    name: str = "scan",
) -> EMArray:
    """One full read+write pass applying ``stages``' kernels in order.

    The trace is a fixed function of ``A``'s length — one read stream and
    one write stream over every block — regardless of how many kernels
    are composed, which is exactly why fusing adjacent scans halves their
    I/O without changing their outputs."""
    out = machine.alloc(A.num_blocks, f"{A.name}.{name}")
    for lo, hi in scan_chunks(machine, A.num_blocks, streams=2):
        with hold_scan(machine, 2, hi - lo):

            def transformed(reads):
                blocks = reads[0]
                for kernel, kparams in stages:
                    blocks = kernel(blocks, kparams)
                return blocks

            machine.io_rounds(
                [("r", A, (lo, hi)), ("w", out, (lo, hi), transformed)]
            )
    return out


def _mask_kernel(blocks: np.ndarray, params: dict) -> np.ndarray:
    lo, hi = params.get("lo"), params.get("hi")
    keys = blocks[..., 0]
    keep = ~is_empty(blocks)
    if lo is not None:
        keep &= keys >= lo
    if hi is not None:
        keep &= keys <= hi
    new = blocks.copy()
    new[..., 0] = np.where(keep, new[..., 0], NULL_KEY)
    new[..., 1] = np.where(keep, new[..., 1], 0)
    return new


def _scale_values_kernel(blocks: np.ndarray, params: dict) -> np.ndarray:
    mul, add = params.get("mul", 1), params.get("add", 0)
    real = ~is_empty(blocks)
    new = blocks.copy()
    new[..., 1] = np.where(real, new[..., 1] * mul + add, new[..., 1])
    return new


def _run_mask(machine, A, n_items, rng, params) -> AlgorithmOutput:
    """Oblivious filter scan: records with key outside ``[lo, hi]`` become
    ``NULL``.

    One fixed read+write pass, layout preserved: the surviving count is
    detectable only under the encryption.  The spec declares
    ``padded_output=True``, so composition keeps it that way — every
    downstream step is sized by the *public layout bound* rather than
    the surviving count (the executor hands the full padded layout
    onward; only null-tolerant steps may consume it).  This mirrors the
    paper's marking scans, whose private counts are re-hidden by
    compacting to a public capacity bound.  The adversary-view tests in
    ``tests/test_obliviousness.py`` pin the contract:
    ``test_mask_selectivity_is_public_when_composed`` asserts a
    mask→sort chain's transcript is bitwise-invariant across inputs
    with different surviving counts.
    """
    kparams = {"lo": params.pop("lo", None), "hi": params.pop("hi", None)}
    _done("mask", params)
    return AlgorithmOutput(
        array=run_scan_stages(machine, A, [(_mask_kernel, kparams)], "mask")
    )


def _run_scale_values(machine, A, n_items, rng, params) -> AlgorithmOutput:
    kparams = {"mul": params.pop("mul", 1), "add": params.pop("add", 0)}
    _done("scale_values", params)
    return AlgorithmOutput(
        array=run_scan_stages(
            machine, A, [(_scale_values_kernel, kparams)], "scale"
        )
    )


# ---------------------------------------------------------------------------
# Relational runners (kernels in repro.relational)
# ---------------------------------------------------------------------------


def _run_join(machine, A, n_items, rng, params) -> AlgorithmOutput:
    """Oblivious equi-join with the staged right-hand relation.

    ``_rhs``/``_rhs_n`` are injected by the pipeline executor (the step
    is arity-2; see :meth:`repro.api.plan.Dataset.join`).  ``fanout`` is
    the *public* bound on matches per key on the right; ``combine``
    names how matched values merge (see
    :data:`repro.relational.join.COMBINES`).  Output is padded to the
    public bound ``n*fanout + rhs_n`` — match counts stay hidden.
    """
    rhs = params.pop("_rhs")
    rhs_n = params.pop("_rhs_n")
    padded = params.pop("_padded", False)
    fanout = params.pop("fanout", 1)
    combine = params.pop("combine", "sum")
    _done("join", params)
    return AlgorithmOutput(
        array=equi_join_em(
            machine,
            A,
            n_items,
            rhs,
            rhs_n,
            rng,
            fanout=fanout,
            combine=combine,
            padded=padded,
        )
    )


def _run_group_by(machine, A, n_items, rng, params) -> AlgorithmOutput:
    agg = params.pop("agg", "sum")
    padded = params.pop("_padded", False)
    _done("group_by", params)
    return AlgorithmOutput(
        array=group_by_em(machine, A, n_items, rng, agg=agg, padded=padded)
    )


def _run_group_by_sorted(machine, A, n_items, rng, params) -> AlgorithmOutput:
    agg = params.pop("agg", "sum")
    _done("group_by_sorted", params)
    return AlgorithmOutput(array=group_by_sorted_em(machine, A, n_items, agg=agg))


# ---------------------------------------------------------------------------
# Built-in entries
# ---------------------------------------------------------------------------


def _run_sort(machine, A, n_items, rng, params) -> AlgorithmOutput:
    padded = params.pop("_padded", False)
    _done("sort", params)
    # retries=1: the session's RetryPolicy owns the Las Vegas budget.
    return AlgorithmOutput(
        array=oblivious_sort(machine, A, n_items, rng, retries=1, padded=padded)
    )


def _run_merge_sort(machine, A, n_items, rng, params) -> AlgorithmOutput:
    _done("merge_sort", params)
    return AlgorithmOutput(array=external_merge_sort(machine, A))


def _run_bitonic_sort(machine, A, n_items, rng, params) -> AlgorithmOutput:
    _done("bitonic_sort", params)
    return AlgorithmOutput(array=bitonic_external_sort(machine, A))


def _run_compact(machine, A, n_items, rng, params) -> AlgorithmOutput:
    capacity_blocks = params.pop("capacity_blocks", None)
    _done("compact", params)
    cons = consolidate(machine, A)
    try:
        out = tight_compact(machine, cons.array, capacity_blocks)
    except CompactionFailure as exc:
        # This pipeline is deterministic: overflowing capacity_blocks
        # means the caller's bound is simply wrong, and retrying with
        # fresh randomness (the Las Vegas contract of
        # CompactionFailure) cannot help.  Surface a plain contract
        # error instead so the session does not burn retries on it.
        machine.free(cons.array)
        raise ValueError(str(exc)) from exc
    if out is not cons.array:
        machine.free(cons.array)
    return AlgorithmOutput(array=out)


def _compact_sparse(machine, A, n_items, rng, params, name, backend):
    capacity_blocks = params.pop("capacity_blocks", None)
    _done(name, params)
    cons = consolidate(machine, A)
    r = (
        capacity_blocks
        if capacity_blocks is not None
        else _compact_capacity(machine, cons.array.num_blocks, n_items)
    )
    out = tight_compact_sparse(machine, cons.array, r, rng, oram_backend=backend)
    if out is not cons.array:
        machine.free(cons.array)
    return AlgorithmOutput(array=out)


def _run_compact_sparse(machine, A, n_items, rng, params) -> AlgorithmOutput:
    return _compact_sparse(
        machine, A, n_items, rng, params, "compact_sparse", "square_root"
    )


def _run_compact_sparse_hier(machine, A, n_items, rng, params) -> AlgorithmOutput:
    return _compact_sparse(
        machine, A, n_items, rng, params, "compact_sparse_hier", "hierarchical"
    )


def _run_compact_loose(machine, A, n_items, rng, params) -> AlgorithmOutput:
    capacity_blocks = params.pop("capacity_blocks", None)
    _done("compact_loose", params)
    cons = consolidate(machine, A)
    r = (
        capacity_blocks
        if capacity_blocks is not None
        else _compact_capacity(machine, cons.array.num_blocks, n_items)
    )
    out = loose_compact(machine, cons.array, r, rng)
    if out is not cons.array:
        machine.free(cons.array)
    return AlgorithmOutput(array=out)


def _run_compact_logstar(machine, A, n_items, rng, params) -> AlgorithmOutput:
    capacity_blocks = params.pop("capacity_blocks", None)
    tower_base = params.pop("tower_base", 4)
    _done("compact_logstar", params)
    cons = consolidate(machine, A)
    r = (
        capacity_blocks
        if capacity_blocks is not None
        else _compact_capacity(machine, cons.array.num_blocks, n_items)
    )
    # oblivious_list=True: every sparse-compaction subroutine peels
    # through the ORAM simulation, keeping the whole path data-oblivious
    # (the registry contract — direct callers may opt out for speed).
    out = loose_compact_logstar(
        machine, cons.array, r, rng, tower_base=tower_base, oblivious_list=True
    )
    if out is not cons.array:
        machine.free(cons.array)
    return AlgorithmOutput(array=out)


def _run_select(machine, A, n_items, rng, params) -> AlgorithmOutput:
    k = params.pop("k")
    _done("select", params)
    key, value = select_em(machine, A, n_items, k, rng)
    return AlgorithmOutput(value=(key, value))


def _run_select_sorted(machine, A, n_items, rng, params) -> AlgorithmOutput:
    k = params.pop("k")
    _done("select_sorted", params)
    return AlgorithmOutput(value=select_sorted_em(machine, A, n_items, k))


def _run_sort_then_pick(machine, A, n_items, rng, params) -> AlgorithmOutput:
    k = params.pop("k")
    _done("sort_then_pick", params)
    return AlgorithmOutput(value=sort_then_pick(machine, A, n_items, k))


def _run_quantiles(machine, A, n_items, rng, params) -> AlgorithmOutput:
    q = params.pop("q")
    _done("quantiles", params)
    keys = quantiles_em(machine, A, n_items, q, rng)
    return AlgorithmOutput(value=keys)


def _run_quantiles_sorted(machine, A, n_items, rng, params) -> AlgorithmOutput:
    q = params.pop("q")
    _done("quantiles_sorted", params)
    return AlgorithmOutput(value=quantiles_sorted_em(machine, A, n_items, q))


def _run_shuffle(machine, A, n_items, rng, params) -> AlgorithmOutput:
    _done("shuffle", params)
    knuth_block_shuffle(machine, A, rng)
    return AlgorithmOutput(array=A)


def _oram_read_batch(machine, A, n_items, rng, params, name, backend):
    """Fetch records by rank through an ORAM backend.

    The requested *positions* stay hidden in the ORAM's standard
    (distributional) sense: probe positions are pseudorandom tags never
    reused within an epoch (square-root) or a level lifetime
    (hierarchical), so a server observing the run learns ``len(indices)``
    (the output size — sizes are public per step, as everywhere in this
    library) but cannot distinguish which ranks were read (see the
    obliviousness discussion in :mod:`repro.oram.square_root` and
    :mod:`repro.oram.hierarchical`).  Output records appear in request
    order; duplicate ranks are allowed.
    """
    indices = params.pop("indices")
    _done(name, params)
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size == 0:
        raise ValueError(f"{name} needs at least one index")
    if bool(np.any((idx < 0) | (idx >= max(1, n_items)))):
        raise IndexError(
            f"{name} ranks must lie in [0, {n_items}), got "
            f"[{int(idx.min())}, {int(idx.max())}]"
        )
    B = machine.B
    oram = make_oram(
        backend, machine, A.num_blocks, rng, initial=A, name=f"{A.name}.oram"
    )
    out = machine.alloc_cells(len(idx), f"{A.name}.reads")
    # One ORAM access per request; output blocks flush on a fixed schedule
    # (every B requests, plus one final partial block).
    with machine.cache.hold(2):
        buf = empty_block(B)
        filled = 0
        out_block = 0
        for rank in idx:
            blk = oram.read(int(rank) // B)
            buf[filled] = blk[int(rank) % B]
            filled += 1
            if filled == B:
                machine.write(out, out_block, buf)
                out_block += 1
                filled = 0
                buf = empty_block(B)
        if filled:
            machine.write(out, out_block, buf)
    oram.free()
    return AlgorithmOutput(array=out)


def _run_oram_read_batch(machine, A, n_items, rng, params) -> AlgorithmOutput:
    return _oram_read_batch(
        machine, A, n_items, rng, params, "oram_read_batch", "square_root"
    )


def _run_oram_read_batch_hier(machine, A, n_items, rng, params) -> AlgorithmOutput:
    return _oram_read_batch(
        machine, A, n_items, rng, params, "oram_read_batch_hier", "hierarchical"
    )


register(AlgorithmSpec(
    "sort",
    "Theorem 21 oblivious external-memory sort",
    _run_sort,
    randomized=True,
    cost_model="sort",
    output_order="sorted",
    permutation_invariant=True,
    permutation_only=True,
    variants=("sort", "bitonic_sort"),
    null_tolerant=True,
    pad_aware=True,
))
register(AlgorithmSpec(
    "merge_sort",
    "classical external merge sort (optimal, NOT oblivious)",
    _run_merge_sort,
    cost_model="merge_sort",
    oblivious=False,
    output_order="sorted",
    permutation_invariant=True,
    permutation_only=True,
    null_tolerant=True,
))
register(AlgorithmSpec(
    "bitonic_sort",
    "oblivious bitonic strawman sort (Lemma 2 substrate)",
    _run_bitonic_sort,
    cost_model="bitonic_sort",
    output_order="sorted",
    permutation_invariant=True,
    permutation_only=True,
    variants=("bitonic_sort", "sort"),
    null_tolerant=True,
))
register(AlgorithmSpec(
    "compact",
    "record-level tight compaction (Lemma 3 + Theorem 6)",
    _run_compact,
    cost_model="compact",
    output_order="same",
    variants=("compact", "compact_sparse", "compact_sparse_hier",
              "compact_loose", "compact_logstar"),
    null_tolerant=True,
    lint_public=(
        ("capacity_blocks", "caller-declared output bound; part of the "
         "public query plan, so acting on it reveals nothing"),
    ),
))
register(AlgorithmSpec(
    "compact_sparse",
    "tight compaction via data-oblivious IBLT + ORAM peel (Theorem 4)",
    _run_compact_sparse,
    randomized=True,
    cost_model="compact_sparse",
    output_order="same",
    variants=("compact_sparse", "compact_sparse_hier", "compact"),
    null_tolerant=True,
))
register(AlgorithmSpec(
    "compact_sparse_hier",
    "Theorem-4 tight compaction, peel simulated on the hierarchical ORAM",
    _run_compact_sparse_hier,
    randomized=True,
    cost_model="compact_sparse_hier",
    output_order="same",
    variants=("compact_sparse_hier", "compact_sparse", "compact"),
    null_tolerant=True,
))
register(AlgorithmSpec(
    "compact_loose",
    "loose compaction: thinning + region halving, output 5R (Theorem 8)",
    _run_compact_loose,
    randomized=True,
    cost_model="compact_loose",
    output_order=None,
    null_tolerant=True,
))
register(AlgorithmSpec(
    "compact_logstar",
    "loose compaction, tower-of-twos phases, output 4.25R (Theorem 9)",
    _run_compact_logstar,
    randomized=True,
    cost_model="compact_logstar",
    output_order=None,
    # Tight compactors may stand in (their "same"-order contract is
    # strictly stronger, so the optimizer's order fence applies): the
    # record multiset is identical and, at genuinely sparse shapes, the
    # recalibrated Theorem-4 path now often prices below the phases.
    variants=("compact_logstar", "compact", "compact_sparse",
              "compact_sparse_hier"),
    null_tolerant=True,
))
register(AlgorithmSpec(
    "select",
    "Theorem 13 k-th smallest selection",
    _run_select,
    randomized=True,
    output="value",
    cost_model="select",
    permutation_invariant=True,
    variants=("select", "select_sorted"),
))
register(AlgorithmSpec(
    "select_sorted",
    "k-th smallest of an already-sorted array: one ranked scan",
    _run_select_sorted,
    output="value",
    cost_model="ranked_scan",
    requires_input_order="sorted",
))
register(AlgorithmSpec(
    "sort_then_pick",
    "selection baseline: oblivious sort, then scan to rank k",
    _run_sort_then_pick,
    output="value",
    cost_model="sort_then_pick",
    permutation_invariant=True,
    variants=("sort_then_pick", "select_sorted"),
))
register(AlgorithmSpec(
    "quantiles",
    "Theorem 17 q-quantile selection",
    _run_quantiles,
    randomized=True,
    output="value",
    cost_model="quantiles",
    permutation_invariant=True,
    variants=("quantiles", "quantiles_sorted"),
))
register(AlgorithmSpec(
    "quantiles_sorted",
    "q quantiles of an already-sorted array: one ranked scan",
    _run_quantiles_sorted,
    output="value",
    cost_model="ranked_scan",
    requires_input_order="sorted",
))
register(AlgorithmSpec(
    "shuffle",
    "Knuth block shuffle (uniform block permutation, in place)",
    _run_shuffle,
    randomized=True,
    in_place=True,
    cost_model="shuffle",
    output_order="random",
    permutation_only=True,
    null_tolerant=True,
))
register(AlgorithmSpec(
    "oram_read_batch",
    "batched oblivious reads: fetch records by rank via square-root ORAM",
    _run_oram_read_batch,
    cost_model="oram_read_batch",
    output_order=None,
    out_items=lambda n_items, params: len(params.get("indices", ())),
    # The two backends compute the same function with different cost
    # shapes (sqrt(n) vs polylog amortized); the optimizer picks the
    # registered name, and so the backend, per (n, M, B, request length).
    variants=("oram_read_batch", "oram_read_batch_hier"),
    # PRF tag keys come from the session RNG; the batch itself never
    # fails, so this is not a Las Vegas algorithm.
    draws_randomness=True,
))
register(AlgorithmSpec(
    "oram_read_batch_hier",
    "batched oblivious reads: fetch records by rank via hierarchical ORAM",
    _run_oram_read_batch_hier,
    cost_model="oram_read_batch_hier",
    output_order=None,
    out_items=lambda n_items, params: len(params.get("indices", ())),
    variants=("oram_read_batch_hier", "oram_read_batch"),
    draws_randomness=True,  # PRF tag keys, as for oram_read_batch
))
register(AlgorithmSpec(
    "mask",
    "oblivious filter scan: NULL records with key outside [lo, hi]",
    _run_mask,
    cost_model="scan",
    output_order="same",
    scan_kernel=_mask_kernel,
    scan_params=("lo", "hi"),
    null_tolerant=True,
    padded_output=True,
))
register(AlgorithmSpec(
    "join",
    "oblivious equi-join: sort-merge over the tagged two-relation union",
    _run_join,
    randomized=True,
    cost_model="join",
    output_order="sorted",
    permutation_invariant=True,
    null_tolerant=True,
    padded_output=True,
    pad_aware=True,
    arity=2,
    out_items=lambda n_items, params: (
        n_items * int(params.get("fanout", 1))
        + int(params.get("_rhs_n_items", 0))
    ),
))
register(AlgorithmSpec(
    "group_by",
    "oblivious group-by-aggregate: sort by key + segmented fixed scans",
    _run_group_by,
    randomized=True,
    cost_model="group_by",
    output_order="sorted",
    permutation_invariant=True,
    variants=("group_by", "group_by_sorted"),
    null_tolerant=True,
    padded_output=True,
    pad_aware=True,
))
register(AlgorithmSpec(
    "group_by_sorted",
    "group-by-aggregate of an already key-ordered layout: two scans",
    _run_group_by_sorted,
    cost_model="group_by_scan",
    output_order="sorted",
    requires_input_order="sorted",
    null_tolerant=True,
    padded_output=True,
))
register(AlgorithmSpec(
    "scale_values",
    "oblivious map scan: values become value*mul + add",
    _run_scale_values,
    cost_model="scan",
    output_order="same",
    scan_kernel=_scale_values_kernel,
    scan_params=("mul", "add"),
    null_tolerant=True,
))
