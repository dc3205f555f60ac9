"""Cost-based plan optimizer: rule-based, cost-gated DAG rewriting.

Runs over the immutable :class:`~repro.api.plan.PlanNode` DAG *before*
execution and emits an :class:`OptimizedPlan` — an execution schedule the
:class:`~repro.api.executor.Executor` consumes.  Four rule families, each
justified by a declared algebraic property on the
:class:`~repro.api.registry.AlgorithmSpec` (never by per-algorithm code):

1. **Drop redundant shuffles** (``drop-shuffle``): a pure random
   permutation (``output_order="random"``, ``permutation_only``) whose
   consumers are all permutation-invariant — or are themselves dropped
   shuffles — contributes nothing to any output: a shuffle feeding a
   sort is pure waste, since the oblivious sort's transcript is already
   data-independent.  Cascades, so ``shuffle().shuffle().sort()`` loses
   both shuffles.  Under ``optimize="aggressive"`` a shuffle feeding
   only *other* pure random permutations is also dropped
   (distribution-preserving: the composition of two uniform
   permutations is one uniform permutation — the surviving shuffle's
   exact output bytes change, its distribution does not).
2. **Elide sorts of sorted inputs** (``elide-sorted``): a
   ``permutation_only`` step declaring ``output_order="sorted"`` whose
   effective input order is already ``"sorted"`` is an identity.
   Order propagates through ``output_order="same"`` steps and through
   dropped/elided ones.
3. **Variant substitution** (``variant``): when a spec declares
   ``variants`` — interchangeable algorithms computing the same
   function — the optimizer prices each legal candidate with
   :data:`repro.analysis.bounds.PAPER_BOUNDS` at the step's actual
   ``(n, M, B)`` and occupied-block capacity ``r``, and substitutes the
   cheapest one that clears the gain threshold.  Legality: the variant
   must be oblivious, produce the same output kind, have its
   ``requires_input_order`` met (this is how ``quantiles`` becomes a
   single deterministic ranked scan after a sort), respect feasibility
   predicates of its bound (density / wide-block assumptions — this is
   how ``compact`` picks loose, sparse-IBLT, or log* paths only where
   the paper's hypotheses hold), and — if it weakens the output-order
   contract, like loose compaction — feed only permutation-invariant
   consumers and no step whose elision relied on that order.  Padded
   inputs (downstream of mask/join/group_by, or a direct stream) fence
   substitution off entirely: a padded layout hands its exact geometry
   downstream, which variants do not promise to reproduce.
4. **Fuse adjacent scans** (``fuse-scans``): a run of
   ``scan_kernel`` steps, each the sole consumer of its predecessor,
   collapses into one :func:`~repro.api.registry.run_scan_stages` pass
   applying the composed kernels — one read+write sweep instead of one
   per step.

Rules apply greedily in the order above; every firing is recorded as a
:class:`Rewrite` with before/after estimated I/O so
``plan.explain(optimize=True)`` can show its work.

**Equivalence contract.**  With the default rule set the optimized
plan's outputs are byte-identical to the unoptimized plan's (for
distinct keys; with duplicate keys, identical up to the documented
``"sorted"`` tie caveat), and steps the optimizer did not rewrite keep
their exact per-step adversary transcript up to array-id renaming
(``CostReport.trace_canonical``): a step's randomness is derived from
its *original* call slot, which elision and dropping leave untouched.
One caveat on the transcript half: a *randomized* step downstream of a
dropped shuffle samples a differently-ordered input, so with
negligible (Las Vegas tail) probability its attempt count — and hence
its transcript — can differ from the verbatim run's; its output and
every deterministic step's transcript are unaffected.
``tests/test_optimizer.py`` asserts these properties over random DAGs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.analysis.bounds import PAPER_BOUNDS
from repro.api.registry import (
    AlgorithmOutput,
    AlgorithmSpec,
    get as get_spec,
    occupied_capacity,
    run_scan_stages,
)
from repro.util.mathx import ceil_div

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.plan import Plan, PlanNode

__all__ = [
    "ExecStep",
    "Rewrite",
    "OptimizedPlan",
    "identity_schedule",
    "optimize_plan",
    "validate_optimize",
]


def validate_optimize(value: bool | str) -> bool | str:
    """Check an ``optimize`` flag: ``False``, ``True`` or ``"aggressive"``.

    Any other value — in particular a misspelled mode string, which
    would otherwise silently behave as plain ``True`` — raises."""
    if value is False or value is True or value == "aggressive":
        return value
    raise ValueError(
        f"optimize must be False, True, or 'aggressive', got {value!r}"
    )

#: Default cost gate: a variant must beat the incumbent's estimate by at
#: least this fraction to be substituted (guards against model noise
#: flapping between near-equal variants).
MIN_GAIN = 0.05


@dataclass(frozen=True)
class ExecStep:
    """One executable step of a (possibly rewritten) plan.

    ``spec`` may be a registry entry, a substituted variant, or a
    synthesized fused-scan spec; the executor runs all three through the
    same staging / Las Vegas retry / seed-derivation path.  ``slot`` is
    the step's first *original* call slot — randomness is derived from
    ``session_calls_at_start + slot``, so surviving steps draw exactly
    the randomness they would have drawn in the unoptimized plan.
    """

    spec: AlgorithmSpec
    params: Mapping[str, Any]
    input_id: int  #: id() of the effective producer PlanNode
    out_id: int  #: id() of the original PlanNode whose output this produces
    slot: int  #: first original call slot covered
    slot_end: int  #: last original call slot covered (> slot when fused)
    covers: tuple[str, ...]  #: original op names this step realizes
    note: str | None  #: human-readable rewrite annotation (None: untouched)
    n_items: int  #: estimated input record count
    blocks: int  #: estimated input layout size in blocks
    r_blocks: int  #: public occupied-block capacity at this step
    est_ios: float | None  #: analytical block-I/O estimate (None: no model)
    #: id() of the effective right-hand producer node for arity-2 steps
    #: (joins); ``None`` for ordinary single-input steps.
    rhs_id: int | None = None

    @property
    def rewritten(self) -> bool:
        return self.note is not None


@dataclass(frozen=True)
class Rewrite:
    """One optimizer rule firing, with its estimated I/O effect."""

    rule: str  #: drop-shuffle | elide-sorted | variant | fuse-scans
    description: str
    before_ios: float | None
    after_ios: float | None

    @property
    def saved_ios(self) -> float:
        return (self.before_ios or 0.0) - (self.after_ios or 0.0)

    def __str__(self) -> str:
        if self.before_ios is None:
            return f"{self.rule:>13}  {self.description}"
        return (
            f"{self.rule:>13}  {self.description}  "
            f"[est {self.before_ios:.0f} → {self.after_ios or 0:.0f} I/Os]"
        )


@dataclass(frozen=True)
class OptimizedPlan:
    """A plan's execution schedule, optimized or verbatim.

    ``consumers`` counts, per effective producer node id, the schedule
    steps that will stage its output; ``extracts`` counts, per effective
    node id, how many terminal record outputs it must serve (normally 1;
    more when several elided terminals alias one producer — each still
    pays its own server→client download, so round-trip accounting
    matches the verbatim plan, though the duplicates share one
    records-bearing ``StepResult``).
    ``total_slots`` is the original plan's algorithm node count — the
    executor advances the session's call counter by this much regardless
    of how many steps survived, so downstream calls derive the same
    randomness either way.
    """

    schedule: tuple[ExecStep, ...]
    consumers: Mapping[int, int]
    extracts: Mapping[int, int]
    rewrites: tuple[Rewrite, ...]
    total_slots: int
    optimized: bool

    @property
    def total_est_ios(self) -> float:
        """Sum of the per-step estimates (unmodelled steps contribute 0)."""
        return sum(s.est_ios or 0.0 for s in self.schedule)


def identity_schedule(plan: "Plan") -> OptimizedPlan:
    """The verbatim schedule: every algorithm node, in plan order."""
    return _build(plan, aggressive=False, optimize=False)


def optimize_plan(
    plan: "Plan", *, aggressive: bool = False, min_gain: float = MIN_GAIN
) -> OptimizedPlan:
    """Rewrite ``plan`` under the rules above and return its schedule.

    ``aggressive=True`` additionally enables distribution-preserving
    rewrites whose outputs are *not* byte-identical (currently:
    dropping a shuffle that feeds only other shuffles)."""
    return _build(plan, aggressive=aggressive, optimize=True, min_gain=min_gain)


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------


def _model_est(
    spec: AlgorithmSpec,
    blocks: int,
    m: int,
    params: Mapping,
    r_blocks: int,
    n_items: int,
) -> float | None:
    """Estimated I/Os for ``spec`` at this shape, or ``None`` when the
    spec has no model or its bound's feasibility predicate fails."""
    if spec.cost_model is None or spec.cost_model not in PAPER_BOUNDS:
        return None
    bound = PAPER_BOUNDS[spec.cost_model]
    p = dict(params)
    p["_r_blocks"] = r_blocks
    p["_n_items"] = n_items
    n = max(1, blocks)
    if bound.feasible is not None and not bound.feasible(n, m, p):
        return None
    return float(bound.estimate(n, m, p))


def _est_params(node: "PlanNode", n_of: dict, layout_of: dict) -> dict:
    """A node's params augmented, for arity-2 steps, with the estimated
    right-hand size (``_rhs_n_items``/``_rhs_blocks``) — consumed by
    ``out_items`` rules and the ``join`` cost bound, never by runners
    (the executor passes the clean ``step.params`` plus staged arrays).
    """
    p = dict(node.params)
    if len(node.inputs) > 1:
        rhs = node.inputs[1]
        p["_rhs_n_items"] = n_of[id(rhs)]
        p["_rhs_blocks"] = layout_of[id(rhs)]
    return p


def _effective_order(spec: AlgorithmSpec, in_order: str | None) -> str | None:
    if spec.output_order == "same":
        return in_order
    if spec.output_order in ("sorted", "random"):
        return spec.output_order
    return None


def _fused_spec(members: list[tuple[AlgorithmSpec, dict]]) -> AlgorithmSpec:
    """Synthesize a one-pass spec applying the members' kernels in order."""
    stages = [(spec.scan_kernel, dict(params)) for spec, params in members]
    name = "+".join(spec.name for spec, _ in members)

    def runner(machine, A, n_items, rng, params) -> AlgorithmOutput:
        return AlgorithmOutput(array=run_scan_stages(machine, A, stages, "fused"))

    return AlgorithmSpec(
        name,
        f"fused scan pass ({name})",
        runner,
        output="records",
        cost_model="scan",
        output_order="same",
        # The fused pass inherits the members' data contracts: it
        # tolerates NULL padding only if every member does, and its
        # output is padded if any member's is (a fused mask must not
        # reopen the selectivity leak its standalone spec closes).
        null_tolerant=all(spec.null_tolerant for spec, _ in members),
        padded_output=any(spec.padded_output for spec, _ in members),
    )


def _build(
    plan: "Plan",
    *,
    aggressive: bool,
    optimize: bool,
    min_gain: float = MIN_GAIN,
) -> OptimizedPlan:
    B = plan.session.config.B
    m = max(2, plan.session.config.M // B)
    nodes = plan.nodes
    algo_nodes = [n for n in nodes if not n.is_source]
    slot_of = {id(n): i for i, n in enumerate(algo_nodes)}
    cons_orig = plan.consumers  # id -> list[PlanNode]

    # -- size propagation (estimates; the executor measures at run time) --
    n_of: dict[int, int] = {}
    layout_of: dict[int, int] = {}
    padded_of: dict[int, bool] = {}  # sticky data-dependent NULL padding
    for node in nodes:
        if node.is_source:
            n_of[id(node)] = node.n_items
            # Streamed sources have NULL *holes* (short chunks pad to the
            # block grid) but an exact n — not padded in the sticky
            # sense; `_holey` below adds them for the variant fence.
            padded_of[id(node)] = False
            if node.stream is not None:
                # Streamed source: the server array is provisioned for
                # the public schedule total (n_items *is* that total).
                layout_of[id(node)] = ceil_div(max(1, node.n_items), B)
            elif node.records is not None:
                layout_of[id(node)] = ceil_div(max(1, len(node.records)), B)
            else:
                layout_of[id(node)] = max(1, node.resident.num_blocks)
        else:
            spec = get_spec(node.op)
            n_out = spec.estimate_out_items(
                n_of[id(node.inputs[0])], _est_params(node, n_of, layout_of)
            )
            n_of[id(node)] = n_out
            layout_of[id(node)] = ceil_div(max(1, n_out), B)
            padded_of[id(node)] = spec.padded_output or any(
                padded_of[id(p)] for p in node.inputs
            )

    def sizes_at(input_node: "PlanNode") -> tuple[int, int, int]:
        """(n_items, layout blocks, occupied-block capacity r) of a step
        whose effective input is ``input_node`` — ``r`` via the same
        helper the compaction runners use, so feasibility gating and
        execution can never disagree on the capacity formula."""
        n_in = n_of[id(input_node)]
        blocks = layout_of[id(input_node)]
        return n_in, blocks, occupied_capacity(n_in, blocks, B)

    rewrites: list[Rewrite] = []
    dropped: set[int] = set()
    elided: set[int] = set()
    subst: dict[int, AlgorithmSpec] = {}
    pinned: set[int] = set()  # nodes whose output order downstream relies on

    def resolve(node: "PlanNode") -> "PlanNode":
        while not node.is_source and (id(node) in dropped or id(node) in elided):
            node = node.inputs[0]
        return node

    def holey_inputs(node: "PlanNode") -> bool:
        """Any effective input padded (downstream of mask/join/group_by)
        or a stream feeding the step directly after drops/elisions."""
        return any(
            padded_of[id(p)]
            or ((rp := resolve(p)).is_source and rp.stream is not None)
            for p in node.inputs
        )

    def final_spec(node: "PlanNode") -> AlgorithmSpec:
        return subst.get(id(node)) or get_spec(node.op)

    def final_consumers(node: "PlanNode") -> list["PlanNode"]:
        """Consumers in the rewritten graph: dropped/elided consumers are
        transparent, their consumers inherit the edge."""
        out: list["PlanNode"] = []
        for c in cons_orig[id(node)]:
            if id(c) in dropped or id(c) in elided:
                out.extend(final_consumers(c))
            else:
                out.append(c)
        return out

    def node_est(node: "PlanNode", spec: AlgorithmSpec) -> float | None:
        n_in, blocks, r = sizes_at(resolve(node.inputs[0]))
        return _model_est(spec, blocks, m, _est_params(node, n_of, layout_of), r, n_in)

    # -- rule 1: drop redundant shuffles (reverse topo, so drops cascade) --
    if optimize:
        for node in reversed(algo_nodes):
            spec = get_spec(node.op)
            if (
                spec.output_order != "random"
                or not spec.permutation_only
                or not spec.oblivious
            ):
                continue
            consumers = cons_orig[id(node)]
            if not consumers:
                continue  # terminal: its records are the plan's output
            reasons: set[str] = set()

            def _absorbs(c: "PlanNode") -> bool:
                if id(c) in dropped:
                    reasons.add("dropped")
                    return True
                cs = get_spec(c.op)
                # A non-oblivious consumer (merge_sort) leaks its input
                # *order* through its data-dependent transcript — the
                # shuffle in front of it is exactly what hides that
                # order, so it is load-bearing, not redundant.
                if not cs.oblivious:
                    return False
                if cs.permutation_invariant:
                    reasons.add("invariant")
                    return True
                # aggressive: a surviving downstream shuffle re-randomizes
                # the order, so this one is redundant in distribution.
                if aggressive and cs.permutation_only and cs.output_order == "random":
                    reasons.add("random")
                    return True
                return False
            if all(_absorbs(c) for c in consumers):
                dropped.add(id(node))
                before = node_est(node, spec)
                if "random" in reasons:
                    why = (
                        "feeds only other random permutations "
                        "(distribution-preserving collapse)"
                    )
                elif "dropped" in reasons:
                    why = "every consumer is permutation-invariant or itself dropped"
                else:
                    why = "every consumer is permutation-invariant"
                rewrites.append(Rewrite(
                    "drop-shuffle",
                    f"{node.op} #{slot_of[id(node)]}: {why}",
                    before,
                    0.0,
                ))

    # -- rule 2: elide sorts of already-sorted inputs (topo order) --------
    order1: dict[int, str | None] = {}
    for node in nodes:
        if node.is_source:
            order1[id(node)] = None
            continue
        in_order = order1[id(node.inputs[0])]
        if id(node) in dropped:
            order1[id(node)] = in_order
            continue
        spec = get_spec(node.op)
        if (
            optimize
            and spec.permutation_only
            and spec.output_order == "sorted"
            and spec.output == "records"
            and in_order == "sorted"
            # A padded layout hands its exact geometry (size and hole
            # pattern) to its consumers via the keep-layout repack, and
            # the sort's output geometry differs from its input's — so on
            # a padded input only a *terminal* sort may be elided (its
            # download filters NULLs, so the records are unchanged).
            and not (holey_inputs(node) and cons_orig[id(node)])
        ):
            elided.add(id(node))
            order1[id(node)] = "sorted"
            # The elision's validity rests on the producing chain keeping
            # its order contract — pin it against order-weakening variants.
            cur = node.inputs[0]
            while not cur.is_source:
                if id(cur) in dropped or id(cur) in elided:
                    cur = cur.inputs[0]
                    continue
                pinned.add(id(cur))
                if get_spec(cur.op).output_order != "same":
                    break
                cur = cur.inputs[0]
            before = node_est(node, spec)
            rewrites.append(Rewrite(
                "elide-sorted",
                f"{node.op} #{slot_of[id(node)]}: input is already sorted",
                before,
                0.0,
            ))
            continue
        order1[id(node)] = _effective_order(spec, in_order)

    # -- rule 3: cost-gated variant substitution (topo order) -------------
    order2: dict[int, str | None] = {}
    for node in nodes:
        if node.is_source:
            order2[id(node)] = None
            continue
        in_order = order2[id(node.inputs[0])]
        if id(node) in dropped:
            order2[id(node)] = in_order
            continue
        if id(node) in elided:
            order2[id(node)] = "sorted"
            continue
        spec = get_spec(node.op)
        chosen = spec
        if optimize and spec.variants:
            base_est = node_est(node, spec)
            best, best_est = spec, base_est
            if base_est is not None:
                in_padded = holey_inputs(node)
                for vname in spec.variants:
                    v = get_spec(vname)
                    if v.name == spec.name:
                        continue
                    if not _variant_legal(
                        spec, v, node, in_order, in_padded, pinned,
                        final_consumers,
                    ):
                        continue
                    v_est = node_est(node, v)
                    if v_est is None:
                        continue
                    if v_est < best_est * (1.0 - min_gain):
                        best, best_est = v, v_est
            if best is not spec:
                subst[id(node)] = best
                chosen = best
                _, blocks, r = sizes_at(resolve(node.inputs[0]))
                rewrites.append(Rewrite(
                    "variant",
                    f"{spec.name} #{slot_of[id(node)]} → {best.name} "
                    f"(cheapest at n={blocks} blocks, m={m}, r={r})",
                    base_est,
                    best_est,
                ))
        order2[id(node)] = _effective_order(chosen, in_order)

    # -- rule 4: fuse adjacent scan runs ----------------------------------
    skip: set[int] = set()  # fused-away members (all but the last of a run)
    fused_repr: dict[int, tuple[AlgorithmSpec, tuple["PlanNode", ...]]] = {}
    if optimize:
        def _fusible(node: "PlanNode") -> bool:
            spec = final_spec(node)
            # Undeclared params must reach the standalone runner's strict
            # validation (kernels .get() with defaults and would silently
            # ignore a typo an unoptimized plan rejects with TypeError).
            return spec.scan_kernel is not None and set(node.params) <= set(
                spec.scan_params
            )

        fuse_next: dict[int, "PlanNode"] = {}
        for node in algo_nodes:
            if id(node) in dropped or id(node) in elided:
                continue
            if not _fusible(node):
                continue
            consumers = cons_orig[id(node)]
            if len(consumers) != 1:
                continue
            y = consumers[0]
            if id(y) in dropped or id(y) in elided:
                continue
            if _fusible(y):
                fuse_next[id(node)] = y
        heads = set(fuse_next) - {id(y) for y in fuse_next.values()}
        for node in algo_nodes:
            if id(node) not in heads:
                continue
            chain = [node]
            while id(chain[-1]) in fuse_next:
                chain.append(fuse_next[id(chain[-1])])
            members = [(final_spec(c), dict(c.params)) for c in chain]
            fspec = _fused_spec(members)
            last = chain[-1]
            fused_repr[id(last)] = (fspec, tuple(chain))
            for c in chain[:-1]:
                skip.add(id(c))
            _, blocks, _ = sizes_at(resolve(chain[0].inputs[0]))
            rewrites.append(Rewrite(
                "fuse-scans",
                f"{'+'.join(c.op for c in chain)} "
                f"#{'+'.join(str(slot_of[id(c)]) for c in chain)}: "
                "one pass applies all kernels",
                2.0 * blocks * len(chain),
                2.0 * blocks,
            ))

    # -- assemble the schedule --------------------------------------------
    schedule: list[ExecStep] = []
    for node in algo_nodes:
        nid = id(node)
        if nid in dropped or nid in elided or nid in skip:
            continue
        if nid in fused_repr:
            spec, chain = fused_repr[nid]
            # The fused runner closes over its stages; params here only
            # document them (they flow into StepResult.params).
            params: dict = {"stages": [dict(c.params, op=c.op) for c in chain]}
            covers = tuple(c.op for c in chain)
            slots = [slot_of[id(c)] for c in chain]
            note = "fused " + "+".join(covers)
            inp = resolve(chain[0].inputs[0])
            est_p = params
        else:
            spec = final_spec(node)
            params = dict(node.params)
            covers = (node.op,)
            slots = [slot_of[nid]]
            note = f"was {node.op}" if nid in subst else None
            inp = resolve(node.inputs[0])
            est_p = _est_params(node, n_of, layout_of)
        rhs = resolve(node.inputs[1]) if len(node.inputs) > 1 else None
        n_in, blocks, r = sizes_at(inp)
        schedule.append(ExecStep(
            spec=spec,
            params=params,
            input_id=id(inp),
            out_id=nid,
            slot=slots[0],
            slot_end=slots[-1],
            covers=covers,
            note=note,
            n_items=n_in,
            blocks=blocks,
            r_blocks=r,
            est_ios=_model_est(spec, blocks, m, est_p, r, n_in),
            rhs_id=id(rhs) if rhs is not None else None,
        ))

    consumers_cnt: dict[int, int] = {}
    for step in schedule:
        consumers_cnt[step.input_id] = consumers_cnt.get(step.input_id, 0) + 1
        if step.rhs_id is not None:
            consumers_cnt[step.rhs_id] = consumers_cnt.get(step.rhs_id, 0) + 1

    extracts: dict[int, int] = {}
    for node in algo_nodes:
        if cons_orig[id(node)]:
            continue  # not terminal
        if get_spec(node.op).output != "records":
            continue  # value outputs live in their StepResult
        eff = resolve(node)
        if eff.is_source:  # pragma: no cover - unreachable by rule design
            raise RuntimeError(
                "optimizer elided a terminal chain down to its source"
            )
        extracts[id(eff)] = extracts.get(id(eff), 0) + 1

    return OptimizedPlan(
        schedule=tuple(schedule),
        consumers=consumers_cnt,
        extracts=extracts,
        rewrites=tuple(rewrites),
        total_slots=len(algo_nodes),
        optimized=optimize,
    )


def _variant_legal(
    orig: AlgorithmSpec,
    v: AlgorithmSpec,
    node: "PlanNode",
    in_order: str | None,
    in_padded: bool,
    pinned: set[int],
    final_consumers,
) -> bool:
    """May ``v`` stand in for ``orig`` at this node?"""
    if not v.oblivious:
        return False  # never trade away the security property
    if v.output != orig.output:
        return False
    if v.requires_input_order is not None and v.requires_input_order != in_order:
        return False
    if in_padded:
        # A padded layout (stream, or downstream of mask/join/group_by)
        # hands its exact geometry downstream: the executor's keep-layout
        # repack preserves layout size and hole pattern so the surviving
        # count stays hidden.  Variants only promise the same *records*,
        # never the same padded geometry (bitonic_sort pads to a power of
        # two, group_by inherits its sort's extra block), so substituting
        # one would silently change every downstream step's transcript.
        # Dense segments rewrite freely; padded segments run verbatim.
        return False
    if orig.output == "records" and v.output_order != orig.output_order:
        # The contracts differ (note: ``"same"`` on an unknown-order
        # input still *preserves* that deterministic order, while
        # ``None`` scrambles it — the declared contracts, not the
        # effective orders, are what consumers can observe).  Only safe
        # when nothing downstream looks at record order.
        if id(node) in pinned:
            return False
        fc = final_consumers(node)
        if not fc:  # terminal records: order is the output
            return False
        if not all(get_spec(c.op).permutation_invariant for c in fc):
            return False
    return True
