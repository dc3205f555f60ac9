"""Lazy oblivious pipelines: composable plans over a session's machine.

The paper's algorithms are designed to be *composed* — selection calls
compaction, the sort calls quantiles and the shuffle — yet the per-call
facade treats every call as an island: one client→server load, one
kernel, one server→client extract.  This module adds the composition
layer:

* :class:`Dataset` — a lazy handle to records (client data or an
  already-resident :class:`~repro.em.storage.EMArray`) with chainable
  oblivious operations.  Each operation returns a *new* handle; nothing
  executes until :meth:`Dataset.run`.
* :class:`PlanNode` — one immutable node of the plan DAG a chain of
  ``Dataset`` operations builds up.
* :class:`Plan` — a set of target datasets to materialize together,
  with :meth:`Plan.explain` (analytical per-step I/O estimates from the
  paper's bounds, *without executing*) and :meth:`Plan.run` (the
  :class:`~repro.api.executor.Executor`, which keeps intermediates
  machine-resident between steps).

A three-step chain therefore pays exactly one client→server load and
one server→client extract::

    ds = session.dataset(keys)
    plan = ds.shuffle().compact().sort().plan()
    print(plan.explain())        # per-step I/O estimates, nothing ran
    result = plan.run()          # one load, three steps, one extract
    result.steps[1].cost         # per-step CostReport with fingerprint
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

import numpy as np

from repro.analysis.bounds import PAPER_BOUNDS
from repro.api.registry import get as get_spec
from repro.em.block import occupancy
from repro.em.storage import EMArray

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.api.result import PlanResult
    from repro.api.session import ObliviousSession
    from repro.service.streaming import StreamSource

__all__ = [
    "PlanNode",
    "Dataset",
    "Plan",
    "StepEstimate",
    "PlanExplain",
    "make_source",
    "make_stream_source",
]

#: Global construction counter — gives every node a sequence number, so a
#: plan's topological order is simply "sort by seq" (parents are always
#: created before their consumers).
_NODE_SEQ = itertools.count()


def _node_padded(node: "PlanNode") -> bool:
    """Is ``node``'s real record count privately *below* its public bound?

    The property is *sticky*: specs with ``padded_output`` introduce it
    (masking scans, joins, group-by — their surviving counts are data
    dependent), and any padded ancestor keeps the flag — no later step
    may re-derive a public size from the private surviving count, or the
    selectivity would leak.  Only terminal client extraction (which
    filters NULLs client-side) ever sees the real count.

    Streamed sources are *not* padded in this sense: their staged layout
    has NULL holes (short chunks pad to the block grid) but the declared
    ``n_items`` is still the exact real count, so any step's dense
    repack clears the holes without revealing anything.
    """
    if node.is_source:
        return False
    if get_spec(node.op).padded_output:
        return True
    return any(_node_padded(parent) for parent in node.inputs)


@dataclass(frozen=True, eq=False)
class PlanNode:
    """One immutable node of a plan DAG.

    ``op`` names a registered algorithm, or is ``None`` for source nodes
    (which carry client ``records``, a machine-``resident`` array, or a
    chunked ``stream`` instead).  Nodes compare by identity; sharing a
    node between two chains expresses a DAG with fan-out.
    """

    op: str | None
    params: Mapping[str, Any] = field(default_factory=dict)
    inputs: tuple["PlanNode", ...] = ()
    records: np.ndarray | None = None
    resident: EMArray | None = None
    stream: "StreamSource | None" = None
    n_items: int = 0
    seq: int = field(default_factory=lambda: next(_NODE_SEQ))

    @property
    def is_source(self) -> bool:
        return self.op is None

    def lineage(self) -> list["PlanNode"]:
        """All nodes reachable from this one, in topological order."""
        seen: dict[int, PlanNode] = {}

        def walk(node: PlanNode) -> None:
            if id(node) in seen:
                return
            for parent in node.inputs:
                walk(parent)
            seen[id(node)] = node

        walk(self)
        return sorted(seen.values(), key=lambda n: n.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_source:
            if self.stream is not None:
                kind = "stream"
            elif self.resident is not None:
                kind = "resident"
            else:
                kind = "client"
            return f"PlanNode(source[{kind}], n={self.n_items})"
        return f"PlanNode({self.op}, params={dict(self.params)})"


class Dataset:
    """Lazy, chainable handle to records destined for a session's machine.

    Obtained from :meth:`repro.api.ObliviousSession.dataset`.  Chaining
    operations builds an immutable plan DAG; sharing an intermediate
    handle between two chains shares the underlying node (executed once,
    freed after its last consumer)::

        shuffled = session.dataset(keys).shuffle()
        a = shuffled.sort()          # both consume the same shuffle
        b = shuffled.quantiles(q=4)  # output — a DAG, not two chains

    Nothing touches the machine until :meth:`run` (or ``Plan.run``).
    """

    def __init__(self, session: "ObliviousSession", node: PlanNode) -> None:
        self._session = session
        self.node = node

    # -- chainable operations ---------------------------------------------

    def apply(self, algorithm: str, **params: Any) -> "Dataset":
        """Append a registered ``algorithm`` to this handle's lineage."""
        spec = get_spec(algorithm)  # unknown names raise KeyError eagerly
        if spec.arity != 1:
            raise TypeError(
                f"{algorithm!r} takes {spec.arity} input relations — "
                "build it with Dataset.join(other, ...)"
            )
        parent = self.node
        if parent.op is not None and get_spec(parent.op).output == "value":
            raise TypeError(
                f"cannot chain {algorithm!r} after value-producing "
                f"{parent.op!r} — value steps are terminal"
            )
        holey = parent.is_source and parent.stream is not None
        if not spec.null_tolerant and (holey or _node_padded(parent)):
            # Two layouts carry NULL padding a rank-semantics algorithm
            # would miscount.  A stream's staged layout pads short
            # chunks to the block grid (cleared by any intermediate
            # step's dense repack — chain sort/compact/shuffle first).
            # Anything downstream of mask/join/group_by is padded up to
            # a *public bound* above the private surviving count, and
            # that padding is sticky — nothing ever re-derives a public
            # size from the private count, or the selectivity would
            # leak.
            raise TypeError(
                f"{algorithm!r} is not null-tolerant and cannot consume a "
                "padded layout (a streamed source, or anything downstream "
                "of mask/join/group_by) — its n_items is the padded "
                "public bound, not the real record count"
            )
        node = PlanNode(
            op=spec.name,
            params=dict(params),
            inputs=(parent,),
        )
        return Dataset(self._session, node)

    def join(
        self,
        other: "Dataset | Any",
        *,
        fanout: int = 1,
        combine: str = "sum",
        **params: Any,
    ) -> "Dataset":
        """Oblivious equi-join with ``other`` (the right-hand relation).

        ``fanout`` is the declared *public* bound on matches per key on
        the right (rows beyond it are obliviously dropped, never
        revealed); ``combine`` names how matched values merge (see
        :data:`repro.relational.join.COMBINES`).  The output is padded
        to the public bound ``n_left*fanout + n_right``, so the join's
        selectivity stays hidden — and, being padded, only
        null-tolerant steps may consume it.

        ``other`` may be another :class:`Dataset` of the same session
        or raw client data (wrapped into a source automatically).
        This is the plan layer's first two-relation node: the executor
        stages the right input alongside the left.
        """
        if not isinstance(other, Dataset):
            other = make_source(self._session, other)
        if other._session is not self._session:
            raise ValueError("join inputs must share one session")
        for node, side in ((self.node, "left"), (other.node, "right")):
            if node.op is not None and get_spec(node.op).output == "value":
                raise TypeError(
                    f"cannot join on the {side} of value-producing "
                    f"{node.op!r} — value steps are terminal"
                )
        node = PlanNode(
            op="join",
            params=dict(params, fanout=fanout, combine=combine),
            inputs=(self.node, other.node),
        )
        return Dataset(self._session, node)

    def group_by(self, agg: str = "sum", **params: Any) -> "Dataset":
        """Oblivious group-by-aggregate: one output record ``(key,
        aggregate)`` per distinct key, padded to the input's public
        bound so group counts and sizes stay hidden.  ``agg`` is one of
        :data:`repro.relational.groupby.AGGREGATES` (sum/count/min/max).
        """
        return self.apply("group_by", agg=agg, **params)

    def sort(self, **params: Any) -> "Dataset":
        """Oblivious sort (Theorem 21)."""
        return self.apply("sort", **params)

    def compact(self, **params: Any) -> "Dataset":
        """Tight record compaction (Lemma 3 + Theorem 6); pass
        ``capacity_blocks`` to bound the output."""
        return self.apply("compact", **params)

    def shuffle(self, **params: Any) -> "Dataset":
        """Uniform oblivious block shuffle (in place)."""
        return self.apply("shuffle", **params)

    def select(self, k: int, **params: Any) -> "Dataset":
        """k-th smallest (Theorem 13) — a terminal, value-producing step."""
        return self.apply("select", k=k, **params)

    def quantiles(self, q: int, **params: Any) -> "Dataset":
        """q quantile keys (Theorem 17) — a terminal, value-producing step."""
        return self.apply("quantiles", q=q, **params)

    # -- materialization ---------------------------------------------------

    def plan(self) -> "Plan":
        """Freeze this handle's lineage into an executable :class:`Plan`."""
        return Plan(self._session, [self])

    def explain(self, optimize: bool | str | None = None) -> "PlanExplain":
        """Per-step analytical I/O estimates — nothing executes.

        ``optimize=True`` prices the *rewritten* plan and reports every
        rule that fired next to the unoptimized baseline."""
        return self.plan().explain(optimize)

    def run(self, optimize: bool | str | None = None) -> "PlanResult":
        """Execute this handle's lineage (one load, one extract).

        ``optimize`` may be ``False`` (verbatim), ``True`` (the
        optimizer's byte-preserving rewrites), ``"aggressive"`` (also
        distribution-preserving ones), or ``None`` to inherit the
        session default."""
        return self.plan().run(optimize)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        chain = " → ".join(
            n.op or "source" for n in self.node.lineage()
        )
        return f"Dataset({chain})"


@dataclass(frozen=True)
class StepEstimate:
    """``explain()``'s prediction for one step — no execution involved."""

    step: int
    algorithm: str
    n_items: int  #: estimated input record count
    blocks: int  #: estimated input size in blocks
    est_ios: float | None  #: analytical block-I/O estimate (None: no model)
    formula: str | None  #: growth law, in blocks n and cache m
    source: str | None  #: paper provenance of the bound
    randomized: bool
    note: str | None = None  #: optimizer annotation (None: verbatim step)


@dataclass(frozen=True)
class PlanExplain:
    """The cost picture of a plan *before* running it.

    Per-step analytical estimates from the paper's bounds next to the
    machine shape they were evaluated at.  Estimates use calibrated
    leading constants (see :mod:`repro.analysis.bounds`) and are meant
    for plan comparison and hot-spot spotting, not exact prediction.

    When built with ``explain(optimize=True)``, ``steps`` prices the
    *rewritten* schedule, ``rewrites`` lists every optimizer rule that
    fired with its before/after estimated I/O, and ``baseline_est_ios``
    is the unoptimized plan's total for comparison.
    """

    steps: tuple[StepEstimate, ...]
    M: int
    B: int
    optimized: bool = False
    rewrites: tuple = ()  #: tuple[repro.api.optimizer.Rewrite, ...]
    baseline_est_ios: float | None = None

    @property
    def m(self) -> int:
        """Cache size in blocks."""
        return self.M // self.B

    @property
    def total_est_ios(self) -> float:
        """Sum of the per-step estimates (unmodelled steps contribute 0)."""
        return sum(s.est_ios or 0.0 for s in self.steps)

    @property
    def savings_fraction(self) -> float:
        """Estimated I/O saved versus the unoptimized plan (0.0 when not
        optimized or when the baseline had no modelled steps)."""
        if not self.baseline_est_ios:
            return 0.0
        return max(0.0, 1.0 - self.total_est_ios / self.baseline_est_ios)

    def __str__(self) -> str:
        lines = [
            f"plan on EMMachine(M={self.M}, B={self.B}, m={self.m}) — "
            "analytical estimates, nothing executed",
            f"{'step':>4}  {'algorithm':<22} {'n':>8} {'blocks':>7} "
            f"{'est I/Os':>10}  bound",
        ]
        for s in self.steps:
            est = f"{s.est_ios:>10.0f}" if s.est_ios is not None else f"{'?':>10}"
            bound = (
                f"{s.formula}  [{s.source}]" if s.formula else "(no model)"
            )
            name = s.algorithm if s.note is None else f"{s.algorithm} ({s.note})"
            lines.append(
                f"{s.step:>4}  {name:<22} {s.n_items:>8} "
                f"{s.blocks:>7} {est}  {bound}"
            )
        lines.append(f"{'total':>4}  {'':<22} {'':>8} {'':>7} "
                     f"{self.total_est_ios:>10.0f}")
        if self.optimized:
            if self.rewrites:
                base = self.baseline_est_ios or 0.0
                lines.append(
                    f"optimizer: {len(self.rewrites)} rewrite(s) — estimated "
                    f"{base:.0f} → {self.total_est_ios:.0f} I/Os "
                    f"(-{100 * self.savings_fraction:.0f}%)"
                )
                lines.extend(f"  {r}" for r in self.rewrites)
            else:
                lines.append("optimizer: no rewrite applied")
        return "\n".join(lines)


class Plan:
    """An immutable, executable set of target datasets.

    ``nodes`` is the full DAG in topological (construction) order;
    ``consumers`` maps each node to the algorithm nodes that read its
    output — the executor frees an intermediate as soon as its last
    consumer has run.
    """

    def __init__(
        self, session: "ObliviousSession", targets: Iterable[Dataset]
    ) -> None:
        targets = tuple(targets)
        if not targets:
            raise ValueError("a plan needs at least one target dataset")
        for t in targets:
            if t._session is not session:
                raise ValueError("all plan targets must share one session")
        self.session = session
        self.targets = targets
        seen: dict[int, PlanNode] = {}
        for t in targets:
            for node in t.node.lineage():
                seen[id(node)] = node
        self.nodes: tuple[PlanNode, ...] = tuple(
            sorted(seen.values(), key=lambda n: n.seq)
        )
        if all(n.is_source for n in self.nodes):
            raise ValueError(
                "plan has no algorithm steps — chain an operation "
                "(e.g. .sort()) onto the dataset before plan()/run()/explain()"
            )
        consumers: dict[int, list[PlanNode]] = {id(n): [] for n in self.nodes}
        for node in self.nodes:
            for parent in node.inputs:
                consumers[id(parent)].append(node)
        self.consumers = consumers

    def explain(self, optimize: bool | str | None = None) -> PlanExplain:
        """Per-step analytical I/O estimates from the paper's bounds.

        Input sizes are propagated through the DAG with each spec's
        declared ``out_items`` rule; nothing is loaded or executed.
        With ``optimize=True`` (or ``"aggressive"``) the *rewritten*
        schedule is priced and every optimizer rule that fired is
        reported with its before/after estimated I/O next to the
        unoptimized baseline.
        """
        from repro.api.optimizer import (
            identity_schedule,
            optimize_plan,
            validate_optimize,
        )

        if optimize is None:
            optimize = self.session.optimize
        validate_optimize(optimize)
        identity = identity_schedule(self)
        if optimize:
            sched = optimize_plan(self, aggressive=optimize == "aggressive")
            baseline = identity.total_est_ios
        else:
            sched, baseline = identity, None
        steps: list[StepEstimate] = []
        for exec_step in sched.schedule:
            spec = exec_step.spec
            formula = source = None
            if spec.cost_model is not None and spec.cost_model in PAPER_BOUNDS:
                bound = PAPER_BOUNDS[spec.cost_model]
                formula, source = bound.formula, bound.source
            steps.append(
                StepEstimate(
                    step=len(steps),
                    algorithm=spec.name,
                    n_items=exec_step.n_items,
                    blocks=exec_step.blocks,
                    est_ios=exec_step.est_ios,
                    formula=formula,
                    source=source,
                    randomized=spec.randomized,
                    note=exec_step.note,
                )
            )
        return PlanExplain(
            steps=tuple(steps),
            M=self.session.config.M,
            B=self.session.config.B,
            optimized=bool(optimize),
            rewrites=sched.rewrites,
            baseline_est_ios=baseline,
        )

    def run(self, optimize: bool | str | None = None) -> "PlanResult":
        """Execute the plan: one client→server load per source, all
        intermediates machine-resident, one server→client extract per
        record-producing terminal.

        ``optimize`` may be ``False`` (verbatim), ``True`` (the
        optimizer's byte-preserving rewrites), ``"aggressive"`` (also
        distribution-preserving ones), or ``None`` to inherit the
        session default."""
        from repro.api.executor import Executor

        return Executor(self.session).execute(self, optimize)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        chain = " → ".join(n.op or "source" for n in self.nodes)
        return f"Plan({chain})"


def make_source(session: "ObliviousSession", data: Any) -> Dataset:
    """Build a source :class:`Dataset` from client data or a resident array.

    Client data is normalized exactly like a facade call's input (1-D
    keys or an ``(n, 2)`` record array, ``NULL_KEY`` rows allowed); an
    :class:`~repro.em.storage.EMArray` already on the session's machine
    becomes a resident source — the plan reads it without a client
    round trip and leaves the original array untouched.
    """
    from repro.api.session import _as_records

    if isinstance(data, EMArray):
        if session.machine._arrays.get(data.array_id) is not data:
            raise ValueError(
                f"array {data.name!r} is not resident on this session's "
                "machine — pass client data or an array this machine owns"
            )
        node = PlanNode(
            op=None,
            resident=data,
            n_items=occupancy(data.raw.reshape(-1, data.raw.shape[-1])),
        )
    else:
        records = _as_records(data)
        node = PlanNode(op=None, records=records, n_items=occupancy(records))
    return Dataset(session, node)


def make_stream_source(
    session: "ObliviousSession",
    chunks,
    *,
    chunk_records: int | None = None,
    num_chunks: int | None = None,
) -> Dataset:
    """Build a streamed source :class:`Dataset` from mini-batch chunks.

    ``chunks`` is a sequence of chunk arrays (each 1-D keys or ``(k, 2)``
    records) or an existing
    :class:`~repro.service.streaming.StreamSource`.  The node's
    ``n_items`` is the *public* schedule total (``num_chunks ×
    chunk_records``) — short chunks are padded, never revealed — so only
    null-tolerant algorithms may consume the source directly
    (:meth:`Dataset.apply` enforces this eagerly).
    """
    from repro.service.streaming import StreamSource

    if isinstance(chunks, StreamSource):
        if chunk_records is not None or num_chunks is not None:
            raise ValueError(
                "pass schedule overrides to StreamSource itself, not to "
                "an already-built stream"
            )
        stream = chunks
    else:
        stream = StreamSource(
            chunks, chunk_records=chunk_records, num_chunks=num_chunks
        )
    node = PlanNode(op=None, stream=stream, n_items=stream.n_items)
    return Dataset(session, node)
