"""Uniform call results: output records + cost report + parameters.

Three layers of reporting share the :class:`CostReport` vocabulary:

* :class:`Result` — one facade call (``session.sort(...)``);
* :class:`StepResult` / :class:`PlanResult` — one pipeline step and a
  whole executed plan (``plan.run()``), each step carrying its own
  snapshotted trace fingerprint;
* :class:`SessionCostSummary` — the cumulative view across every call
  and pipeline step a session has made (``session.cost_summary()``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

__all__ = [
    "CostReport",
    "Result",
    "StepResult",
    "PlanResult",
    "SessionCostSummary",
]


@dataclass(frozen=True)
class CostReport:
    """What one facade call cost, in the paper's model.

    ``reads``/``writes`` count the block I/Os of the *successful* attempt
    (the model's cost measure); ``attempts`` is how many Las Vegas
    attempts were made in total; ``trace_fingerprint`` is the SHA-256 of
    the successful attempt's adversary-visible transcript (``None`` when
    the session's machine runs with tracing disabled).

    ``batches``/``batched_ios`` expose the batched I/O engine's behaviour:
    how many bulk gather/scatter calls the attempt issued and how many of
    its I/Os went through them (the remainder used the scalar path).  The
    modeled cost is unaffected — batching changes constant factors of the
    simulation, never the trace or the I/O counts.

    ``trace_canonical`` digests the same transcript window with array
    ids renumbered by first appearance — the adversary view *up to
    array renaming*.  Two runs whose absolute allocation counters differ
    (e.g. an optimized plan that dropped an upstream step) but whose
    surviving steps behave identically produce equal canonical digests;
    the optimizer's equivalence tests rely on this.
    """

    reads: int
    writes: int
    attempts: int = 1
    trace_fingerprint: str | None = None
    batches: int = 0
    batched_ios: int = 0
    trace_canonical: str | None = None

    @property
    def total(self) -> int:
        """Total block I/Os of the successful attempt."""
        return self.reads + self.writes

    @property
    def mean_batch_size(self) -> float:
        """Average I/Os per batched engine call (0.0 if none)."""
        return self.batched_ios / self.batches if self.batches else 0.0

    @property
    def batched_fraction(self) -> float:
        """Fraction of the attempt's I/Os issued through the batched engine."""
        return self.batched_ios / self.total if self.total else 0.0

    def __str__(self) -> str:
        fp = (
            f", trace {self.trace_fingerprint[:16]}…"
            if self.trace_fingerprint
            else ""
        )
        batch = (
            f", {self.batches} batches (mean {self.mean_batch_size:.1f})"
            if self.batches
            else ""
        )
        return (
            f"{self.total} I/Os ({self.reads} reads, {self.writes} writes) "
            f"in {self.attempts} attempt(s){batch}{fp}"
        )


@dataclass(frozen=True)
class Result:
    """Everything one :class:`repro.api.ObliviousSession` call produced.

    ``records`` holds the output key-value records as an ``(n, 2)`` int64
    array (``None`` for value-only algorithms such as selection);
    ``value`` carries scalar/ndarray outputs (the selected ``(key,
    value)`` pair, the quantile keys, …); ``cost`` is the unified
    :class:`CostReport`; ``params`` echoes the resolved call parameters
    (algorithm inputs plus ``n`` and the session seed) for provenance.
    """

    algorithm: str
    records: np.ndarray | None
    value: Any
    cost: CostReport
    params: Mapping[str, Any] = field(default_factory=dict)

    @property
    def keys(self) -> np.ndarray:
        """Key column of :attr:`records` (raises if value-only)."""
        if self.records is None:
            raise ValueError(
                f"algorithm {self.algorithm!r} returned no records; "
                "use .value"
            )
        return self.records[:, 0]

    @property
    def values(self) -> np.ndarray:
        """Value column of :attr:`records` (raises if value-only)."""
        if self.records is None:
            raise ValueError(
                f"algorithm {self.algorithm!r} returned no records; "
                "use .value"
            )
        return self.records[:, 1]

    def __str__(self) -> str:
        n = "-" if self.records is None else str(len(self.records))
        return f"Result({self.algorithm}, {n} records, {self.cost})"


@dataclass(frozen=True)
class StepResult:
    """One executed pipeline step.

    ``cost.trace_fingerprint`` is snapshotted *per step* (the transcript
    window covering exactly this step's successful attempt), so a
    pipeline's steps can each be compared against the equivalent
    standalone facade call.  ``records`` is populated only for terminal
    record-producing steps (the single server→client extract); ``value``
    carries value outputs (selection pairs, quantile keys).

    ``note`` is the optimizer's annotation when the step was rewritten
    (``"was sort"`` for a variant substitution, ``"fused mask+mask"``
    for a scan fusion) — ``None`` for steps executed verbatim.
    """

    step: int
    algorithm: str
    n_items: int
    cost: CostReport
    value: Any = None
    records: np.ndarray | None = None
    params: Mapping[str, Any] = field(default_factory=dict)
    note: str | None = None

    def __str__(self) -> str:
        n = "-" if self.records is None else str(len(self.records))
        return f"StepResult(#{self.step} {self.algorithm}, {n} records, {self.cost})"


@dataclass(frozen=True)
class PlanResult:
    """Everything one executed :class:`repro.api.plan.Plan` produced.

    ``steps`` holds one :class:`StepResult` per *executed* step in
    execution order — one per algorithm node for a verbatim plan; under
    ``optimize=True`` dropped/elided nodes produce no step and fused
    runs share one, so match steps by ``algorithm``/``note`` (or use the
    :attr:`records` / :attr:`value` accessors) rather than by position.
    ``total`` aggregates their costs (its ``attempts`` is the sum over
    steps; no single fingerprint covers a whole pipeline — read the
    per-step ones).  ``loads`` / ``extracts`` count the client↔server
    round trips the plan paid: 1 and 1 for any linear chain, however
    many steps it has (optimized plans keep the verbatim plan's extract
    count even when elided terminals share one records-bearing step).
    """

    steps: tuple[StepResult, ...]
    total: CostReport
    loads: int
    extracts: int

    @property
    def records(self) -> np.ndarray:
        """Extracted records of the final record-producing terminal step."""
        for step in reversed(self.steps):
            if step.records is not None:
                return step.records
        raise ValueError(
            "plan produced no record output; use .value or .steps"
        )

    @property
    def value(self) -> Any:
        """Value output of the final value-producing step."""
        for step in reversed(self.steps):
            if step.value is not None:
                return step.value
        raise ValueError("plan produced no value output; use .records or .steps")

    def __str__(self) -> str:
        chain = " → ".join(s.algorithm for s in self.steps)
        return (
            f"PlanResult({chain}: {self.total}, "
            f"{self.loads} load(s), {self.extracts} extract(s))"
        )


@dataclass(frozen=True)
class SessionCostSummary:
    """Cumulative cost across every call and pipeline step of a session.

    ``steps`` counts executed algorithm steps (a facade call is one
    step); ``attempts`` includes Las Vegas retries.  ``reads`` / ``writes``
    / ``batches`` / ``batched_ios`` sum the *successful* attempts'
    traffic, matching how per-call :class:`CostReport`\\ s are scoped;
    ``machine_ios`` is the machine's raw lifetime counter (all attempts,
    plus any direct machine-level work such as ORAM traffic).  ``loads``
    and ``extracts`` count client↔server round trips.
    """

    steps: int
    attempts: int
    reads: int
    writes: int
    batches: int
    batched_ios: int
    loads: int
    extracts: int
    machine_ios: int

    @property
    def total(self) -> int:
        """Total block I/Os across all successful attempts."""
        return self.reads + self.writes

    def __str__(self) -> str:
        return (
            f"{self.steps} step(s), {self.attempts} attempt(s): "
            f"{self.total} I/Os ({self.reads} reads, {self.writes} writes), "
            f"{self.batches} batches, {self.loads} load(s), "
            f"{self.extracts} extract(s)"
        )
