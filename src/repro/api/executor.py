"""The plan executor: machine-resident intermediates, per-step retry.

:class:`Executor` runs a :class:`repro.api.plan.Plan` on its session's
machine, consuming an execution schedule built by
:mod:`repro.api.optimizer` — the verbatim one-step-per-node schedule by
default, or the rewritten one under ``optimize=True``.  The contract,
step by step:

* **One load, one extract.**  Each client source is uploaded once
  (:meth:`~repro.em.machine.EMMachine.load_records`); intermediates are
  handed from step to step *server-side*
  (:meth:`~repro.em.machine.EMMachine.repack_resident` +
  :meth:`~repro.em.machine.EMMachine.stage_records` — no client round
  trip); only terminal record outputs are downloaded
  (:meth:`~repro.em.machine.EMMachine.extract_records`).
* **Facade-equivalent steps.**  A step's input array is staged exactly
  as the facade would have loaded it (minimally sized, records packed),
  its randomness comes from the same per-call derivation
  ``SeedSequence(entropy=seed, spawn_key=(call_index, attempt))``, and
  its trace fingerprint is snapshotted over exactly the successful
  attempt's window — so each pipeline step's fingerprint is
  byte-identical to the equivalent standalone facade call.
* **Optimizer-stable randomness.**  A step's call index is its
  *original* call slot (its position among the plan's algorithm nodes),
  and the session's call counter advances by the original node count
  even when the optimizer dropped or fused steps — so surviving steps,
  and everything the session runs afterwards, derive exactly the
  randomness they would have drawn from the unoptimized plan.
* **Per-step Las Vegas retry.**  The server keeps a shadow copy of a
  randomized step's input (taken up front for declared-mutating
  ``in_place`` specs, lazily at failure time otherwise — non-in-place
  runners must leave their input pristine, the
  :class:`~repro.api.registry.AlgorithmSpec` contract); a failure frees
  the attempt's arrays and restores the shadow into a fresh array (the
  same allocation the facade's re-load would have made), then retries
  with fresh derived randomness.  The retry budget is the session's
  :class:`~repro.api.config.RetryPolicy`.  Substituted and fused steps
  get the identical treatment — their spec declares whether they are
  randomized.
* **Consumer-counted lifetime.**  Every intermediate is freed as soon
  as its last consumer has run; a plan that fails — or is abandoned
  mid-run — leaves the machine's array set exactly as it found it.

:meth:`Executor.stepwise` exposes the same execution as a generator
that pauses after every completed step; the service layer's
cross-session batcher interleaves several of them.  Cleanup lives in
the generator's ``finally`` path, so it runs for Las Vegas exhaustion,
plain bugs, *and* abandonment (``close()`` on a half-driven generator)
— the historical except-only sweep missed that last case and leaked
consumer-counted handles (and memmap temp files) when a concurrent
driver dropped a failed plan.

Streamed sources (:class:`repro.service.streaming.StreamSource`) are
ingested at first-consumer staging time: one
:meth:`~repro.em.machine.EMMachine.begin_chunked_load` (emitting the
identical ``ALLOC`` a one-shot upload of the public total would) and
one untraced :meth:`~repro.em.machine.EMMachine.load_chunk` round trip
per scheduled chunk — so a streamed plan's full transcript is
byte-identical to its one-shot twin while the client never holds more
than one chunk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.api.optimizer import (
    OptimizedPlan,
    identity_schedule,
    optimize_plan,
    validate_optimize,
)
from repro.api.registry import AlgorithmSpec
from repro.api.result import CostReport, PlanResult, StepResult
from repro.em.block import is_empty, occupancy
from repro.em.storage import EMArray
from repro.errors import LasVegasFailure, RetryExhausted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.plan import Plan
    from repro.api.session import ObliviousSession

__all__ = ["Executor"]


class Executor:
    """Runs plans for one :class:`~repro.api.session.ObliviousSession`."""

    def __init__(self, session: "ObliviousSession") -> None:
        self.session = session

    def execute(
        self, plan: "Plan", optimize: bool | str | None = None
    ) -> PlanResult:
        """Execute ``plan`` and return the per-step and total costs.

        ``optimize`` may be ``False`` (verbatim), ``True`` (byte-
        preserving rewrites), ``"aggressive"`` (also distribution-
        preserving ones), or ``None`` to inherit the session default.

        On any failure — Las Vegas exhaustion or a plain bug — every
        array the plan allocated is freed before the exception
        propagates, so the machine's array set returns to its pre-plan
        state.
        """
        gen = self.stepwise(plan, optimize)
        while True:
            try:
                next(gen)
            except StopIteration as stop:
                return stop.value

    def stepwise(
        self, plan: "Plan", optimize: bool | str | None = None
    ) -> Iterator[StepResult]:
        """Generator form of :meth:`execute`: pauses after each completed
        step (yielding its :class:`~repro.api.result.StepResult`) and
        returns the final :class:`~repro.api.result.PlanResult` as the
        generator's value.

        The service's cross-session batcher drives several of these
        round-robin.  Cleanup is a ``finally`` obligation of the
        generator itself: whether the plan finishes, raises
        (:class:`~repro.errors.RetryExhausted` included), or is
        *abandoned* — ``close()`` before exhaustion, which injects
        ``GeneratorExit`` at the paused yield — every array the plan
        allocated is freed (releasing memmap temp files with it) and the
        session's call counter lands where a completed run would have
        left it, so subsequent calls derive unchanged randomness.
        """
        session = self.session
        if session._closed:
            raise RuntimeError("session is closed")
        if optimize is None:
            optimize = session.optimize
        validate_optimize(optimize)
        if optimize:
            sched = optimize_plan(plan, aggressive=optimize == "aggressive")
        else:
            sched = identity_schedule(plan)
        machine = session.machine
        pre_plan = set(machine._arrays)
        loads_before = machine.client_loads
        extracts_before = machine.client_extracts
        base_calls = session._calls
        steps: list[StepResult] | None = None
        try:
            steps = yield from self._schedule_steps(plan, sched, base_calls)
        finally:
            session._calls = base_calls + sched.total_slots
            if steps is None:
                for array_id in set(machine._arrays) - pre_plan:
                    machine.free(machine._arrays[array_id])
        total = CostReport(
            reads=sum(s.cost.reads for s in steps),
            writes=sum(s.cost.writes for s in steps),
            attempts=sum(s.cost.attempts for s in steps),
            trace_fingerprint=None,
            batches=sum(s.cost.batches for s in steps),
            batched_ios=sum(s.cost.batched_ios for s in steps),
        )
        return PlanResult(
            steps=tuple(steps),
            total=total,
            loads=machine.client_loads - loads_before,
            extracts=machine.client_extracts - extracts_before,
        )

    # -- internals ---------------------------------------------------------

    def _stage_source(self, source: dict, name: str) -> EMArray:
        """Stage one pending payload as a step input array.

        First client staging is the plan's upload (one-shot or chunk-
        scheduled for streams); every later staging is a server-local
        :meth:`~repro.em.machine.EMMachine.stage_records`.  Decrements
        the payload's consumer count; the caller drops the pending entry
        once it hits zero."""
        machine = self.session.machine
        stream = source.get("stream")
        if source["client"]:
            if stream is not None:
                # The chunked upload: one ALLOC of the public total
                # (identical to a one-shot load_records of the padded
                # records), then one untraced client round trip per
                # scheduled chunk.
                A = machine.begin_chunked_load(stream.n_items, name)
                for offset, chunk in stream.padded_chunks():
                    machine.load_chunk(A, offset, chunk)
            else:
                A = machine.load_records(source["records"], name)
            source["client"] = False  # later consumers stage server-side
        else:
            A = machine.stage_records(source["records"], name)
        if (
            stream is not None
            and source["remaining"] > 1
            and source["records"] is None
        ):
            # Fan-out from a stream source: later consumers re-stage
            # the padded layout server-side, exactly like a client
            # source's later consumers.
            source["records"] = stream.materialize()
        source["remaining"] -= 1
        return A

    @staticmethod
    def _is_padded(source: dict | None) -> bool:
        """Padded payloads: everything downstream of a ``padded_output``
        step — their ``n`` is the public layout bound, privately above
        the real record count.  Streamed sources are *not* padded (their
        layout has NULL holes, but ``n`` is still the exact count)."""
        if source is None:
            return False
        return bool(source.get("padded"))

    @staticmethod
    def _is_holey(source: dict | None) -> bool:
        """May the staged layout contain NULL holes at all?  True for
        padded payloads and for streamed sources (short chunks pad to
        the block grid) — the inputs a rank-semantics algorithm would
        miscount."""
        if source is None:
            return False
        return bool(source.get("padded")) or source.get("stream") is not None

    def _schedule_steps(
        self, plan: "Plan", sched: OptimizedPlan, base_calls: int
    ) -> Iterator[StepResult]:
        session = self.session
        machine = session.machine
        # Producer node id → its packed output, waiting for consumers.
        # Each consumer's input array is staged lazily, right before its
        # step runs, so only one staged copy is resident at a time even
        # under DAG fan-out; the payload is dropped after the last
        # consumer has been staged.  ``client`` marks a payload whose
        # first staging is the plan's client→server upload; ``stream``
        # marks a chunk-scheduled upload whose n is the padded public
        # total.
        pending: dict[int, dict] = {}
        for node in plan.nodes:
            if not node.is_source:
                continue
            remaining = sched.consumers.get(id(node), 0)
            if not remaining:
                continue
            if node.stream is not None:
                pending[id(node)] = {
                    "records": None,  # materialized lazily on fan-out
                    "n": node.stream.n_items,
                    "client": True,
                    "stream": node.stream,
                    "remaining": remaining,
                }
            elif node.resident is not None:
                # Server-local snapshot, layout (NULL rows) preserved;
                # the caller's array stays untouched.
                layout = node.resident.flat()
                pending[id(node)] = {
                    "records": layout,
                    "n": occupancy(layout),
                    "client": False,
                    "remaining": remaining,
                }
            else:
                pending[id(node)] = {
                    "records": node.records,
                    "n": occupancy(node.records),
                    "client": True,
                    "remaining": remaining,
                }
        steps: list[StepResult] = []
        for step in sched.schedule:
            spec = step.spec
            call_index = base_calls + step.slot
            session._calls = base_calls + step.slot_end + 1
            source = pending[step.input_id]
            rhs_source = (
                pending[step.rhs_id] if step.rhs_id is not None else None
            )
            padded_in = self._is_padded(source) or self._is_padded(rhs_source)
            holey_in = self._is_holey(source) or self._is_holey(rhs_source)
            if holey_in and not spec.null_tolerant:
                # Defensive twin of the Dataset.apply gate, for plans
                # (or optimizer schedules) built around it.
                raise TypeError(
                    f"{spec.name!r} is not null-tolerant and cannot "
                    "consume a padded layout — a streamed source, or "
                    "anything downstream of mask/join/group_by (its "
                    "n_items is the padded public bound)"
                )
            # The right-hand relation (arity-2 steps) is staged *before*
            # the step runs, so a Las Vegas retry — which frees only
            # arrays allocated after the attempt started — leaves it in
            # place for the next attempt.
            rhs_array = rhs_n = None
            if rhs_source is not None:
                rhs_array = self._stage_source(
                    rhs_source, f"{spec.name}{call_index}.rhs"
                )
                rhs_n = rhs_source["n"]
                if rhs_source["remaining"] == 0:
                    del pending[step.rhs_id]
            A = self._stage_source(source, f"{spec.name}{call_index}")
            n_items = source["n"]
            if source["remaining"] == 0:
                del pending[step.input_id]
            run_params = dict(step.params)
            if rhs_array is not None:
                run_params["_rhs"] = rhs_array
                run_params["_rhs_n"] = rhs_n
            if spec.pad_aware:
                # Public fact (a function of plan structure alone): the
                # kernel conditions its padding-repair passes on it.
                run_params["_padded"] = padded_in
            A, out, cost, before = self._run_step(
                spec, A, n_items, run_params, call_index
            )
            session._note_step(cost)
            if rhs_array is not None:
                machine.free(rhs_array)
            # Free the attempt's scratch: everything it allocated except
            # the output array.
            keep = {out.array.array_id} if out.array is not None else set()
            for array_id in (set(machine._arrays) - before) - keep:
                machine.free(machine._arrays[array_id])
            records = None
            if spec.output == "records":
                if out.array is None:
                    raise RuntimeError(
                        f"algorithm {spec.name!r} declares record output "
                        "but its runner returned no array"
                    )
                if out.array is not A:
                    machine.free(A)
                remaining = sched.consumers.get(step.out_id, 0)
                # Terminal downloads this output must serve: normally 1;
                # more when several elided terminals alias this step —
                # each pays its own client round trip (matching the
                # verbatim plan's accounting) but they share these bytes
                # in this single StepResult.
                downloads = sched.extracts.get(step.out_id, 0)
                # Sticky padding: once any ancestor introduced data-
                # dependent NULL padding, every later handoff keeps the
                # full public layout — repacking to the surviving count
                # here is exactly the selectivity leak.
                padded_out = padded_in or spec.padded_output
                if remaining:
                    # Server-local handoff: pack the intermediate; each
                    # consumer's input is staged from it lazily, just
                    # before that consumer runs — no client round trip.
                    packed = machine.repack_resident(
                        out.array,
                        f"{spec.name}{call_index}.out",
                        keep_layout=padded_out,
                    )
                    pending[step.out_id] = {
                        "records": packed,
                        "n": len(packed),
                        "client": False,
                        "remaining": remaining,
                        "padded": padded_out,
                    }
                    if downloads:
                        records = (
                            packed[~is_empty(packed)].copy()
                            if padded_out
                            else packed.copy()
                        )
                        machine.client_extracts += downloads
                elif downloads:
                    # Terminal record output: the server→client extract.
                    records = machine.extract_records(out.array)
                    machine.free(out.array)
                    machine.client_extracts += downloads - 1
                else:  # pragma: no cover - defensive; rules keep outputs used
                    machine.free(out.array)
            else:
                # Value output (terminal by plan construction): this step
                # was the input's last consumer.
                if out.array is not None and out.array is not A:
                    machine.free(out.array)
                machine.free(A)
            result = StepResult(
                step=len(steps),
                algorithm=spec.name,
                n_items=n_items,
                cost=cost,
                value=out.value,
                records=records,
                params=dict(step.params, n=n_items, seed=session.seed),
                note=step.note,
            )
            steps.append(result)
            yield result
        return steps

    def _run_step(
        self,
        spec: AlgorithmSpec,
        A: EMArray,
        n_items: int,
        params,
        call_index: int,
    ):
        """Run one step with per-attempt derived randomness and bounded
        Las Vegas retry; returns ``(input_array, output, cost, before)``
        where ``before`` is the successful attempt's pre-existing array
        set (the caller frees the attempt's scratch against it)."""
        session = self.session
        machine = session.machine
        attempts = session.retry.max_attempts if spec.randomized else 1
        # Server-side shadow of the step input: a retry restores it into
        # a fresh array — the same allocation the facade's per-attempt
        # re-load makes, minus the client round trip.  Only in-place
        # specs (declared mutators) pay for the copy up front; other
        # runners leave their input pristine (the AlgorithmSpec
        # contract), so the shadow is captured lazily at failure time.
        shadow = A._data.copy() if attempts > 1 and spec.in_place else None
        shadow_name = A.name
        last: LasVegasFailure | None = None
        for attempt in range(attempts):
            before = set(machine._arrays)
            rng = session._derive_rng(call_index, attempt)
            with machine.trace.window() as mark:
                try:
                    with machine.metered() as meter:
                        out = spec.runner(machine, A, n_items, rng, dict(params))
                except LasVegasFailure as exc:
                    exc.attempt = attempt + 1
                    exc.seed = session.seed
                    last = exc
                    for array_id in set(machine._arrays) - before:
                        machine.free(machine._arrays[array_id])
                    if shadow is None and attempt + 1 < attempts:
                        shadow = A._data.copy()
                    machine.free(A)
                    if attempt + 1 < attempts:
                        A = machine.alloc_cells(max(1, A.num_cells), shadow_name)
                        A._data[...] = shadow
                        continue
                    break
                except BaseException:
                    # Non-retryable errors: reclaim this attempt's scratch;
                    # Executor.execute frees the rest of the plan's arrays.
                    for array_id in set(machine._arrays) - before:
                        machine.free(machine._arrays[array_id])
                    raise
                if spec.in_place and out.array is not None and out.array is not A:
                    raise RuntimeError(
                        f"algorithm {spec.name!r} declares in_place but its "
                        "runner returned a different array than its input"
                    )
                if machine.trace.enabled:
                    fingerprint, canonical = machine.trace.fingerprint_pair(mark)
                else:
                    fingerprint = canonical = None
            cost = CostReport(
                reads=meter.reads,
                writes=meter.writes,
                attempts=attempt + 1,
                trace_fingerprint=fingerprint,
                batches=meter.batches,
                batched_ios=meter.batched_ios,
                trace_canonical=canonical,
            )
            return A, out, cost, before
        raise RetryExhausted(
            f"{spec.name!r} failed all {attempts} attempts "
            f"(seed {session.seed}): {last}",
            attempt=attempts,
            seed=session.seed,
        ) from last
