"""The :class:`ObliviousSession` facade — one object, every algorithm.

A session owns an :class:`~repro.em.machine.EMMachine` (built from an
:class:`~repro.api.config.EMConfig`), derives every random stream from a
single seed, retries Las Vegas failures within a bounded
:class:`~repro.api.config.RetryPolicy`, and wraps every call's output in
a :class:`~repro.api.result.Result` carrying a unified cost report.

Since the pipeline redesign the facade methods are thin *single-node
plans*: ``session.sort(keys)`` builds a one-step
:class:`~repro.api.plan.Plan` and runs it through the
:class:`~repro.api.executor.Executor` — exactly the machinery behind
``session.dataset(keys).shuffle().compact().sort().run()``, so a facade
call and the equivalent pipeline step produce byte-identical traces and
costs.  Use :meth:`dataset` to chain steps with machine-resident
intermediates (one load, one extract for the whole chain).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.api.config import EMConfig, RetryPolicy
from repro.api.registry import names as algorithm_names
from repro.api.result import Result, SessionCostSummary
from repro.em.block import RECORD_WIDTH, make_records

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.plan import Dataset, Plan

__all__ = ["ObliviousSession"]


def _as_records(data) -> np.ndarray:
    """Normalise caller data to an ``(n, 2)`` int64 record array.

    Accepts a 1-D sequence of keys (values default to the keys, as in
    :func:`repro.em.block.make_records`) or an ``(n, 2)`` record array —
    the latter may contain ``NULL_KEY`` rows to describe sparse layouts
    for compaction.
    """
    arr = np.asarray(data, dtype=np.int64)
    if arr.ndim == 1:
        return make_records(arr)
    if arr.ndim == 2 and arr.shape[1] == RECORD_WIDTH:
        return arr
    raise ValueError(
        f"data must be 1-D keys or an (n, {RECORD_WIDTH}) record array, "
        f"got shape {arr.shape}"
    )


class ObliviousSession:
    """Single entry point to the paper's algorithms.

    Parameters
    ----------
    config:
        Machine shape and storage backend; defaults to :class:`EMConfig`.
    seed:
        Root seed.  Call ``i``'s attempt ``a`` draws from
        ``SeedSequence(entropy=seed, spawn_key=(i, a))`` — one integer
        reproduces an entire session, and every retry sees fresh,
        independent randomness.  Pipeline steps consume call indices in
        execution order, so a pipeline and the equivalent sequence of
        facade calls derive identical randomness.
    retry:
        Las Vegas retry budget; defaults to :class:`RetryPolicy`.
    optimize:
        Default for the cost-based plan optimizer
        (:mod:`repro.api.optimizer`): ``False`` (run plans verbatim —
        the default), ``True`` (byte-preserving rewrites: drop
        redundant shuffles, elide sorts of sorted inputs, pick cheaper
        variants, fuse scans), or ``"aggressive"`` (also
        distribution-preserving rewrites).  Every ``plan.run()`` /
        ``plan.explain()`` / facade call can override per call.
    **overrides:
        Shorthand for config fields: ``ObliviousSession(M=64, B=4,
        backend="memmap")``.

    Use as a context manager (or call :meth:`close`) so file-backed
    storage is reclaimed::

        with ObliviousSession(M=64, B=4, seed=7) as session:
            result = session.sort(keys)
            print(result.keys, result.cost)
    """

    def __init__(
        self,
        config: EMConfig | None = None,
        *,
        seed: int = 0,
        retry: RetryPolicy | None = None,
        optimize: bool | str = False,
        machine=None,
        **overrides: Any,
    ) -> None:
        config = config if config is not None else EMConfig()
        if overrides:
            config = config.with_overrides(**overrides)
        from repro.api.optimizer import validate_optimize

        self.config = config
        self.retry = retry if retry is not None else RetryPolicy()
        self.optimize = validate_optimize(optimize)
        self.seed = int(seed)
        # ``machine`` injects a pre-built EMMachine (the service layer's
        # shared-backend machines, built with owns_backend=False so
        # session close() frees arrays but leaves neighbours' storage).
        self.machine = machine if machine is not None else config.make_machine()
        self._calls = 0
        self._closed = False
        self._cum_steps = 0
        self._cum_attempts = 0
        self._cum_reads = 0
        self._cum_writes = 0
        self._cum_batches = 0
        self._cum_batched_ios = 0

    # -- lazy pipelines ----------------------------------------------------

    def dataset(self, data) -> "Dataset":
        """A lazy :class:`~repro.api.plan.Dataset` handle over ``data``.

        ``data`` is client data (1-D keys or an ``(n, 2)`` record array,
        ``NULL_KEY`` rows allowed) or an :class:`~repro.em.storage.EMArray`
        already resident on this session's machine.  Chain oblivious
        operations and execute them as one plan::

            plan = session.dataset(keys).shuffle().compact().sort().plan()
            print(plan.explain())   # analytical I/O estimates, nothing ran
            result = plan.run()     # one load, N steps, one extract

        Intermediates stay machine-resident between steps; each step
        retries Las Vegas failures independently and snapshots its own
        trace fingerprint into a per-step
        :class:`~repro.api.result.CostReport`.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        from repro.api.plan import make_source

        return make_source(self, data)

    def stream(
        self,
        chunks,
        *,
        chunk_records: int | None = None,
        num_chunks: int | None = None,
    ) -> "Dataset":
        """A lazy handle over records arriving as mini-batch chunks.

        ``chunks`` is a sequence of chunk arrays (each 1-D keys or an
        ``(k, 2)`` record array) or a pre-built
        :class:`~repro.service.streaming.StreamSource`.  The *schedule*
        — chunk count × chunk size — is public; short chunks are padded
        with ``NULL`` rows so data-dependent arrival sizes never reach
        the server.  The executor provisions the server array once (the
        same ``ALLOC`` a one-shot upload of the public total would
        emit) and uploads one chunk per client round trip, so peak
        client residency is one chunk instead of the whole dataset::

            ds = session.stream([chunk0, chunk1, chunk2])
            result = ds.sort().run()   # byte-identical trace to one-shot

        Only null-tolerant algorithms (sort, compact, shuffle, mask, …)
        may consume the stream directly — its staged ``n_items`` is the
        padded public total.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        from repro.api.plan import make_stream_source

        return make_stream_source(
            self,
            chunks,
            chunk_records=chunk_records,
            num_chunks=num_chunks,
        )

    def plan(self, *targets) -> "Plan":
        """Freeze several :class:`~repro.api.plan.Dataset` targets into
        one :class:`~repro.api.plan.Plan` (a DAG with shared lineage is
        executed once per node)."""
        from repro.api.plan import Plan

        return Plan(self, targets)

    # -- generic dispatch --------------------------------------------------

    def run(
        self,
        algorithm: str,
        data,
        *,
        optimize: bool | str | None = None,
        **params: Any,
    ) -> Result:
        """Run a registered ``algorithm`` over ``data``.

        A thin single-node plan: loads the records onto the session's
        machine, executes the registered runner with a per-attempt
        derived RNG, retries Las Vegas failures up to
        ``retry.max_attempts`` times, extracts the output, and returns a
        :class:`Result`.  Raises :class:`repro.errors.RetryExhausted`
        when every attempt fails.  ``optimize`` (keyword-only, reserved)
        overrides the session's optimizer default — on a single-step
        plan only the variant-substitution rule can fire (e.g.
        ``compact`` of a genuinely sparse layout takes the Theorem 4 or
        Theorem 8 path when the cost model favours it).

        Every call frees the server arrays it allocated, and its
        ``cost.trace_fingerprint`` is snapshotted over exactly the
        successful attempt's transcript window — the machine's trace is
        *not* cleared, so machine-level work (e.g. :meth:`oram` traffic)
        interleaved with facade calls stays in the whole-trace digest
        ``machine.trace.fingerprint()``.  To digest a window of your
        own, run the work inside ``with machine.trace.window() as
        mark:`` and read ``machine.trace.fingerprint(since=mark)`` before
        the block ends; the block closes the window (an open window adds
        work to every later append).  ``mark = machine.trace.mark()``
        with a matching ``machine.trace.release(mark)`` does the same.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        target = self.dataset(data).apply(algorithm, **params)
        plan_result = target.run(optimize)
        step = plan_result.steps[-1]
        return Result(
            algorithm=step.algorithm,
            records=step.records,
            value=step.value,
            cost=step.cost,
            params=step.params,
        )

    # -- typed conveniences ------------------------------------------------

    def sort(self, data, **params: Any) -> Result:
        """Oblivious sort (Theorem 21); ``result.records`` is sorted."""
        return self.run("sort", data, **params)

    def compact(self, data, **params: Any) -> Result:
        """Tight record compaction (Lemma 3 + Theorem 6) of a sparse
        ``(n, 2)`` layout; pass ``capacity_blocks`` to bound the output."""
        return self.run("compact", data, **params)

    def select(self, data, k: int, **params: Any) -> Result:
        """k-th smallest (Theorem 13); ``result.value`` is ``(key, value)``."""
        return self.run("select", data, k=k, **params)

    def quantiles(self, data, q: int, **params: Any) -> Result:
        """q quantile keys (Theorem 17); ``result.value`` is an ndarray."""
        return self.run("quantiles", data, q=q, **params)

    def shuffle(self, data, **params: Any) -> Result:
        """Uniform oblivious block shuffle, returning the permuted records."""
        return self.run("shuffle", data, **params)

    # -- substrates --------------------------------------------------------

    def oram(self, capacity_cells: int, **kw: Any):
        """A :class:`~repro.oram.SquareRootORAM` on this session's machine,
        seeded from the session seed.

        Facade calls and pipeline runs no longer clear the machine trace
        (each snapshots its own window), so ORAM traffic interleaved
        with facade calls stays in the whole-trace digest.  To
        fingerprint just the ORAM's traffic, run it inside ``with
        machine.trace.window() as mark:`` and digest it with
        ``machine.trace.fingerprint(since=mark)`` inside the block, or
        pair ``mark = machine.trace.mark()`` with
        ``machine.trace.release(mark)``."""
        from repro.oram import SquareRootORAM

        call_index = self._calls
        self._calls += 1
        return SquareRootORAM(
            self.machine, capacity_cells, self._derive_rng(call_index, 0), **kw
        )

    # -- bookkeeping -------------------------------------------------------

    def algorithms(self) -> list[str]:
        """Names accepted by :meth:`run`."""
        return algorithm_names()

    @property
    def total_ios(self) -> int:
        """Cumulative block I/Os across all calls of this session."""
        return self.machine.total_ios

    def cost_summary(self) -> SessionCostSummary:
        """Cumulative cost across every call and pipeline step so far.

        Sums the successful attempts' reads/writes/batches (the same
        scoping as per-call :class:`~repro.api.result.CostReport`\\ s)
        plus total Las Vegas attempts, client↔server round trips, and
        the machine's raw lifetime I/O counter (which also covers failed
        attempts and direct machine-level work such as ORAM traffic).
        """
        return SessionCostSummary(
            steps=self._cum_steps,
            attempts=self._cum_attempts,
            reads=self._cum_reads,
            writes=self._cum_writes,
            batches=self._cum_batches,
            batched_ios=self._cum_batched_ios,
            loads=self.machine.client_loads,
            extracts=self.machine.client_extracts,
            machine_ios=self.machine.total_ios,
        )

    def close(self) -> None:
        """Free server arrays and close the storage backend (idempotent)."""
        if not self._closed:
            self.machine.close()
            self._closed = True

    def __enter__(self) -> "ObliviousSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _derive_rng(self, call_index: int, attempt: int) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(call_index, attempt)
        )
        return np.random.default_rng(seq)

    def _note_step(self, cost) -> None:
        """Accumulate one completed step's cost into the session totals."""
        self._cum_steps += 1
        self._cum_attempts += cost.attempts
        self._cum_reads += cost.reads
        self._cum_writes += cost.writes
        self._cum_batches += cost.batches
        self._cum_batched_ios += cost.batched_ios

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ObliviousSession(M={self.config.M}, B={self.config.B}, "
            f"backend={self.config.backend!r}, seed={self.seed}, "
            f"calls={self._calls})"
        )
