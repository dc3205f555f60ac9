"""The lazy pipeline API: plan construction, machine-resident execution,
per-step retry, explain() estimates, and trace-window snapshots.

Acceptance criteria covered here:

* a 3-step pipeline performs exactly one client→server load and one
  server→client extract (machine round-trip counters);
* per-step trace fingerprints are byte-identical to the equivalent
  standalone facade calls on the same derived seeds;
* ``explain()`` estimates for sort/compact/quantiles are within a ×4
  factor (documented below) of measured block I/Os across two machine
  shapes;
* a Las Vegas failure mid-pipeline retries only that step with fresh
  derived randomness and leaks no server arrays, on both backends.
"""

import numpy as np
import pytest

from repro.api import (
    NULL_KEY,
    AlgorithmOutput,
    AlgorithmSpec,
    EMConfig,
    ObliviousSession,
    RetryPolicy,
    register,
    unregister,
)
from repro.core.selection import SelectionFailure
from repro.em.trace import AccessTrace
from repro.errors import RetryExhausted

M, B = 64, 4
SEED = 123


def _session(**kw):
    cfg = EMConfig(M=M, B=B, **{k: v for k, v in kw.items() if k != "seed"})
    return ObliviousSession(cfg, seed=kw.get("seed", SEED))


def _keys(n, seed=0):
    return np.random.default_rng(seed).permutation(np.arange(n))


# ---------------------------------------------------------------------------
# Acceptance: one load, one extract; per-step facade fingerprint parity
# ---------------------------------------------------------------------------


def test_three_step_pipeline_single_load_single_extract():
    keys = _keys(200)
    with _session() as session:
        result = session.dataset(keys).shuffle().compact().sort().run()
        assert result.loads == 1
        assert result.extracts == 1
        assert session.machine.client_loads == 1
        assert session.machine.client_extracts == 1
        # All intermediates were consumer-counted away.
        assert len(session.machine._arrays) == 0
    assert np.array_equal(result.records[:, 0], np.sort(keys))
    assert len(result.steps) == 3
    assert [s.algorithm for s in result.steps] == ["shuffle", "compact", "sort"]


@pytest.mark.parametrize("backend", ["memory", "memmap"])
def test_pipeline_steps_match_standalone_facade_calls(backend):
    """Each pipeline step is byte-identical (trace fingerprint and cost)
    to the equivalent facade call on the same derived seeds."""
    keys = _keys(200)
    with _session(backend=backend) as session:
        plan_result = session.dataset(keys).shuffle().compact().sort().run()
    with _session(backend=backend) as session:
        r1 = session.shuffle(keys)
        r2 = session.compact(r1.records)
        r3 = session.sort(r2.records)
        assert session.machine.client_loads == 3  # the round trips saved
    for step, facade in zip(plan_result.steps, (r1, r2, r3)):
        assert step.cost.trace_fingerprint == facade.cost.trace_fingerprint
        assert step.cost == facade.cost
    assert np.array_equal(plan_result.records, r3.records)


def test_pipeline_and_facade_derive_identical_randomness():
    """A pipeline consumes call indices in execution order, so seeds line
    up with a facade sequence — same outputs, not just same traces."""
    keys = _keys(300, seed=3)
    with _session() as session:
        a = session.dataset(keys).shuffle().run().records
    with _session() as session:
        b = session.shuffle(keys).records
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Acceptance: explain() within a documented constant factor of measurement
# ---------------------------------------------------------------------------

#: The documented envelope: analytical estimates use calibrated leading
#: constants (repro.analysis.bounds) and must stay within ×4 of measured
#: block I/Os at both reference shapes.
EXPLAIN_FACTOR = 4.0


@pytest.mark.parametrize("shape_n", [(64, 4, 512), (256, 8, 2048)])
def test_explain_estimates_within_constant_factor(shape_n):
    M_, B_, n = shape_n
    keys = _keys(n, seed=1)
    with ObliviousSession(EMConfig(M=M_, B=B_, trace=False), seed=7) as session:
        ds = session.dataset(keys).shuffle().compact().sort().quantiles(q=4)
        explain = ds.explain()
        assert session.machine.total_ios == 0  # nothing executed
        result = ds.run()
    by_algo = {s.algorithm: s for s in explain.steps}
    measured = {s.algorithm: s.cost.total for s in result.steps}
    for algo in ("sort", "compact", "quantiles"):
        est = by_algo[algo].est_ios
        meas = measured[algo]
        ratio = max(est / meas, meas / est)
        assert ratio <= EXPLAIN_FACTOR, (
            f"{algo} at M={M_},B={B_},n={n}: estimate {est:.0f} vs "
            f"measured {meas} (ratio {ratio:.2f} > {EXPLAIN_FACTOR})"
        )
    # shuffle's bound is exact
    assert by_algo["shuffle"].est_ios == measured["shuffle"]


def test_explain_renders_without_executing():
    keys = _keys(128)
    with _session() as session:
        plan = session.dataset(keys).shuffle().sort().plan()
        text = str(plan.explain())
        assert "shuffle" in text and "sort" in text
        assert "Theorem 21" in text
        assert session.machine.total_ios == 0
        assert session.machine.client_loads == 0
    est = plan.explain()
    assert est.total_est_ios > 0
    assert [s.algorithm for s in est.steps] == ["shuffle", "sort"]
    assert all(s.n_items == 128 for s in est.steps)


def test_explain_propagates_sizes_through_sparse_compaction():
    # A sparse layout: occupancy, not layout length, drives the estimates.
    n_blocks = 30
    layout = np.zeros((n_blocks * B, 2), dtype=np.int64)
    layout[:, 0] = NULL_KEY
    live = np.arange(0, n_blocks, 3)
    layout[live * B, 0] = live + 1
    with _session() as session:
        est = session.dataset(layout).compact().sort().explain()
    assert est.steps[0].n_items == len(live)
    assert est.steps[1].n_items == len(live)  # compact preserves count


# ---------------------------------------------------------------------------
# Failure paths: per-step retry, fresh randomness, no leaked arrays
# ---------------------------------------------------------------------------


@pytest.fixture
def flaky(request):
    """A chainable (records-output) algorithm failing its first
    ``fail_times`` attempts."""
    state = {"calls": 0, "fail_times": 1, "rng_draws": []}

    def runner(machine, A, n_items, rng, params):
        state["calls"] += 1
        state["rng_draws"].append(int(rng.integers(0, 2**62)))
        scratch = machine.alloc(2, "flaky.scratch")
        machine.write(scratch, 0, machine.read(A, 0))
        if state["calls"] <= state["fail_times"]:
            raise SelectionFailure(f"injected failure #{state['calls']}")
        machine.free(scratch)
        return AlgorithmOutput(array=A)

    register(AlgorithmSpec("_pipe_flaky", "test-only", runner, randomized=True))
    request.addfinalizer(lambda: unregister("_pipe_flaky"))
    return state


@pytest.mark.parametrize("backend", ["memory", "memmap"])
def test_mid_pipeline_failure_retries_only_that_step(flaky, backend):
    keys = _keys(64)
    with _session(backend=backend) as session:
        pre_plan = set(session.machine._arrays)
        ds = session.dataset(keys).shuffle().apply("_pipe_flaky").sort()
        result = ds.run()
        assert set(session.machine._arrays) == pre_plan
    # Only the flaky step retried; its neighbours ran once.
    assert [s.cost.attempts for s in result.steps] == [1, 2, 1]
    assert flaky["calls"] == 2
    # Each attempt drew from an independently derived stream.
    assert flaky["rng_draws"][0] != flaky["rng_draws"][1]
    # The restored input fed the retry: downstream output is still correct.
    assert np.array_equal(result.records[:, 0], np.sort(keys))
    # Still exactly one load and one extract — retries are server-side.
    assert result.loads == 1 and result.extracts == 1


@pytest.mark.parametrize("backend", ["memory", "memmap"])
def test_exhausted_pipeline_leaks_no_arrays(flaky, backend):
    flaky["fail_times"] = 99
    keys = _keys(64)
    with _session(backend=backend) as session:
        session.retry = RetryPolicy(max_attempts=3)
        pre_plan = set(session.machine._arrays)
        with pytest.raises(RetryExhausted) as info:
            session.dataset(keys).shuffle().apply("_pipe_flaky").sort().run()
        assert set(session.machine._arrays) == pre_plan
    assert flaky["calls"] == 3
    assert info.value.attempt == 3
    assert info.value.seed == SEED


def test_non_lasvegas_error_mid_pipeline_cleans_up():
    def runner(machine, A, n_items, rng, params):
        machine.alloc(3, "boom.scratch")
        raise ValueError("not a Las Vegas failure")

    register(AlgorithmSpec("_pipe_boom", "test-only", runner))
    try:
        with _session() as session:
            pre_plan = set(session.machine._arrays)
            with pytest.raises(ValueError, match="not a Las Vegas"):
                session.dataset(_keys(32)).shuffle().apply("_pipe_boom").run()
            assert set(session.machine._arrays) == pre_plan
    finally:
        unregister("_pipe_boom")


# ---------------------------------------------------------------------------
# Plan construction and DAG semantics
# ---------------------------------------------------------------------------


def test_value_steps_are_terminal():
    with _session() as session:
        ds = session.dataset(_keys(32)).quantiles(q=2)
        with pytest.raises(TypeError, match="terminal"):
            ds.sort()


def test_unknown_algorithm_raises_eagerly():
    with _session() as session:
        with pytest.raises(KeyError, match="unknown algorithm"):
            session.dataset(_keys(8)).apply("frobnicate")


def test_value_terminal_pipeline_returns_value():
    n = 256
    keys = _keys(n, seed=4)
    with _session() as session:
        result = session.dataset(keys).shuffle().quantiles(q=3).run()
    s = np.sort(keys)
    expected = [int(s[max(1, min(n, round(i * n / 4))) - 1]) for i in (1, 2, 3)]
    assert result.value.tolist() == expected
    with pytest.raises(ValueError, match="no record output"):
        result.records


def test_dag_fan_out_executes_shared_lineage_once():
    n = 256
    keys = _keys(n, seed=5)
    with _session() as session:
        shuffled = session.dataset(keys).shuffle()
        sorted_ds = shuffled.sort()
        quant_ds = shuffled.quantiles(q=2)
        result = session.plan(sorted_ds, quant_ds).run()
        assert len(session.machine._arrays) == 0
    # shuffle ran once, feeding both consumers.
    assert [s.algorithm for s in result.steps] == ["shuffle", "sort", "quantiles"]
    assert np.array_equal(result.records[:, 0], np.sort(keys))
    assert len(result.value) == 2
    # One upload of the source; one download of the sorted output.
    assert result.loads == 1 and result.extracts == 1


def test_resident_array_source_needs_no_load():
    keys = _keys(64, seed=6)
    with _session() as session:
        resident = session.machine.stage_records(
            np.stack([keys, keys], axis=1).astype(np.int64), "resident.src"
        )
        result = session.dataset(resident).sort().run()
        assert result.loads == 0
        assert result.extracts == 1
        # The caller's array is untouched and still owned by the machine.
        assert resident.array_id in session.machine._arrays
        assert np.array_equal(result.records[:, 0], np.sort(keys))


def test_resident_source_reflects_run_time_contents():
    """The source snapshot (and its public count) is taken at run time,
    not at dataset() construction — mutating the resident array in
    between must not silently drop records."""
    keys = _keys(8, seed=11) + 10
    with _session() as session:
        records = np.stack([keys, keys], axis=1).astype(np.int64)
        resident = session.machine.alloc_cells(12, "resident.src")
        resident.load_flat(records)  # 8 real records, 4 NULL padding rows
        ds = session.dataset(resident).sort()
        # Fill the padding before running: 12 records are now resident.
        extra = np.array([[30, 30], [31, 31], [32, 32], [33, 33]], np.int64)
        resident.load_flat(np.concatenate([records, extra]))
        result = ds.run()
    expected = np.sort(np.concatenate([keys, extra[:, 0]]))
    assert np.array_equal(result.records[:, 0], expected)


def test_bare_source_plan_raises():
    with _session() as session:
        ds = session.dataset(_keys(16))
        with pytest.raises(ValueError, match="no algorithm steps"):
            ds.run()
        with pytest.raises(ValueError, match="no algorithm steps"):
            ds.explain()


def test_in_place_spec_must_return_its_input():
    def runner(machine, A, n_items, rng, params):
        return AlgorithmOutput(array=machine.alloc(1, "rogue.out"))

    register(AlgorithmSpec("_rogue", "test-only", runner, in_place=True))
    try:
        with _session() as session:
            pre_plan = set(session.machine._arrays)
            with pytest.raises(RuntimeError, match="declares in_place"):
                session.run("_rogue", _keys(8))
            assert set(session.machine._arrays) == pre_plan
    finally:
        unregister("_rogue")


def test_plans_are_reusable_and_reproduce_with_fresh_call_indices():
    keys = _keys(96, seed=7)
    with _session() as session:
        ds = session.dataset(keys).shuffle()
        a = ds.run()
        b = ds.run()  # same plan, later call indices → fresh randomness
    assert sorted(a.records[:, 0]) == sorted(b.records[:, 0])
    assert not np.array_equal(a.records, b.records)  # overwhelmingly likely


# ---------------------------------------------------------------------------
# Satellites: cost_summary, trace preservation, mark/fingerprint windows
# ---------------------------------------------------------------------------


def test_cost_summary_accumulates_calls_and_pipeline_steps():
    keys = _keys(128, seed=8)
    with _session() as session:
        r = session.sort(keys)
        p = session.dataset(keys).shuffle().compact().run()
        summary = session.cost_summary()
    assert summary.steps == 3  # one facade call + two pipeline steps
    assert summary.reads == r.cost.reads + p.total.reads
    assert summary.writes == r.cost.writes + p.total.writes
    assert summary.batches == r.cost.batches + p.total.batches
    assert summary.attempts == r.cost.attempts + p.total.attempts
    assert summary.loads == 2 and summary.extracts == 2
    assert summary.total == summary.reads + summary.writes
    assert summary.machine_ios >= summary.total
    assert "step(s)" in str(summary)


def test_facade_calls_no_longer_clear_the_trace():
    keys = _keys(64, seed=9)

    def run(block):
        with _session() as session:
            machine = session.machine
            arr = machine.alloc(2, "pre.work")
            machine.write(arr, 0, machine.read(arr, block))  # machine-level traffic
            machine.free(arr)
            before = len(machine.trace)
            assert before > 0
            result = session.sort(keys)
            assert machine.trace.open_windows == (0,)
            return before, len(machine.trace), machine.trace.fingerprint(), result.cost

    before, after, whole, cost = run(block=1)
    other_before, other_after, other_whole, other_cost = run(block=0)
    # The earlier history survived the facade call: the whole-trace
    # digest still covers it.  Same-shaped histories that differ only
    # in one block index leave the sort itself byte-identical, but not
    # the whole transcript.
    assert (other_before, other_after, other_cost) == (before, after, cost)
    assert after > before
    assert other_whole != whole


def test_trace_mark_and_fingerprint_since():
    full = AccessTrace(retain=True)
    suffix_only = AccessTrace()
    rng = np.random.default_rng(0)
    head = rng.integers(0, 100, size=(70_000, 3)).astype(np.int64)
    tail = rng.integers(0, 100, size=(70_000, 3)).astype(np.int64)
    full.append_rows(head)
    mark = full.mark()
    assert mark == 70_000
    full.append_rows(tail)
    suffix_only.append_rows(tail)
    # The suffix digest equals the digest a fresh trace produces for the
    # same events — even across preallocated-chunk boundaries.
    assert full.fingerprint(since=mark) == suffix_only.fingerprint()
    assert np.array_equal(full.as_array(since=mark), tail)
    assert full.fingerprint(since=full.mark()) == AccessTrace().fingerprint()


def test_total_cost_aggregates_steps():
    keys = _keys(100, seed=10)
    with _session() as session:
        result = session.dataset(keys).shuffle().compact().run()
    assert result.total.reads == sum(s.cost.reads for s in result.steps)
    assert result.total.writes == sum(s.cost.writes for s in result.steps)
    assert result.total.attempts == sum(s.cost.attempts for s in result.steps)
    assert result.total.trace_fingerprint is None  # per-step only
    assert all(s.cost.trace_fingerprint for s in result.steps)
