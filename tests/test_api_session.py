"""The ObliviousSession facade: parity with the legacy free functions,
registry dispatch, bounded Las Vegas retry, and the unified exception
hierarchy."""

import numpy as np
import pytest

from repro.api import (
    AlgorithmOutput,
    AlgorithmSpec,
    EMConfig,
    ObliviousSession,
    RetryPolicy,
    algorithm_names,
    get_algorithm,
    register,
    unregister,
)
from repro.core.compaction import CompactionFailure, tight_compact
from repro.core.consolidation import consolidate
from repro.core.quantiles import QuantileFailure, quantiles_em
from repro.core.selection import SelectionFailure, select_em
from repro.core.sorting import SortFailure, oblivious_sort
from repro.em import NULL_KEY, EMMachine, make_records
from repro.em.errors import EMError
from repro.errors import LasVegasFailure, ReproError, RetryExhausted
from repro.oblivious import workload
from repro.util.rng import make_rng

M, B = 64, 4
SEED = 123


def _legacy_machine(records):
    machine = EMMachine(M=M, B=B)
    arr = machine.alloc_cells(max(1, len(records)))
    arr.load_flat(records)
    return machine, arr


def _session():
    return ObliviousSession(EMConfig(M=M, B=B), seed=SEED)


# ---------------------------------------------------------------------------
# Parity with the legacy free functions
# ---------------------------------------------------------------------------


def test_sort_parity_with_free_function():
    keys = np.random.default_rng(5).permutation(np.arange(200))
    records = make_records(keys)

    machine, arr = _legacy_machine(records)
    with machine.metered() as meter:
        out = oblivious_sort(machine, arr, 200, make_rng(SEED), retries=1)
    legacy_records = out.nonempty()

    with _session() as session:
        result = session.sort(keys)

    assert result.records.tobytes() == legacy_records.tobytes()
    assert result.cost.total == meter.total
    assert result.cost.reads == meter.reads
    assert result.cost.writes == meter.writes


def test_select_parity_with_free_function():
    keys = np.random.default_rng(6).permutation(np.arange(1, 301))
    records = make_records(keys)

    machine, arr = _legacy_machine(records)
    with machine.metered() as meter:
        legacy = select_em(machine, arr, 300, 150, make_rng(SEED))

    with _session() as session:
        result = session.select(keys, k=150)

    assert result.value == legacy == (150, 150)
    assert result.cost.total == meter.total


def test_quantiles_parity_with_free_function():
    keys = np.random.default_rng(7).permutation(np.arange(1, 257))
    records = make_records(keys)

    machine, arr = _legacy_machine(records)
    with machine.metered() as meter:
        legacy = quantiles_em(machine, arr, 256, 3, make_rng(SEED))

    with _session() as session:
        result = session.quantiles(keys, q=3)

    assert result.value.tolist() == legacy.tolist()
    assert result.cost.total == meter.total


def test_compact_parity_with_free_functions():
    # A sparse layout: a record in the first cell of every third block.
    n_blocks = 32
    layout = np.zeros((n_blocks * B, 2), dtype=np.int64)
    layout[:, 0] = NULL_KEY
    live = np.arange(0, n_blocks, 3)
    layout[live * B, 0] = live
    layout[live * B, 1] = live * 7

    machine, arr = _legacy_machine(layout)
    with machine.metered() as meter:
        cons = consolidate(machine, arr)
        out = tight_compact(machine, cons.array)
    legacy_records = out.nonempty()

    with _session() as session:
        result = session.compact(layout)

    assert result.records.tobytes() == legacy_records.tobytes()
    assert result.keys.tolist() == live.tolist()
    assert result.cost.total == meter.total


# ---------------------------------------------------------------------------
# Result / dispatch semantics
# ---------------------------------------------------------------------------


def test_run_dispatches_like_typed_methods():
    keys = np.random.default_rng(8).permutation(np.arange(100))
    with _session() as s1, _session() as s2:
        a = s1.run("sort", keys)
        b = s2.sort(keys)
    assert a.records.tobytes() == b.records.tobytes()
    assert a.cost == b.cost


def test_result_carries_params_and_cost_metadata():
    keys = np.arange(64)
    with _session() as session:
        result = session.quantiles(keys, q=3)
    assert result.params["q"] == 3
    assert result.params["n"] == 64
    assert result.params["seed"] == SEED
    assert result.cost.attempts >= 1
    assert result.cost.trace_fingerprint is not None
    assert result.cost.total == result.cost.reads + result.cost.writes


def test_value_only_results_reject_record_accessors():
    with _session() as session:
        result = session.select(np.arange(1, 65), k=10)
    assert result.records is None
    with pytest.raises(ValueError):
        result.keys
    with pytest.raises(ValueError):
        result.values


def test_unknown_algorithm_and_params_raise():
    with _session() as session:
        with pytest.raises(KeyError, match="unknown algorithm"):
            session.run("frobnicate", [1, 2, 3])
        with pytest.raises(TypeError, match="unexpected parameters"):
            session.run("sort", [1, 2, 3], wibble=4)


def test_closed_session_rejects_calls():
    session = _session()
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        session.sort([3, 1, 2])
    session.close()  # idempotent


def test_no_server_arrays_leak_across_calls():
    keys = np.random.default_rng(9).permutation(np.arange(80))
    with _session() as session:
        session.sort(keys)
        session.select(keys + 1, k=40)
        session.shuffle(keys)
        assert len(session.machine._arrays) == 0


# ---------------------------------------------------------------------------
# Retry semantics (injected Las Vegas failures)
# ---------------------------------------------------------------------------


@pytest.fixture
def flaky(request):
    """Register a test algorithm failing on its first ``fail_times`` attempts."""
    state = {"calls": 0, "fail_times": 1, "rng_draws": []}

    def runner(machine, A, n_items, rng, params):
        state["calls"] += 1
        state["rng_draws"].append(int(rng.integers(0, 2**62)))
        if state["calls"] <= state["fail_times"]:
            raise SelectionFailure(f"injected failure #{state['calls']}")
        scratch = machine.alloc(1, "flaky.scratch")
        machine.write(scratch, 0, machine.read(A, 0))
        machine.free(scratch)
        return AlgorithmOutput(array=A)

    register(AlgorithmSpec("_flaky", "test-only", runner, randomized=True))
    request.addfinalizer(lambda: unregister("_flaky"))
    return state


def test_failed_attempt_is_retried_with_derived_seed(flaky):
    with _session() as session:
        result = session.run("_flaky", np.arange(16))
    assert flaky["calls"] == 2
    assert result.cost.attempts == 2
    # Each attempt drew from an independently derived stream.
    assert flaky["rng_draws"][0] != flaky["rng_draws"][1]
    # The successful attempt's cost (1 read + 1 write), not a sum over attempts.
    assert (result.cost.reads, result.cost.writes) == (1, 1)


def test_retry_exhaustion_surfaces_metadata(flaky):
    flaky["fail_times"] = 99
    with _session() as session:
        session.retry = RetryPolicy(max_attempts=3)
        with pytest.raises(RetryExhausted) as info:
            session.run("_flaky", np.arange(16))
    assert flaky["calls"] == 3
    assert info.value.attempt == 3
    assert info.value.seed == SEED
    assert isinstance(info.value.__cause__, SelectionFailure)
    assert info.value.__cause__.attempt == 3


def test_failed_attempts_do_not_leak_arrays(flaky):
    flaky["fail_times"] = 2
    with _session() as session:
        result = session.run("_flaky", np.arange(16))
        assert result.cost.attempts == 3
        assert len(session.machine._arrays) == 0


def test_deterministic_algorithms_are_not_retried():
    calls = {"n": 0}

    def runner(machine, A, n_items, rng, params):
        calls["n"] += 1
        raise CompactionFailure("deterministic capacity violation")

    register(AlgorithmSpec("_det", "test-only", runner, randomized=False))
    try:
        with _session() as session:
            with pytest.raises(RetryExhausted):
                session.run("_det", np.arange(8))
        assert calls["n"] == 1
    finally:
        unregister("_det")


def test_compact_capacity_violation_is_a_contract_error():
    # Regression (static linter SPEC203): the deterministic 'compact'
    # pipeline used to surface tight_compact's CompactionFailure — a
    # retryable Las Vegas failure — for what is an unretryable caller
    # error (capacity_blocks below the true occupancy).  It must now be
    # a plain ValueError that bypasses the retry loop entirely.
    keys = np.arange(40)
    with _session() as session:
        with pytest.raises(ValueError):
            session.run("compact", keys, capacity_blocks=1)
        # The session stays usable and leak-free after the failure.
        result = session.sort(keys)
        assert len(result.records) == 40


def test_session_is_reproducible_across_instances():
    keys = np.random.default_rng(10).permutation(np.arange(120))
    with _session() as s1, _session() as s2:
        a = s1.sort(keys)
        b = s2.sort(keys)
    assert a.records.tobytes() == b.records.tobytes()
    assert a.cost == b.cost


#: ``(cost.total, cost.attempts)`` of every single-input registered
#: algorithm on its ``repro.oblivious.workload`` input (rng seed 0) at
#: session seed 0.  A newly registered algorithm fails until it is added.
REGISTRY_COSTS = {
    "bitonic_sort": (1016, 1),
    "compact": (593, 1),
    "compact_logstar": (32505, 1),
    "compact_loose": (1725, 1),
    "compact_sparse": (69752, 1),
    "compact_sparse_hier": (134048, 1),
    "group_by": (3141, 1),
    "group_by_sorted": (96, 1),
    "mask": (48, 1),
    "merge_sort": (96, 1),
    "oram_read_batch": (7566, 1),
    "oram_read_batch_hier": (9700, 1),
    "quantiles": (354, 1),
    "quantiles_sorted": (32, 1),
    "scale_values": (48, 1),
    "select": (386, 1),
    "select_sorted": (32, 1),
    "shuffle": (96, 1),
    "sort": (3041, 1),
    "sort_then_pick": (354, 1),
}


@pytest.mark.parametrize(
    "name", [n for n in algorithm_names() if get_algorithm(n).arity == 1]
)
def test_registered_algorithm_costs_are_pinned(name):
    assert name in REGISTRY_COSTS, f"add {name!r} to REGISTRY_COSTS"
    data, params, config_kwargs = workload(name, np.random.default_rng(0))
    with ObliviousSession(EMConfig(**config_kwargs), seed=0) as session:
        result = session.run(name, data, **params)
    assert (result.cost.total, result.cost.attempts) == REGISTRY_COSTS[name]


# ---------------------------------------------------------------------------
# Unified exception hierarchy (satellite: repro.errors)
# ---------------------------------------------------------------------------


def test_failure_classes_join_both_hierarchies():
    for cls in (CompactionFailure, SelectionFailure, QuantileFailure, SortFailure):
        assert issubclass(cls, LasVegasFailure)
        assert issubclass(cls, EMError)  # legacy except clauses keep working
        assert issubclass(cls, ReproError)
    assert issubclass(EMError, ReproError)
    assert issubclass(RetryExhausted, LasVegasFailure)


def test_lasvegas_failures_carry_metadata_slots():
    exc = SortFailure("boom")
    assert exc.attempt is None and exc.seed is None
    exc2 = QuantileFailure("tail", attempt=2, seed=7)
    assert (exc2.attempt, exc2.seed) == (2, 7)
    # Legacy-style catches still work.
    with pytest.raises(EMError):
        raise SelectionFailure("legacy catch")


# ---------------------------------------------------------------------------
# Machine metering helpers (satellite: reset_counters / metered)
# ---------------------------------------------------------------------------


def test_reset_counters_and_metered():
    machine = EMMachine(M=M, B=B)
    arr = machine.alloc_cells(40)
    arr.load_flat(make_records(np.arange(40)))
    with machine.metered() as meter:
        block = machine.read(arr, 0)
        machine.write(arr, 1, block)
        machine.write(arr, 2, block)
    assert (meter.reads, meter.writes, meter.total) == (1, 2, 3)
    assert machine.total_ios == 3
    machine.reset_counters()
    assert machine.total_ios == 0
    trace_len = len(machine.trace)
    assert trace_len > 0  # the trace is NOT cleared by reset_counters
    # metered() survives exceptions and scopes each measurement.
    with pytest.raises(RuntimeError):
        with machine.metered() as meter:
            machine.read(arr, 0)
            raise RuntimeError("mid-measurement")
    assert meter.total == 1
    with machine.metered() as meter:
        machine.read(arr, 3)
    assert meter.total == 1
