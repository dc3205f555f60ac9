"""Regression: the executor must release resident handles — and their
backend bytes — and every trace window it opened when a plan fails
mid-schedule or is abandoned.

``test_api_pipeline`` pins that the *array table* returns to its
pre-plan state after ``RetryExhausted``; these tests pin the stronger
storage-level property through the backend's live-byte ledger: every
byte the backend allocated for the plan (including ``numpy.memmap``
temp files on disk) is back to baseline afterwards.  The abandonment
path — a half-driven :meth:`~repro.api.executor.Executor.stepwise`
generator that is closed (or garbage-collected) before finishing — goes
through the same ``finally`` cleanup, which is the bug this PR fixed:
previously only a *completed* ``execute`` released mid-schedule
failures' handles, so callers stepping a plan incrementally could leak
memmap files until session close.  Each attempt's trace window
(``machine.trace.mark()``) must likewise be released on every exit
path, leaving only the whole-trace window open.
"""

import os

import numpy as np
import pytest

from repro.api import (
    AlgorithmOutput,
    AlgorithmSpec,
    EMConfig,
    Executor,
    ObliviousSession,
    RetryExhausted,
    RetryPolicy,
    register,
    unregister,
)
from repro.core.selection import SelectionFailure


def _records(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.permutation(n), rng.integers(0, 10**6, size=n)], axis=1
    ).astype(np.int64)


@pytest.fixture
def always_fails(request):
    """A randomized spec that allocates scratch and fails every attempt."""

    def runner(machine, A, n_items, rng, params):
        machine.alloc(4, "cleanup.scratch")
        raise SelectionFailure("injected: never succeeds")

    register(AlgorithmSpec("_cleanup_fail", "test-only", runner, randomized=True))
    request.addfinalizer(lambda: unregister("_cleanup_fail"))


@pytest.mark.parametrize("backend", ["memory", "memmap"])
def test_failed_plan_returns_backend_bytes_to_baseline(
    always_fails, backend, tmp_path
):
    cfg = EMConfig(M=64, B=4, backend=backend, backend_dir=str(tmp_path))
    with ObliviousSession(
        cfg, seed=3, retry=RetryPolicy(max_attempts=2)
    ) as session:
        baseline = session.machine.backend.live_bytes
        with pytest.raises(RetryExhausted):
            session.dataset(_records(64)).shuffle().apply(
                "_cleanup_fail"
            ).sort().run()
        assert session.machine.backend.live_bytes == baseline
        assert session.machine.trace.open_windows == (0,)
        if backend == "memmap":
            # The ledger tracks reality: no stray memmap temp files.
            assert os.listdir(tmp_path) == []


def test_retried_step_releases_every_attempts_window(request):
    """A step that fails once and succeeds on its retry opened two
    windows; both are closed once the plan completes."""
    calls = []

    def runner(machine, A, n_items, rng, params):
        calls.append(len(machine.trace.open_windows))
        if len(calls) == 1:
            machine.alloc(4, "cleanup.scratch")
            raise SelectionFailure("injected: fails once")
        return AlgorithmOutput(array=A)

    register(AlgorithmSpec(
        "_cleanup_flaky", "test-only", runner, randomized=True, in_place=True
    ))
    request.addfinalizer(lambda: unregister("_cleanup_flaky"))
    with ObliviousSession(EMConfig(M=64, B=4), seed=3) as session:
        result = session.dataset(_records(64)).apply("_cleanup_flaky").run()
        assert result.steps[0].cost.attempts == 2
        assert calls == [2, 2]  # the whole-trace window plus this attempt's
        assert session.machine.trace.open_windows == (0,)


def _raises(machine, A, n_items, rng, params):
    raise ValueError("not a Las Vegas failure")


def _breaks_in_place_contract(machine, A, n_items, rng, params):
    return AlgorithmOutput(array=machine.alloc(1, "rogue.out"))


@pytest.mark.parametrize(
    "runner, error",
    [(_raises, ValueError), (_breaks_in_place_contract, RuntimeError)],
    ids=["raises", "in_place_contract"],
)
def test_non_retryable_errors_release_the_window(runner, error, request):
    """A non-Las-Vegas exception and the ``in_place`` contract error both
    leave only the whole-trace window open."""
    register(AlgorithmSpec("_cleanup_error", "test-only", runner, in_place=True))
    request.addfinalizer(lambda: unregister("_cleanup_error"))
    with ObliviousSession(EMConfig(M=64, B=4), seed=3) as session:
        with pytest.raises(error):
            session.dataset(_records(64)).shuffle().apply("_cleanup_error").run()
        assert session.machine.trace.open_windows == (0,)


def test_failed_streamed_plan_cleans_up(always_fails, tmp_path):
    cfg = EMConfig(M=64, B=4, backend="memmap", backend_dir=str(tmp_path))
    recs = _records(64, seed=1)
    with ObliviousSession(
        cfg, seed=3, retry=RetryPolicy(max_attempts=2)
    ) as session:
        baseline = session.machine.backend.live_bytes
        ds = session.stream([recs[:32], recs[32:]])
        with pytest.raises(RetryExhausted):
            ds.shuffle().apply("_cleanup_fail").run()
        assert session.machine.backend.live_bytes == baseline
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("backend", ["memory", "memmap"])
def test_abandoned_stepwise_generator_frees_everything(backend, tmp_path):
    """Closing a half-driven stepwise generator must run the same
    cleanup as a failure: plan arrays freed, backend bytes at baseline,
    and the session's call counter advanced past the whole schedule so
    a later plan reproduces its solo seed stream."""
    cfg = EMConfig(M=64, B=4, backend=backend, backend_dir=str(tmp_path))
    recs = _records(96, seed=2)
    # Twin reference: the same session running the plan to completion,
    # then a follow-up — pins the expected call counter and the expected
    # follow-up transcript.
    with ObliviousSession(cfg, seed=5) as twin:
        twin.dataset(recs).shuffle().sort().run()
        calls_completed = twin._calls
        mark = twin.machine.trace.mark()
        twin.dataset(recs).sort().run()
        followup_ref = twin.machine.trace.fingerprint_pair(mark)
        twin.machine.trace.release(mark)
    with ObliviousSession(cfg, seed=5) as session:
        baseline = session.machine.backend.live_bytes
        pre_plan = set(session.machine._arrays)
        plan = session.dataset(recs).shuffle().sort().plan()
        stepper = Executor(session).stepwise(plan, False)
        first = next(stepper)  # one completed step of two
        assert first.algorithm == "shuffle"
        stepper.close()  # abandon mid-plan
        assert set(session.machine._arrays) == pre_plan
        assert session.machine.trace.open_windows == (0,)
        assert session.machine.backend.live_bytes == baseline
        if backend == "memmap":
            assert os.listdir(tmp_path) == []
        # The abandoned plan consumed all its call slots: the session's
        # seed stream continues exactly as if the plan had completed, so
        # the follow-up's canonical transcript matches the twin's.
        assert session._calls == calls_completed
        mark = session.machine.trace.mark()
        out = session.dataset(recs).sort().run()
        assert np.array_equal(out.records[:, 0], np.sort(recs[:, 0]))
        followup = session.machine.trace.fingerprint_pair(mark)
        session.machine.trace.release(mark)
        assert followup[1] == followup_ref[1]  # canonical digests match


def test_stepwise_yields_per_step_results():
    """The incremental driver surfaces the same StepResults execute()
    returns, in order, then StopIteration carries the PlanResult."""
    recs = _records(64, seed=3)
    with ObliviousSession(EMConfig(M=64, B=4), seed=7) as session:
        plan = session.dataset(recs).shuffle().sort().plan()
        stepper = Executor(session).stepwise(plan, False)
        seen = []
        result = None
        while True:
            try:
                seen.append(next(stepper))
            except StopIteration as stop:
                result = stop.value
                break
        assert [s.algorithm for s in seen] == ["shuffle", "sort"]
        assert result.steps == tuple(seen)
        assert session.machine.trace.open_windows == (0,)
        assert np.array_equal(result.records[:, 0], np.sort(recs[:, 0]))
