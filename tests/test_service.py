"""Streaming sources and the multi-tenant session service.

Two layers under test.  Streaming: ``session.stream(chunks)`` builds a
plan whose source arrives as mini-batch uploads; the acceptance property
is that a streamed run is *byte-identical* to the one-shot run — output
records, per-step canonical fingerprints, and the full machine
transcript — while the client stages at most one chunk at a time.
Service: :class:`~repro.service.ObliviousService` multiplexes sessions
over one shared backend with token-bucket admission, per-tenant quotas,
idle eviction and cross-session I/O batching; each session's serialized
trace must stay byte-identical to its solo run.
"""

import math

import numpy as np
import pytest

from repro.api import EMConfig, ObliviousSession
from repro.errors import ServiceBusy
from repro.service import (
    ChunkSchedule,
    ObliviousService,
    ServiceLimits,
    StreamSource,
    TokenBucket,
)


def records_of(n, seed):
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.permutation(n), rng.integers(0, 10**6, size=n)], axis=1
    ).astype(np.int64)


def chunked(recs, size):
    return [recs[i : i + size] for i in range(0, len(recs), size)]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# Streaming sources
# ---------------------------------------------------------------------------


class TestStreamSource:
    def test_schedule_is_public_shape_only(self):
        sched = ChunkSchedule(num_chunks=3, chunk_records=32)
        assert sched.total_records == 96
        with pytest.raises(ValueError):
            ChunkSchedule(num_chunks=0, chunk_records=32)
        with pytest.raises(ValueError):
            ChunkSchedule(num_chunks=3, chunk_records=0)

    def test_defaults_derive_from_chunks(self):
        recs = records_of(96, 0)
        src = StreamSource(chunked(recs, 32))
        assert src.schedule == ChunkSchedule(3, 32)
        assert src.n_items == 96
        assert src.real_records == 96

    def test_short_chunks_pad_to_schedule(self):
        recs = records_of(70, 1)
        src = StreamSource([recs[:40], recs[40:]], chunk_records=48)
        assert src.n_items == 96  # public padded total, not 70
        assert src.real_records == 70
        offsets = [off for off, _ in src.padded_chunks()]
        sizes = [len(c) for _, c in src.padded_chunks()]
        assert offsets == [0, 48]
        assert sizes == [48, 48]

    def test_ghost_chunks_are_all_padding(self):
        recs = records_of(32, 2)
        src = StreamSource([recs], chunk_records=32, num_chunks=3)
        mat = src.materialize()
        assert len(mat) == 96
        from repro.api import NULL_KEY

        assert np.all(mat[32:, 0] == NULL_KEY)

    def test_oversized_chunk_rejected(self):
        recs = records_of(64, 3)
        with pytest.raises(ValueError):
            StreamSource(chunked(recs, 32), chunk_records=16)
        with pytest.raises(ValueError):
            StreamSource(chunked(recs, 32), num_chunks=1)

    def test_keys_only_chunks_get_zero_values(self):
        src = StreamSource([np.arange(8), np.arange(8)])
        mat = src.materialize()
        assert np.all(mat[:, 1] == 0)


class TestStreamedPlans:
    def test_streamed_equals_one_shot_small(self):
        recs = records_of(96, 4)
        cfg = EMConfig(M=64, B=4)
        with ObliviousSession(cfg, seed=9) as s1:
            r1 = s1.stream(chunked(recs, 32)).shuffle().sort().run()
            fp1 = s1.machine.trace.fingerprint()
            assert s1.machine.peak_upload_records == 32
            assert s1.machine.client_loads == 3
        with ObliviousSession(cfg, seed=9) as s2:
            r2 = s2.dataset(recs).shuffle().sort().run()
            fp2 = s2.machine.trace.fingerprint()
        assert np.array_equal(r1.records, r2.records)
        assert fp1 == fp2
        assert [a.cost.trace_canonical for a in r1.steps] == [
            a.cost.trace_canonical for a in r2.steps
        ]

    def test_short_final_chunk_round_trips_records(self):
        recs = records_of(70, 5)
        with ObliviousSession(EMConfig(M=64, B=4), seed=3) as s:
            out = s.stream(chunked(recs, 48)).sort().run()
        expect = recs[np.argsort(recs[:, 0], kind="stable")]
        assert np.array_equal(out.records, expect)

    @pytest.mark.xfail(
        raises=ValueError,
        strict=True,
        reason="a stream's n is the padded total, but the executor does not "
        "run the sort in padded mode (Executor._is_padded)",
    )
    def test_streamed_sort_short_last_chunk_at_scale(self):
        recs = records_of(2048, 0)
        with ObliviousSession(EMConfig(M=128, B=4), seed=1) as s:
            out = s.stream(chunked(recs, 1000)).sort().run()
        assert np.array_equal(out.records[:, 0], np.sort(recs[:, 0]))

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="the step after a streamed shuffle gets the real record count "
        "as n, so its size and transcript show how short the last chunk was",
    )
    def test_step_after_stream_hides_last_chunk_size(self):
        def steps(last):
            recs = records_of(48 + last, 3)
            with ObliviousSession(EMConfig(M=64, B=4), seed=2) as s:
                res = (
                    s.stream(chunked(recs, 48), chunk_records=48, num_chunks=2)
                    .shuffle()
                    .compact()
                    .run()
                )
            return [(st.n_items, st.cost.trace_canonical) for st in res.steps]

        assert steps(30) == steps(48)

    def test_non_null_tolerant_step_rejected_eagerly(self):
        recs = records_of(64, 6)
        with ObliviousSession(EMConfig(M=64, B=4), seed=3) as s:
            ds = s.stream(chunked(recs, 32))
            with pytest.raises(TypeError, match="null-tolerant"):
                ds.select(5)
            # …but fine once a null-tolerant step owns the padded data.
            out = ds.shuffle().select(5).run()
            assert out.value[0] == np.sort(recs[:, 0])[4]  # k is 1-indexed

    def test_stream_source_passthrough_and_double_spec(self):
        recs = records_of(64, 7)
        src = StreamSource(chunked(recs, 32))
        with ObliviousSession(EMConfig(M=64, B=4), seed=3) as s:
            out = s.stream(src).sort().run()
            assert np.array_equal(out.records[:, 0], np.sort(recs[:, 0]))
            with pytest.raises(ValueError):
                s.stream(src, chunk_records=32)

    def test_stream_on_closed_session_raises(self):
        s = ObliviousSession(EMConfig(M=64, B=4), seed=3)
        s.close()
        with pytest.raises(RuntimeError):
            s.stream([np.arange(4)])

    def test_streamed_fanout_reuses_materialized_chunks(self):
        # One stream consumed by two branches: the second consumer stages
        # from the materialized padded concatenation, same bytes.
        recs = records_of(64, 8)
        with ObliviousSession(EMConfig(M=64, B=4), seed=3) as s:
            ds = s.stream(chunked(recs, 32))
            sorted_ds = ds.sort()
            shuffled = ds.shuffle().sort()
            from repro.api import Plan

            res = Plan(s, [sorted_ds, shuffled]).run()
            outs = [st.records for st in res.steps if st.records is not None]
            assert len(outs) == 2
            assert np.array_equal(outs[0], outs[1])


def test_streamed_sort_acceptance_memmap(tmp_path):
    """The PR's acceptance bar: streamed sort over 8 chunks (n=8192,
    M=128, B=4) on the memmap backend is byte-identical to the one-shot
    plan — records, per-step canonical fingerprints, full transcript —
    with peak client-resident records bounded by one chunk."""
    n, chunk = 8192, 1024
    recs = records_of(n, 42)
    cfg = EMConfig(M=128, B=4, backend="memmap", backend_dir=str(tmp_path))
    with ObliviousSession(cfg, seed=77) as s1:
        r1 = s1.stream(chunked(recs, chunk)).sort().run()
        fp1 = s1.machine.trace.fingerprint()
        assert s1.machine.client_loads == 8
        assert s1.machine.peak_upload_records <= chunk
    with ObliviousSession(cfg, seed=77) as s2:
        r2 = s2.dataset(recs).sort().run()
        fp2 = s2.machine.trace.fingerprint()
    assert np.array_equal(r1.records, r2.records)
    assert np.array_equal(r1.records[:, 0], np.sort(recs[:, 0]))
    assert fp1 == fp2
    assert [a.cost.trace_canonical for a in r1.steps] == [
        a.cost.trace_canonical for a in r2.steps
    ]


# ---------------------------------------------------------------------------
# Token bucket
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(2, 1.0, clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(1.0)
        clock.now += 1.0
        assert bucket.try_acquire()

    def test_infinite_rate_never_limits(self):
        bucket = TokenBucket(1, math.inf, FakeClock())
        for _ in range(100):
            assert bucket.try_acquire()
        assert bucket.retry_after() == 0.0

    def test_refund_clamps_to_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(2, 1.0, clock)
        bucket.try_acquire()
        bucket.refund()
        bucket.refund()
        assert bucket.tokens == pytest.approx(2.0)

    def test_retry_after_impossible_request(self):
        bucket = TokenBucket(2, 1.0, FakeClock())
        assert bucket.retry_after(5.0) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0, 1.0, FakeClock())
        with pytest.raises(ValueError):
            TokenBucket(1, 0.0, FakeClock())
        with pytest.raises(ValueError):
            ServiceLimits(max_concurrent_plans=0)
        with pytest.raises(ValueError):
            ServiceLimits(admit_per_second=-1.0)


# ---------------------------------------------------------------------------
# Admission, quotas, eviction
# ---------------------------------------------------------------------------


CFG = EMConfig(M=64, B=4)


class TestAdmission:
    def test_concurrent_plan_limit(self):
        with ObliviousService(
            CFG, limits=ServiceLimits(max_concurrent_plans=1), seed=1
        ) as svc:
            sess = svc.session("a", seed=1)
            plan = sess.dataset(records_of(32, 0)).sort().plan()
            svc.admit("a", plan)
            with pytest.raises(ServiceBusy) as exc:
                svc.admit("a", plan)
            assert exc.value.reason == "concurrent_plans"
            assert exc.value.retry_after > 0
            svc.release()
            svc.admit("a", plan)  # slot came back
            svc.release()

    def test_rate_limit_and_retry_after_honored(self):
        clock = FakeClock()
        with ObliviousService(
            CFG,
            limits=ServiceLimits(admit_burst=1, admit_per_second=2.0),
            seed=1,
            clock=clock,
        ) as svc:
            sess = svc.session("a", seed=1)
            plan = sess.dataset(records_of(32, 0)).sort().plan()
            svc.execute("a", plan)
            with pytest.raises(ServiceBusy) as exc:
                svc.admit("a", plan)
            assert exc.value.reason == "rate"
            assert exc.value.retry_after == pytest.approx(0.5)
            # Waiting out retry_after makes the next admission succeed.
            clock.now += exc.value.retry_after
            svc.execute("a", plan)

    def test_rejection_refunds_the_rate_token(self):
        clock = FakeClock()
        with ObliviousService(
            CFG,
            limits=ServiceLimits(
                admit_burst=2,
                admit_per_second=1.0,
                max_concurrent_plans=1,
            ),
            seed=1,
            clock=clock,
        ) as svc:
            sess = svc.session("a", seed=1)
            plan = sess.dataset(records_of(32, 0)).sort().plan()
            svc.admit("a", plan)
            with pytest.raises(ServiceBusy):  # occupancy, not rate
                svc.admit("a", plan)
            svc.release()
            # The failed admission refunded its token: this one succeeds
            # without any clock advance.
            svc.admit("a", plan)
            svc.release()

    def test_resident_bytes_limit(self):
        with ObliviousService(
            CFG, limits=ServiceLimits(max_resident_bytes=100), seed=1
        ) as svc:
            sess = svc.session("a", seed=1)
            plan = sess.dataset(records_of(64, 0)).sort().plan()
            with pytest.raises(ServiceBusy) as exc:
                svc.admit("a", plan)
            assert exc.value.reason == "resident_bytes"

    def test_tenant_handle_quota(self):
        with ObliviousService(
            CFG, limits=ServiceLimits(max_tenant_handles=1), seed=1
        ) as svc:
            sess_a = svc.session("a", seed=1)
            sess_b = svc.session("b", seed=2)
            sess_a.machine.load_records(records_of(32, 0))
            plan = sess_a.dataset(records_of(32, 1)).sort().plan()
            with pytest.raises(ServiceBusy) as exc:
                svc.admit("a", plan)
            assert exc.value.reason == "tenant_handles"
            # Quotas are per tenant: b is unaffected by a's handles.
            svc.execute("b", sess_b.dataset(records_of(32, 1)).sort().plan())

    def test_idle_eviction_frees_resident_bytes(self):
        clock = FakeClock()
        with ObliviousService(
            CFG,
            limits=ServiceLimits(idle_timeout=50.0),
            seed=1,
            clock=clock,
        ) as svc:
            sess = svc.session("a", seed=1)
            sess.machine.load_records(records_of(64, 0))
            held = svc.resident_bytes
            assert held > 0
            clock.now += 10.0
            assert svc.evict_idle() == []  # not idle long enough
            clock.now += 50.0
            assert svc.evict_idle() == ["a"]
            assert svc.resident_bytes == 0
            # The shared backend survives eviction: new sessions still run.
            sess2 = svc.session("a", seed=2)
            out = svc.execute(
                "a", sess2.dataset(records_of(32, 3)).sort().plan()
            )
            assert np.array_equal(
                out.records[:, 0], np.sort(records_of(32, 3)[:, 0])
            )

    def test_activity_postpones_eviction(self):
        clock = FakeClock()
        with ObliviousService(
            CFG,
            limits=ServiceLimits(idle_timeout=50.0),
            seed=1,
            clock=clock,
        ) as svc:
            sess = svc.session("a", seed=1)
            clock.now += 40.0
            svc.execute("a", sess.dataset(records_of(32, 0)).sort().plan())
            clock.now += 40.0  # 80s since creation, 40s since last run
            assert svc.evict_idle() == []

    def test_closed_service_rejects_sessions(self):
        svc = ObliviousService(CFG, seed=1)
        svc.close()
        with pytest.raises(RuntimeError):
            svc.session("a")
        svc.close()  # idempotent


# ---------------------------------------------------------------------------
# Cross-session batching
# ---------------------------------------------------------------------------


class TestRunBatch:
    def _submission(self, svc, i):
        sess = svc.session(f"tenant-{i % 2}", seed=300 + i)
        recs = records_of(128, 50 + i)
        plan = sess.stream(chunked(recs, 32)).shuffle().sort().plan()
        return (f"p{i}", f"tenant-{i % 2}", plan), recs

    def test_four_sessions_trace_identical_to_solo(self):
        """The service acceptance bar: 4 concurrent sessions with
        admission engaged; each session's serialized trace is
        byte-identical to its solo run, and coalescing measurably
        reduces total I/O rounds."""
        with ObliviousService(
            CFG, limits=ServiceLimits(max_concurrent_plans=4), seed=1
        ) as svc:
            subs, all_recs = [], []
            for i in range(4):
                sub, recs = self._submission(svc, i)
                subs.append(sub)
                all_recs.append(recs)
            results, report = svc.run_batch(subs)
            assert set(results) == {f"p{i}" for i in range(4)}
            for i, (name, _, plan) in enumerate(subs):
                # Output correct per session.
                assert np.array_equal(
                    results[name].records[:, 0],
                    np.sort(all_recs[i][:, 0]),
                )
                # Trace byte-identical to the same plan run solo.
                with ObliviousSession(CFG, seed=300 + i) as solo:
                    solo.stream(
                        chunked(all_recs[i], 32)
                    ).shuffle().sort().run()
                    assert (
                        plan.session.machine.trace.fingerprint()
                        == solo.machine.trace.fingerprint()
                    )
            assert report.waves >= 1
            assert report.solo_rounds == sum(report.per_session.values())
            assert report.shared_rounds < report.solo_rounds
            assert report.reduction > 0.5  # 4 near-identical sessions

    def test_batch_admission_is_all_or_nothing(self):
        with ObliviousService(
            CFG, limits=ServiceLimits(max_concurrent_plans=2), seed=1
        ) as svc:
            subs = [self._submission(svc, i)[0] for i in range(3)]
            with pytest.raises(ServiceBusy):
                svc.run_batch(subs)
            # Every provisionally-admitted slot was released.
            assert svc._active_plans == 0
            results, _ = svc.run_batch(subs[:2])
            assert len(results) == 2

    def test_duplicate_names_rejected(self):
        with ObliviousService(CFG, seed=1) as svc:
            (name, tenant, plan), _ = self._submission(svc, 0)
            with pytest.raises(ValueError, match="duplicate"):
                svc.run_batch([(name, tenant, plan), (name, tenant, plan)])
            assert svc._active_plans == 0

    def test_per_tenant_cost_summary_isolation(self):
        with ObliviousService(CFG, seed=1) as svc:
            sess_a = svc.session("a", seed=1)
            sess_b = svc.session("b", seed=2)
            svc.execute("a", sess_a.dataset(records_of(64, 0)).sort().plan())
            sum_b_before = sess_b.cost_summary()
            assert sum_b_before.steps == 0
            assert sum_b_before.machine_ios == 0
            svc.execute("b", sess_b.dataset(records_of(32, 1)).sort().plan())
            sum_a = sess_a.cost_summary()
            sum_b = sess_b.cost_summary()
            # Counters live per session: b's run left a's untouched, and
            # the two workloads are visibly different sizes.
            assert sum_a.steps == sum_b.steps == 1
            assert sum_a.loads == sum_b.loads == 1
            assert sum_a.machine_ios > sum_b.machine_ios

    def test_batch_failure_closes_other_steppers(self):
        from repro.api import Executor
        from repro.service import CrossSessionBatcher

        with ObliviousService(CFG, seed=1) as svc:
            (name, _, plan), _ = self._submission(svc, 0)
            stepper = Executor(plan.session).stepwise(plan, False)

            def boom():
                raise RuntimeError("boom")
                yield  # pragma: no cover - makes this a generator

            other = svc.session("b", seed=9).machine
            with pytest.raises(RuntimeError, match="boom"):
                CrossSessionBatcher().run(
                    [
                        (name, plan.session.machine, stepper),
                        ("q", other, boom()),
                    ]
                )
            # The survivor's half-run plan was closed, and its
            # generator's finally block freed every staged array.
            assert len(plan.session.machine._arrays) == 0
            assert plan.session.machine.io_observer is None
