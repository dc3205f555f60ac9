"""Tests for the external-memory substrate: blocks, trace, crypto, cache,
machine, adversary view."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.em import (
    AccessTrace,
    CacheOverflowError,
    CiphertextVersions,
    ClientCache,
    EMMachine,
    OutOfBoundsError,
    empty_block,
    is_empty,
    make_block,
    make_records,
    occupancy,
)
from repro.em.trace import Op


class TestBlocks:
    def test_empty_block_is_empty(self):
        blk = empty_block(8)
        assert blk.shape == (8, 2)
        assert is_empty(blk).all()
        assert occupancy(blk) == 0

    def test_make_block_pads(self):
        blk = make_block([5, 6], B=4)
        assert occupancy(blk) == 2
        assert blk[0, 0] == 5 and blk[1, 0] == 6
        assert is_empty(blk)[2:].all()

    def test_make_block_values_default_to_keys(self):
        blk = make_block([3, 4], B=2)
        assert np.array_equal(blk[:, 1], [3, 4])

    def test_make_block_explicit_values(self):
        blk = make_block([1, 2], values=[10, 20], B=2)
        assert np.array_equal(blk[:, 1], [10, 20])

    def test_make_block_overflow_rejected(self):
        with pytest.raises(ValueError):
            make_block([1, 2, 3], B=2)

    def test_make_block_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_block([1, 2], values=[1], B=4)

    def test_make_records_flat(self):
        recs = make_records([9, 8, 7])
        assert recs.shape == (3, 2)
        assert occupancy(recs) == 3


class TestAccessTrace:
    def test_fingerprint_depends_on_events(self):
        t1, t2 = AccessTrace(), AccessTrace()
        t1.record(Op.READ, 0, 5)
        t2.record(Op.READ, 0, 6)
        assert t1.fingerprint() != t2.fingerprint()

    def test_fingerprint_order_sensitive(self):
        t1, t2 = AccessTrace(), AccessTrace()
        t1.record(Op.READ, 0, 1)
        t1.record(Op.WRITE, 0, 2)
        t2.record(Op.WRITE, 0, 2)
        t2.record(Op.READ, 0, 1)
        assert t1.fingerprint() != t2.fingerprint()

    def test_identical_traces_match(self):
        t1, t2 = AccessTrace(), AccessTrace()
        for t in (t1, t2):
            t.record(Op.READ, 1, 3)
            t.record(Op.WRITE, 1, 3)
        assert t1.fingerprint() == t2.fingerprint()

    def test_disabled_trace_records_nothing(self):
        t = AccessTrace()
        t.enabled = False
        t.record(Op.READ, 0, 0)
        assert len(t) == 0

    def test_iteration_and_indexing(self):
        t = AccessTrace()
        t.record(Op.ALLOC, 2, 10)
        events = list(t)
        assert len(events) == 1
        assert t[0].op == Op.ALLOC
        assert t[0].index == 10

    def test_histogram(self):
        t = AccessTrace()
        t.record(Op.READ, 0, 1)
        t.record(Op.READ, 0, 1)
        t.record(Op.WRITE, 0, 1)
        hist = t.address_histogram()
        assert hist[(int(Op.READ), 0, 1)] == 2
        assert hist[(int(Op.WRITE), 0, 1)] == 1

    def test_clear(self):
        t = AccessTrace()
        t.record(Op.READ, 0, 0)
        t.clear()
        assert len(t) == 0


class TestCiphertextVersions:
    def test_versions_bump_on_every_write(self):
        cv = CiphertextVersions(4)
        v1 = cv.reencrypt(2)
        v2 = cv.reencrypt(2)
        assert v2 > v1

    def test_versions_leak_only_write_pattern(self):
        """Writing identical vs different plaintexts yields identical
        version sequences — the semantic-security simulation."""
        cv1, cv2 = CiphertextVersions(4), CiphertextVersions(4)
        for cv in (cv1, cv2):
            cv.reencrypt(0)
            cv.reencrypt(3)
            cv.reencrypt(0)
        assert np.array_equal(cv1.snapshot(), cv2.snapshot())


class TestClientCache:
    def test_reserve_release(self):
        c = ClientCache(4)
        c.reserve(3)
        assert c.in_use == 3
        c.release(2)
        assert c.in_use == 1

    def test_overflow_raises(self):
        c = ClientCache(2)
        with pytest.raises(CacheOverflowError):
            c.reserve(3)

    def test_hold_context(self):
        c = ClientCache(4)
        with c.hold(4):
            assert c.available == 0
        assert c.available == 4

    def test_hold_releases_on_exception(self):
        c = ClientCache(4)
        with pytest.raises(RuntimeError):
            with c.hold(2):
                raise RuntimeError("boom")
        assert c.in_use == 0

    def test_high_water_tracked(self):
        c = ClientCache(8)
        with c.hold(5):
            pass
        with c.hold(2):
            pass
        assert c.high_water == 5

    def test_over_release_rejected(self):
        c = ClientCache(4)
        c.reserve(1)
        with pytest.raises(Exception):
            c.release(2)


class TestEMMachine:
    def test_model_preconditions(self):
        with pytest.raises(ValueError):
            EMMachine(M=4, B=4)  # M < 2B
        with pytest.raises(ValueError):
            EMMachine(M=8, B=0)

    def test_read_write_roundtrip(self):
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc(4, "a")
        blk = make_block([1, 2, 3], B=4)
        mach.write(arr, 2, blk)
        out = mach.read(arr, 2)
        assert np.array_equal(out, blk)

    def test_read_returns_copy(self):
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc(2)
        mach.write(arr, 0, make_block([1], B=4))
        out = mach.read(arr, 0)
        out[0, 0] = 999
        again = mach.read(arr, 0)
        assert again[0, 0] == 1

    def test_io_counting(self):
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc(4)
        mach.write(arr, 0, empty_block(4))
        mach.read(arr, 0)
        mach.read(arr, 1)
        assert mach.reads == 2
        assert mach.writes == 1
        assert mach.total_ios == 3

    def test_meter_scoping(self):
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc(4)
        mach.read(arr, 0)
        with mach.metered() as meter:
            mach.read(arr, 1)
            mach.write(arr, 1, empty_block(4))
        assert meter.reads == 1
        assert meter.writes == 1
        assert meter.total == 2

    def test_out_of_bounds(self):
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc(2)
        with pytest.raises(OutOfBoundsError):
            mach.read(arr, 2)

    def test_foreign_array_rejected(self):
        m1 = EMMachine(M=64, B=4)
        m2 = EMMachine(M=64, B=4)
        arr = m1.alloc(2)
        with pytest.raises(Exception):
            m2.read(arr, 0)

    def test_freed_array_rejected(self):
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc(2)
        mach.free(arr)
        with pytest.raises(Exception):
            mach.read(arr, 0)

    def test_range_ops(self):
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc(4)
        blocks = np.stack([make_block([i], B=4) for i in range(3)])
        mach.write_range(arr, 1, blocks)
        out = mach.read_range(arr, 1, 3)
        assert np.array_equal(out, blocks)
        assert mach.writes == 3 and mach.reads == 3

    def test_alloc_cells_rounds_up(self):
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc_cells(9)
        assert arr.num_blocks == 3

    def test_trace_records_all_ops(self):
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc(2)
        mach.write(arr, 0, empty_block(4))
        mach.read(arr, 0)
        ops = [e.op for e in mach.trace]
        assert ops == [Op.ALLOC, Op.WRITE, Op.READ]

    def test_load_flat_and_nonempty(self):
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc(3)
        recs = make_records([5, 6, 7, 8, 9])
        arr.load_flat(recs)
        assert np.array_equal(arr.nonempty(), recs)
        assert mach.total_ios == 0  # omniscient loading is free

    @given(st.lists(st.integers(0, 2**40), min_size=0, max_size=30))
    def test_load_roundtrip_property(self, keys):
        mach = EMMachine(M=64, B=4, trace=False)
        arr = mach.alloc_cells(max(1, len(keys)))
        recs = make_records(keys)
        arr.load_flat(recs)
        assert np.array_equal(arr.nonempty()[:, 0], np.asarray(keys, dtype=np.int64))


class TestAdversaryView:
    def test_identical_runs_indistinguishable(self):
        def run(data):
            mach = EMMachine(M=64, B=4)
            arr = mach.alloc(4)
            for j in range(4):
                mach.write(arr, j, make_block([data + j], B=4))
            for j in range(4):
                mach.read(arr, j)
            return mach.trace.fingerprint(), len(mach.trace)

        assert run(100) == run(999)

    def test_different_patterns_distinguishable(self):
        def run(order):
            mach = EMMachine(M=64, B=4)
            arr = mach.alloc(4)
            for j in order:
                mach.read(arr, j)
            return mach.trace.fingerprint(), len(mach.trace)

        assert run([0, 1, 2]) != run([2, 1, 0])
