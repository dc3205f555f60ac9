"""Tests for the external-memory substrate: blocks, trace, crypto, cache,
machine, adversary view."""

import hashlib

import numpy as np
import pytest
from hypothesis import event, given, settings
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
from repro.em.trace import _CHUNK_EVENTS as _CHUNK, Op


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
        t.append_rows(np.zeros((10, 3), dtype=np.int64))
        assert len(t) == 0
        assert t.nbytes == 0  # not even a staging chunk

    def test_windows_must_be_open(self):
        t = AccessTrace()
        t.record(Op.READ, 0, 0)
        with pytest.raises(ValueError, match="no window open"):
            t.fingerprint(1)
        with pytest.raises(ValueError, match="no window open"):
            t.fingerprint_pair(0)  # the whole-trace window has no canonical digest
        with pytest.raises(ValueError, match="no window open"):
            t.release(1)
        with pytest.raises(ValueError, match="retain=True"):
            t.as_array()

    def test_marks_at_one_position_share_a_counted_window(self):
        t = AccessTrace()
        t.record(Op.READ, 0, 0)
        a, b = t.mark(), t.mark()
        assert a == b == 1 and t.open_windows == (0, 1)
        t.release(a)
        assert t.open_windows == (0, 1)  # b still holds it
        t.record(Op.WRITE, 3, 1)
        assert t.fingerprint(b) == _sha(np.array([[1, 3, 1]]))
        t.release(b)
        assert t.open_windows == (0,)

    def test_window_block_releases_on_every_exit(self):
        t = AccessTrace()
        t.record(Op.READ, 0, 0)
        with t.window() as mark:
            assert mark == 1 and t.open_windows == (0, 1)
            t.record(Op.WRITE, 3, 1)
            assert t.fingerprint_pair(mark) == (
                _sha(np.array([[1, 3, 1]])), _sha(np.array([[1, 0, 1]]))
            )
        assert t.open_windows == (0,)
        with pytest.raises(KeyError), t.window():
            raise KeyError("abandoned")
        assert t.open_windows == (0,)

    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_streamed_digests_match_exported_rows(self, data):
        """Every open window's running digests equal sha256 of its
        exported rows, and of their reference canonical renaming, across
        chunk boundaries, nested and overlapping windows and re-marks."""
        t = AccessTrace(retain=True)
        t.enabled = data.draw(st.sampled_from([True, True, True, False]), label="enabled")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        marks = [t.mark()] if data.draw(st.booleans(), label="mark at 0") else []
        sizes = st.one_of(st.integers(0, 9), st.integers(_CHUNK // 3, _CHUNK))
        actions = st.sampled_from(["none", "edge", "mark", "release", "remark"])
        for _ in range(data.draw(st.integers(1, 6), label="steps")):
            rows = _rows(rng, data.draw(sizes, label="append"))
            if len(rows) < 10:  # the scalar path
                for op, array_id, index in rows.tolist():
                    t.record(op, array_id, index)
            else:
                t.append_rows(rows)
            action = data.draw(actions)
            if action == "edge":  # fill the staging chunk exactly, then mark
                t.append_rows(_rows(rng, -len(t) % _CHUNK))
                marks.append(t.mark())
            elif action == "mark":
                marks.append(t.mark())
            elif action == "remark":  # release, then a new window at that position
                pos = t.mark()
                t.release(pos)
                marks.append(t.mark())
                assert marks[-1] == pos
            elif action == "release" and marks:
                t.release(marks.pop(data.draw(st.integers(0, len(marks) - 1))))
            for pos in marks:
                rows = t.as_array(pos)
                expected = (_sha(rows), _sha(_first_appearance(rows)))
                assert t.fingerprint_pair(pos) == expected
                assert t.fingerprint(pos) == expected[0]
            assert t.fingerprint() == _sha(t.as_array())
        assert t.open_windows == (0, *sorted(set(marks)))
        event(f"full chunks: {min(len(t) // _CHUNK, 2)}+")

    def test_memory_stays_at_one_chunk(self):
        t = AccessTrace()
        assert t.nbytes == 0
        rng = np.random.default_rng(4)
        whole = hashlib.sha256()
        mark = t.mark()
        for _ in range(10):
            rows = _rows(rng, _CHUNK)
            t.append_rows(rows)
            whole.update(rows.tobytes())
            assert t.nbytes == _CHUNK * 3 * 8
        assert len(t) == 10 * _CHUNK
        assert t.fingerprint() == t.fingerprint_pair(mark)[0] == whole.hexdigest()

    def test_one_append_can_fill_several_chunks(self):
        t = AccessTrace(retain=True)
        rng = np.random.default_rng(5)
        t.append_rows(_rows(rng, 7))
        mark = t.mark()
        rows = _rows(rng, 2 * _CHUNK + 3)
        t.append_rows(rows)
        assert len(t) == 2 * _CHUNK + 10
        assert np.array_equal(t.as_array(mark), rows)
        assert t.fingerprint_pair(mark) == (_sha(rows), _sha(_first_appearance(rows)))
        assert t.fingerprint() == _sha(t.as_array())


def _sha(rows):
    return hashlib.sha256(np.ascontiguousarray(rows, dtype=np.int64).tobytes()).hexdigest()


def _first_appearance(rows):
    """Reference canonical view: array ids renamed 0, 1, 2, ... by first
    appearance, computed over the whole exported window at once."""
    out = rows.copy()
    if len(out):
        uniq, first = np.unique(out[:, 1], return_index=True)
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[np.argsort(first, kind="stable")] = np.arange(len(uniq))
        out[:, 1] = rank[np.searchsorted(uniq, out[:, 1])]
    return out


#: Array ids the random rows draw from: allocation-counter-like ids,
#: and the same with negative and int64-extreme ids mixed in.
_IDS = np.arange(300, dtype=np.int64)
_WIDE_IDS = np.concatenate([
    _IDS, np.array([-(2**63), -(2**40), -1, 2**40, 2**63 - 1], dtype=np.int64)
])


def _rows(rng, k):
    """``k`` random event rows whose array ids come in runs, as the
    engine emits them."""
    rows = rng.integers(0, 2**20, size=(k, 3), dtype=np.int64)
    runs = rng.choice(_IDS if rng.random() < 0.5 else _WIDE_IDS, size=k)
    rows[:, 1] = runs[np.arange(k) // int(rng.integers(1, 16))]
    return rows


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
        mach.write_many(arr, (1, 4), blocks)
        out = mach.read_many(arr, (1, 4))
        assert np.array_equal(out, blocks)
        assert mach.writes == 3 and mach.reads == 3

    def test_alloc_cells_rounds_up(self):
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc_cells(9)
        assert arr.num_blocks == 3

    def test_trace_records_all_ops(self):
        mach = EMMachine(M=64, B=4, retain_trace=True)
        arr = mach.alloc(2)
        mach.write(arr, 0, empty_block(4))
        mach.read(arr, 0)
        ops = mach.trace.as_array()[:, 0].tolist()
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
