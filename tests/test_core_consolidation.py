"""Tests for data consolidation (Lemma 3) and multi-way consolidation (§5)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import consolidation
from repro.core.consolidation import consolidate, multiway_consolidate
from repro.em import EMMachine, make_records
from repro.em.batch import empty_blocks
from repro.em.block import NULL_KEY, RECORD_WIDTH, is_empty


def machine_with(keys, B=4, M=64, holes=None):
    """Load keys into an array, optionally leaving empty cells (holes)."""
    mach = EMMachine(M=M, B=B)
    keys = np.asarray(keys, dtype=np.int64)
    recs = make_records(keys)
    if holes:
        # Spread records out with empty cells between them.
        n_cells = len(keys) * 2
        arr = mach.alloc_cells(max(1, n_cells))
        flat = arr.raw.reshape(-1, 2)
        for t, rec in enumerate(recs):
            flat[2 * t + 1] = rec
    else:
        arr = mach.alloc_cells(max(1, len(keys)))
        arr.load_flat(recs)
    return mach, arr


class TestConsolidate:
    def test_lemma3_io_count(self):
        """Exactly n reads and n+1 writes (Lemma 3's dN/Be I/O claim)."""
        mach, arr = machine_with(range(20), B=4)
        with mach.metered() as meter:
            consolidate(mach, arr)
        assert meter.reads == arr.num_blocks
        assert meter.writes == arr.num_blocks + 1

    def test_blocks_full_or_empty(self):
        mach, arr = machine_with(range(10), B=4, holes=True)
        res = consolidate(mach, arr)
        out = res.array
        partial_blocks = 0
        for j in range(out.num_blocks):
            occ = int(np.count_nonzero(~is_empty(out.raw[j])))
            if 0 < occ < 4:
                partial_blocks += 1
        assert partial_blocks <= 1

    def test_order_preserving(self):
        mach, arr = machine_with([5, 9, 1, 7, 3], B=2, holes=True)
        res = consolidate(mach, arr)
        assert list(res.array.nonempty()[:, 0]) == [5, 9, 1, 7, 3]

    def test_counts(self):
        mach, arr = machine_with(range(13), B=4)
        res = consolidate(mach, arr)
        assert res.num_distinguished == 13
        assert res.num_full_blocks == 3

    def test_all_empty_input(self):
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc(3)
        res = consolidate(mach, arr)
        assert res.num_distinguished == 0
        assert len(res.array.nonempty()) == 0

    def test_oblivious_trace(self):
        def run(keys):
            mach, arr = machine_with(keys, B=4)
            consolidate(mach, arr)
            return mach.trace.fingerprint()

        assert run([1, 2, 3, 4, 5, 6, 7, 8]) == run([8, 8, 8, 8, 8, 8, 8, 8])

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.integers(0, 2**40), min_size=0, max_size=60))
    def test_roundtrip_property(self, keys):
        mach, arr = machine_with(keys, B=4, holes=True) if keys else machine_with([0], B=4)
        if not keys:
            return
        res = consolidate(mach, arr)
        assert list(res.array.nonempty()[:, 0]) == keys


class TestMultiwayConsolidate:
    def color_fn(self, num_colors):
        def fn(recs):
            return recs[:, 0] % num_colors

        return fn

    def test_blocks_monochromatic(self):
        mach, arr = machine_with(range(32), B=4, M=128)
        res = multiway_consolidate(mach, arr, 3, self.color_fn(3))
        for j in range(res.array.num_blocks):
            blk = res.array.raw[j]
            keys = blk[~is_empty(blk)][:, 0]
            if len(keys):
                assert len(set(int(k) % 3 for k in keys)) == 1

    def test_no_records_lost(self):
        mach, arr = machine_with(range(50), B=4, M=256)
        res = multiway_consolidate(mach, arr, 4, self.color_fn(4))
        assert sorted(res.array.nonempty()[:, 0].tolist()) == list(range(50))

    def test_color_counts(self):
        mach, arr = machine_with(range(30), B=4, M=128)
        res = multiway_consolidate(mach, arr, 3, self.color_fn(3))
        assert list(res.color_counts) == [10, 10, 10]

    def test_relative_order_within_color(self):
        mach, arr = machine_with([3, 6, 9, 12, 1, 4, 7, 2], B=2, M=128)
        res = multiway_consolidate(mach, arr, 3, self.color_fn(3))
        keys = res.array.nonempty()[:, 0]
        per_color = {c: [int(k) for k in keys if k % 3 == c] for c in range(3)}
        assert per_color[0] == [3, 6, 9, 12]
        assert per_color[1] == [1, 4, 7]
        assert per_color[2] == [2]

    def test_oblivious_trace(self):
        def run(keys):
            mach, arr = machine_with(keys, B=4, M=128)
            multiway_consolidate(mach, arr, 3, self.color_fn(3))
            return mach.trace.fingerprint()

        assert run(list(range(24))) == run([7] * 24)

    def test_validation(self):
        mach, arr = machine_with(range(8), B=4, M=128)
        with pytest.raises(ValueError):
            multiway_consolidate(mach, arr, 0, self.color_fn(1))
        with pytest.raises(ValueError):
            multiway_consolidate(mach, arr, 2, lambda recs: recs[:, 0] % 5)

    @settings(deadline=None, max_examples=20)
    @given(
        st.lists(st.integers(0, 1000), min_size=1, max_size=50),
        st.integers(1, 4),
    )
    def test_preservation_property(self, keys, num_colors):
        mach, arr = machine_with(keys, B=4, M=256)
        res = multiway_consolidate(mach, arr, num_colors, self.color_fn(num_colors))
        assert sorted(res.array.nonempty()[:, 0].tolist()) == sorted(keys)


def _reference_multiway_consolidate(machine, A, num_colors, color_fn):
    """The per-round loop the wide-stream form replaced: one read and one
    write call per round, colour queues as lists of record arrays."""
    n, B = A.num_blocks, machine.B
    rounds = -(-n // num_colors) if n else 0
    out = machine.alloc(rounds * num_colors + 2 * num_colors, f"{A.name}.colors")
    buffers = [[] for _ in range(num_colors)]
    buffered = np.zeros(num_colors, dtype=np.int64)
    color_counts = np.zeros(num_colors, dtype=np.int64)

    def drain(c, take):
        got, need = [], take
        while need:
            head = buffers[c][0]
            if len(head) <= need:
                got.append(buffers[c].pop(0))
                need -= len(head)
            else:
                got.append(head[:need])
                buffers[c][0] = head[need:]
                need = 0
        buffered[c] -= take
        return np.concatenate(got)

    for rnd in range(rounds):
        lo = rnd * num_colors
        flat = machine.read_many(A, (lo, min(lo + num_colors, n))).reshape(-1, RECORD_WIDTH)
        real = flat[~is_empty(flat)]
        if len(real):
            colors = np.asarray(color_fn(real), dtype=np.int64)
            for c in range(num_colors):
                sel = real[colors == c]
                if len(sel):
                    buffers[c].append(sel)
                    buffered[c] += len(sel)
                    color_counts[c] += len(sel)
        emit = empty_blocks(num_colors, B)
        emitted = 0
        for c in range(num_colors):
            while emitted < num_colors and buffered[c] >= B:
                emit[emitted, :B] = drain(c, B)
                emitted += 1
        machine.write_many(out, (lo, lo + num_colors), emit)
    flush = empty_blocks(2 * num_colors, B)
    emitted = 0
    for c in range(num_colors):
        while buffered[c] > 0:
            take = int(min(B, buffered[c]))
            flush[emitted, :take] = drain(c, take)
            emitted += 1
    assert emitted <= 2 * num_colors
    machine.write_many(out, (rounds * num_colors, (rounds + 2) * num_colors), flush)
    return out, color_counts


class TestMultiwayTwin:
    """One engine call per chunk of rounds emits the per-round loop's
    events, bytes and ciphertext versions, and the same colour counts."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(0, 40),
        B=st.sampled_from([1, 2, 4]),
        num_colors=st.integers(1, 5),
        skew=st.sampled_from([0.0, 0.6, 0.9]),
        empty_frac=st.sampled_from([0.0, 0.3, 0.8]),
        floor=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_round_loop(self, n, B, num_colors, skew, empty_frac, floor, seed):
        rng = np.random.default_rng(seed)
        flat = np.stack([rng.integers(0, 1000, n * B), rng.integers(0, 9, n * B)], axis=1)
        # Skewed colours pile up in one queue, so rounds hit the
        # num_colors cap and later colours wait.
        flat[rng.random(n * B) < skew, 0] = 0
        flat[rng.random(n * B) < empty_frac] = (NULL_KEY, 0)

        def color_fn(recs):
            return recs[:, 0] % num_colors

        twins = []
        for batched in (True, False):
            mach = EMMachine(16 * B, B, retain_trace=True)
            arr = mach.alloc(n, "a")
            arr.load_flat(flat)
            if batched:
                with mock.patch.object(
                    consolidation, "_CHUNK_FLOOR", floor or consolidation._CHUNK_FLOOR
                ):
                    res = multiway_consolidate(mach, arr, num_colors, color_fn)
                out, counts = res.array, res.color_counts
            else:
                out, counts = _reference_multiway_consolidate(mach, arr, num_colors, color_fn)
            twins.append((mach, out, counts))
        (m1, o1, c1), (m2, o2, c2) = twins
        assert (m1.reads, m1.writes) == (m2.reads, m2.writes)
        assert np.array_equal(m1.trace.as_array(), m2.trace.as_array())
        assert o1.raw.tobytes() == o2.raw.tobytes()
        assert np.array_equal(o1.versions.snapshot(), o2.versions.snapshot())
        assert np.array_equal(c1, c2)
