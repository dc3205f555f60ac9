"""Tests for the Lemma-2-style deterministic oblivious external sort."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import external_sort
from repro.core.external_sort import oblivious_external_sort
from repro.em import EMMachine, make_records
from repro.em.batch import empty_blocks
from repro.em.block import NULL_KEY, RECORD_WIDTH
from repro.networks.comparator import sort_records
from repro.networks.odd_even import batcher_pairs
from repro.util.mathx import ceil_div, next_pow2


def run_sort(keys, B=4, M=64, run_blocks=None):
    mach = EMMachine(M=M, B=B)
    arr = mach.alloc_cells(max(1, len(keys)))
    arr.load_flat(make_records(keys))
    out = oblivious_external_sort(mach, arr, run_blocks=run_blocks)
    return mach, out


class TestCorrectness:
    @pytest.mark.parametrize("n", [0, 1, 5, 16, 33, 100, 257])
    def test_sorts_random(self, n):
        keys = np.random.default_rng(n).integers(0, 10**6, size=n)
        _, out = run_sort(keys)
        assert np.array_equal(out.nonempty()[:, 0], np.sort(keys))

    def test_sorts_adversarial(self):
        for keys in [[5] * 40, list(range(40)), list(range(40))[::-1]]:
            _, out = run_sort(keys)
            assert np.array_equal(out.nonempty()[:, 0], np.sort(keys))

    def test_values_follow_keys(self):
        keys = [3, 1, 2]
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc_cells(3)
        arr.load_flat(make_records(keys, values=[30, 10, 20]))
        out = oblivious_external_sort(mach, arr)
        real = out.nonempty()
        assert real[:, 1].tolist() == [10, 20, 30]

    def test_input_untouched(self):
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc_cells(8)
        arr.load_flat(make_records([4, 3, 2, 1, 8, 7, 6, 5]))
        before = arr.flat().copy()
        oblivious_external_sort(mach, arr)
        assert np.array_equal(arr.flat(), before)

    def test_empties_sort_last(self):
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc(4)  # 16 cells
        flat = arr.raw.reshape(-1, 2)
        flat[3] = [5, 5]
        flat[9] = [1, 1]
        out = oblivious_external_sort(mach, arr)
        packed = out.flat()
        assert packed[0, 0] == 1 and packed[1, 0] == 5

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.integers(0, 2**40), min_size=0, max_size=120))
    def test_matches_numpy_property(self, keys):
        _, out = run_sort(keys, B=4, M=48)
        assert np.array_equal(
            out.nonempty()[:, 0], np.sort(np.asarray(keys, dtype=np.int64))
        )

    def test_tiny_cache(self):
        """M = 2B (the weakest model the paper allows) still sorts."""
        keys = np.random.default_rng(0).integers(0, 1000, size=40)
        _, out = run_sort(keys, B=4, M=8)
        assert np.array_equal(out.nonempty()[:, 0], np.sort(keys))

    def test_run_blocks_validation(self):
        with pytest.raises(ValueError):
            run_sort(range(40), B=4, M=32, run_blocks=8)  # 2*8 > 8 blocks


def _reference_external_sort(machine, A, run_blocks):
    """The per-comparator loop the batched stages replaced: one gather
    and one scatter per run of every merge-split."""
    n, B = A.num_blocks, machine.B
    R = run_blocks or max(1, (machine.m - 2) // 2)
    num_runs = max(1, ceil_div(n, R))
    out = machine.alloc(num_runs * R, f"{A.name}.sorted")
    for run in range(num_runs):
        lo = run * R
        real = max(0, min(R, n - lo))
        stacked = empty_blocks(R, B)
        if real:
            stacked[:real] = machine.read_many(A, (lo, lo + real))
        records = sort_records(stacked.reshape(-1, RECORD_WIDTH))
        machine.write_many(out, (lo, lo + R), records.reshape(R, B, RECORD_WIDTH))
    if num_runs > 1:
        for los, his in batcher_pairs(next_pow2(num_runs)):
            for a, b in zip(los.tolist(), his.tolist()):
                if b >= num_runs:
                    continue
                idx_a, idx_b = (a * R, a * R + R), (b * R, b * R + R)
                both = np.concatenate([machine.read_many(out, idx_a), machine.read_many(out, idx_b)])
                merged = sort_records(both.reshape(-1, RECORD_WIDTH)).reshape(2 * R, B, RECORD_WIDTH)
                machine.write_many(out, idx_a, merged[:R])
                machine.write_many(out, idx_b, merged[R:])
    return out


class TestBatchedStagesTwin:
    """The batched merge-split stages (one engine call per stage with at
    least ``R`` comparators) emit exactly the events, bytes and
    ciphertext versions of the per-comparator loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 90),
        shape=st.sampled_from([(16, 4), (32, 4), (24, 8), (64, 2)]),
        run_blocks=st.sampled_from([None, 1, 2, 3]),
        key_range=st.sampled_from([3, 1000]),
        empty_frac=st.sampled_from([0.0, 0.5]),
        floor=st.sampled_from([None, 1, 7]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_comparator_loop(
        self, n, shape, run_blocks, key_range, empty_frac, floor, seed
    ):
        M, B = shape
        if run_blocks is not None and 2 * run_blocks > M // B:
            run_blocks = None
        rng = np.random.default_rng(seed)
        flat = rng.integers(0, key_range, size=(n * B, 2))
        flat[rng.random(n * B) < empty_frac] = (NULL_KEY, 0)
        twins = []
        for batched in (True, False):
            mach = EMMachine(M, B, retain_trace=True)
            arr = mach.alloc(n, "a")
            arr.load_flat(flat)
            if batched:
                # A small chunk floor splits long stages into several calls.
                with mock.patch.object(
                    external_sort, "_CHUNK_FLOOR", floor or external_sort._CHUNK_FLOOR
                ):
                    out = oblivious_external_sort(mach, arr, run_blocks=run_blocks)
            else:
                out = _reference_external_sort(mach, arr, run_blocks)
            twins.append((mach, out))
        (m1, o1), (m2, o2) = twins
        assert (m1.reads, m1.writes) == (m2.reads, m2.writes)
        assert np.array_equal(m1.trace.as_array(), m2.trace.as_array())
        assert o1.raw.tobytes() == o2.raw.tobytes()
        assert np.array_equal(o1.versions.snapshot(), o2.versions.snapshot())


class TestObliviousness:
    def test_trace_independent_of_data(self):
        def run(keys):
            mach, _ = run_sort(keys, B=4, M=48)
            return mach.trace.fingerprint()

        n = 64
        a = run(list(range(n)))
        b = run([0] * n)
        c = run(list(range(n))[::-1])
        assert a == b == c


class TestIOComplexity:
    def io_count(self, n, B=4, M=64):
        keys = np.arange(n)
        mach = EMMachine(M=M, B=B, trace=False)
        arr = mach.alloc_cells(n)
        arr.load_flat(make_records(keys))
        with mach.metered() as meter:
            oblivious_external_sort(mach, arr)
        return meter.total

    def test_log_squared_shape(self):
        """I/Os grow as (N/B) log^2(N/M): quadrupling N at fixed M should
        scale I/Os by clearly less than the naive comparator-network
        factor but more than linearly."""
        io_1 = self.io_count(256)
        io_4 = self.io_count(1024)
        ratio = io_4 / io_1
        assert 4.0 < ratio < 14.0

    def test_bigger_cache_fewer_ios(self):
        assert self.io_count(512, M=256) < self.io_count(512, M=32)
