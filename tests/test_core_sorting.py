"""Tests for the oblivious external-memory sort (Theorem 21) — the
paper's main result."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shuffle import DealOverflow, shuffle_and_deal
from repro.core.sorting import SortStats, oblivious_sort
from repro.em import EMMachine, make_records
from repro.em.block import NULL_KEY
from repro.util.rng import make_rng


def run_sort(
    keys, B=4, M=64, seed=0, values=None, stats=None, trace=True, retries=3
):
    mach = EMMachine(M=M, B=B, trace=trace)
    arr = mach.alloc_cells(max(1, len(keys)))
    arr.load_flat(make_records(keys, values=values))
    out = oblivious_sort(
        mach, arr, len(keys), make_rng(seed), stats=stats, retries=retries
    )
    return mach, out


class TestSortCorrectness:
    @pytest.mark.parametrize("n", [1, 3, 16, 64, 130, 256])
    def test_sorts_random(self, n):
        keys = np.random.default_rng(n).integers(0, 10**6, size=n)
        _, out = run_sort(keys)
        assert np.array_equal(out.nonempty()[:, 0], np.sort(keys))

    def test_in_cache_base_case(self):
        keys = [9, 2, 7, 1]
        _, out = run_sort(keys, M=256)
        assert out.nonempty()[:, 0].tolist() == [1, 2, 7, 9]

    def test_recursive_path(self):
        """Small cache forces at least one distribution level."""
        n = 512
        keys = np.random.default_rng(1).permutation(np.arange(n))
        stats = SortStats()
        _, out = run_sort(keys, M=48, seed=2, stats=stats)
        assert np.array_equal(out.nonempty()[:, 0], np.arange(n))
        assert stats.levels >= 1
        assert stats.color_counts  # quantile distribution actually happened

    def test_deep_recursion_with_duplicates(self):
        """Three or more distribution levels, duplicate keys and values:
        every colour's result is concatenated as returned, so the output
        is right only if every recursive subproblem sorted correctly."""
        n = 2048
        values = np.arange(n)
        for seed in range(5):
            keys = np.random.default_rng(seed).integers(0, 50, size=n)
            stats = SortStats()
            _, out = run_sort(
                keys, values=values, seed=seed, stats=stats, retries=10
            )
            assert stats.levels >= 3
            order = np.argsort(keys, kind="stable")
            real = out.nonempty()
            assert np.array_equal(real[:, 0], keys[order])
            assert np.array_equal(real[:, 1], values[order])

    def test_small_cache_above_one_quantile_cap(self):
        """At M/B = 8 the sort splits on q = 1 quantile, and 8,192 records
        are above (8q)^4 = 4,096, so its pivot steps take the sampling
        path; each must succeed on the first attempt."""
        keys = np.random.default_rng(0).permutation(8192)
        stats = SortStats()
        _, out = run_sort(keys, M=32, seed=3, stats=stats, trace=False, retries=1)
        assert np.array_equal(out.nonempty()[:, 0], np.sort(keys))
        assert stats.levels >= 5

    def test_adversarial_inputs(self):
        n = 256
        for keys in ([7] * n, list(range(n)), list(range(n))[::-1]):
            _, out = run_sort(keys, M=48, seed=3)
            assert np.array_equal(
                out.nonempty()[:, 0], np.sort(np.asarray(keys, dtype=np.int64))
            )

    def test_stability(self):
        """Equal keys keep input order (via the distinctness transform)."""
        keys = [5, 1, 5, 1, 5]
        values = [50, 10, 51, 11, 52]
        _, out = run_sort(keys, values=values, M=48, seed=4)
        real = out.nonempty()
        assert real[:, 1].tolist() == [10, 11, 50, 51, 52]

    def test_output_is_tight(self):
        n = 100
        keys = np.random.default_rng(5).integers(0, 1000, size=n)
        _, out = run_sort(keys, M=48, seed=5)
        flat = out.flat()
        first_empty = next(
            (i for i in range(len(flat)) if flat[i, 0] == np.iinfo(np.int64).min),
            len(flat),
        )
        assert first_empty == n  # all records packed in a prefix

    def test_key_range_validation(self):
        with pytest.raises(ValueError):
            run_sort([2**62, 1])
        with pytest.raises(ValueError):
            run_sort([-1, 1])

    @settings(deadline=None, max_examples=10)
    @given(st.lists(st.integers(0, 2**40 - 1), min_size=0, max_size=150))
    def test_matches_numpy_property(self, keys):
        if not keys:
            return
        _, out = run_sort(keys, M=48, seed=6)
        assert np.array_equal(
            out.nonempty()[:, 0], np.sort(np.asarray(keys, dtype=np.int64))
        )


def sparse_sort(cells, n, M, B, seed=0, trace=True):
    """Sort ``n`` distinct keys at random positions of a ``cells``-cell
    layout (keys and positions from ``default_rng(seed)``) in one
    attempt; returns the machine, the output, the keys and the stats."""
    rng = np.random.default_rng(seed)
    keys = rng.permutation(n)
    layout = np.zeros((cells, 2), dtype=np.int64)
    layout[:, 0] = NULL_KEY
    layout[np.sort(rng.choice(cells, n, replace=False)), 0] = keys
    mach = EMMachine(M=M, B=B, trace=trace)
    arr = mach.alloc_cells(cells)
    arr.load_flat(layout)
    stats = SortStats()
    out = oblivious_sort(mach, arr, n, make_rng(1), stats=stats, retries=1)
    return mach, out, keys, stats


class TestSparseLayouts:
    """A third of the cells occupied, at ``M/B >= 64``: every colour
    array longer than its occupied-block bound is butterfly-compacted
    (Theorem 6) to that bound, so every level below the first sorts a
    dense array."""

    @pytest.mark.parametrize("M, B, ios", [(256, 4, 291_851), (1024, 8, 90_805)])
    def test_sorts_at_pinned_cost(self, M, B, ios):
        mach, out, keys, stats = sparse_sort(8192, 2730, M, B, trace=False)
        assert stats.attempts == 1
        assert np.array_equal(out.nonempty()[:, 0], np.sort(keys))
        assert mach.total_ios == ios

    def test_trace_independent_of_layout(self):
        a, *_ = sparse_sort(8192, 2730, 1024, 8, seed=0)
        b, *_ = sparse_sort(8192, 2730, 1024, 8, seed=1)
        assert a.trace.fingerprint() == b.trace.fingerprint()


class TestFailedAttempt:
    def test_failed_attempt_frees_its_arrays(self, monkeypatch):
        """A deal overflow injected after the second deal fails the first
        attempt; the sort frees that attempt's arrays, the deal's colour
        arrays among them, before it retries, so afterwards the machine
        holds only the input and the output."""
        calls = []

        def overflow_once(*args, **kwargs):
            dealt = shuffle_and_deal(*args, **kwargs)
            calls.append(None)
            if len(calls) == 2:
                raise DealOverflow("injected")
            return dealt

        monkeypatch.setattr("repro.core.sorting.shuffle_and_deal", overflow_once)
        n = 2048
        keys = np.random.default_rng(0).permutation(n)
        mach = EMMachine(M=128, B=4)
        arr = mach.alloc_cells(n)
        arr.load_flat(make_records(keys))
        before = set(mach._arrays)
        live = mach.backend.live_bytes
        stats = SortStats()
        out = oblivious_sort(mach, arr, n, make_rng(0), stats=stats)
        assert stats.attempts == 2
        assert np.array_equal(out.nonempty()[:, 0], np.sort(keys))
        assert set(mach._arrays) == before | {out.array_id}
        assert mach.backend.live_bytes == live + out.raw.nbytes


class TestSortObliviousness:
    def test_trace_shape_independent_of_data(self):
        """Theorem 21's sort uses the ORAM-free pipeline, so with a fixed
        seed the full trace is identical across inputs — as long as both
        runs take the same success/retry path."""

        def run(keys, seed):
            mach, _ = run_sort(keys, M=48, seed=seed)
            return mach.trace.fingerprint()

        n = 256
        a = list(range(n))
        b = [((x * 131) % 1009) for x in range(n)]
        for seed in range(10):
            fa = run(a, seed)
            fb = run(b, seed)
            if fa == fb:
                return
        raise AssertionError("no seed produced matching traces")

    def test_trace_shape_all_equal_vs_random(self):
        def run(keys, seed):
            mach, _ = run_sort(keys, M=48, seed=seed)
            return mach.trace.fingerprint()

        n = 256
        for seed in range(10):
            fa = run([3] * n, seed)
            fb = run(list(np.random.default_rng(0).integers(0, 500, n)), seed)
            if fa == fb:
                return
        raise AssertionError("no seed produced matching traces")


class TestSortIOComplexity:
    def ios(self, n, M=64, seed=0):
        keys = np.random.default_rng(seed).permutation(np.arange(n))
        mach = EMMachine(M=M, B=4, trace=False)
        arr = mach.alloc_cells(n)
        arr.load_flat(make_records(keys))
        with mach.metered() as meter:
            oblivious_sort(mach, arr, n, make_rng(seed))
        return meter.total

    def test_io_growth_subquadratic(self):
        """E8: doubling N should grow I/Os by a bit over 2x, far below
        the 4x a quadratic algorithm would show."""
        io_256 = self.ios(256)
        io_1024 = self.ios(1024)
        ratio = io_1024 / io_256
        assert ratio < 9.0

    def test_bigger_cache_fewer_ios(self):
        assert self.ios(512, M=256) < self.ios(512, M=32)
