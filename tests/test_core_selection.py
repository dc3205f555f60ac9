"""Tests for data-oblivious selection (Theorems 12/13)."""

import numpy as np
import pytest

from repro.core.selection import SelectionFailure, _select_sampled, select_em
from repro.em import EMMachine, make_records
from repro.em.block import NULL_KEY
from repro.util.rng import make_rng


def build(keys, B=4, M=512, values=None):
    mach = EMMachine(M=M, B=B)
    arr = mach.alloc_cells(max(1, len(keys)))
    arr.load_flat(make_records(keys, values=values))
    return mach, arr


def select_with_retry(mach, arr, n, k, seed=0, fn=select_em, **kw):
    """The sampling path can fail w.s.p. at small n; retry with fresh
    randomness (each attempt is individually oblivious)."""
    for attempt in range(6):
        try:
            return fn(mach, arr, n, k, make_rng(seed + attempt), **kw)
        except SelectionFailure:
            continue
    raise AssertionError("selection failed 6 times — bounds badly off")


def sparse_layout(keys, spread, seed=0):
    """``keys`` scattered over ``spread`` times as many cells."""
    cells = np.zeros((len(keys) * spread, 2), dtype=np.int64)
    cells[:, 0] = NULL_KEY
    at = np.sort(np.random.default_rng(seed).choice(len(cells), len(keys), replace=False))
    cells[at, 0] = keys
    return cells


class TestSelectionCorrectness:
    @pytest.mark.parametrize("k", [1, 7, 32, 60, 64])
    def test_selects_correct_rank(self, k):
        rng = np.random.default_rng(42)
        keys = rng.permutation(np.arange(1, 65))
        mach, arr = build(keys)
        key, _ = select_with_retry(mach, arr, 64, k)
        assert key == k  # keys are 1..64, so k-th smallest == k

    def test_duplicates(self):
        keys = [5] * 30 + [3] * 10 + [9] * 24
        mach, arr = build(keys)
        assert select_with_retry(mach, arr, 64, 1)[0] == 3
        assert select_with_retry(mach, arr, 64, 11)[0] == 5
        assert select_with_retry(mach, arr, 64, 41)[0] == 9

    def test_value_follows_key(self):
        keys = [30, 10, 20]
        mach, arr = build(keys, values=[300, 100, 200])
        key, value = select_with_retry(mach, arr, 3, 2)
        assert (key, value) == (20, 200)

    def test_median_of_larger_array(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 10**6, size=300)
        mach, arr = build(keys, M=1024)
        key, _ = select_with_retry(mach, arr, 300, 150)
        assert key == int(np.sort(keys)[149])

    def test_report(self):
        keys = np.arange(1, 101)
        mach, arr = build(keys, M=1024)
        rep = select_with_retry(mach, arr, 100, 50, fn=_select_sampled, report=True)
        assert rep.key == 50
        assert rep.sample_size >= 1
        assert rep.candidate_size >= 1

    def test_report_direct(self):
        """The public path sorts every item when step 5's cap covers n."""
        keys = np.arange(1, 101)
        mach, arr = build(keys, M=1024)
        rep = select_em(mach, arr, 100, 50, make_rng(0), report=True)
        assert (rep.key, rep.sample_size, rep.candidate_size) == (50, 0, 100)

    @pytest.mark.parametrize("k", [1, 7, 32, 60, 64])
    def test_sampling_path_agrees_with_direct(self, k):
        """Same key from both paths, and the same record when keys are
        distinct."""
        rng = np.random.default_rng(42)
        keys = rng.permutation(np.arange(1, 65))
        values = rng.integers(0, 1000, 64)
        mach, arr = build(keys, values=values)
        direct = select_em(mach, arr, 64, k, make_rng(0))
        assert direct == select_with_retry(mach, arr, 64, k, fn=_select_sampled)
        dup = [5] * 30 + [3] * 10 + [9] * 24
        mach, arr = build(dup)
        assert (
            select_em(mach, arr, 64, k, make_rng(0))[0]
            == select_with_retry(mach, arr, 64, k, fn=_select_sampled)[0]
        )

    @pytest.mark.parametrize("spread", [1, 3])
    def test_sparse_input(self, spread):
        keys = np.random.default_rng(spread).permutation(np.arange(1, 301))
        mach = EMMachine(M=128, B=4)
        arr = mach.alloc_cells(300 * spread)
        arr.load_flat(sparse_layout(keys, spread))
        key, _ = select_with_retry(mach, arr, 300, 100)
        assert key == 100

    def test_validation(self):
        mach, arr = build([1, 2, 3])
        with pytest.raises(ValueError):
            select_em(mach, arr, 3, 0, make_rng(0))
        with pytest.raises(ValueError):
            select_em(mach, arr, 3, 4, make_rng(0))
        with pytest.raises(ValueError):
            select_em(mach, arr, 5, 2, make_rng(0))  # wrong n_items

    def test_all_ranks_small_array(self):
        keys = [17, 3, 99, 45, 8, 61, 22, 5]
        expect = sorted(keys)
        mach, arr = build(keys)
        for k in range(1, 9):
            key, _ = select_with_retry(mach, arr, 8, k, seed=100 * k)
            assert key == expect[k - 1]


class TestSelectionObliviousness:
    def test_trace_independent_of_data(self):
        """Identical (n, k, seed) on different data => identical trace,
        as long as both runs take the success path."""

        def run(keys, seed):
            mach, arr = build(keys)
            _select_sampled(mach, arr, len(keys), 10, make_rng(seed))
            return mach.trace.fingerprint()

        n = 64
        a = list(range(1, n + 1))
        b = list(range(1000, 1000 + n))
        # Find a seed where both succeed (failures are public events).
        for seed in range(20):
            try:
                fa = run(a, seed)
                fb = run(b, seed)
            except SelectionFailure:
                continue
            assert fa == fb
            return
        raise AssertionError("no common succeeding seed found")

    def test_trace_independent_of_k_pattern_shape(self):
        """Different ranks k produce the same trace too (k only shifts
        private rank arithmetic)."""

        def run(k, seed):
            keys = list(range(1, 65))
            mach, arr = build(keys)
            _select_sampled(mach, arr, 64, k, make_rng(seed))
            return mach.trace.fingerprint()

        for seed in range(20):
            try:
                f1 = run(5, seed)
                f2 = run(60, seed)
            except SelectionFailure:
                continue
            assert f1 == f2
            return
        raise AssertionError("no common succeeding seed found")

    @pytest.mark.parametrize("spread", [1, 3])
    def test_public_trace_independent_of_data_and_k(self, spread):
        """The direct branch: one trace for every dataset, rank and seed
        of a given layout size."""

        def run(keys, k, seed):
            mach = EMMachine(M=128, B=4)
            arr = mach.alloc_cells(len(keys) * spread)
            arr.load_flat(sparse_layout(keys, spread, seed=len(keys) + k))
            select_em(mach, arr, len(keys), k, make_rng(seed))
            return mach.trace.fingerprint()

        n = 200
        want = run(list(range(1, n + 1)), 10, 0)
        assert run(list(range(1000, 1000 + n)), 10, 1) == want
        assert run([7] * n, 190, 2) == want


class TestSelectionIOScaling:
    def test_linear_io_shape(self):
        """E6: I/Os per item stay bounded as n grows (Theorem 13)."""

        def ios(n, seed=0):
            keys = np.random.default_rng(seed).permutation(np.arange(1, n + 1))
            mach = EMMachine(M=256, B=4, trace=False)
            arr = mach.alloc_cells(n)
            arr.load_flat(make_records(keys))
            for attempt in range(6):
                try:
                    with mach.metered() as meter:
                        _select_sampled(mach, arr, n, n // 2, make_rng(attempt))
                    return meter.total
                except SelectionFailure:
                    continue
            raise AssertionError("selection kept failing")

        per_item = [ios(n) / n for n in (256, 512, 1024)]
        assert max(per_item) / min(per_item) < 1.8

    @pytest.mark.parametrize("spread", [1, 3, 8])
    def test_public_costs_no_more_than_sampling(self, spread):
        """Where step 5's cap covers n, sorting every item directly does a
        subset of the sampling path's work, dense or sparse."""
        n = 4096
        keys = np.random.default_rng(spread).permutation(np.arange(1, n + 1))

        def ios(fn):
            mach = EMMachine(M=128, B=4, trace=False)
            arr = mach.alloc_cells(n * spread)
            arr.load_flat(sparse_layout(keys, spread))
            for attempt in range(6):
                try:
                    with mach.metered() as meter:
                        key, _ = fn(mach, arr, n, n // 2, make_rng(attempt))
                    assert key == n // 2
                    return meter.total
                except SelectionFailure:
                    continue
            raise AssertionError("selection kept failing")

        assert ios(select_em) <= ios(_select_sampled)

    def test_direct_branch_never_fails(self):
        """The direct branch has no Lemma 10-11 failure site: 50 seeds, no
        retry."""
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(40, 200))
            keys = rng.integers(0, 50, n)
            mach = EMMachine(M=64, B=4, trace=False)
            arr = mach.alloc_cells(2 * n)
            arr.load_flat(sparse_layout(keys, 2, seed=seed))
            k = int(rng.integers(1, n + 1))
            key, _ = select_em(mach, arr, n, k, make_rng(seed))
            assert key == int(np.sort(keys)[k - 1])
