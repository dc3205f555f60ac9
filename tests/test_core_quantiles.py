"""Tests for data-oblivious quantile selection (Theorem 17)."""

import numpy as np
import pytest

from repro.core.quantiles import QuantileFailure, _quantiles_sampled, quantiles_em
from repro.em import EMMachine, make_records
from repro.em.block import NULL_KEY
from repro.util.rng import make_rng


def build(keys, B=4, M=512):
    mach = EMMachine(M=M, B=B)
    arr = mach.alloc_cells(max(1, len(keys)))
    arr.load_flat(make_records(keys))
    return mach, arr


def quantiles_with_retry(mach, arr, n, q, seed=0, fn=quantiles_em, **kw):
    for attempt in range(6):
        try:
            return fn(mach, arr, n, q, make_rng(seed + attempt), **kw)
        except QuantileFailure:
            continue
    raise AssertionError("quantiles failed 6 times — bounds badly off")


def sparse_layout(keys, spread, seed=0):
    """``keys`` scattered over ``spread`` times as many cells."""
    cells = np.zeros((len(keys) * spread, 2), dtype=np.int64)
    cells[:, 0] = NULL_KEY
    at = np.sort(np.random.default_rng(seed).choice(len(cells), len(keys), replace=False))
    cells[at, 0] = keys
    return cells


def true_quantiles(keys, q):
    s = np.sort(np.asarray(keys))
    n = len(s)
    return [int(s[max(1, min(n, round(i * n / (q + 1)))) - 1]) for i in range(1, q + 1)]


class TestQuantileCorrectness:
    def test_in_cache_path_exact(self):
        keys = np.random.default_rng(0).permutation(np.arange(1, 33))
        mach, arr = build(keys, M=512)  # 32 items in 8 blocks, m=128: in cache
        got = quantiles_em(mach, arr, 32, 3, make_rng(0))
        assert got.tolist() == true_quantiles(keys, 3)

    @pytest.mark.parametrize("q", [1, 2, 3, 5])
    def test_sampling_path_exact(self, q):
        rng = np.random.default_rng(1)
        keys = rng.permutation(np.arange(1, 257))
        mach, arr = build(keys, M=64)  # 64 blocks of data, m=16: sampling path
        got = quantiles_with_retry(mach, arr, 256, q, fn=_quantiles_sampled)
        assert got.tolist() == true_quantiles(keys, q)

    @pytest.mark.parametrize("q", [1, 2, 3, 5])
    def test_direct_path_exact(self, q):
        rng = np.random.default_rng(1)
        keys = rng.permutation(np.arange(1, 257))
        mach, arr = build(keys, M=64)  # out of cache; 8q N^(3/4) >= N: direct
        got = quantiles_em(mach, arr, 256, q, make_rng(0))
        assert got.tolist() == true_quantiles(keys, q)

    @pytest.mark.parametrize("spread", [1, 3])
    def test_sparse_input(self, spread):
        keys = np.random.default_rng(spread).permutation(np.arange(1, 301))
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc_cells(300 * spread)
        arr.load_flat(sparse_layout(keys, spread))
        got = quantiles_em(mach, arr, 300, 3, make_rng(0))
        assert got.tolist() == true_quantiles(keys, 3)

    def test_duplicates(self):
        keys = [5] * 100 + [9] * 100
        mach, arr = build(keys, M=64)
        got = quantiles_with_retry(mach, arr, 200, 1)
        assert got.tolist() == [5]

    def test_report(self):
        keys = np.random.default_rng(2).permutation(np.arange(1, 257))
        mach, arr = build(keys, M=64)
        rep = quantiles_with_retry(mach, arr, 256, 2, fn=_quantiles_sampled, report=True)
        assert rep.keys.tolist() == true_quantiles(keys, 2)
        assert rep.sample_size >= 1

    def test_report_direct(self):
        keys = np.random.default_rng(2).permutation(np.arange(1, 257))
        mach, arr = build(keys, M=64)
        rep = quantiles_em(mach, arr, 256, 2, make_rng(0), report=True)
        assert rep.keys.tolist() == true_quantiles(keys, 2)
        assert (rep.sample_size, rep.marked) == (0, 256)

    @pytest.mark.parametrize("M", [32, 128])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampling_path_at_one_quantile_above_cap(self, M, seed):
        """At q = 1 above (8q)^4 = 4,096 items the bracket stays the
        sample's: its ends are not widened to the key range, so it marks
        far fewer items than Lemma 15's cap (6,889 of 8,192)."""
        keys = np.random.default_rng(seed).permutation(np.arange(8192))
        mach, arr = build(keys, M=M)
        mach.trace.enabled = False
        rep = _quantiles_sampled(mach, arr, 8192, 1, make_rng(seed), report=True)
        assert rep.keys.tolist() == true_quantiles(keys, 1)
        assert rep.marked < 3000

    def test_validation(self):
        mach, arr = build([1, 2, 3])
        with pytest.raises(ValueError):
            quantiles_em(mach, arr, 3, 0, make_rng(0))
        with pytest.raises(ValueError):
            quantiles_em(mach, arr, 2, 3, make_rng(0))


class TestQuantileObliviousness:
    def test_trace_independent_of_data(self):
        def run(keys, seed):
            mach, arr = build(keys, M=64)
            _quantiles_sampled(mach, arr, len(keys), 2, make_rng(seed))
            return mach.trace.fingerprint()

        n = 256
        a = list(range(1, n + 1))
        b = [((x * 37) % 1000) + 1 for x in range(n)]
        for seed in range(20):
            try:
                fa = run(a, seed)
                fb = run(b, seed)
            except QuantileFailure:
                continue
            assert fa == fb
            return
        raise AssertionError("no common succeeding seed found")


    @pytest.mark.parametrize("spread", [1, 3])
    def test_public_trace_independent_of_data(self, spread):
        """The direct branch: one trace for every dataset and seed of a
        given layout size."""

        def run(keys, seed):
            mach = EMMachine(M=64, B=4)
            arr = mach.alloc_cells(len(keys) * spread)
            arr.load_flat(sparse_layout(keys, spread, seed=seed))
            quantiles_em(mach, arr, len(keys), 2, make_rng(seed))
            return mach.trace.fingerprint()

        n = 256
        want = run(list(range(1, n + 1)), 0)
        assert run([((x * 37) % 1000) + 1 for x in range(n)], 1) == want
        assert run([5] * n, 2) == want


class TestQuantileIOScaling:
    def test_linear_io_shape(self):
        """E7: I/Os per item bounded as n grows (Theorem 17's O(N/B))."""

        def ios(n):
            keys = np.random.default_rng(n).permutation(np.arange(1, n + 1))
            mach = EMMachine(M=64, B=4, trace=False)
            arr = mach.alloc_cells(n)
            arr.load_flat(make_records(keys))
            for attempt in range(6):
                try:
                    with mach.metered() as meter:
                        _quantiles_sampled(mach, arr, n, 2, make_rng(attempt))
                    return meter.total
                except QuantileFailure:
                    continue
            raise AssertionError("quantiles kept failing")

        per_item = [ios(n) / n for n in (256, 512, 1024)]
        assert max(per_item) / min(per_item) < 1.8

    @pytest.mark.parametrize("spread", [1, 3, 8])
    def test_public_costs_no_more_than_sampling(self, spread):
        """Where step 4's cap covers N, sorting every item directly does a
        subset of the sampling path's work, dense or sparse."""
        n, q = 4096, 2
        keys = np.random.default_rng(spread).permutation(np.arange(1, n + 1))

        def ios(fn):
            mach = EMMachine(M=128, B=4, trace=False)
            arr = mach.alloc_cells(n * spread)
            arr.load_flat(sparse_layout(keys, spread))
            for attempt in range(6):
                try:
                    with mach.metered() as meter:
                        got = fn(mach, arr, n, q, make_rng(attempt))
                    assert got.tolist() == true_quantiles(keys, q)
                    return meter.total
                except QuantileFailure:
                    continue
            raise AssertionError("quantiles kept failing")

        assert ios(quantiles_em) <= ios(_quantiles_sampled)

    def test_direct_branch_never_fails(self):
        """The direct branch has no Lemma 14-16 failure site: 50 seeds, no
        retry."""
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(80, 300))
            keys = rng.integers(0, 50, n)
            mach = EMMachine(M=64, B=4, trace=False)
            arr = mach.alloc_cells(2 * n)
            arr.load_flat(sparse_layout(keys, 2, seed=seed))
            q = int(rng.integers(1, 4))
            got = quantiles_em(mach, arr, n, q, make_rng(seed))
            assert got.tolist() == true_quantiles(keys, q)
