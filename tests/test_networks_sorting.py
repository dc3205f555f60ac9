"""Tests for comparator primitives and the sorting networks.

The deterministic networks are verified exhaustively via the 0-1 principle
for small sizes and by property tests on random inputs for larger sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.em.block import NULL_KEY
from repro.networks import (
    batcher_pairs,
    batcher_sort,
    bitonic_pairs,
    bitonic_sort,
    compare_exchange,
    order_keys,
    sort_records,
)


def recs(keys):
    keys = np.asarray(keys, dtype=np.int64)
    return np.column_stack([keys, np.arange(len(keys), dtype=np.int64)])


class TestComparatorPrimitives:
    def test_order_keys_maps_empty_to_inf(self):
        r = recs([3, 1])
        r[1, 0] = NULL_KEY
        keys = order_keys(r)
        assert keys[0] == 3
        assert keys[1] == np.iinfo(np.int64).max

    def test_compare_exchange_swaps(self):
        r = recs([5, 1])
        compare_exchange(r, np.array([0]), np.array([1]))
        assert list(r[:, 0]) == [1, 5]

    def test_compare_exchange_keeps_order(self):
        r = recs([1, 5])
        compare_exchange(r, np.array([0]), np.array([1]))
        assert list(r[:, 0]) == [1, 5]

    def test_compare_exchange_vectorized_round(self):
        r = recs([4, 3, 2, 1])
        compare_exchange(r, np.array([0, 2]), np.array([1, 3]))
        assert list(r[:, 0]) == [3, 4, 1, 2]

    def test_empty_cells_sink(self):
        r = recs([7, 3])
        r[0, 0] = NULL_KEY
        compare_exchange(r, np.array([0]), np.array([1]))
        assert r[0, 0] == 3
        assert r[1, 0] == NULL_KEY

    def test_sort_records_stable(self):
        r = np.array([[2, 0], [1, 1], [2, 2], [1, 3]], dtype=np.int64)
        out = sort_records(r)
        assert list(out[:, 0]) == [1, 1, 2, 2]
        assert list(out[:, 1]) == [1, 3, 0, 2]


def _sorts_all_zero_one_inputs(pairs, n):
    """Run every one of the 2^n 0-1 inputs through the network at once:
    one row per input, one vectorized min/max per comparator round."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    for lo, hi in pairs(n):
        a, b = bits[:, lo], bits[:, hi]
        bits[:, lo], bits[:, hi] = np.minimum(a, b), np.maximum(a, b)
    unsorted = np.flatnonzero((np.diff(bits, axis=1) < 0).any(axis=1))
    assert not len(unsorted), f"input {unsorted[0]:0{n}b} (bits LSB first) left unsorted"


class TestZeroOnePrinciple:
    """A comparator network sorts all inputs iff it sorts all 0-1 inputs."""

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_bitonic_sorts_all_01(self, n):
        _sorts_all_zero_one_inputs(bitonic_pairs, n)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_batcher_sorts_all_01(self, n):
        _sorts_all_zero_one_inputs(batcher_pairs, n)


class TestNetworkRounds:
    @pytest.mark.parametrize("gen", [bitonic_pairs, batcher_pairs])
    def test_rounds_are_disjoint(self, gen):
        for lo, hi in gen(32):
            touched = np.concatenate([lo, hi])
            assert len(np.unique(touched)) == len(touched)

    @pytest.mark.parametrize("gen", [bitonic_pairs, batcher_pairs])
    def test_lo_below_hi(self, gen):
        for lo, hi in gen(64):
            assert (lo < hi).all()

    def test_batcher_rounds_are_shared_read_only(self):
        first, again = list(batcher_pairs(16)), list(batcher_pairs(16))
        assert all(a[0] is b[0] and a[1] is b[1] for a, b in zip(first, again))
        with pytest.raises(ValueError):
            first[0][0][0] = 1

    @pytest.mark.parametrize("n", [2, 4, 32, 256, 512, 1024])
    def test_batcher_rounds_match_scalar_loop(self, n):
        """The vectorized rounds, shared (n <= 256) or rebuilt, equal the
        classic double loop's."""
        want = []
        p = 1
        while p < n:
            k = p
            while k >= 1:
                los = [
                    i + j
                    for j in range(k % p, n - k, 2 * k)
                    for i in range(min(k, n - j - k))
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p)
                ]
                if los:
                    want.append((los, [x + k for x in los]))
                k //= 2
            p *= 2
        got = [(lo.tolist(), hi.tolist()) for lo, hi in batcher_pairs(n)]
        assert got == want

    @pytest.mark.parametrize("gen", [bitonic_pairs, batcher_pairs])
    def test_rejects_non_pow2(self, gen):
        with pytest.raises(ValueError):
            list(gen(12))

    def test_comparator_count_scales_log_squared(self):
        def count(n):
            return sum(len(lo) for lo, hi in batcher_pairs(n))

        # O(n log^2 n): ratio between n=256 and n=64 should be about
        # 4 * (64/36) ≈ 7.1, far below quadratic growth (16x).
        assert count(256) / count(64) < 9


class TestSortersOnRandomInputs:
    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.integers(0, 2**40), min_size=0, max_size=70))
    def test_bitonic_matches_numpy(self, keys):
        out = bitonic_sort(recs(keys))
        assert np.array_equal(out[:, 0], np.sort(np.asarray(keys, dtype=np.int64)))

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.integers(0, 2**40), min_size=0, max_size=70))
    def test_batcher_matches_numpy(self, keys):
        out = batcher_sort(recs(keys))
        assert np.array_equal(out[:, 0], np.sort(np.asarray(keys, dtype=np.int64)))

    def test_duplicates_and_empties(self):
        r = recs([5, 5, 5, 2])
        r[1, 0] = NULL_KEY
        out = bitonic_sort(r)
        assert list(out[:3, 0]) == [2, 5, 5]
        assert out[3, 0] == NULL_KEY
