"""Tests for the butterfly compaction network (Theorem 6, Lemma 5, Figure 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.em import EMMachine, make_block
from repro.em.block import is_empty
from repro.baselines.butterfly_naive import naive_butterfly_compact
from repro.em.trace import Op
from repro.networks.butterfly import (
    ButterflyCollisionError,
    _make_label_blocks,
    _route_em,
    _write_labels_scan,
    butterfly_compact,
    butterfly_expand,
    butterfly_levels_trace,
    distance_labels,
)


def load_blocks(machine, keys_per_block):
    """Build an EMArray whose block j holds keys_per_block[j] (None = empty)."""
    arr = machine.alloc(len(keys_per_block), "A")
    for j, keys in enumerate(keys_per_block):
        if keys is not None:
            arr.raw[j] = make_block(keys, B=machine.B)
    return arr


def occupied_keys(arr):
    """First key of each occupied block, in order (omniscient)."""
    out = []
    for j in range(arr.num_blocks):
        blk = arr.raw[j]
        if not is_empty(blk).all():
            out.append(int(blk[0, 0]))
    return out


class TestDistanceLabels:
    def test_figure1_example(self):
        """The occupancy pattern of the paper's Figure 1 (7 occupied cells
        among 16) must reproduce its L0 distance labels 2,3,3,6,8,8,9."""
        occ = np.zeros(16, dtype=bool)
        # Positions chosen so labels come out as in the figure:
        positions = [2, 4, 5, 9, 12, 13, 15]
        occ[positions] = True
        labels = distance_labels(occ)
        assert [int(labels[p]) for p in positions] == [2, 3, 3, 6, 8, 8, 9]

    def test_all_occupied_zero_labels(self):
        occ = np.ones(8, dtype=bool)
        assert not distance_labels(occ).any()

    def test_labels_nondecreasing_over_occupied(self):
        rng = np.random.default_rng(0)
        occ = rng.random(100) < 0.4
        labels = distance_labels(occ)
        occ_labels = labels[occ]
        assert (np.diff(occ_labels) >= 0).all()

    @given(st.lists(st.booleans(), min_size=1, max_size=80))
    def test_label_equals_empties_to_left(self, bits):
        occ = np.asarray(bits, dtype=bool)
        labels = distance_labels(occ)
        empties = 0
        for j, o in enumerate(occ):
            if o:
                assert labels[j] == empties
            else:
                empties += 1


class TestLevelsTrace:
    def test_final_level_compact(self):
        occ = np.array([0, 0, 1, 0, 1, 1, 0, 1], dtype=bool)
        trace = butterfly_levels_trace(occ)
        final = trace[-1]
        occ_final = [o for o, _ in final]
        # Occupied cells form a prefix.
        k = sum(occ_final)
        assert occ_final == [True] * k + [False] * (8 - k)
        # All remaining distances are 0.
        assert all(d == 0 for o, d in final if o)

    def test_number_of_levels(self):
        occ = np.zeros(16, dtype=bool)
        occ[3] = True
        trace = butterfly_levels_trace(occ)
        assert len(trace) == 1 + 4  # L0 plus ceil(log2 16) levels

    def test_moves_are_zero_or_pow2(self):
        rng = np.random.default_rng(2)
        occ = rng.random(64) < 0.3
        trace = butterfly_levels_trace(occ)
        for i in range(len(trace) - 1):
            # Count per-level movement: occupied positions between levels.
            cur = {j for j, (o, _) in enumerate(trace[i]) if o}
            nxt = {j for j, (o, _) in enumerate(trace[i + 1]) if o}
            # A cell moves 0 or 2^i; the multiset sizes must match.
            assert len(cur) == len(nxt)

    @given(st.lists(st.booleans(), min_size=1, max_size=64))
    @settings(deadline=None, max_examples=40)
    def test_lemma5_no_collisions_any_occupancy(self, bits):
        """Lemma 5: valid labels never collide, for any occupancy pattern."""
        occ = np.asarray(bits, dtype=bool)
        trace = butterfly_levels_trace(occ)  # raises on collision
        assert sum(o for o, _ in trace[-1]) == int(occ.sum())


def compactor(windowed):
    """The library's windowed router, or the per-level circuit
    simulation kept in ``baselines`` (E3); both must compact alike."""
    return butterfly_compact if windowed else naive_butterfly_compact


class TestEMButterflyCompact:
    @pytest.mark.parametrize("windowed", [False, True])
    def test_compacts_order_preserving(self, windowed):
        mach = EMMachine(M=16 * 4, B=4)
        layout = [None, [10], None, [20], [30], None, None, [40]]
        arr = load_blocks(mach, layout)
        out = compactor(windowed)(mach, arr)
        assert occupied_keys(out) == [10, 20, 30, 40]
        # Tightness: occupied blocks form a prefix.
        occ_mask = [not is_empty(out.raw[j]).all() for j in range(out.num_blocks)]
        assert occ_mask == [True] * 4 + [False] * 4

    @pytest.mark.parametrize("windowed", [False, True])
    def test_all_empty(self, windowed):
        mach = EMMachine(M=16 * 4, B=4)
        arr = load_blocks(mach, [None] * 8)
        out = compactor(windowed)(mach, arr)
        assert occupied_keys(out) == []

    @pytest.mark.parametrize("windowed", [False, True])
    def test_all_full(self, windowed):
        mach = EMMachine(M=16 * 4, B=4)
        arr = load_blocks(mach, [[i] for i in range(8)])
        out = compactor(windowed)(mach, arr)
        assert occupied_keys(out) == list(range(8))

    def test_non_power_of_two_sizes(self):
        for n in [1, 3, 5, 7, 11, 13]:
            mach = EMMachine(M=16 * 4, B=4)
            layout = [[j] if j % 3 == 0 else None for j in range(n)]
            arr = load_blocks(mach, layout)
            out = butterfly_compact(mach, arr)
            assert occupied_keys(out) == [j for j in range(n) if j % 3 == 0]

    def test_windowed_recursion_on_large_array(self):
        """An array much larger than the cache needs several routing
        passes over strided residue classes before one fits."""
        n = 128
        mach = EMMachine(M=12 * 4, B=4)  # g = 2; a class fits at <= 5 cells
        rng = np.random.default_rng(3)
        mask = rng.random(n) < 0.5
        layout = [[int(j)] if mask[j] else None for j in range(n)]
        arr = load_blocks(mach, layout)
        out = butterfly_compact(mach, arr)
        assert occupied_keys(out) == [j for j in range(n) if mask[j]]

    def test_windowed_beats_naive_ios(self):
        """The windowed router must use asymptotically fewer I/Os than
        the per-level circuit simulation kept in ``baselines`` (E3)."""
        n = 128
        layout = [[j] if j % 2 else None for j in range(n)]

        def run(compact):
            mach = EMMachine(M=32 * 8, B=8, trace=False)
            arr = load_blocks(mach, layout)
            with mach.metered() as meter:
                out = compact(mach, arr)
            assert occupied_keys(out) == list(range(1, n, 2))
            return meter.total

        assert run(butterfly_compact) < run(naive_butterfly_compact)

    def test_oblivious_same_trace_different_data(self):
        """Same occupancy CARDINALITY is not required — any two inputs of
        equal size must give identical traces."""

        def run(layout):
            mach = EMMachine(M=16 * 4, B=4)
            arr = load_blocks(mach, layout)
            butterfly_compact(mach, arr)
            return mach.trace.fingerprint()

        a = run([[1], None, [2], None, [3], None, [4], None])
        b = run([None, None, None, None, None, None, None, [9]])
        assert a == b

    def test_custom_occupied_fn(self):
        mach = EMMachine(M=16 * 4, B=4)
        arr = load_blocks(mach, [[5], [105], [6], [106]])
        out = butterfly_compact(mach, arr, occupied_fn=lambda blk: blk[0, 0] >= 100)
        assert occupied_keys(out)[:2] == [105, 106]


class TestEMButterflyExpand:
    def test_expand_roundtrip(self):
        mach = EMMachine(M=16 * 4, B=4)
        D = load_blocks(mach, [[1], [2], [3]])
        out = butterfly_expand(mach, D, np.array([1, 2, 4]), n_out=8)
        keys = {
            j: int(out.raw[j][0, 0])
            for j in range(8)
            if not is_empty(out.raw[j]).all()
        }
        assert keys == {1: 1, 3: 2, 6: 3}

    def test_expand_zero_factors_identity(self):
        mach = EMMachine(M=16 * 4, B=4)
        D = load_blocks(mach, [[7], [8]])
        out = butterfly_expand(mach, D, np.array([0, 0]), n_out=4)
        assert occupied_keys(out) == [7, 8]

    def test_expand_large_forces_network_path(self):
        n_out = 64
        mach = EMMachine(M=12 * 4, B=4)
        D = load_blocks(mach, [[j] for j in range(16)])
        factors = np.arange(16, dtype=np.int64) * 3  # dest = j + 3j = 4j
        out = butterfly_expand(mach, D, factors, n_out=n_out)
        for j in range(16):
            assert int(out.raw[4 * j][0, 0]) == j

    def test_expand_inverts_compact(self):
        """Compaction followed by expansion with the recorded distances is
        the identity (the paper's 'in reverse' remark)."""
        mach = EMMachine(M=64 * 4, B=4)
        layout = [[10], None, [20], None, None, [30], [40], None]
        arr = load_blocks(mach, layout)
        occ = np.array([lay is not None for lay in layout])
        labels = distance_labels(occ)
        out = butterfly_compact(mach, arr)
        # Occupied blocks now at positions 0..3; expansion factors are the
        # original labels over occupied cells, a non-decreasing sequence.
        D = mach.alloc(4, "D")
        for j in range(4):
            D.raw[j] = out.raw[j]
        back = butterfly_expand(mach, D, labels[occ], n_out=8)
        for j, lay in enumerate(layout):
            if lay is None:
                assert is_empty(back.raw[j]).all()
            else:
                assert int(back.raw[j][0, 0]) == lay[0]

    def test_validation(self):
        mach = EMMachine(M=16 * 4, B=4)
        D = load_blocks(mach, [[1], [2]])
        with pytest.raises(ValueError):
            butterfly_expand(mach, D, np.array([2, 1]), n_out=8)  # decreasing
        with pytest.raises(ValueError):
            butterfly_expand(mach, D, np.array([0, 7]), n_out=8)  # overflow
        with pytest.raises(ValueError):
            butterfly_expand(mach, D, np.array([-1, 0]), n_out=8)  # negative
        with pytest.raises(ValueError):
            butterfly_expand(mach, D, np.array([0]), n_out=8)  # wrong length


class TestCollisionDetection:
    def test_invalid_labels_raise(self):
        """Malformed labels (violating the empties-between property) must
        be caught rather than silently dropping data."""
        occ = np.array([False, True, True], dtype=bool)
        from repro.networks.butterfly import _route_one_level

        lab = np.array([0, 1, 1], dtype=np.int64)  # both want slot 0/1 wrongly
        # d=1 at position 1 -> dest 0; d=1 at position 2 -> dest 1: no
        # collision.  Force one: both route to slot 1.
        lab = np.array([0, 0, 1], dtype=np.int64)
        with pytest.raises(ButterflyCollisionError):
            _route_one_level(occ, lab, None, 0)


def _routing_passes(n, m):
    """Passes of the in-place router: each routes g levels, with g the
    largest value such that 2·2^g + 2 <= m (at least 1), until one
    residue class fits in cache and takes every level left."""
    g = 1
    while 2 * 2 ** (g + 1) + 2 <= m:
        g += 1
    passes, stride = 0, 1
    while -(-n // stride) > 1:
        passes += 1
        if 2 * -(-n // stride) + 2 <= m:
            break
        stride <<= g
    return passes


def _labelled(mach, mask):
    """A data array holding key ``j`` at each occupied position ``j``,
    plus its label array written by the library's label scan."""
    arr = load_blocks(mach, [[j] if o else None for j, o in enumerate(mask)])
    labels, _ = _write_labels_scan(mach, arr, None)
    return arr, labels


class TestInPlaceRouter:
    @given(
        n=st.integers(1, 700),
        occupancy=st.floats(0.0, 1.0),
        m=st.sampled_from([4, 6, 12, 16, 32, 64, 128]),
        seed=st.integers(0, 2**16),
    )
    @settings(deadline=None, max_examples=60)
    def test_matches_plaintext_and_final_level(self, n, occupancy, m, seed):
        mask = np.random.default_rng(seed).random(n) < occupancy
        mach = EMMachine(M=m * 4, B=4, trace=False)
        arr, labels = _labelled(mach, mask)
        _route_em(mach, arr, labels)
        # Plaintext compaction: occupied blocks in order, then empties.
        k = int(mask.sum())
        occ = [not is_empty(arr.raw[j]).all() for j in range(n)]
        assert occ == [True] * k + [False] * (n - k)
        assert occupied_keys(arr) == np.flatnonzero(mask).tolist()
        # The label array ends as the network's final level.
        final = butterfly_levels_trace(mask)[-1]
        assert [(bool(b[0, 0] == 1), int(b[0, 1])) for b in labels.raw] == final

    @pytest.mark.parametrize(
        "n, m",
        [(2, 4), (5, 4), (100, 6), (129, 12), (700, 16), (2048, 32), (8192, 128)],
    )
    def test_exact_cost_four_n_per_pass(self, n, m):
        mach = EMMachine(M=m * 4, B=4, trace=False)
        arr, labels = _labelled(mach, np.arange(n) % 5 < 2)
        with mach.metered() as meter:
            _route_em(mach, arr, labels)
        assert meter.reads == meter.writes == 2 * n * _routing_passes(n, m)

    def test_routes_in_place_within_the_cache(self):
        mach = EMMachine(M=32 * 4, B=4, retain_trace=True)
        arr, labels = _labelled(mach, np.arange(2048) % 5 < 2)
        mark = len(mach.trace)
        _route_em(mach, arr, labels)
        ops = mach.trace.as_array(since=mark)[:, 0]
        assert len(ops) == 4 * 2048 * _routing_passes(2048, 32)
        assert not np.any(ops == Op.ALLOC)
        assert mach.cache.high_water <= mach.cache.capacity_blocks

    @pytest.mark.parametrize("m", [4, 32])
    @pytest.mark.parametrize(
        "occupied, dist",
        [
            ([0, 1], [0, 1]),  # cell 1 moves 1, onto cell 0
            ([3], [4]),  # cell 3 moves 4, past the left edge
        ],
    )
    def test_malformed_labels_raise_in_the_router(self, m, occupied, dist):
        n = 8
        mach = EMMachine(M=m * 4, B=4, trace=False)
        occ = np.zeros(n, dtype=bool)
        occ[occupied] = True
        d = np.zeros(n, dtype=np.int64)
        d[occupied] = dist
        arr = load_blocks(mach, [[j] if o else None for j, o in enumerate(occ)])
        labels = mach.alloc(n, "labels")
        labels.raw[:] = _make_label_blocks(4, occ, d)
        with pytest.raises(ButterflyCollisionError):
            _route_em(mach, arr, labels)
