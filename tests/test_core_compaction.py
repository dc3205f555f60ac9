"""Tests for the four compaction algorithms (Theorems 4, 6, 8, 9)."""

import numpy as np
import pytest

from repro.core.compaction import (
    CompactionFailure,
    loose_compact,
    loose_compact_logstar,
    tight_compact,
    tight_compact_sparse,
)
from repro.em import EMMachine, make_block
from repro.em.block import is_empty
from repro.util.rng import make_rng


def load_block_array(mach, layout):
    """layout: list of None (empty block) or list-of-keys (occupied)."""
    arr = mach.alloc(len(layout), "A")
    for j, keys in enumerate(layout):
        if keys is not None:
            arr.raw[j] = make_block(keys, B=mach.B)
    return arr


def occupied_first_keys(arr):
    out = []
    for j in range(arr.num_blocks):
        blk = arr.raw[j]
        if not is_empty(blk).all():
            out.append(int(blk[0, 0]))
    return out


def sparse_layout(n, occupied_positions, key_base=0):
    return [
        [key_base + j] if j in set(occupied_positions) else None for j in range(n)
    ]


class TestTightCompact:
    def test_truncates_to_capacity(self):
        mach = EMMachine(M=64, B=4)
        arr = load_block_array(mach, sparse_layout(8, [1, 4, 6]))
        out = tight_compact(mach, arr, 3)
        assert out.num_blocks == 3
        assert occupied_first_keys(out) == [1, 4, 6]

    def test_overflow_detected(self):
        mach = EMMachine(M=64, B=4)
        arr = load_block_array(mach, sparse_layout(8, [0, 1, 2, 3, 4]))
        with pytest.raises(CompactionFailure):
            tight_compact(mach, arr, 3)

    def test_overflow_frees_intermediates(self):
        # Regression: the truncation-failure path used to leak the
        # freshly-allocated output array.
        mach = EMMachine(M=64, B=4)
        arr = load_block_array(mach, sparse_layout(8, [0, 1, 2, 3, 4]))
        with pytest.raises(CompactionFailure):
            tight_compact(mach, arr, 3)
        assert list(mach._arrays.values()) == [arr]

    def test_default_keeps_size(self):
        mach = EMMachine(M=64, B=4)
        arr = load_block_array(mach, sparse_layout(8, [7]))
        out = tight_compact(mach, arr)
        assert out.num_blocks == 8
        assert occupied_first_keys(out) == [7]


class TestTightCompactSparse:
    @pytest.mark.parametrize("oblivious_list", [False, True])
    def test_compacts_order_preserving(self, oblivious_list):
        mach = EMMachine(M=256, B=4)
        arr = load_block_array(mach, sparse_layout(16, [2, 5, 11, 14]))
        out = tight_compact_sparse(
            mach, arr, 4, make_rng(0), oblivious_list=oblivious_list
        )
        assert out.num_blocks == 4
        assert occupied_first_keys(out) == [2, 5, 11, 14]

    @pytest.mark.parametrize("oblivious_list", [False, True])
    def test_padding_when_fewer_items(self, oblivious_list):
        mach = EMMachine(M=256, B=4)
        arr = load_block_array(mach, sparse_layout(12, [3]))
        out = tight_compact_sparse(
            mach, arr, 4, make_rng(1), oblivious_list=oblivious_list
        )
        assert occupied_first_keys(out) == [3]
        assert is_empty(out.raw[1]).all()

    def test_block_contents_preserved(self):
        mach = EMMachine(M=256, B=4)
        layout = [None, [10, 11, 12], None, [20, 21]]
        arr = load_block_array(mach, layout)
        out = tight_compact_sparse(mach, arr, 2, make_rng(2), oblivious_list=False)
        blk0 = out.raw[0]
        assert blk0[:3, 0].tolist() == [10, 11, 12]
        blk1 = out.raw[1]
        assert blk1[:2, 0].tolist() == [20, 21]

    def test_capacity_overflow_raises(self):
        mach = EMMachine(M=256, B=4)
        arr = load_block_array(mach, sparse_layout(8, [0, 1, 2, 3]))
        with pytest.raises(CompactionFailure):
            tight_compact_sparse(mach, arr, 2, make_rng(0), oblivious_list=False)

    def test_negative_keys_rejected(self):
        mach = EMMachine(M=256, B=4)
        arr = mach.alloc(2)
        arr.raw[0] = make_block([-5], B=4)
        with pytest.raises(ValueError):
            tight_compact_sparse(mach, arr, 1, make_rng(0), oblivious_list=False)

    def test_insert_pass_oblivious(self):
        """Theorem 4's key property: the trace is independent of WHICH
        blocks are distinguished (same size, same r).

        The insert pass is trace-identical; the ORAM-simulated peel is
        oblivious in distribution, so its trace SHAPE (ops + arrays +
        length) must match exactly while probe positions are fresh
        randomness.
        """

        def run(positions):
            mach = EMMachine(M=256, B=4, retain_trace=True)
            arr = load_block_array(mach, sparse_layout(12, positions))
            tight_compact_sparse(mach, arr, 4, make_rng(7), oblivious_list=True)
            return mach.trace.as_array()[:, :2].tobytes(), len(mach.trace)

        assert run([0, 1, 2]) == run([9, 10, 11])

    def test_success_rate_lemma1(self):
        """At table_factor=6 (delta=2, k=3) the peel succeeds essentially
        always at this scale (Lemma 1)."""
        fails = 0
        for seed in range(40):
            mach = EMMachine(M=256, B=4, trace=False)
            arr = load_block_array(mach, sparse_layout(24, range(0, 24, 3)))
            try:
                tight_compact_sparse(mach, arr, 8, make_rng(seed), oblivious_list=False)
            except CompactionFailure:
                fails += 1
        assert fails == 0


class TestLooseCompact:
    def make_instance(self, n, occupied, M=256, B=4, seed=0):
        mach = EMMachine(M=M, B=B, trace=False)
        arr = load_block_array(mach, sparse_layout(n, occupied))
        return mach, arr

    def test_all_blocks_recovered(self):
        occupied = list(range(0, 32, 5))
        mach, arr = self.make_instance(32, occupied)
        out = loose_compact(mach, arr, 8, make_rng(3))
        assert out.num_blocks == 5 * 8
        assert sorted(occupied_first_keys(out)) == occupied

    def test_output_size_is_5r(self):
        mach, arr = self.make_instance(64, [0, 9])
        out = loose_compact(mach, arr, 4, make_rng(1))
        assert out.num_blocks == 20

    def test_density_bound_enforced(self):
        mach, arr = self.make_instance(8, [0])
        with pytest.raises(ValueError):
            loose_compact(mach, arr, 4, make_rng(0))  # 4r > n

    def test_success_over_seeds(self):
        occupied = list(range(0, 64, 9))
        ok = 0
        for seed in range(10):
            mach, arr = self.make_instance(64, occupied, seed=seed)
            try:
                out = loose_compact(mach, arr, 16, make_rng(seed))
                if sorted(occupied_first_keys(out)) == occupied:
                    ok += 1
            except CompactionFailure:
                pass
        assert ok >= 9

    def test_oblivious_trace(self):
        def run(occupied):
            mach = EMMachine(M=256, B=4)
            arr = load_block_array(mach, sparse_layout(32, occupied))
            loose_compact(mach, arr, 8, make_rng(11))
            return mach.trace.fingerprint()

        assert run([0, 5, 10]) == run([29, 30, 31])

    def test_linear_io_shape(self):
        """E4: I/Os per block stay bounded as n grows (fixed density,
        fixed cache) — the O(N/B) claim of Theorem 8."""

        def ios(n):
            mach = EMMachine(M=256, B=4, trace=False)
            arr = load_block_array(mach, sparse_layout(n, range(0, n, 8)))
            with mach.metered() as meter:
                loose_compact(mach, arr, n // 8, make_rng(5))
            return meter.total

        per_block = [ios(n) / n for n in (128, 256, 512, 1024)]
        assert max(per_block) / min(per_block) < 1.5


class TestLooseCompactLogstar:
    def test_small_input_base_case(self):
        mach = EMMachine(M=256, B=4)
        arr = load_block_array(mach, sparse_layout(16, [3, 8]))
        out = loose_compact_logstar(mach, arr, 4, make_rng(0))
        assert sorted(occupied_first_keys(out)) == [3, 8]

    def test_sparse_base_case(self):
        mach = EMMachine(M=256, B=4, trace=False)
        n = 128
        occupied = [5, 77]  # r < n / log^2 n
        arr = load_block_array(mach, sparse_layout(n, occupied))
        out = loose_compact_logstar(mach, arr, 3, make_rng(1))
        assert sorted(occupied_first_keys(out)) == occupied

    def test_general_phase_path(self):
        """tower_base=2 makes the phase condition reachable at n=512."""
        mach = EMMachine(M=2048, B=4, trace=False)
        n = 512
        occupied = list(range(0, n, 4))  # r = n/4: dense
        arr = load_block_array(mach, sparse_layout(n, occupied))
        out = loose_compact_logstar(
            mach, arr, n // 4, make_rng(2), tower_base=2
        )
        assert out.num_blocks == 4 * (n // 4) + (n // 16)
        assert sorted(occupied_first_keys(out)) == occupied

    def test_output_size_425r(self):
        mach = EMMachine(M=256, B=4, trace=False)
        arr = load_block_array(mach, sparse_layout(64, [0, 30]))
        out = loose_compact_logstar(mach, arr, 16, make_rng(3))
        assert out.num_blocks == 4 * 16 + 4

    def test_density_bound_enforced(self):
        mach = EMMachine(M=256, B=4)
        arr = load_block_array(mach, sparse_layout(8, [0]))
        with pytest.raises(ValueError):
            loose_compact_logstar(mach, arr, 4, make_rng(0))


class TestIBLTInsertPassBatched:
    """The fused-stream insert pass must be byte-identical to the scalar
    read-modify-write loop it replaced (fingerprints captured on the
    scalar formulation), including when several source blocks hit the
    same table cell within one batch."""

    #: (n_blocks, occupied, M, B, seed) -> (total_ios, fingerprint, inserted)
    GOLDEN = {
        (16, 3, 64, 4, 1): (
            244,
            "42360da7f70fe94374f83dbb5e835eb7750388e80fbf2298cd8d5d8cfb9d1059",
            3,
        ),
        (40, 6, 256, 8, 2): (
            592,
            "7ed69385db0aa353f7efb42c4b515fcf16787a43987deb0996b4bc5eef388b8d",
            6,
        ),
    }

    @staticmethod
    def _run(n_blocks, occupied, M, B, seed):
        from repro.core.compaction import _iblt_insert_pass
        from repro.em.block import NULL_KEY

        mach = EMMachine(M=M, B=B)
        layout = np.zeros((n_blocks * B, 2), dtype=np.int64)
        layout[:, 0] = NULL_KEY
        rng = np.random.default_rng(seed)
        live = rng.choice(n_blocks, size=occupied, replace=False)
        layout[live * B, 0] = live + 1
        layout[live * B, 1] = live * 10
        A = mach.alloc(n_blocks, "A")
        A.load_flat(layout)
        state = _iblt_insert_pass(mach, A, 6 * occupied, 3, make_rng(seed))
        return mach, state

    @pytest.mark.parametrize("shape", sorted(GOLDEN))
    def test_trace_identical_to_scalar_loop(self, shape):
        mach, state = self._run(*shape)
        want_ios, want_fp, want_inserted = self.GOLDEN[shape]
        assert mach.total_ios == want_ios
        assert mach.trace.fingerprint() == want_fp
        assert state.inserted == want_inserted

    def test_duplicate_cells_accumulate_like_scalar(self):
        """Table state equals the scalar accumulation: peel recovers every
        inserted block, so counts/key sums/payload sums are all coherent."""
        from repro.core.compaction import _peel_direct

        mach, state = self._run(40, 6, 256, 8, 2)
        items, ok = _peel_direct(mach, state, 6)
        assert ok and len(items) == 6

    def test_rejects_negative_keys(self):
        from repro.core.compaction import _iblt_insert_pass

        mach = EMMachine(M=64, B=4)
        arr = mach.alloc(4, "A")
        blk = make_block([3], B=4)
        blk[0, 0] = -7
        arr.raw[1] = blk
        with pytest.raises(ValueError, match="non-negative"):
            _iblt_insert_pass(mach, arr, 6, 3, make_rng(0))


class TestObliviousPeelOutputs:
    @pytest.mark.parametrize("positions", [[2, 9, 13], [0, 1, 2], [15]])
    def test_oblivious_and_direct_peels_agree(self, positions):
        """The restructured ORAM peel produces byte-identical results to
        the direct (access-revealing) peel at every capacity."""
        outs = []
        for oblivious in (False, True):
            mach = EMMachine(M=64, B=4)
            arr = load_block_array(mach, sparse_layout(16, positions))
            out = tight_compact_sparse(
                mach, arr, len(positions), make_rng(7), oblivious_list=oblivious
            )
            outs.append(np.stack([out.raw[j] for j in range(out.num_blocks)]))
        assert np.array_equal(outs[0], outs[1])
