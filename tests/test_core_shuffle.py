"""Tests for shuffle-and-deal (§5, Lemma 18 / Corollary 19)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import shuffle
from repro.core.shuffle import DealOverflow, knuth_block_shuffle, shuffle_and_deal
from repro.em import EMMachine, make_block
from repro.em.batch import blocks_occupied, empty_blocks
from repro.em.block import is_empty
from repro.util.mathx import ceil_div
from repro.util.rng import make_rng


def load_colored(mach, colors_per_block):
    """Block j gets key = colour (None = empty block)."""
    arr = mach.alloc(len(colors_per_block), "A")
    for j, c in enumerate(colors_per_block):
        if c is not None:
            arr.raw[j] = make_block([c], values=[j], B=mach.B)
    return arr


def block_keys(arr):
    out = []
    for j in range(arr.num_blocks):
        blk = arr.raw[j]
        if not is_empty(blk).all():
            out.append(int(blk[0, 0]))
    return out


class TestKnuthShuffle:
    def test_preserves_multiset(self):
        mach = EMMachine(M=64, B=4)
        arr = load_colored(mach, list(range(20)))
        knuth_block_shuffle(mach, arr, make_rng(0))
        assert sorted(block_keys(arr)) == list(range(20))

    def test_actually_permutes(self):
        mach = EMMachine(M=64, B=4)
        arr = load_colored(mach, list(range(50)))
        knuth_block_shuffle(mach, arr, make_rng(1))
        assert block_keys(arr) != list(range(50))

    def test_uniformity_chi_squared(self):
        """Every block should land in every position about equally often."""
        n, trials = 6, 3000
        counts = np.zeros((n, n))
        for t in range(trials):
            mach = EMMachine(M=64, B=4, trace=False)
            arr = load_colored(mach, list(range(n)))
            knuth_block_shuffle(mach, arr, make_rng(t))
            for pos, key in enumerate(block_keys(arr)):
                counts[key, pos] += 1
        expected = trials / n
        chi2 = ((counts - expected) ** 2 / expected).sum()
        # dof = (n-1)^2 = 25; 99.9th percentile ~ 52.6.
        assert chi2 < 60

    def test_io_count(self):
        mach = EMMachine(M=64, B=4)
        arr = load_colored(mach, list(range(10)))
        with mach.metered() as meter:
            knuth_block_shuffle(mach, arr, make_rng(0))
        assert meter.reads == 20 and meter.writes == 20

    def test_oblivious_trace(self):
        def run(keys):
            mach = EMMachine(M=64, B=4)
            arr = load_colored(mach, keys)
            knuth_block_shuffle(mach, arr, make_rng(9))
            return mach.trace.fingerprint()

        assert run(list(range(12))) == run([0] * 12)


class TestShuffleAndDeal:
    def deal(self, colors_per_block, num_colors, seed=0, **kw):
        mach = EMMachine(M=256, B=4)
        arr = load_colored(mach, colors_per_block)
        res = shuffle_and_deal(
            mach, arr, num_colors, lambda blks: blks[:, 0, 0], make_rng(seed), **kw
        )
        return mach, res

    def test_blocks_routed_to_own_color(self):
        layout = [j % 3 for j in range(30)]
        mach, res = self.deal(layout, 3)
        for c in range(3):
            keys = block_keys(res.arrays[c])
            assert all(k == c for k in keys)
            assert len(keys) == 10

    def test_occupied_counts(self):
        layout = [0] * 7 + [1] * 5
        mach, res = self.deal(layout, 2, seed=3)
        assert list(res.occupied) == [7, 5]

    def test_empty_blocks_dropped(self):
        layout = [0, None, 1, None, 0]
        mach, res = self.deal(layout, 2, seed=1)
        assert list(res.occupied) == [2, 1]

    def test_per_batch_write_pattern_fixed(self):
        """The trace must not depend on the colour distribution."""

        def run(layout):
            mach, _ = self.deal(layout, 2, seed=5)
            return mach.trace.fingerprint()

        a = run([0] * 10 + [1] * 10)
        b = run([1] * 10 + [0] * 10)
        assert a == b

    def test_overflow_raises(self):
        # Every block the same colour with tiny slots must overflow.
        layout = [0] * 40
        with pytest.raises(DealOverflow):
            self.deal(layout, 4, per_color_slots=1, batch_blocks=16)

    def test_color_validation(self):
        mach = EMMachine(M=256, B=4)
        arr = load_colored(mach, [5])
        with pytest.raises(ValueError):
            shuffle_and_deal(mach, arr, 2, lambda blks: blks[:, 0, 0], make_rng(0))

    def test_lemma18_balance_over_seeds(self):
        """Corollary 19 empirically: with the default factor the deal
        essentially never overflows for balanced colours."""
        layout = [j % 4 for j in range(64)]
        failures = 0
        for seed in range(30):
            try:
                self.deal(layout, 4, seed=seed)
            except DealOverflow:
                failures += 1
        assert failures == 0


def _reference_deal(machine, A, num_colors, colors_of_blocks, rng, batch_blocks, per_color_slots):
    """The per-batch loop the wide-stream deal replaced: one read call per
    batch, then one write call per colour, colours found block by block.
    Takes the sizes :func:`shuffle_and_deal` resolved."""
    n, B = A.num_blocks, machine.B
    num_batches = ceil_div(n, batch_blocks) if n else 0
    knuth_block_shuffle(machine, A, rng)
    arrays = [
        machine.alloc(max(1, num_batches * per_color_slots), f"{A.name}.color{c}")
        for c in range(num_colors)
    ]
    occupied = np.zeros(num_colors, dtype=np.int64)
    for batch in range(num_batches):
        lo = batch * batch_blocks
        blocks = machine.read_many(A, (lo, min(lo + batch_blocks, n)))
        groups = [[] for _ in range(num_colors)]
        for block in blocks[blocks_occupied(blocks)]:
            groups[int(colors_of_blocks(block[None])[0])].append(block)
        base = batch * per_color_slots
        for c in range(num_colors):
            if len(groups[c]) > per_color_slots:
                raise DealOverflow(f"batch {batch}, colour {c}")
            pad = empty_blocks(per_color_slots - len(groups[c]), B)
            machine.write_many(
                arrays[c], (base, base + per_color_slots), np.concatenate([np.asarray(groups[c]).reshape(-1, B, 2), pad])
            )
            occupied[c] += len(groups[c])
    return arrays, occupied


class TestDealTwin:
    """One engine call per chunk of batches emits the per-batch loop's
    events, bytes and ciphertext versions, and the same occupied counts."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 50),
        B=st.sampled_from([1, 2, 4]),
        m=st.sampled_from([8, 16, 32]),
        num_colors=st.integers(1, 4),
        batch_blocks=st.sampled_from([None, 3, 5]),
        per_color_slots=st.sampled_from([None, None, 2]),
        empty_frac=st.sampled_from([0.0, 0.4]),
        floor=st.sampled_from([None, 1, 20]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_batch_loop(self, n, B, m, num_colors, batch_blocks, per_color_slots, empty_frac, floor, seed):
        rng = np.random.default_rng(seed)
        colors = rng.integers(0, num_colors, n)
        colors[rng.random(n) < empty_frac] = -1

        def colors_of_blocks(blocks):
            return blocks[:, 0, 0] % num_colors

        # The sizes shuffle_and_deal resolves from its defaults.
        bb = max(1, min(batch_blocks or max(num_colors, int(m**0.75)), m - 2))
        mu = bb / num_colors
        slots = per_color_slots or min(max(1, int(np.ceil(mu + 6.0 * np.sqrt(mu) + 2))), bb)
        twins = []
        for batched in (True, False):
            mach = EMMachine(m * B, B, retain_trace=True)
            arr = mach.alloc(n, "a")
            for j, c in enumerate(colors.tolist()):
                if c >= 0:
                    arr.raw[j] = make_block([c + num_colors * j], values=[j], B=B)
            try:
                if batched:
                    with mock.patch.object(shuffle, "_CHUNK_FLOOR", floor or shuffle._CHUNK_FLOOR):
                        res = shuffle_and_deal(
                            mach,
                            arr,
                            num_colors,
                            colors_of_blocks,
                            make_rng(seed),
                            batch_blocks=batch_blocks,
                            per_color_slots=per_color_slots,
                        )
                    got = (res.arrays, res.occupied)
                else:
                    got = _reference_deal(mach, arr, num_colors, colors_of_blocks, make_rng(seed), bb, slots)
            except DealOverflow:
                got = None
            twins.append((mach, got))
        (m1, g1), (m2, g2) = twins
        assert (g1 is None) == (g2 is None)  # both overflow (Lemma 18's tail), or neither
        if g1 is None:
            return  # an aborted attempt: only success transcripts are pinned
        assert (m1.reads, m1.writes) == (m2.reads, m2.writes)
        assert np.array_equal(m1.trace.as_array(), m2.trace.as_array())
        for x, y in zip(g1[0], g2[0]):
            assert x.raw.tobytes() == y.raw.tobytes()
            assert np.array_equal(x.versions.snapshot(), y.versions.snapshot())
        assert np.array_equal(g1[1], g2[1])
