"""Tests for the square-root ORAM and the oblivious block sort."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EMConfig, ObliviousSession
from repro.core import block_sort, external_sort
from repro.core.block_sort import oblivious_block_sort
from repro.em import EMMachine, make_block
from repro.em.batch import empty_blocks, scan_chunks
from repro.em.block import NULL_KEY, is_empty
from repro.em.errors import EMError
from repro.networks.odd_even import batcher_pairs
from repro.oram import ORAM_BACKENDS, SquareRootORAM, make_oram
from repro.oram.simulation import measure_oram_overhead
from repro.oram.tagged_store import _prf
from repro.util.mathx import ceil_div, next_pow2
from repro.util.rng import make_rng


class TestObliviousBlockSort:
    def test_sorts_by_first_key(self):
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc(8)
        keys = [5, 3, 8, 1, 9, 2, 7, 4]
        for j, k in enumerate(keys):
            arr.raw[j] = make_block([k], B=4)
        oblivious_block_sort(mach, [arr])
        assert [int(arr.raw[j][0, 0]) for j in range(8)] == sorted(keys)

    def test_parallel_arrays_stay_aligned(self):
        mach = EMMachine(M=64, B=4)
        meta = mach.alloc(6)
        data = mach.alloc(6)
        keys = [30, 10, 20, 60, 50, 40]
        for j, k in enumerate(keys):
            meta.raw[j] = make_block([k], B=4)
            data.raw[j] = make_block([k * 100], B=4)
        oblivious_block_sort(mach, [meta, data])
        for j in range(6):
            assert int(data.raw[j][0, 0]) == int(meta.raw[j][0, 0]) * 100

    def test_non_power_of_two(self):
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc(5)
        for j, k in enumerate([9, 1, 5, 3, 7]):
            arr.raw[j] = make_block([k], B=4)
        oblivious_block_sort(mach, [arr])
        assert [int(arr.raw[j][0, 0]) for j in range(5)] == [1, 3, 5, 7, 9]

    def test_oblivious_trace(self):
        def run(keys):
            mach = EMMachine(M=64, B=4)
            arr = mach.alloc(len(keys))
            for j, k in enumerate(keys):
                arr.raw[j] = make_block([k], B=4)
            oblivious_block_sort(mach, [arr])
            return mach.trace.fingerprint()

        assert run([4, 3, 2, 1]) == run([1, 1, 1, 1])

    def test_custom_key_fn(self):
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc(3)
        for j, k in enumerate([1, 2, 3]):
            arr.raw[j] = make_block([k], values=[-k], B=4)
        oblivious_block_sort(mach, [arr], key_fn=lambda blk: int(blk[0, 1]))
        assert [int(arr.raw[j][0, 0]) for j in range(3)] == [3, 2, 1]

    def test_validation(self):
        mach = EMMachine(M=64, B=4)
        with pytest.raises(ValueError):
            oblivious_block_sort(mach, [])
        a, b = mach.alloc(4), mach.alloc(2)
        with pytest.raises(ValueError):
            oblivious_block_sort(mach, [a, b])


def _reference_block_sort(machine, arrays, key_fn, run_blocks):
    """The per-comparator loop the batched block sort replaced: one
    ``read_many`` per run and column to load a comparator, one
    ``write_many`` per run and column to store it."""
    n = arrays[0].num_blocks
    if n <= 1:
        return
    T, width, B = len(arrays), len(arrays) + 1, machine.B
    R = run_blocks or max(1, min(n, (machine.m - 2) // (2 * width)))
    num_runs = ceil_div(n, R)
    size = num_runs * R
    work = [machine.alloc(size, f"{arr.name}.bsort") for arr in arrays]
    keys = machine.alloc(size, f"{arrays[0].name}.bsort.key")
    for lo, hi in scan_chunks(machine, n, streams=2 * T + 1):
        def key_blocks(reads, k=hi - lo):
            kb = empty_blocks(k, B)
            kb[:, 0, 0] = [int(key_fn(b)) for b in reads[0]]
            kb[:, 0, 1] = 0
            return kb

        steps = []
        for t in range(T):
            steps.append(("r", arrays[t], (lo, hi)))
            steps.append(("w", work[t], (lo, hi), lambda r, s=2 * t: r[s]))
        machine.io_rounds(steps + [("w", keys, (lo, hi), key_blocks)])
    for lo, hi in scan_chunks(machine, size - n, streams=T + 1):
        k = hi - lo
        pad_kb = empty_blocks(k, B)
        pad_kb[:, 0, 0], pad_kb[:, 0, 1] = 0, 1
        steps = [("w", w, (n + lo, n + hi), empty_blocks(k, B)) for w in work]
        machine.io_rounds(steps + [("w", keys, (n + lo, n + hi), pad_kb)])

    cols = [keys, *work]

    def comparator(runs):
        """Read the runs of each column in turn, sort their atoms by
        (pad flag, key), write them back in the same order."""
        got = [
            np.concatenate([machine.read_many(col, (r * R, r * R + R)) for r in runs])
            for col in cols
        ]
        order = np.lexsort((got[0][:, 0, 0], got[0][:, 0, 1]))
        for col, blocks in zip(cols, got):
            for j, r in enumerate(runs):
                machine.write_many(col, (r * R, r * R + R), blocks[order[j * R : j * R + R]])

    for run in range(num_runs):
        comparator([run])
    if num_runs > 1:
        for los, his in batcher_pairs(next_pow2(num_runs)):
            for a, b in zip(los.tolist(), his.tolist()):
                if b < num_runs:
                    comparator([a, b])
    for lo, hi in scan_chunks(machine, n, streams=2 * T):
        steps = []
        for t in range(T):
            steps.append(("r", work[t], (lo, hi)))
            steps.append(("w", arrays[t], (lo, hi), lambda r, s=2 * t: r[s]))
        machine.io_rounds(steps)
    for w in work:
        machine.free(w)
    machine.free(keys)


class TestBatchedBlockSortTwin:
    """The batched block sort (one ``io_rounds`` call per stage chunk,
    with one read and one write stream per column) emits exactly the
    events, bytes and ciphertext versions of the per-comparator loop,
    which reads the runs of each column in turn and then writes them
    back in the same order."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 70),
        T=st.integers(1, 3),
        shape=st.sampled_from([(64, 4), (128, 4), (96, 8), (256, 2)]),
        run_blocks=st.sampled_from([None, 1, 2, 3]),
        custom_key=st.booleans(),
        key_range=st.sampled_from([3, 1000]),
        floor=st.sampled_from([None, 1, 7]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_comparator_loop(
        self, n, T, shape, run_blocks, custom_key, key_range, floor, seed
    ):
        M, B = shape
        if run_blocks is not None and 2 * run_blocks * (T + 1) > M // B:
            run_blocks = None
        rng = np.random.default_rng(seed)
        contents = rng.integers(0, key_range, size=(T, n * B, 2))
        key_fn = (
            (lambda blk: int(blk[0, 1]) - int(blk[1 % B, 0]))
            if custom_key
            else block_sort._default_key
        )
        twins = []
        for batched in (True, False):
            mach = EMMachine(M, B, retain_trace=True)
            arrays = [mach.alloc(n, f"a{t}") for t in range(T)]
            for arr, flat in zip(arrays, contents):
                arr.load_flat(flat)
            # The working copies are freed inside the sort: keep their
            # final bytes and versions for the comparison.
            freed: list = []

            def free(arr, free=mach.free, freed=freed):
                freed.append((arr.raw.tobytes(), arr.versions.snapshot().tolist()))
                free(arr)

            mach.free = free
            if batched:
                # A small chunk floor splits long stages into several calls.
                with mock.patch.object(
                    external_sort, "_CHUNK_FLOOR", floor or external_sort._CHUNK_FLOOR
                ):
                    oblivious_block_sort(
                        mach, arrays, key_fn=key_fn, run_blocks=run_blocks
                    )
            else:
                _reference_block_sort(mach, arrays, key_fn, run_blocks)
            twins.append((mach, arrays, freed))
        (m1, a1, f1), (m2, a2, f2) = twins
        assert (m1.reads, m1.writes) == (m2.reads, m2.writes)
        assert np.array_equal(m1.trace.as_array(), m2.trace.as_array())
        assert f1 == f2
        for x, y in zip(a1, a2):
            assert x.raw.tobytes() == y.raw.tobytes()
            assert np.array_equal(x.versions.snapshot(), y.versions.snapshot())
        keys = np.array([key_fn(b) for b in a1[0].raw])
        assert (np.diff(keys) >= 0).all()


def fresh_oram(n, M=2048, B=4, seed=1):
    mach = EMMachine(M=M, B=B)
    oram = SquareRootORAM(mach, n, make_rng(seed))
    return mach, oram


class TestSquareRootORAMBasics:
    def test_fresh_cells_empty(self):
        _, oram = fresh_oram(4)
        assert is_empty(oram.read(2)).all()

    def test_write_then_read(self):
        _, oram = fresh_oram(4)
        blk = make_block([42], B=4)
        oram.write(1, blk)
        assert np.array_equal(oram.read(1), blk)

    def test_write_returns_old_value(self):
        _, oram = fresh_oram(4)
        b1 = make_block([1], B=4)
        b2 = make_block([2], B=4)
        oram.write(0, b1)
        old = oram.write(0, b2)
        assert np.array_equal(old, b1)
        assert np.array_equal(oram.read(0), b2)

    def test_out_of_range(self):
        _, oram = fresh_oram(4)
        with pytest.raises(IndexError):
            oram.read(4)

    def test_survives_many_epochs(self):
        """Values persist across multiple rebuilds."""
        _, oram = fresh_oram(6, seed=3)
        for i in range(6):
            oram.write(i, make_block([100 + i], B=4))
        for _ in range(4):  # several epochs of churn
            for i in range(6):
                assert int(oram.read(i)[0, 0]) == 100 + i
        assert oram.rebuilds >= 2

    def test_repeated_access_same_cell(self):
        """Repeatedly hitting one cell must keep working (dummy probes)."""
        _, oram = fresh_oram(9, seed=5)
        oram.write(3, make_block([7], B=4))
        for _ in range(20):
            assert int(oram.read(3)[0, 0]) == 7

    def test_dummy_ops_do_not_corrupt(self):
        _, oram = fresh_oram(4, seed=2)
        oram.write(2, make_block([5], B=4))
        for _ in range(10):
            oram.dummy_op()
        assert int(oram.read(2)[0, 0]) == 5

    def test_initial_contents(self):
        mach = EMMachine(M=2048, B=4)
        init = mach.alloc(4)
        for j in range(4):
            init.raw[j] = make_block([j * 11], B=4)
        oram = SquareRootORAM(mach, 4, make_rng(0), initial=init)
        for j in range(4):
            assert int(oram.read(j)[0, 0]) == j * 11

    def test_extract_to(self):
        mach = EMMachine(M=2048, B=4)
        oram = SquareRootORAM(mach, 5, make_rng(1))
        for i in range(5):
            oram.write(i, make_block([i + 50], B=4))
        out = mach.alloc(5)
        oram.extract_to(out)
        assert [int(out.raw[j][0, 0]) for j in range(5)] == [50, 51, 52, 53, 54]


def _trace_shape(machine):
    """The data-independent skeleton of a trace: ops and arrays, no indices."""
    return machine.trace.as_array()[:, :2].tolist()


def _store_probe_positions(machine, oram):
    """Indices of reads into the store payload array (the random probes)."""
    events = machine.trace.as_array()
    aid = oram.stores[0].payload.array_id
    return events[(events[:, 1] == aid) & (events[:, 0] == 0), 2].tolist()


class TestORAMObliviousness:
    """Square-root ORAM is oblivious *in distribution* (the paper's §1
    definition): the trace's shape is a fixed function of (n, length) and
    the store-probe positions are fresh uniform randomness, independent of
    the logical access sequence."""

    def _run(self, sequence, seed):
        mach = EMMachine(M=2048, B=4, retain_trace=True)
        oram = SquareRootORAM(mach, 8, make_rng(seed))
        for i in sequence:
            oram.read(i)
        return mach, oram

    def test_trace_shape_independent_of_access_pattern(self):
        ma, oa = self._run([0, 1, 2, 3, 4, 5, 6, 7], seed=77)
        mb, ob = self._run([3, 3, 3, 3, 3, 3, 3, 3], seed=77)
        assert _trace_shape(ma) == _trace_shape(mb)
        assert len(ma.trace) == len(mb.trace)

    def test_probe_positions_distribution_matches(self):
        """Across seeds, probe-position distributions for two adversarial
        sequences must be statistically indistinguishable."""
        stats = pytest.importorskip("scipy.stats")

        pos_a, pos_b = [], []
        for seed in range(40):
            ma, oa = self._run(list(range(8)), seed)
            mb, ob = self._run([3] * 8, seed)
            pos_a.extend(_store_probe_positions(ma, oa))
            pos_b.extend(_store_probe_positions(mb, ob))
        ks = stats.ks_2samp(pos_a, pos_b)
        assert ks.pvalue > 0.01

    def test_reads_and_writes_indistinguishable(self):
        """For the SAME logical sequence, read vs write traces are
        byte-identical under a fixed seed (values never affect probes)."""

        def run(do_write):
            mach = EMMachine(M=2048, B=4)
            oram = SquareRootORAM(mach, 8, make_rng(11))
            for i in range(8):
                if do_write:
                    oram.write(i, make_block([i], B=4))
                else:
                    oram.read(i)
            return mach.trace.fingerprint()

        assert run(True) == run(False)

    def test_dummy_shape_matches_real(self):
        def run(use_dummy):
            mach = EMMachine(M=2048, B=4, retain_trace=True)
            oram = SquareRootORAM(mach, 8, make_rng(13))
            for _ in range(6):
                if use_dummy:
                    oram.dummy_op()
                else:
                    oram.read(5)
            return _trace_shape(mach)

        assert run(True) == run(False)


class TestORAMOverheadMeasurement:
    def test_overhead_reported(self):
        stats = measure_oram_overhead(n=16, num_accesses=40, M=2048, B=4, seed=0)
        assert stats.accesses == 40
        assert stats.total_ios > 0
        assert stats.amortized_ios_per_access > 1.0
        assert stats.rebuilds >= 1
        assert 0.0 < stats.rebuild_fraction < 1.0

    def test_overhead_grows_with_n(self):
        small = measure_oram_overhead(n=9, num_accesses=30, seed=1, M=2048)
        large = measure_oram_overhead(n=64, num_accesses=30, seed=1, M=2048)
        assert large.amortized_ios_per_access > small.amortized_ios_per_access


class TestUpdateAccess:
    def test_update_applies_fn_and_returns_old(self):
        _, oram = fresh_oram(4)
        oram.write(2, make_block([10], B=4))
        old = oram.update(2, lambda blk: blk + 1)
        assert int(old[0, 0]) == 10
        assert int(oram.read(2)[0, 0]) == 11

    def test_update_on_fresh_cell_sees_empty(self):
        _, oram = fresh_oram(4)
        seen = {}

        def fn(blk):
            seen["empty"] = bool(is_empty(blk).all())
            out = blk.copy()
            out[0, 0] = 5
            out[0, 1] = 50
            return out

        oram.update(1, fn)
        assert seen["empty"]
        assert int(oram.read(1)[0, 1]) == 50

    def test_update_survives_rebuilds(self):
        _, oram = fresh_oram(5, seed=9)
        oram.write(3, make_block([0], B=4))
        for _ in range(3 * 5):  # several epochs of increments
            oram.update(3, lambda blk: blk + np.int64(1))
        assert int(oram.read(3)[0, 0]) == 15

    def test_update_transcript_matches_read_and_write(self):
        """The RMW access is indistinguishable from read/write: identical
        transcripts for the same index sequence at a fixed seed."""

        def run(kind):
            mach = EMMachine(M=2048, B=4)
            oram = SquareRootORAM(mach, 8, make_rng(21))
            for i in [3, 1, 4, 1, 5]:
                if kind == "read":
                    oram.read(i)
                elif kind == "write":
                    oram.write(i, make_block([i], B=4))
                else:
                    oram.update(i, lambda blk: blk + 1)
            return mach.trace.fingerprint()

        assert run("read") == run("write") == run("update")


def _slot_of(store, col, value):
    """Slot of ``store`` whose meta record holds ``value`` in ``col``
    (0: tag, 1: logical index), read through the omniscient view."""
    return int(np.flatnonzero(store.meta.raw[:, 0, col] == value)[0])


@pytest.mark.parametrize("backend", ORAM_BACKENDS)
class TestIntegrityFailures:
    """The shared core's integrity checks surface a corrupted store as a
    typed ``EMError`` on either backend.  Each test corrupts the store
    that holds every cell right after construction (the square-root
    store; the hierarchical bottom level).  Tags are even, so ``+1``
    keeps the store sorted but makes the tag unsearchable."""

    def _oram(self, backend):
        mach = EMMachine(M=2048, B=4)
        oram = make_oram(backend, mach, 6, make_rng(3))
        return mach, oram, oram.stores[-1]

    def test_real_probe_miss(self, backend):
        _, oram, st = self._oram(backend)
        st.meta.raw[_slot_of(st, 1, 2), 0, 0] += 1
        with pytest.raises(EMError, match="lost logical cell 2"):
            oram.read(2)

    def test_dummy_probe_miss(self, backend):
        _, oram, st = self._oram(backend)
        # A dummy access searches the store's rank-0 dummy tag first.
        st.meta.raw[_slot_of(st, 0, _prf(st.key, oram.n)), 0, 0] += 1
        with pytest.raises(EMError, match="dummy probe missed"):
            oram.dummy_op()

    def test_dummy_exhaustion(self, backend):
        # The cadence rebuilds every store before its budget runs out, so
        # no storage corruption reaches this check: spend the budget.
        _, oram, st = self._oram(backend)
        st.dummies_used = st.budget
        with pytest.raises(EMError, match="exhausted its dummies"):
            oram.dummy_op()

    def test_extract_recovered_count_mismatch(self, backend):
        mach, oram, st = self._oram(backend)
        st.meta.raw[_slot_of(st, 1, 4), 0, 1] = 3  # cell 4 now claims index 3
        with pytest.raises(EMError, match="recovered 5/6 cells"):
            oram.extract_to(mach.alloc(6))


class TestShelterFactor:
    def test_validation(self):
        mach = EMMachine(M=2048, B=4)
        with pytest.raises(ValueError):
            SquareRootORAM(mach, 4, make_rng(0), shelter_factor=0)

    def test_scales_shelter_and_epoch(self):
        mach = EMMachine(M=2048, B=4)
        base = SquareRootORAM(mach, 9, make_rng(1))
        wide = SquareRootORAM(mach, 9, make_rng(1), shelter_factor=3)
        assert wide.s == 3 * base.s
        assert wide.n_store == 9 + wide.s

    def test_longer_epochs_mean_fewer_rebuilds(self):
        def rebuilds(factor):
            mach = EMMachine(M=2048, B=4, trace=False)
            oram = SquareRootORAM(mach, 9, make_rng(2), shelter_factor=factor)
            for t in range(18):
                oram.write(t % 9, make_block([t], B=4))
            for i in range(9):
                assert int(oram.read(i)[0, 0]) == 9 + i  # freshest value
            return oram.rebuilds

        assert rebuilds(3) < rebuilds(1)


#: Fingerprints of complete ORAM workloads, keyed by
#: ``(ops, n, M, B, seed, shelter_factor)``: construction from an initial
#: array, 3n accesses cycling through ``ops`` (``r`` read, ``w`` write,
#: ``u`` update, ``d`` dummy) across several epochs, then extract_to.
#: The three ``"rwd"`` entries were first captured on the *scalar* loop
#: formulation before the batched rewrite; the fused-stream engine must
#: reproduce them byte for byte — this is the ORAM layer's analogue of
#: the algorithm-level golden fingerprints in test_em_batched_engine.py.
#: Every entry was re-captured, with its I/O count unchanged, when the
#: block sort's comparators began to run column by column (the key
#: side-car's blocks, then each array's) instead of atom by atom.
#: The ``"rwud"`` and ``shelter_factor=3`` entries pin the update path
#: and stretched shelters.  The ``"peel"`` entry is a session
#: ``run("compact_sparse")`` (the Theorem-4 peel over this backend) on a
#: sparse layout of ``n`` blocks.
ORAM_GOLDEN = {
    ("rwd", 8, 2048, 4, 11, 1): (
        5761,
        "0467c6eeaf74dd8972495806ad2bb217807ea6f8363e82b42c83e48be6aa658c",
    ),
    ("rwd", 13, 64, 4, 5, 1): (
        28793,
        "44fc68fe48a015a0811e00a138a4ffe7b7041b13d3025db60bbd355c421f8d73",
    ),
    ("rwd", 4, 64, 2, 3, 1): (
        3746,
        "5551148b415db4d6eb15f9f49711e6aa7accf9d1bb894960c707ebb70650762b",
    ),
    ("rwud", 9, 2048, 4, 7, 1): (
        6822,
        "50751d78187bc54cf4b5b7cce69d4407374c362aed5a4d1b02c82e05be2cfdab",
    ),
    ("rwd", 9, 64, 4, 2, 3): (
        16419,
        "bd50cd30f2a80a9ab57600da70434366e7ac552e39e0cbbcf81b56c1a4559d37",
    ),
    ("peel", 16, 64, 4, 11, 1): (
        69752,
        "135eead5756ca10cb64ea30309a53e631243fc9db1c7dc9ea00512175355fd1b",
    ),
}


def sparse_peel_fingerprint(name, n_blocks, M, B, seed):
    """``(total I/Os, fingerprint)`` of a session ``run(name)`` over a
    fixed sparse layout: three live records in ``n_blocks`` blocks."""
    layout = np.zeros((n_blocks * B, 2), dtype=np.int64)
    layout[:, 0] = NULL_KEY
    live = np.array([2, 7, n_blocks - 3])
    layout[live * B, 0] = [40, 10, 30]
    layout[live * B, 1] = [400, 100, 300]
    with ObliviousSession(EMConfig(M=M, B=B, trace=True), seed=seed) as s:
        result = s.run(name, layout)
    return result.cost.total, result.cost.trace_fingerprint


class TestORAMGoldenFingerprints:
    @pytest.mark.parametrize("shape", sorted(ORAM_GOLDEN))
    def test_batched_loops_reproduce_scalar_trace(self, shape):
        ops, n, M, B, seed, factor = shape
        want_ios, want_fp = ORAM_GOLDEN[shape]
        if ops == "peel":
            got = sparse_peel_fingerprint("compact_sparse", n, M, B, seed)
            assert got == (want_ios, want_fp)
            return
        mach = EMMachine(M=M, B=B)
        init = mach.alloc(n)
        for j in range(n):
            init.raw[j] = make_block([j * 7 + 1], B=B)
        oram = SquareRootORAM(
            mach, n, make_rng(seed), initial=init, shelter_factor=factor
        )
        rng = np.random.default_rng(seed + 1)
        for t in range(3 * n):
            op = ops[t % len(ops)]
            i = int(rng.integers(0, n))
            if op == "r":
                oram.read(i)
            elif op == "w":
                oram.write(i, make_block([t], B=B))
            elif op == "u":
                oram.update(i, lambda blk: blk + 1)
            else:
                oram.dummy_op()
        out = mach.alloc(n)
        oram.extract_to(out)
        assert mach.total_ios == want_ios
        assert mach.trace.fingerprint() == want_fp
