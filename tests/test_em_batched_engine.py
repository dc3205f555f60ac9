"""The batched I/O engine must be observationally identical to the scalar
machine: same data, same I/O counts, same ciphertext versions, and a
byte-identical adversary-visible trace — on every storage backend.

The hypothesis properties drive random batched programs against their
scalar equivalents on twin machines; the golden-fingerprint test anchors
the batched-vs-seed equivalence for the full algorithm stack at a fixed
seed (the fingerprints below were captured on the scalar engine before
the batched rewrite).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EMConfig, ObliviousSession
from repro.core.block_sort import oblivious_block_sort
from repro.core.external_sort import oblivious_external_sort
from repro.core.sorting import oblivious_sort
from repro.em import OutOfBoundsError, make_records
from repro.em.block import NULL_KEY
from repro.em.machine import EMMachine
from repro.em.storage import MemmapBackend, MemoryBackend
from repro.util.rng import make_rng


def _machines(tmp_path=None, n_blocks=12, M=64, B=4, backend="memory"):
    """Twin machines with identically-loaded arrays."""
    rng = np.random.default_rng(7)
    payload = rng.integers(0, 100, size=(2, n_blocks * B, 2)).astype(np.int64)
    machines, arrays = [], []
    for t in range(2):
        be = (
            MemoryBackend()
            if backend == "memory"
            else MemmapBackend(tmp_path / f"m{t}")
        )
        mach = EMMachine(M, B, backend=be)
        a = mach.alloc(n_blocks, "a")
        b = mach.alloc(n_blocks, "b")
        a.load_flat(payload[0])
        b.load_flat(payload[1])
        machines.append(mach)
        arrays.append((a, b))
    return machines, arrays


def _assert_twins(m1: EMMachine, m2: EMMachine, arrays1, arrays2) -> None:
    assert m1.reads == m2.reads
    assert m1.writes == m2.writes
    assert m1.trace.fingerprint() == m2.trace.fingerprint()
    for x, y in zip(arrays1, arrays2):
        assert np.array_equal(x.raw, y.raw)
        assert np.array_equal(x.versions.snapshot(), y.versions.snapshot())
    for m, arrays in ((m1, arrays1), (m2, arrays2)):
        # Version clocks advance once per write: together they equal the
        # machine's write count, and no block is ahead of its clock.
        assert sum(x.versions._clock for x in arrays) == m.writes
        for x in arrays:
            assert x.versions.snapshot().max(initial=0) <= x.versions._clock


indices_strategy = st.lists(
    st.integers(min_value=0, max_value=11), min_size=0, max_size=16
)


class TestBatchedScalarEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(idx=indices_strategy)
    def test_read_many_matches_scalar_reads(self, idx):
        (m1, m2), ((a1, b1), (a2, b2)) = _machines()
        got = m1.read_many(a1, np.asarray(idx, dtype=np.int64))
        want = [m2.read(a2, i) for i in idx]
        assert np.array_equal(got, np.asarray(want).reshape(len(idx), 4, 2))
        _assert_twins(m1, m2, (a1, b1), (a2, b2))

    @settings(max_examples=40, deadline=None)
    @given(idx=indices_strategy, data=st.data())
    def test_write_many_matches_scalar_writes(self, idx, data):
        (m1, m2), ((a1, b1), (a2, b2)) = _machines()
        blocks = np.arange(len(idx) * 8, dtype=np.int64).reshape(len(idx), 4, 2)
        m1.write_many(a1, np.asarray(idx, dtype=np.int64), blocks)
        for t, i in enumerate(idx):
            m2.write(a2, i, blocks[t])
        _assert_twins(m1, m2, (a1, b1), (a2, b2))

    @settings(max_examples=40, deadline=None)
    @given(
        src=st.lists(
            st.integers(min_value=0, max_value=11), min_size=0, max_size=12
        )
    )
    def test_copy_many_matches_scalar_copy_loop(self, src):
        (m1, m2), ((a1, b1), (a2, b2)) = _machines()
        dst = list(reversed(range(len(src))))
        m1.copy_many(a1, np.asarray(src, dtype=np.int64), b1, np.asarray(dst, dtype=np.int64))
        for s, d in zip(src, dst):
            m2.write(b2, d, m2.read(a2, s))
        _assert_twins(m1, m2, (a1, b1), (a2, b2))

    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=11),
            ),
            min_size=0,
            max_size=12,
        )
    )
    def test_swap_many_matches_sequential_swaps(self, pairs):
        (m1, m2), ((a1, b1), (a2, b2)) = _machines()
        left = np.asarray([p[0] for p in pairs], dtype=np.int64)
        right = np.asarray([p[1] for p in pairs], dtype=np.int64)
        m1.swap_many(a1, left, right)
        for l, r in pairs:
            bi = m2.read(a2, l)
            bj = m2.read(a2, r)
            m2.write(a2, l, bj)
            m2.write(a2, r, bi)
        _assert_twins(m1, m2, (a1, b1), (a2, b2))

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=10),
        start=st.integers(min_value=0, max_value=2),
        fancy=st.booleans(),
        data=st.data(),
    )
    def test_io_rounds_matches_scalar_interleave(self, k, start, fancy, data):
        """``fancy`` swaps the range write stream for an index array
        with duplicates: the scatter must keep last-wins semantics."""
        (m1, m2), ((a1, b1), (a2, b2)) = _machines()
        dst = list(range(start, start + k))
        if fancy:
            dst = data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=3), min_size=k, max_size=k
                )
            )
        got = m1.io_rounds(
            [
                ("r", a1, (start, start + k)),
                (
                    "w",
                    b1,
                    np.asarray(dst, dtype=np.int64) if fancy else (start, start + k),
                    lambda reads: reads[0] + 1,
                ),
            ]
        )
        for j, d in zip(range(start, start + k), dst):
            m2.write(b2, d, m2.read(a2, j) + 1)
        _assert_twins(m1, m2, (a1, b1), (a2, b2))
        if k and not fancy:
            assert np.array_equal(got[0] + 1, b1.raw[start : start + k])

    @settings(max_examples=60, deadline=None)
    @given(
        S=st.integers(min_value=2, max_value=3),
        k=st.integers(min_value=0, max_value=4),
        contiguous=st.booleans(),
        solo=st.booleans(),
        data=st.data(),
    )
    def test_io_rounds_shared_array_writes_match_scalar_loop(
        self, S, k, contiguous, solo, data
    ):
        """Write streams sharing one array land in the scalar loop's
        round-major order, for contents (last write wins) and versions.
        ``contiguous`` draws ``S`` stride-``S`` index arrays that tile
        one range; otherwise each stream is a range or an index array,
        with overlapping targets.  ``solo`` adds a write stream of its
        own array to the call."""
        (m1, m2), ((a1, b1), (a2, b2)) = _machines()
        streams: list = []
        for s in range(S):
            if contiguous:
                lo = data.draw(st.integers(0, 12 - k * S)) if s == 0 else lo
                streams.append(np.arange(lo + s, lo + s + k * S, S))
            elif data.draw(st.booleans()):
                lo = data.draw(st.integers(0, 12 - k))
                streams.append((lo, lo + k))
            else:
                idx = data.draw(st.lists(st.integers(0, 11), min_size=k, max_size=k))
                streams.append(np.asarray(idx, dtype=np.int64))
        m1.io_rounds(
            [("r", a1, (0, k))]
            + [
                ("w", b1, idx, lambda reads, s=s: reads[0] + s)
                for s, idx in enumerate(streams)
            ]
            + ([("w", a1, (8, 8 + k), lambda reads: reads[0] - 1)] if solo else [])
        )
        targets = [np.arange(*i) if type(i) is tuple else i for i in streams]
        for j in range(k):
            blk = m2.read(a2, j)
            for s, pos in enumerate(targets):
                m2.write(b2, int(pos[j]), blk + s)
            if solo:
                m2.write(a2, 8 + j, blk - 1)
        _assert_twins(m1, m2, (a1, b1), (a2, b2))

    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=4),
        specs=st.lists(
            st.tuples(
                st.sampled_from(["r", "w_a", "w_b"]),
                st.sampled_from(["range", "index", "wide"]),
                st.integers(min_value=0, max_value=3),
                st.booleans(),
            ),
            min_size=1,
            max_size=5,
        ),
        data=st.data(),
    )
    def test_io_rounds_wide_streams_match_scalar_loop(self, k, specs, data):
        """Mixed 1-D and ``(k, w)`` streams: round ``u`` runs each
        stream's ops in order, a wide stream's ``w`` blocks left to right.
        Reads cover blocks 0-5 of ``a``; writes hit blocks 6-11 of ``a``
        or any block of ``b``, so several wide streams write one array
        with overlapping targets.  ``lazy`` passes a payload callable."""
        (m1, m2), ((a1, b1), (a2, b2)) = _machines()
        steps, plan = [], []
        for s, (kind, form, w, lazy) in enumerate(specs):
            lo, hi = (0, 6) if kind != "w_b" else (0, 12)
            if kind == "w_a":
                lo, hi = 6, 12
            if form == "wide":
                idx = np.asarray(
                    data.draw(st.lists(st.integers(lo, hi - 1), min_size=k * w, max_size=k * w)),
                    dtype=np.int64,
                ).reshape(k, w)
            elif form == "index":
                idx = np.asarray(
                    data.draw(st.lists(st.integers(lo, hi - 1), min_size=k, max_size=k)),
                    dtype=np.int64,
                )
            else:
                start = data.draw(st.integers(lo, hi - k))
                idx = (start, start + k)
            targets = np.arange(*idx) if type(idx) is tuple else idx
            targets = targets if targets.ndim == 2 else targets[:, None]
            arr1, arr2 = (a1, a2) if kind != "w_b" else (b1, b2)
            if kind == "r":
                steps.append(("r", arr1, idx))
                plan.append(("r", arr2, targets, None))
                continue
            payload = 1000 * (s + 1) + np.arange(targets.size * 8, dtype=np.int64)
            payload = payload.reshape(*targets.shape, 4, 2)
            if form != "wide":
                payload = payload[:, 0]
            steps.append(("w", arr1, idx, (lambda reads, p=payload: p) if lazy else payload))
            plan.append(("w", arr2, targets, payload.reshape(*targets.shape, 4, 2)))
        got = m1.io_rounds(steps)
        want = [[] for _ in plan]
        for u in range(k):
            for s, (kind, arr, targets, payload) in enumerate(plan):
                for j, pos in enumerate(targets[u].tolist()):
                    if kind == "r":
                        want[s].append(m2.read(arr, pos))
                    else:
                        m2.write(arr, pos, payload[u, j])
        _assert_twins(m1, m2, (a1, b1), (a2, b2))
        for step, g, w in zip(steps, got, want):
            if step[0] == "r" and k:
                shape = (k, *np.shape(step[2])[1:], 4, 2)
                assert np.array_equal(g, np.asarray(w).reshape(shape))


class TestBackendEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(idx=indices_strategy)
    def test_memmap_gather_scatter_identical(self, idx):
        """Memory and Memmap share the gather/scatter code path: identical
        traces, counts, versions and data for the same batched program."""
        with tempfile.TemporaryDirectory() as tmp:
            self._check(idx, Path(tmp))

    @staticmethod
    def _check(idx, tmp_path):
        (mem, _), ((ma, mb), _) = _machines(tmp_path / "mem", backend="memory")
        (mm, _), ((fa, fb), _) = _machines(tmp_path / "map", backend="memmap")
        arr = np.asarray(idx, dtype=np.int64)
        for machine, a, b in ((mem, ma, mb), (mm, fa, fb)):
            blocks = machine.read_many(a, arr)
            machine.write_many(b, arr, blocks)
        assert mem.trace.fingerprint() == mm.trace.fingerprint()
        assert (mem.reads, mem.writes) == (mm.reads, mm.writes)
        assert np.array_equal(mb.raw, fb.raw)
        mm.close()
        mem.close()


class TestRangeStreams:
    def test_read_range_traces_and_counts(self):
        m = EMMachine(64, 4, retain_trace=True)
        a = m.alloc(8, "a")
        before = len(m.trace)
        out = m.read_many(a, (2, 5))
        assert out.shape == (3, 4, 2)
        assert m.reads == 3
        events = m.trace.as_array(before)
        assert events[:, 2].tolist() == [2, 3, 4]

    def test_write_range_reencrypts(self):
        m = EMMachine(64, 4)
        a = m.alloc(8, "a")
        blocks = np.ones((2, 4, 2), dtype=np.int64)
        v0 = a.versions.snapshot()
        m.write_many(a, (1, 3), blocks)
        assert np.all(a.versions.snapshot()[1:3] > v0[1:3])
        assert np.array_equal(a.raw[1:3], blocks)


class TestAbandonedCall:
    @pytest.mark.parametrize("form", ["range", "index", "wide"])
    def test_raising_payload_writes_nothing(self, form):
        """A payload callable that raises abandons the whole call: an
        array that an earlier write stream targets keeps its contents
        and versions, and nothing is counted or traced."""
        m = EMMachine(64, 4)
        c, a, b = (m.alloc(4, name) for name in ("c", "a", "b"))
        for t, arr in enumerate((c, a, b)):
            arr.load_flat(make_records(np.arange(16) + 100 * t))
        idx, shape = {
            "range": ((0, 2), (2, 4, 2)),
            "index": (np.array([3, 1]), (2, 4, 2)),
            "wide": (np.array([[0, 1], [2, 3]]), (2, 2, 4, 2)),
        }[form]

        def fail(reads):
            raise RuntimeError("payload failed")

        raw = [x.raw.copy() for x in (c, a, b)]
        versions = [x.versions.snapshot() for x in (c, a, b)]
        fingerprint = m.trace.fingerprint()
        with pytest.raises(RuntimeError, match="payload failed"):
            m.io_rounds([
                ("r", c, (0, 2)),
                ("w", a, idx, lambda reads: np.zeros(shape, dtype=np.int64)),
                ("w", b, (0, 2), fail),
            ])
        for x, before, v in zip((c, a, b), raw, versions):
            assert np.array_equal(x.raw, before)
            assert np.array_equal(x.versions.snapshot(), v)
        assert (m.reads, m.writes, m.batch_count, m.batched_io_count) == (0, 0, 0, 0)
        assert m.trace.fingerprint() == fingerprint
        assert sum(x.versions._clock for x in (c, a, b)) == m.writes

    @pytest.mark.parametrize("fault", ["bounds", "shape"])
    def test_failed_write_check_writes_nothing(self, fault):
        """A later write stream whose range runs past its array, or
        whose payload has the wrong block count, abandons the whole call:
        the earlier write stream's array is untouched too."""
        m = EMMachine(64, 4)
        c, a, b = (m.alloc(4, name) for name in ("c", "a", "b"))
        for t, arr in enumerate((c, a, b)):
            arr.load_flat(make_records(np.arange(16) + 100 * t))
        zeros = np.zeros((4, 4, 2), dtype=np.int64)
        last, error = {
            "bounds": (("w", b, (2, 6), lambda reads: reads[0]), OutOfBoundsError),
            "shape": (("w", b, (0, 4), lambda reads: reads[0][:3]), ValueError),
        }[fault]

        raw = [x.raw.copy() for x in (c, a, b)]
        versions = [x.versions.snapshot() for x in (c, a, b)]
        fingerprint = m.trace.fingerprint()
        with pytest.raises(error):
            m.io_rounds([("r", c, (0, 4)), ("w", a, (0, 4), zeros), last])
        for x, before, v in zip((c, a, b), raw, versions):
            assert np.array_equal(x.raw, before)
            assert np.array_equal(x.versions.snapshot(), v)
        assert (m.reads, m.writes, m.batch_count, m.batched_io_count) == (0, 0, 0, 0)
        assert m.trace.fingerprint() == fingerprint
        assert sum(x.versions._clock for x in (c, a, b)) == m.writes


class TestMeterDeprecation:
    def test_metered_does_not_warn(self):
        """``metered()``, which replaced the removed ``meter()`` alias,
        must stay warning-free."""
        import warnings

        m = EMMachine(64, 4)
        a = m.alloc(2, "a")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with m.metered() as meter:
                m.read(a, 0)
        assert meter.reads == 1


class TestBatchStatistics:
    def test_cost_report_exposes_batches(self):
        with ObliviousSession(EMConfig(M=64, B=4, trace=True), seed=3) as s:
            result = s.sort(np.arange(64)[::-1].copy())
        cost = result.cost
        assert cost.batches > 0
        assert 0 < cost.batched_ios <= cost.total
        assert cost.mean_batch_size == cost.batched_ios / cost.batches
        assert 0.9 < cost.batched_fraction <= 1.0
        assert "batches" in str(cost)

    def test_metered_tracks_batch_counters(self):
        m = EMMachine(64, 4)
        a = m.alloc(8, "a")
        with m.metered() as meter:
            m.read_many(a, (0, 8))
            m.read(a, 0)
        assert meter.reads == 9
        assert meter.batches == 1
        assert meter.batched_ios == 8
        assert meter.mean_batch_size == 8.0


#: Engine calls (``metered().batches``) of whole algorithms on a bare
#: machine, bounded at their counts when run formation, the merge-split
#: stages, the multiway consolidation and the deal each became one call
#: per chunk.  A per-run, per-round or per-batch loop of engine calls
#: reintroduced on these paths multiplies them (176, 806 and 3,460
#: before).  Rows: (algorithm, M, B, input blocks, budget).
CALL_BUDGETS = [
    ("lemma2", 64, 4, 512, 30),
    ("lemma2", 128, 4, 5462, 80),
    ("sort", 128, 4, 512, 674),
]

#: Engine calls and streams (the sum of the ``streams`` that each call
#: reports to ``machine.io_observer``) of the oblivious block sort,
#: bounded at their counts with one read and one write stream per column
#: in each stage's calls.  With a stream per block of a comparator and
#: column, the same sorts made 51, 25 and 40 calls and 582, 1,302 and
#: 883 streams.  Rows: (M, B, input blocks, arrays, call budget, stream
#: budget).
BLOCK_SORT_BUDGETS = [
    (128, 4, 64, 2, 14, 78),
    (128, 4, 256, 2, 25, 144),
    (64, 4, 512, 1, 40, 155),
]


class TestEngineCallBudgets:
    @pytest.mark.parametrize(
        "algorithm, M, B, n_blocks, budget",
        CALL_BUDGETS,
        ids=[f"{row[0]}-{row[3]}-blocks-M{row[1]}" for row in CALL_BUDGETS],
    )
    def test_engine_calls_within_budget(self, algorithm, M, B, n_blocks, budget):
        mach = EMMachine(M, B, trace=False)
        n = n_blocks * B
        keys = np.random.default_rng(0).permutation(n)
        arr = mach.alloc(n_blocks)
        arr.load_flat(make_records(keys))
        with mach.metered() as meter:
            if algorithm == "lemma2":
                out = oblivious_external_sort(mach, arr)
            else:
                out = oblivious_sort(mach, arr, n, make_rng(0), retries=1)
        assert np.array_equal(out.nonempty()[:, 0], np.arange(n))
        assert meter.batches <= budget

    @pytest.mark.parametrize(
        "M, B, n_blocks, T, call_budget, stream_budget",
        BLOCK_SORT_BUDGETS,
        ids=[f"block_sort-{row[2]}-blocks-{row[3]}-arrays-M{row[0]}" for row in BLOCK_SORT_BUDGETS],
    )
    def test_block_sort_calls_and_streams_within_budget(
        self, M, B, n_blocks, T, call_budget, stream_budget
    ):
        mach = EMMachine(M, B, trace=False)
        streams: list[int] = []
        mach.io_observer = lambda rounds, t: streams.append(t)
        rng = np.random.default_rng(0)
        arrays = [mach.alloc(n_blocks) for _ in range(T)]
        for arr in arrays:
            arr.load_flat(make_records(rng.permutation(n_blocks * B)))
        atoms = {int(arrays[0].raw[j, 0, 0]): [x.raw[j].copy() for x in arrays] for j in range(n_blocks)}
        with mach.metered() as meter:
            oblivious_block_sort(mach, arrays)
        keys = arrays[0].raw[:, 0, 0]
        assert (np.diff(keys) > 0).all()
        for j, key in enumerate(keys.tolist()):
            for x, block in zip(arrays, atoms[key]):
                assert np.array_equal(x.raw[j], block)
        assert meter.batches <= call_budget
        assert sum(streams) <= stream_budget


#: Fingerprints of the adversary-visible transcripts at this exact
#: configuration; the batched engine must reproduce them byte for byte.
GOLDEN = {
    # select and quantiles (and the sort's pivot step) sort every item
    # directly at n=512, where their candidate caps cover n.
    "sort": (
        25582,
        "372821ec5127b334ed1b16c1c4e37ee245fb5976b30a00ce1ee619d257de55d1",
    ),
    "select": (
        2206,
        "43d82161623214127f758b9b0aa5cf2980fe57b17e66e1585f24b62ae5251d30",
    ),
    "quantiles": (
        2078,
        "6adfad0fc66fea04ab4076209e15cae0708131d5f1c846fe4b4dad0ac4f1745e",
    ),
    "compact": (
        2321,
        "de0e2f2a76b205b870c74a65c33ba558b874d8e54b64283409c284253068c65d",
    ),
    # A Lemma 2 sort of 512 blocks in 74 runs of 7 (M=64): most of its
    # merge-split stages have at least 7 comparators and run batched.
    "sort_then_pick": (
        23360,
        "1fcdd365d37676ba5ea9d4c6a857eb0443b1ed89cc415512ace4c08d7cd63cc4",
    ),
}

#: Shapes other than the default ``(n, M) = (512, 128)``.
GOLDEN_SHAPES = {"sort_then_pick": (2048, 64)}


class TestGoldenFingerprints:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_trace_identical_to_scalar_engine(self, name):
        (n, M), B = GOLDEN_SHAPES.get(name, (512, 128)), 4
        rng = np.random.default_rng(0)
        keys = rng.permutation(np.arange(n))
        if name == "compact":
            n_blocks = n // B
            layout = np.zeros((n_blocks * B, 2), dtype=np.int64)
            layout[:, 0] = NULL_KEY
            live = np.arange(0, n_blocks, 3)
            layout[live * B, 0] = live
            layout[live * B, 1] = live * 10
            data, params = layout, {}
        elif name in ("select", "sort_then_pick"):
            data, params = keys, {"k": n // 2}
        elif name == "quantiles":
            data, params = keys, {"q": 3}
        else:
            data, params = keys, {}
        with ObliviousSession(EMConfig(M=M, B=B, trace=True), seed=11) as s:
            result = s.run(name, data, **params)
        want_ios, want_fp = GOLDEN[name]
        assert result.cost.total == want_ios
        assert result.cost.trace_fingerprint == want_fp
