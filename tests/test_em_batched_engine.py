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
from repro.em.block import NULL_KEY
from repro.em.machine import EMMachine
from repro.em.storage import MemmapBackend, MemoryBackend


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
        ``contiguous`` draws ``S`` stride-``S`` ranges that tile one
        range; otherwise each stream is a range or an index array, with
        overlapping targets.  ``solo`` adds a write stream of its own
        array to the call."""
        (m1, m2), ((a1, b1), (a2, b2)) = _machines()
        streams: list = []
        for s in range(S):
            if contiguous:
                lo = data.draw(st.integers(0, 12 - k * S)) if s == 0 else lo
                streams.append((lo + s, lo + s + k * S, S))
            elif data.draw(st.booleans()):
                step = data.draw(st.integers(1, 3))
                lo = data.draw(st.integers(0, max(0, 11 - (k - 1) * step)))
                streams.append((lo, lo + k * step, step))
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

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(min_value=1, max_value=4), step=st.integers(min_value=1, max_value=3))
    def test_strided_ranges_match_explicit_indices(self, k, step):
        (m1, m2), ((a1, b1), (a2, b2)) = _machines()
        lo, hi = 1, 1 + k * step
        got = m1.read_many(a1, (lo, hi, step))
        want = m2.read_many(a2, np.arange(lo, hi, step, dtype=np.int64))
        assert np.array_equal(got, want)
        _assert_twins(m1, m2, (a1, b1), (a2, b2))


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


class TestRangeWrappers:
    def test_read_range_traces_and_counts(self):
        m = EMMachine(64, 4, retain_trace=True)
        a = m.alloc(8, "a")
        before = len(m.trace)
        out = m.read_range(a, 2, 3)
        assert out.shape == (3, 4, 2)
        assert m.reads == 3
        events = m.trace.as_array(before)
        assert events[:, 2].tolist() == [2, 3, 4]

    def test_write_range_reencrypts_via_backend(self):
        """write_range must route through the storage backend's scatter
        hook (the historical implementation sliced ``_data`` directly)."""

        class SpyBackend(MemoryBackend):
            def __init__(self):
                self.scatters = 0

            def scatter(self, data, indices, blocks):
                self.scatters += 1
                super().scatter(data, indices, blocks)

        spy = SpyBackend()
        m = EMMachine(64, 4, backend=spy)
        a = m.alloc(8, "a")
        blocks = np.ones((2, 4, 2), dtype=np.int64)
        v0 = a.versions.snapshot()
        m.write_range(a, 1, blocks)
        assert np.all(a.versions.snapshot()[1:3] > v0[1:3])
        assert np.array_equal(a.raw[1:3], blocks)


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


#: Fingerprints of the adversary-visible transcripts at this exact
#: configuration; the batched engine must reproduce them byte for byte.
GOLDEN = {
    "sort": (
        61068,
        "dd10de72751e92d44c5a1119697f8af80c582ed9a00d904d1a6b48914449f781",
    ),
    "select": (
        7422,
        "151a51bc337ce25709a89a538cb0b8045c8deaccb092be74468f306172eb3817",
    ),
    "quantiles": (
        7606,
        "e3e74a6c915c80363d13ada96ac92322ef18ad36f1fb721653bfa9c7e1e06f41",
    ),
    "compact": (
        2321,
        "de0e2f2a76b205b870c74a65c33ba558b874d8e54b64283409c284253068c65d",
    ),
}


class TestGoldenFingerprints:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_trace_identical_to_scalar_engine(self, name):
        n, M, B = 512, 128, 4
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
        elif name == "select":
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
