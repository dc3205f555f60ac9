"""Tests for the hierarchical (log²) ORAM backend and the E9 accounting
fixes.

Three concerns live here:

* correctness of :class:`repro.oram.hierarchical.HierarchicalORAM` as a
  drop-in sibling of the square-root scheme — read-your-writes against a
  plaintext reference dict across merge epochs (hypothesis), extraction,
  golden transcript pin;
* the corrected ``measure_oram_overhead`` accounting — the rebuild
  attribution now subtracts the running mean non-rebuild access cost
  (pinned against a hand-computable stub backend), the ``accesses``
  denominator counts dummy ops, and mixed workloads exercise the write /
  update paths;
* the backend economics the optimizer relies on — the hierarchical
  scheme's amortized I/Os per access beats the square-root scheme at the
  larger E9 reference shape, and the ``analysis/bounds`` price for the
  registered ``oram_read_batch_hier`` step stays within the documented
  ×4 envelope of measurement at both reference shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import estimate_ios
from repro.api.session import ObliviousSession, make_records
from repro.em import EMMachine
from repro.em.block import is_empty
from repro.oram import (
    ORAM_BACKENDS,
    HierarchicalORAM,
    ORAMStats,
    SquareRootORAM,
    make_oram,
    measure_oram_overhead,
)
from repro.util.rng import make_rng
from test_oram import sparse_peel_fingerprint


def fresh_oram(n, M=2048, B=4, seed=1):
    mach = EMMachine(M=M, B=B)
    oram = HierarchicalORAM(mach, n, make_rng(seed))
    return mach, oram


class TestHierarchicalBasics:
    def test_fresh_cells_empty(self):
        _, oram = fresh_oram(5)
        for i in range(5):
            assert is_empty(oram.read(i)).all()

    def test_write_then_read(self):
        mach, oram = fresh_oram(6, B=4)
        blk = np.zeros((4, 2), dtype=np.int64)
        blk[0, 0] = 42
        oram.write(3, blk)
        assert int(oram.read(3)[0, 0]) == 42

    def test_write_returns_old_value(self):
        mach, oram = fresh_oram(4, B=4)
        blk = np.zeros((4, 2), dtype=np.int64)
        blk[0, 0] = 7
        old = oram.write(2, blk)
        assert is_empty(old).all()
        blk2 = blk.copy()
        blk2[0, 0] = 9
        old = oram.write(2, blk2)
        assert int(old[0, 0]) == 7

    def test_update_applies_fn_and_returns_old(self):
        mach, oram = fresh_oram(4, B=4)
        blk = np.zeros((4, 2), dtype=np.int64)
        blk[0, 0] = 5
        oram.write(1, blk)
        old = oram.update(1, lambda b: b * 2)
        assert int(old[0, 0]) == 5
        assert int(oram.read(1)[0, 0]) == 10

    def test_out_of_range(self):
        _, oram = fresh_oram(4)
        with pytest.raises(IndexError):
            oram.read(4)
        with pytest.raises(IndexError):
            oram.read(-1)

    def test_dummy_ops_count_and_do_not_corrupt(self):
        mach, oram = fresh_oram(4, B=4)
        blk = np.zeros((4, 2), dtype=np.int64)
        blk[0, 0] = 11
        oram.write(0, blk)
        for _ in range(2 * oram.s0):  # crosses at least two merges
            oram.dummy_op()
        assert int(oram.read(0)[0, 0]) == 11
        assert oram.accesses == 2 + 2 * oram.s0

    def test_survives_deep_merge_epochs(self):
        """A full merge cycle (s0·2^L accesses) reaches every level."""
        mach, oram = fresh_oram(13, B=4)
        cycle = oram.s0 * (1 << oram.L)
        blk = np.zeros((4, 2), dtype=np.int64)
        for t in range(2 * cycle):
            i = t % 13
            blk[0, 0] = 1000 + t
            oram.write(i, blk.copy())
        assert oram.rebuilds >= 2
        for i in range(13):
            got = int(oram.read(i)[0, 0])
            last_t = max(t for t in range(2 * cycle) if t % 13 == i)
            assert got == 1000 + last_t

    def test_initial_contents_and_extract_to(self):
        mach = EMMachine(M=2048, B=4)
        src = mach.alloc(6, "init")
        for j in range(6):
            blk = np.zeros((4, 2), dtype=np.int64)
            blk[0, 0] = (j + 1) * 10
            mach.write(src, j, blk)
        oram = HierarchicalORAM(mach, 6, make_rng(2), initial=src)
        assert int(oram.read(4)[0, 0]) == 50
        out = mach.alloc(6, "out")
        oram.extract_to(out)
        for j in range(6):
            assert int(mach.read(out, j)[0, 0]) == (j + 1) * 10

    def test_free_releases_every_array(self):
        mach, oram = fresh_oram(9)
        oram.free()
        assert len(mach._arrays) == 0

    def test_validation(self):
        mach = EMMachine(M=2048, B=4)
        with pytest.raises(ValueError):
            HierarchicalORAM(mach, 0, make_rng(1))


@given(variant=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_read_your_writes_matches_plaintext_dict(variant):
    """Random read/write/update/dummy schedules agree block-for-block
    with a plaintext reference dict across several merge epochs.  The
    reference mirrors the square-root backend's contract exactly: an
    update on a fresh cell applies ``fn`` to the empty block and stores
    the result."""
    from repro.em.block import NULL_KEY

    rng = np.random.default_rng(variant)
    n = int(rng.integers(3, 14))
    mach, oram = fresh_oram(n, seed=int(rng.integers(2**31)))

    def empty():
        blk = np.zeros((4, 2), dtype=np.int64)
        blk[:, 0] = NULL_KEY
        return blk

    reference: dict[int, np.ndarray] = {}
    for t in range(3 * oram.s0 * (1 << oram.L) // 2):
        kind = int(rng.integers(4))
        i = int(rng.integers(n))
        if kind == 0:
            got = oram.read(i)
            want = reference.get(i, empty())
            assert np.array_equal(got, want)
        elif kind == 1:
            v = int(rng.integers(1, 10**6))
            blk = empty()
            blk[0, 0] = v
            oram.write(i, blk)
            reference[i] = blk.copy()
        elif kind == 2:
            oram.update(i, lambda b: b + 1)
            reference[i] = reference.get(i, empty()) + 1
        else:
            oram.dummy_op()


#: Pinned adversary views: workload -> (merges, total I/Os, fingerprint).
#: ``"mixed"`` is the fixed read/write/update schedule on n=13 at seed
#: 11; ``"initial-extract"`` seeds n=11 cells from an array, runs 3n
#: read/write/dummy accesses at seed 6 and extracts; ``"peel"`` is a
#: session ``run("compact_sparse_hier")`` (the Theorem-4 peel over this
#: backend) on a sparse 16-block layout at seed 11 (merges unrecorded).
HIER_GOLDEN = {
    "mixed": (
        9,
        9336,
        "61527507bf8cefcd76f9fd791286cd43e2b32bb5415d1001fd63d5a0a70e4ee3",
    ),
    "initial-extract": (
        8,
        10336,
        "8c2fcbe03678899ceb049f6c5aaa9c78f16ad636fafd55b739050342879586fe",
    ),
    "peel": (
        None,
        134048,
        "488fa386f8cdfc940c4e5b97b06e685656846b18f023aa350748a671bd2e9d4e",
    ),
}


def _hier_golden_run(workload):
    """``(merges, total I/Os, fingerprint)`` of one pinned workload."""
    if workload == "peel":
        ios, fp = sparse_peel_fingerprint("compact_sparse_hier", 16, 64, 4, 11)
        return None, ios, fp
    B = 4
    mach = EMMachine(M=2048, B=B)
    if workload == "mixed":
        n = 13
        oram = HierarchicalORAM(mach, n, make_rng(11))
        for t in range(3 * n):
            if t % 3 == 0:
                oram.read(t % n)
            elif t % 3 == 1:
                blk = np.zeros((B, 2), dtype=np.int64)
                blk[0, 0] = t + 1
                oram.write((t * 5) % n, blk)
            else:
                oram.update((t * 7) % n, lambda b: b + 1)
        return oram.rebuilds, mach.total_ios, mach.trace.fingerprint()
    n = 11
    init = mach.alloc(n)
    for j in range(n):
        init.raw[j, 0, 0] = 3 * j + 1
    oram = HierarchicalORAM(mach, n, make_rng(6), initial=init)
    rng = np.random.default_rng(7)
    for t in range(3 * n):
        i = int(rng.integers(0, n))
        if t % 3 == 0:
            oram.read(i)
        elif t % 3 == 1:
            blk = np.zeros((B, 2), dtype=np.int64)
            blk[0, 0] = t + 100
            oram.write(i, blk)
        else:
            oram.dummy_op()
    out = mach.alloc(n)
    oram.extract_to(out)
    return oram.rebuilds, mach.total_ios, mach.trace.fingerprint()


def test_golden_transcript_fingerprint():
    """Pinned adversary views: each workload must reproduce its exact
    trace byte for byte.  A change here means the hierarchical scheme's
    schedule (probe counts, merge cadence, or sort events) changed —
    re-derive deliberately."""
    for workload, want in HIER_GOLDEN.items():
        assert _hier_golden_run(workload) == want, workload


class TestMakeOram:
    def test_backend_names(self):
        mach = EMMachine(M=2048, B=4)
        for backend in ORAM_BACKENDS:
            oram = make_oram(backend, mach, 5, make_rng(1))
            assert is_empty(oram.read(0)).all()
            oram.free()

    def test_unknown_backend(self):
        mach = EMMachine(M=2048, B=4)
        with pytest.raises(ValueError, match="unknown ORAM backend"):
            make_oram("cuckoo", mach, 5, make_rng(1))

    def test_shelter_factor_ignored_for_hierarchical(self):
        mach = EMMachine(M=2048, B=4)
        oram = make_oram("hierarchical", mach, 5, make_rng(1), shelter_factor=4)
        assert isinstance(oram, HierarchicalORAM)
        oram2 = make_oram("square_root", mach, 5, make_rng(1), shelter_factor=4)
        assert isinstance(oram2, SquareRootORAM)
        assert oram2.s == 4 * SquareRootORAM(mach, 5, make_rng(1)).s


class TestORAMStatsProperties:
    def test_amortized_and_fraction(self):
        stats = ORAMStats(
            n=4, accesses=10, total_ios=250, rebuild_ios=50, rebuilds=2
        )
        assert stats.amortized_ios_per_access == 25.0
        assert stats.rebuild_fraction == 0.2
        assert stats.backend == "square_root"

    def test_zero_access_guards(self):
        stats = ORAMStats(n=4, accesses=0, total_ios=0, rebuild_ios=0, rebuilds=0)
        assert stats.amortized_ios_per_access == 0.0
        assert stats.rebuild_fraction == 0.0


class _StubORAM:
    """Deterministic backend double for pinning the rebuild attribution:
    every access reads ``PLAIN`` blocks; every ``PERIOD``-th access
    additionally pays a ``REBUILD``-block rebuild."""

    PLAIN, REBUILD, PERIOD = 10, 100, 5

    def __init__(self, machine, n, rng):
        self.machine = machine
        self.arr = machine.alloc(self.REBUILD, "stub")
        self.accesses = 0
        self.rebuilds = 0

    def _touch(self, k):
        for j in range(k):
            self.machine.read(self.arr, j)

    def _access(self):
        self.accesses += 1
        self._touch(self.PLAIN)
        if self.accesses % self.PERIOD == 0:
            self._touch(self.REBUILD)
            self.rebuilds += 1

    def read(self, i):
        self._access()
        return np.zeros((self.machine.B, 2), dtype=np.int64)

    def write(self, i, blk):
        self._access()
        return np.zeros((self.machine.B, 2), dtype=np.int64)

    def update(self, i, fn):
        self._access()
        return np.zeros((self.machine.B, 2), dtype=np.int64)

    def dummy_op(self):
        self._access()


class TestOverheadAccounting:
    def test_rebuild_attribution_is_excess_over_running_mean(self):
        """Hand-computed regression pin for the attribution fix.  With
        the stub backend (10 I/Os per access, +100 every 5th), 12
        accesses cost 320 I/Os of which exactly 2×100 are rebuild
        excess: the documented rule books cost − mean = 110 − 10 per
        rebuild access.  The pre-fix accounting booked the whole 110,
        reporting 220/320 = 0.6875 instead of 0.625."""
        stats = measure_oram_overhead(
            4, 12, M=64, B=4, seed=0, oram_factory=_StubORAM
        )
        assert stats.total_ios == 320
        assert stats.rebuild_ios == 200
        assert stats.rebuild_fraction == 200 / 320
        assert stats.rebuild_fraction != pytest.approx(220 / 320)
        assert stats.accesses == 12
        assert stats.rebuilds == 2
        assert stats.backend == "_StubORAM"

    def test_mixed_workload_counts_dummies_in_denominator(self):
        """The seed-3 mixed workload draws dummies ~1/4 of the time; the
        denominator must still be the full schedule length."""
        stats = measure_oram_overhead(
            36, 100, M=4096, B=4, seed=3, workload="mixed"
        )
        assert stats.accesses == 100
        assert stats.amortized_ios_per_access == stats.total_ios / 100
        assert 0 < stats.rebuild_fraction < 1

    @pytest.mark.parametrize("backend", ORAM_BACKENDS)
    def test_mixed_workload_runs_on_both_backends(self, backend):
        stats = measure_oram_overhead(
            16, 40, M=4096, B=4, seed=5, workload="mixed", oram_factory=backend
        )
        assert stats.backend == backend
        assert stats.accesses == 40
        assert stats.rebuilds > 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            measure_oram_overhead(8, 4, workload="writes-only")


class TestBackendEconomics:
    def test_hierarchical_beats_square_root_at_reference_shape(self):
        """The acceptance pin: at the larger BENCH_oram.json reference
        shape (n=144, M=4096, B=4, 3n accesses, seed 0) the hierarchical
        scheme's amortized I/Os per access is strictly lower (measured
        500.4 vs 622.0)."""
        sq = measure_oram_overhead(144, 3 * 144, M=4096, B=4, seed=0)
        hi = measure_oram_overhead(
            144, 3 * 144, M=4096, B=4, seed=0, oram_factory="hierarchical"
        )
        assert hi.amortized_ios_per_access < sq.amortized_ios_per_access
        # Rebuilds/merges still dominate either backend's cost — the
        # paper's premise that a faster sort lowers ORAM overhead.
        assert sq.rebuild_fraction > 0.5
        assert hi.rebuild_fraction > 0.5

    @pytest.mark.parametrize(
        "M,B,num_records", [(64, 4, 512), (256, 8, 2048)]
    )
    def test_hier_bound_within_envelope_at_reference_shapes(
        self, M, B, num_records
    ):
        """The ``oram_read_batch_hier`` price stays within the documented
        ×4 envelope of the measured registered-step cost at both
        calibration shapes."""
        rng = np.random.default_rng(5)
        recs = make_records(
            rng.choice(10**7, size=num_records, replace=False)
        )
        indices = list(range(0, num_records, num_records // 8))[:8]
        sess = ObliviousSession(M=M, B=B, seed=7)
        res = sess.run(
            "oram_read_batch_hier", recs, indices=indices, optimize=False
        )
        n_blocks = -(-num_records // B)
        est = estimate_ios(
            "oram_read_batch_hier", n_blocks, M // B, {"indices": indices}
        )
        assert est / res.cost.total < 4.0
        assert res.cost.total / est < 4.0
