"""Cross-module integration tests: whole pipelines, public API surface,
and end-to-end obliviousness of composed operations."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro
from repro import (
    EMMachine,
    consolidate,
    make_records,
    make_rng,
    oblivious_sort,
    select_em,
    tight_compact,
)
from repro.core.quantiles import QuantileFailure, quantiles_em
from repro.core.selection import SelectionFailure
from repro.oblivious import adversarial_inputs, assert_adversary_view_invariant


class TestPublicAPI:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_imports_without_scipy(self):
        """scipy is test-only: the library and the checker import with it
        blocked, in a fresh interpreter."""
        code = (
            "import sys; sys.modules['scipy'] = None; "
            "import repro, repro.api, repro.service, repro.oblivious"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


class TestConsolidateThenCompactPipeline:
    """Lemma 3 -> Theorem 6: the canonical record-level compaction."""

    def test_records_to_dense_blocks(self):
        mach = EMMachine(M=128, B=4)
        # 100 records scattered over 400 cells.
        arr = mach.alloc_cells(400)
        flat = arr.raw.reshape(-1, 2)
        rng = np.random.default_rng(0)
        cells = np.sort(rng.choice(400, size=100, replace=False))
        for t, c in enumerate(cells):
            flat[c] = (t + 1, t)
        cons = consolidate(mach, arr)
        assert cons.num_distinguished == 100
        out = tight_compact(mach, cons.array, 26)
        packed = out.nonempty()
        assert len(packed) == 100
        assert packed[:, 0].tolist() == list(range(1, 101))  # order preserved


class TestSortThenSelectAgreement:
    def test_sort_and_select_agree(self):
        n = 200
        keys = np.random.default_rng(1).integers(0, 10**6, size=n)
        mach = EMMachine(M=256, B=4)
        arr = mach.alloc_cells(n)
        arr.load_flat(make_records(keys))
        sorted_out = oblivious_sort(mach, arr, n, make_rng(2))
        by_sort = int(sorted_out.nonempty()[n // 3, 0])
        for attempt in range(8):
            try:
                by_select, _ = select_em(mach, arr, n, n // 3 + 1, make_rng(attempt))
                break
            except SelectionFailure:
                continue
        assert by_sort == by_select

    def test_quantiles_agree_with_sort(self):
        n = 300
        keys = np.random.default_rng(3).integers(0, 10**6, size=n)
        mach = EMMachine(M=128, B=4)
        arr = mach.alloc_cells(n)
        arr.load_flat(make_records(keys))
        s = np.sort(keys)
        expected = [int(s[max(1, min(n, round(i * n / 3))) - 1]) for i in (1, 2)]
        for attempt in range(8):
            try:
                got = quantiles_em(mach, arr, n, 2, make_rng(attempt))
                break
            except QuantileFailure:
                continue
        assert got.tolist() == expected


class TestMachineHygiene:
    def test_sort_leaves_no_temp_arrays(self):
        """All intermediate arrays are freed: only the input and the
        output survive a sort."""
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc_cells(128)
        arr.load_flat(make_records(np.arange(128)))
        before = len(mach._arrays)
        oblivious_sort(mach, arr, 128, make_rng(0))
        after = len(mach._arrays)
        assert after == before + 1  # exactly the result array

    def test_cache_never_exceeded(self):
        """high_water stays within the model's M/B budget."""
        mach = EMMachine(M=64, B=4)
        arr = mach.alloc_cells(256)
        arr.load_flat(make_records(np.arange(256)))
        oblivious_sort(mach, arr, 256, make_rng(1))
        assert mach.cache.high_water <= mach.cache.capacity_blocks


class TestEndToEndObliviousness:
    def test_consolidate_compact_pipeline_oblivious(self):
        """The registered ``compact`` step is Lemma 3 consolidation then
        Theorem 6 tight compaction."""
        fam = adversarial_inputs(64)
        assert_adversary_view_invariant("compact", list(fam.values()), {})
