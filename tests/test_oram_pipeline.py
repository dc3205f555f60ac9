"""ORAM-backed operations as first-class pipeline steps.

Two halves:

* ``oram_read_batch`` — the registered square-root-ORAM read step:
  facade and pipeline behaviour, size propagation through its
  ``out_items`` rule, and parameter validation.
* The recalibrated compactor crossover: after the peel restructure cut
  the measured Theorem-4 constant ≥3×, the cost model selects the
  ORAM-simulated compactor at a *moderate* sparsity shape (8192-block
  layout, r = 2) where the old 90k constant kept the butterfly, with
  byte-identical outputs either way.
"""

import numpy as np
import pytest

from repro.analysis.bounds import PAPER_BOUNDS, estimate_ios
from repro.api import EMConfig, ObliviousSession, get_algorithm
from repro.api.optimizer import optimize_plan
from repro.em.block import NULL_KEY

B = 4
SEED = 0xD0B1


def _session(M=64, trace=True):
    return ObliviousSession(EMConfig(M=M, B=B, trace=trace), seed=SEED)


def _records(n, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.permutation(np.arange(n, dtype=np.int64) + 1)
    return np.stack([keys, keys * 3], axis=1).astype(np.int64)


class TestOramReadBatchStep:
    def test_fetches_records_by_rank_in_request_order(self):
        data = _records(64)
        ranks = [5, 0, 63, 5, 17]
        with _session() as session:
            result = session.run("oram_read_batch", data, indices=ranks)
        assert np.array_equal(result.records, data[ranks])

    def test_chains_after_sort_as_order_statistics(self):
        """sort → oram_read_batch reads the k-th smallest records without
        the server learning which ranks were requested."""
        data = _records(48, seed=3)
        with _session() as session:
            result = (
                session.dataset(data)
                .sort()
                .apply("oram_read_batch", indices=[0, 23, 47])
                .run()
            )
        by_key = data[np.argsort(data[:, 0])]
        assert np.array_equal(result.records, by_key[[0, 23, 47]])

    def test_out_items_rule_drives_size_propagation(self):
        spec = get_algorithm("oram_read_batch")
        assert spec.estimate_out_items(96, {"indices": [1, 2, 3]}) == 3
        with _session() as session:
            est = (
                session.dataset(_records(64))
                .apply("oram_read_batch", indices=[4, 9])
                .apply("scale_values", mul=2)
                .explain()
            )
        assert est.steps[0].n_items == 64  # input size of the ORAM step
        assert est.steps[1].n_items == 2  # request length flows downstream

    def test_validates_ranks_and_rejects_empty(self):
        data = _records(16)
        with _session() as session:
            with pytest.raises(IndexError, match=r"\[0, 16\)"):
                session.run("oram_read_batch", data, indices=[16])
            with pytest.raises(ValueError, match="at least one"):
                session.run("oram_read_batch", data, indices=[])

    def test_no_arrays_leak_after_run(self):
        with _session() as session:
            session.run("oram_read_batch", _records(32), indices=[1, 2])
            assert len(session.machine._arrays) == 0

    def test_has_cost_model_and_oblivious_algebra(self):
        spec = get_algorithm("oram_read_batch")
        assert spec.oblivious
        assert not spec.randomized
        assert spec.cost_model in PAPER_BOUNDS
        est = estimate_ios("oram_read_batch", 64, 16, {"indices": [1] * 8})
        assert est > 0


#: The documented moderate-sparsity shape: an 8192-block layout holding 4
#: records (occupied-block capacity r = 2) on the (M=64, B=4) reference
#: machine.  The shape follows measurement.  With the in-place butterfly
#: router, ``compact`` runs 61,469 I/Os here at 2048 blocks against
#: ``compact_sparse``'s 100,232, and 122,909 against 130,952 at 4096
#: blocks; at 8192 blocks it runs 278,561 against 192,392.  Theorem 4
#: prices at ~177k against the butterfly's ~261k, and at ~361k under
#: the old 90k peel constant.
MODERATE_BLOCKS = 8192
MODERATE_RECORDS = 4


def _moderate_sparse_layout():
    layout = np.zeros((MODERATE_BLOCKS * B, 2), dtype=np.int64)
    layout[:, 0] = NULL_KEY
    live = np.linspace(3, MODERATE_BLOCKS - 5, MODERATE_RECORDS).astype(np.int64)
    layout[live * B, 0] = live + 1
    layout[live * B, 1] = live * 7
    return layout


class TestRecalibratedCompactorCrossover:
    def test_cost_model_flips_at_moderate_sparsity(self):
        """Pure pricing: at (n=8192 blocks, m=16, r=2) the Theorem-4
        bound undercuts the butterfly, while the old 90k peel constant
        would not have (both facts asserted, so a future recalibration
        that regresses the crossover fails loudly)."""
        n, m, r = MODERATE_BLOCKS, 16, 2
        params = {"_r_blocks": r}
        butterfly = estimate_ios("compact", n, m, params)
        sparse = estimate_ios("compact_sparse", n, m, params)
        assert sparse < 0.95 * butterfly
        old_constant_sparse = 13.0 * n + 90000.0 * r**1.5
        assert old_constant_sparse > butterfly

    def test_sparse_feasibility_gate(self):
        bound = PAPER_BOUNDS["compact_sparse"]
        assert bound.feasible(MODERATE_BLOCKS, 16, {"_r_blocks": 2})
        # Dense layouts fall outside Theorem 4's sparse hypothesis.
        assert not bound.feasible(64, 16, {"_r_blocks": 64})

    def test_optimizer_selects_oram_simulated_compactor(self):
        layout = _moderate_sparse_layout()
        with _session(trace=False) as session:
            plan = session.dataset(layout).compact().sort().plan()
            sched = optimize_plan(plan)
        assert sched.schedule[0].spec.name == "compact_sparse"
        assert any(r.rule == "variant" for r in sched.rewrites)

    def test_outputs_byte_identical_to_verbatim_plan(self):
        """The acceptance property end to end: the rewritten plan runs the
        ORAM-simulated compactor and produces byte-identical records."""
        layout = _moderate_sparse_layout()

        def run(optimize):
            with _session(trace=False) as session:
                ds = session.dataset(layout).compact().sort()
                result = ds.run(optimize)
                names = [s.algorithm for s in result.steps]
                return result.records, names

        verbatim, names_plain = run(False)
        optimized, names_opt = run(True)
        assert names_plain[0] == "compact"
        assert names_opt[0] == "compact_sparse"
        assert np.array_equal(verbatim, optimized)
