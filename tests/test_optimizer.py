"""The cost-based plan optimizer: rule firing, equivalence, and the
acceptance chain.

Covered here:

* the ISSUE acceptance criterion: on ``shuffle().sort().quantiles(q=8)``
  the optimized plan's estimated I/O drops ≥ 25%, the measured
  ``CostReport`` confirms fewer actual I/Os, and outputs are
  byte-identical;
* each rule in isolation (drop-shuffle with cascade, elide-sorted,
  cost-gated variant substitution with its legality fences, scan
  fusion);
* the equivalence contract over random plan DAGs (including fan-out):
  byte-identical outputs, and surviving steps keep their exact
  canonical per-step transcripts;
* one golden fingerprint pinning the canonical optimized chain.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    NULL_KEY,
    EMConfig,
    ObliviousSession,
    optimize_plan,
)

M, B = 64, 4
SEED = 123


def _session(**kw):
    cfg = EMConfig(
        M=kw.pop("M", M), B=kw.pop("B", B), **{k: v for k, v in kw.items() if k != "seed"}
    )
    return ObliviousSession(cfg, seed=kw.get("seed", SEED))


def _keys(n, seed=0):
    return np.random.default_rng(seed).permutation(np.arange(n))


def _sparse_layout(n_blocks, every, B_=B):
    layout = np.zeros((n_blocks * B_, 2), dtype=np.int64)
    layout[:, 0] = NULL_KEY
    live = np.arange(0, n_blocks, every)
    layout[live * B_, 0] = live + 1
    layout[live * B_, 1] = live * 10
    return layout


# ---------------------------------------------------------------------------
# Acceptance: the canonical redundant-shuffle chain
# ---------------------------------------------------------------------------


def test_acceptance_redundant_shuffle_chain():
    """shuffle().sort().quantiles(q=8): ≥25% lower estimated I/O, fewer
    measured I/Os, byte-identical outputs."""
    keys = _keys(512, seed=1)
    with _session() as session:
        ds = session.dataset(keys).shuffle().sort().quantiles(q=8)
        plain = ds.explain(optimize=False)
        opt = ds.explain(optimize=True)
        assert session.machine.total_ios == 0  # explain never executes
        r_plain = ds.run(optimize=False)
    with _session() as session:
        ds = session.dataset(keys).shuffle().sort().quantiles(q=8)
        r_opt = ds.run(optimize=True)

    # ≥ 25% lower estimated I/O (drop-shuffle + two variant rewrites).
    assert opt.total_est_ios <= 0.75 * plain.total_est_ios
    assert opt.savings_fraction >= 0.25
    rules = {r.rule for r in opt.rewrites}
    assert "drop-shuffle" in rules and "variant" in rules
    # The rendering shows its work: per-rule before/after columns.
    text = str(opt)
    assert "drop-shuffle" in text and "→" in text and "optimizer:" in text

    # The measured CostReport confirms fewer actual I/Os.
    assert r_opt.total.total < r_plain.total.total
    # Outputs are byte-identical.
    assert np.array_equal(r_plain.value, r_opt.value)
    # Rewritten steps carry their provenance.
    assert [(s.algorithm, s.note) for s in r_opt.steps] == [
        ("bitonic_sort", "was sort"),
        ("quantiles_sorted", "was quantiles"),
    ]
    # Round trips unchanged: still one load, and the value is terminal.
    assert r_opt.loads == 1


def test_golden_fingerprint_of_canonical_optimized_chain():
    """Pin the optimized chain's adversary view bit for bit (seed 123,
    M=64, B=4, n=256): any change to the optimizer's rewrite choices,
    the executor's staging, or the kernels' access patterns must show up
    here as a conscious golden update."""
    keys = np.random.default_rng(42).permutation(np.arange(256))
    with _session() as session:
        result = session.dataset(keys).shuffle().sort().quantiles(q=8).run(
            optimize=True
        )
        machine_fp = session.machine.trace.fingerprint()
    assert machine_fp == (
        "5e46eb1c1a3dcd316344882441c7989d37074cb22b7f3f2819de1a6382a09ac5"
    )
    assert [s.cost.trace_canonical for s in result.steps] == [
        "e7e953576fe68202a867cddcbe3812200342fe429e3729e2684317bd210460b5",
        "f5cbf989daaf4fa37875d031a984ac71cdd6aecd8553210385222fc8878983d2",
    ]
    assert result.value.tolist() == [27, 56, 84, 113, 141, 170, 198, 227]


# ---------------------------------------------------------------------------
# Rule 1: drop redundant shuffles
# ---------------------------------------------------------------------------


def test_shuffle_drop_cascades_through_shuffle_chains():
    keys = _keys(128, seed=2)
    with _session() as session:
        plan = session.dataset(keys).shuffle().shuffle().sort().plan()
        sched = optimize_plan(plan)
        assert [s.spec.name for s in sched.schedule] == ["bitonic_sort"]
        assert sum(r.rule == "drop-shuffle" for r in sched.rewrites) == 2
        result = plan.run(optimize=True)
    assert np.array_equal(result.records[:, 0], np.sort(keys))
    assert len(result.steps) == 1


def test_terminal_shuffle_survives():
    """A shuffle whose records are the plan's output cannot be dropped."""
    keys = _keys(64, seed=3)
    with _session() as session:
        plan = session.dataset(keys).shuffle().plan()
        sched = optimize_plan(plan)
        assert [s.spec.name for s in sched.schedule] == ["shuffle"]
        assert sched.rewrites == ()


def test_shuffle_before_non_oblivious_consumer_survives():
    """merge_sort is permutation-invariant but NOT oblivious: its
    data-dependent transcript would leak the input order, so the shuffle
    in front of it is load-bearing and must survive."""
    keys = _keys(64, seed=17)
    with _session() as session:
        plan = session.dataset(keys).shuffle().apply("merge_sort").plan()
        sched = optimize_plan(plan)
    assert [s.spec.name for s in sched.schedule] == ["shuffle", "merge_sort"]
    assert not any(r.rule == "drop-shuffle" for r in sched.rewrites)


def test_undeclared_scan_params_block_fusion_not_validation():
    """A typo'd scan parameter must raise the same TypeError optimized
    and unoptimized — fusion is refused so the strict standalone runner
    sees it (kernels would silently .get() a default)."""
    keys = _keys(32, seed=18)
    with _session() as session:
        ds = (
            session.dataset(keys)
            .apply("mask", lo=1)
            .apply("scale_values", mull=3)  # typo: 'mull'
        )
        with pytest.raises(TypeError, match="unexpected parameters: mull"):
            ds.run(optimize=False)
        with pytest.raises(TypeError, match="unexpected parameters: mull"):
            ds.run(optimize=True)


def test_fused_step_records_member_params():
    keys = _keys(64, seed=19)
    with _session() as session:
        result = (
            session.dataset(keys)
            .apply("mask", lo=4)
            .apply("scale_values", mul=2)
            .run(optimize=True)
        )
    assert result.steps[0].params["stages"] == [
        {"lo": 4, "op": "mask"},
        {"mul": 2, "op": "scale_values"},
    ]


def test_shuffle_before_order_sensitive_consumer_survives():
    """compact is order-preserving, not permutation-invariant — a shuffle
    feeding it is semantically meaningful and must survive."""
    keys = _keys(64, seed=4)
    with _session() as session:
        plan = session.dataset(keys).shuffle().compact().plan()
        sched = optimize_plan(plan)
    assert [s.spec.name for s in sched.schedule] == ["shuffle", "compact"]
    assert not any(r.rule == "drop-shuffle" for r in sched.rewrites)


def test_aggressive_collapses_shuffle_runs_distribution_preserving():
    keys = _keys(96, seed=5)
    with _session() as session:
        plan = session.dataset(keys).shuffle().shuffle().plan()
        assert len(optimize_plan(plan).schedule) == 2  # byte-preserving: keep
        sched = optimize_plan(plan, aggressive=True)
        assert [s.spec.name for s in sched.schedule] == ["shuffle"]
        result = plan.run(optimize="aggressive")
    # Not byte-identical to the 2-shuffle run — but the same multiset.
    assert sorted(result.records[:, 0]) == sorted(keys)
    assert len(result.steps) == 1


# ---------------------------------------------------------------------------
# Rule 2: elide sorts of sorted inputs
# ---------------------------------------------------------------------------


def test_sort_after_sort_is_elided():
    keys = _keys(128, seed=6)
    with _session() as session:
        ds = session.dataset(keys).sort().sort()
        sched = optimize_plan(ds.plan())
        assert sum(r.rule == "elide-sorted" for r in sched.rewrites) == 1
        r_opt = ds.run(optimize=True)
    with _session() as session:
        r_plain = session.dataset(keys).sort().sort().run(optimize=False)
    assert np.array_equal(r_opt.records, r_plain.records)
    assert len(r_opt.steps) == len(r_plain.steps) - 1


def test_elided_terminal_sort_still_extracts_records():
    """Eliding a terminal sort re-routes the extraction to its producer."""
    keys = _keys(96, seed=7)
    with _session() as session:
        result = session.dataset(keys).sort().sort().run(optimize=True)
        assert len(session.machine._arrays) == 0
    assert np.array_equal(result.records[:, 0], np.sort(keys))
    assert result.loads == 1 and result.extracts == 1


def test_duplicate_elided_terminals_share_one_step_but_pay_all_extracts():
    """Two elided terminal sorts aliasing the same producer: the bytes
    are served by one records-bearing step, but each terminal still pays
    its own server→client download — round-trip accounting matches the
    verbatim plan."""
    keys = _keys(64, seed=20)
    with _session() as session:
        base = session.dataset(keys).sort()
        plan = session.plan(base.sort(), base.sort())
        r_plain = plan.run(optimize=False)
    with _session() as session:
        base = session.dataset(keys).sort()
        plan = session.plan(base.sort(), base.sort())
        r_opt = plan.run(optimize=True)
        assert len(session.machine._arrays) == 0
    assert np.array_equal(r_opt.records, r_plain.records)
    assert r_opt.extracts == r_plain.extracts == 2
    assert len(r_opt.steps) == 1  # both elided terminals share the producer


def test_order_propagates_through_preserving_steps():
    """sort → compact (order-preserving) → sort: the second sort's input
    is still sorted through the compact, so it elides — and the compact
    the elision relies on keeps its order contract (it is pinned against
    order-weakening variants, and its dense intermediate input makes the
    loose paths infeasible anyway)."""
    layout = _sparse_layout(8192, 32)
    with ObliviousSession(EMConfig(M=256, B=4), seed=SEED) as session:
        plan = session.dataset(layout).sort().compact().sort().plan()
        sched = optimize_plan(plan)
    names = [s.spec.name for s in sched.schedule]
    assert "compact" in names  # NOT compact_loose: its order is pinned
    assert sum(r.rule == "elide-sorted" for r in sched.rewrites) == 1


# ---------------------------------------------------------------------------
# Rule 3: cost-gated variant substitution
# ---------------------------------------------------------------------------


def test_compactor_variant_chosen_by_cost_at_scale():
    """The ISSUE's compactor rule, at shapes whose choice measurement
    confirms (estimate-only — nothing executes).  Theorem 4 wins only at
    extreme sparsity: with 4 records on (M=64, B=4), ``compact`` runs
    122,909 I/Os against ``compact_sparse``'s 130,952 at 4,096 blocks,
    and 278,561 against 192,392 at 8,192 blocks.  Theorem 8 wins at no
    feasible shape measured (128–8,192 blocks, m from the wide-block
    minimum to 1,024): at (8,192 blocks, every 64th, M=256) ``compact``
    runs 180,245 against ``compact_loose``'s 338,867."""
    cases = [
        # (layout blocks, occupied every, M, consumer, expected compactor)
        (8192, 2048, 64, "sort", "compact_sparse"),
        (4096, 1024, 64, "sort", "compact"),  # just short of the crossover
        (8192, 64, 256, "sort", "compact"),  # wide-block, yet loose loses
        (64, 1, 64, "sort", "compact"),  # dense: butterfly stays
    ]
    for n_blocks, every, M_, consumer, expected in cases:
        layout = _sparse_layout(n_blocks, every)
        with ObliviousSession(EMConfig(M=M_, B=B), seed=SEED) as session:
            plan = session.dataset(layout).compact().apply(consumer).plan()
            sched = optimize_plan(plan)
        assert sched.schedule[0].spec.name == expected, (
            f"n={n_blocks}, every={every}, M={M_}: "
            f"got {sched.schedule[0].spec.name}, wanted {expected}"
        )


def test_order_weakening_variant_needs_invariant_consumers(monkeypatch):
    """compact → terminal records: the extracted bytes ARE the order, so
    loose compaction is illegal however cheap its estimate.  Loose never
    wins on cost at a feasible shape (see above), so its constant is
    forced down here, leaving the legality fence as the only thing that
    keeps it out of the plan."""
    from repro.analysis import bounds

    monkeypatch.setattr(bounds, "_C_LOOSE", 1.0)
    layout = _sparse_layout(8192, 64)
    with ObliviousSession(EMConfig(M=256, B=4), seed=SEED) as session:
        sched = optimize_plan(session.dataset(layout).compact().plan())
        assert sched.schedule[0].spec.name == "compact"
        # Feeding a permutation-invariant sort, the order may weaken.
        sched = optimize_plan(session.dataset(layout).compact().sort().plan())
        assert sched.schedule[0].spec.name == "compact_loose"


def test_loose_compactor_variant_executes_equivalently():
    """Loose compaction scrambles the intermediate order, so it may stand
    in for ``compact`` only before a permutation-invariant consumer such
    as sort — and the sorted outputs must come out byte-identical either
    way.  The optimizer no longer makes that swap on cost: at this
    wide-block shape (M=288, 128 blocks) ``compact`` runs 1,805 I/Os
    against ``compact_loose``'s 5,267.  So the optimizer keeps
    ``compact``, and the loose path is run directly."""
    layout = _sparse_layout(128, 8)
    with ObliviousSession(EMConfig(M=288, B=4), seed=SEED) as session:
        plan = session.dataset(layout).compact().sort().plan()
        assert optimize_plan(plan).schedule[0].spec.name == "compact"
        r_loose = (
            session.dataset(layout).apply("compact_loose").sort().run(optimize=False)
        )
        assert len(session.machine._arrays) == 0
    with ObliviousSession(EMConfig(M=288, B=4), seed=SEED) as session:
        r_plain = session.dataset(layout).compact().sort().run(optimize=False)
    assert np.array_equal(r_plain.records, r_loose.records)
    assert r_loose.steps[0].algorithm == "compact_loose"
    assert r_loose.steps[0].cost.total > r_plain.steps[0].cost.total


def test_never_substitutes_a_non_oblivious_variant():
    """merge_sort is cheaper than every oblivious sort under the model,
    and must never be chosen: the optimizer cannot trade away the
    security property."""
    keys = _keys(256, seed=8)
    with _session() as session:
        plan = session.dataset(keys).sort().plan()
        sched = optimize_plan(plan)
    assert sched.schedule[0].spec.name in ("sort", "bitonic_sort")
    assert sched.schedule[0].spec.oblivious


def test_sorted_input_variant_requires_sorted_producer():
    keys = _keys(256, seed=9)
    with _session() as session:
        # quantiles directly on unsorted data: no substitution possible.
        sched = optimize_plan(session.dataset(keys).quantiles(q=4).plan())
        assert sched.schedule[0].spec.name == "quantiles"
        # after a sort: the deterministic ranked scan takes over.
        sched = optimize_plan(session.dataset(keys).sort().quantiles(q=4).plan())
        assert [s.spec.name for s in sched.schedule][-1] == "quantiles_sorted"


def test_select_after_sort_becomes_ranked_scan():
    keys = _keys(200, seed=10)
    with _session() as session:
        r_opt = session.dataset(keys).sort().select(k=50).run(optimize=True)
    with _session() as session:
        r_plain = session.dataset(keys).sort().select(k=50).run(optimize=False)
    assert r_opt.value == r_plain.value == (49, 49)
    assert r_opt.steps[-1].algorithm == "select_sorted"
    assert r_opt.total.total < r_plain.total.total


# ---------------------------------------------------------------------------
# Rule 4: fuse adjacent scans
# ---------------------------------------------------------------------------


def test_adjacent_scans_fuse_into_one_pass():
    keys = _keys(160, seed=11)
    with _session() as session:
        ds = (
            session.dataset(keys)
            .apply("scale_values", mul=2, add=1)
            .apply("mask", lo=40, hi=200)
            .apply("mask", lo=0, hi=150)
        )
        sched = optimize_plan(ds.plan())
        assert [s.spec.name for s in sched.schedule] == [
            "scale_values+mask+mask"
        ]
        assert sched.schedule[0].covers == ("scale_values", "mask", "mask")
        r_opt = ds.run(optimize=True)
    with _session() as session:
        r_plain = (
            session.dataset(keys)
            .apply("scale_values", mul=2, add=1)
            .apply("mask", lo=40, hi=200)
            .apply("mask", lo=0, hi=150)
            .run(optimize=False)
        )
    assert np.array_equal(r_opt.records, r_plain.records)
    # One read+write pass over the input (2·40 blocks) instead of three
    # passes over progressively masked layouts.
    assert r_opt.total.total == 80
    assert r_opt.total.total * 2 < r_plain.total.total
    assert len(r_opt.steps) == 1 and r_opt.steps[0].note == (
        "fused scale_values+mask+mask"
    )


def test_fan_out_scan_is_not_fused():
    """A scan whose output two branches read must materialize."""
    keys = _keys(96, seed=12)
    with _session() as session:
        masked = session.dataset(keys).apply("mask", lo=10, hi=90)
        a = masked.apply("mask", lo=0, hi=80).sort()
        bq = masked.compact()
        sched = optimize_plan(session.plan(a, bq))
    names = [s.spec.name for s in sched.schedule]
    assert "mask" in names  # the shared scan survives unfused


# ---------------------------------------------------------------------------
# Equivalence over random plan DAGs
# ---------------------------------------------------------------------------


def _random_plan(session, keys, rng):
    """A random chain with optional fan-out over the rewritable op pool."""
    n = len(keys)
    ds = session.dataset(keys)
    ops = []
    for _ in range(int(rng.integers(1, 4))):
        op = rng.choice(["shuffle", "sort", "compact", "mask", "scale_values"])
        ops.append(str(op))
        if op == "mask":
            ds = ds.apply("mask", lo=int(n // 8), hi=int(10 * n))
        elif op == "scale_values":
            ds = ds.apply("scale_values", mul=3, add=1)
        else:
            ds = ds.apply(str(op))
    targets = [ds.sort()]
    ops.append("sort")
    if rng.random() < 0.5:
        if "mask" in ops:
            # Once a mask ran the layout is padded, and only
            # null-tolerant steps may consume it — fan out to a compact.
            targets.append(ds.compact())
            ops.append("compact")
        else:
            # Generous slack keeps the Las Vegas caps from ever tripping
            # at this size, whichever input order the optimizer leaves.
            targets.append(ds.quantiles(q=3, slack=2.0))
            ops.append("quantiles")
    return session.plan(*targets), ops


@given(variant=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_random_dags_optimize_to_byte_identical_outputs(variant):
    rng = np.random.default_rng(variant)
    keys = _keys(128, seed=variant % 1000)
    with _session(seed=SEED) as session:
        plan, ops = _random_plan(session, keys, rng)
        sched = optimize_plan(plan)
        r_opt = plan.run(optimize=True)
        assert len(session.machine._arrays) == 0
    rng = np.random.default_rng(variant)
    with _session(seed=SEED) as session:
        plan2, ops2 = _random_plan(session, keys, rng)
        r_plain = plan2.run(optimize=False)
        assert len(session.machine._arrays) == 0
    assert ops == ops2
    # Byte-identical record outputs and values, target by target.
    assert np.array_equal(r_opt.records, r_plain.records)
    if any(s.value is not None for s in r_plain.steps):
        assert np.array_equal(r_opt.value, r_plain.value)
    # Surviving (non-rewritten) steps keep their exact canonical
    # per-step transcripts: slot k of the schedule corresponds to the
    # unoptimized plan's k-th algorithm step.  (Guarded on equal attempt
    # counts: a randomized step downstream of a dropped shuffle can, with
    # Las Vegas tail probability, need a different number of attempts on
    # the unshuffled input — the documented transcript caveat.)
    assert len(sched.schedule) == len(r_opt.steps)
    for exec_step, step in zip(sched.schedule, r_opt.steps):
        if exec_step.note is None:
            baseline = r_plain.steps[exec_step.slot]
            if step.cost.attempts == baseline.cost.attempts:
                assert step.cost.trace_canonical == baseline.cost.trace_canonical
                assert step.cost.total == baseline.cost.total


def test_dag_fan_out_shared_lineage_still_executes_once_optimized():
    keys = _keys(256, seed=13)
    with _session() as session:
        shuffled = session.dataset(keys).shuffle()
        a = shuffled.sort()
        bq = shuffled.quantiles(q=2)
        result = session.plan(a, bq).run(optimize=True)
        assert len(session.machine._arrays) == 0
    # The shuffle fed only permutation-invariant consumers: dropped.
    assert all(s.algorithm != "shuffle" for s in result.steps)
    assert np.array_equal(result.records[:, 0], np.sort(keys))
    assert len(result.value) == 2
    assert result.loads == 1 and result.extracts == 1


def test_call_slots_keep_downstream_randomness_aligned():
    """After an optimized plan (with dropped steps), the session's next
    call derives the same randomness as after the verbatim plan."""
    keys = _keys(96, seed=14)
    with _session() as session:
        session.dataset(keys).shuffle().sort().run(optimize=True)
        after_opt = session.shuffle(keys).records
    with _session() as session:
        session.dataset(keys).shuffle().sort().run(optimize=False)
        after_plain = session.shuffle(keys).records
    assert np.array_equal(after_opt, after_plain)


def test_misspelled_optimize_mode_is_rejected():
    """Only the exact 'aggressive' string enables aggressive mode — a
    typo must raise, not silently degrade to plain optimize=True."""
    with pytest.raises(ValueError, match="optimize must be"):
        ObliviousSession(EMConfig(M=M, B=B), optimize="aggresive")
    with _session() as session:
        ds = session.dataset(_keys(16)).shuffle()
        with pytest.raises(ValueError, match="optimize must be"):
            ds.run(optimize="AGGRESSIVE")
        with pytest.raises(ValueError, match="optimize must be"):
            ds.explain(optimize="yes please")


def test_optimizer_failure_cleanup_leaves_no_arrays():
    """Las Vegas exhaustion mid-optimized-plan restores the machine."""
    from repro.api import AlgorithmSpec, RetryPolicy, register, unregister
    from repro.core.selection import SelectionFailure
    from repro.errors import RetryExhausted

    def runner(machine, A, n_items, rng, params):
        machine.alloc(2, "boom.scratch")
        raise SelectionFailure("always fails")

    register(AlgorithmSpec("_opt_boom", "test-only", runner, randomized=True))
    try:
        with _session() as session:
            session.retry = RetryPolicy(max_attempts=2)
            pre = set(session.machine._arrays)
            with pytest.raises(RetryExhausted):
                session.dataset(_keys(32)).shuffle().apply("_opt_boom").run(
                    optimize=True
                )
            assert set(session.machine._arrays) == pre
    finally:
        unregister("_opt_boom")
