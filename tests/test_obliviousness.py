"""The adversary-view property, repo-wide: for every registered oblivious
algorithm — optimized and unoptimized plans, both storage backends — the
machine transcript at fixed ``(n, params, seed)`` is bit-identical across
random data permutations and value assignments.

Hypothesis draws the data variation; the first example of each
``(algorithm, optimize, backend)`` configuration pins the reference view
and every later example must reproduce it bit for bit.  ``merge_sort``
(registered with ``oblivious=False``) is the negative control: its merge
order *does* depend on the data, and the harness must catch it.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import algorithm_names, get_algorithm

from obliviousness import (
    SEED,
    adversary_fingerprint,
    assert_adversary_view_invariant,
    workload,
)

OBLIVIOUS_ALGOS = [n for n in algorithm_names() if get_algorithm(n).oblivious]
LEAKY_ALGOS = [n for n in algorithm_names() if not get_algorithm(n).oblivious]

#: Reference adversary view per (algorithm, optimize, backend): the first
#: hypothesis example pins it; all later examples must match bit for bit.
_REFERENCE: dict[tuple, tuple[str, int]] = {}


def _check_invariant(name: str, optimize, backend: str, variant: int) -> None:
    rng = np.random.default_rng(variant)
    data, params, cfg = workload(name, rng)
    fp, attempts = adversary_fingerprint(
        name, data, params, optimize=optimize, backend=backend, config_kwargs=cfg
    )
    key = (name, optimize, backend)
    ref = _REFERENCE.setdefault(key, (fp, attempts))
    assert (fp, attempts) == ref, (
        f"{name!r} (optimize={optimize}, backend={backend}) leaked data "
        f"through its transcript: variant {variant} produced view "
        f"{fp[:16]}…/{attempts} attempt(s) vs reference "
        f"{ref[0][:16]}…/{ref[1]} at fixed (n, params, seed={SEED:#x})"
    )


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize("name", OBLIVIOUS_ALGOS)
@given(variant=st.integers(0, 2**32 - 1))
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_transcript_depends_only_on_public_parameters(name, optimize, variant):
    """The paper's §1 definition, executed: same (n, params, seed) ⇒
    same adversary view, for every registered oblivious algorithm,
    whether or not the optimizer rewrote the plan."""
    _check_invariant(name, optimize, "memory", variant)


@pytest.mark.parametrize("name", OBLIVIOUS_ALGOS)
@given(variant=st.integers(0, 2**32 - 1))
@settings(max_examples=2, deadline=None)
def test_transcript_invariant_on_memmap_backend(name, variant):
    """Same property on file-backed storage — and the memmap view must
    equal the memory view bit for bit (backends change where bytes live,
    never what the adversary sees)."""
    _check_invariant(name, False, "memmap", variant)
    mem = _REFERENCE.get((name, False, "memory"))
    if mem is not None:
        assert _REFERENCE[(name, False, "memmap")] == mem


def test_optimized_single_step_plans_share_the_oblivious_property():
    """A spot check that the optimizer's variant substitutions keep their
    own transcripts data-independent even when they rewrite the step
    (sort → bitonic_sort at small n)."""
    rng = np.random.default_rng(7)
    datasets = []
    for _ in range(4):
        data, params, cfg = workload("sort", rng)
        datasets.append(data)
    fp_plain = assert_adversary_view_invariant("sort", datasets, params)
    fp_opt = assert_adversary_view_invariant(
        "sort", datasets, params, optimize=True
    )
    # The rewritten plan has its own (different) fixed transcript.
    assert fp_plain != fp_opt


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
def test_chain_transcripts_invariant_at_fixed_selectivity(optimize):
    """Pipelines, not just single steps: a mask→sort chain's transcript
    is bit-identical across inputs with the same public shape AND the
    same surviving count (which keys survive, and all values, vary)."""
    import numpy as np

    from repro.api import EMConfig, ObliviousSession

    def run(variant):
        rng = np.random.default_rng(variant)
        keep = rng.choice(10**5, size=48, replace=False) + 2 * 10**5
        drop = rng.choice(10**5, size=48, replace=False)
        keys = rng.permutation(np.concatenate([keep, drop]))
        data = np.stack(
            [keys, rng.integers(0, 10**6, size=96)], axis=1
        ).astype(np.int64)
        with ObliviousSession(EMConfig(M=64, B=4), seed=SEED) as s:
            s.dataset(data).apply("mask", lo=2 * 10**5).sort().run(optimize)
            return s.machine.trace.fingerprint()

    assert len({run(v) for v in range(4)}) == 1


def test_mask_selectivity_is_public_when_composed():
    """The model caveat this pin used to document is CLOSED: a masking
    scan's surviving count no longer reaches downstream steps — mask's
    output keeps its input's public bound as a padded layout, and every
    downstream step (here: sort, in its padded mode) sizes itself on
    that bound alone.  Same shape, same params, same seed, *different
    selectivity* ⇒ bit-identical chain transcript."""
    import numpy as np

    from repro.api import EMConfig, ObliviousSession

    def run(n_surviving):
        keys = np.arange(96) + np.int64(10**6) * (np.arange(96) >= n_surviving)
        data = np.stack([keys, keys], axis=1).astype(np.int64)
        with ObliviousSession(EMConfig(M=64, B=4), seed=SEED) as s:
            s.dataset(data).apply("mask", hi=100).sort().run()
            return s.machine.trace.fingerprint()

    assert run(16) == run(64)


@pytest.mark.parametrize("terminal", ["join", "group_by"])
def test_mask_selectivity_stays_hidden_through_relational_steps(terminal):
    """Selectivity-hiding composition for the relational layer: a
    mask→join / mask→group_by chain's transcript is bit-identical
    across *different surviving counts* (not merely different data at a
    fixed count) — the relational step prices and schedules itself on
    the mask input's public bound, never the private survivor count."""
    import numpy as np

    from repro.api import EMConfig, ObliviousSession

    def run(n_surviving):
        keys = np.arange(48) + np.int64(10**4) * (np.arange(48) >= n_surviving)
        data = np.stack([keys, keys + 1], axis=1).astype(np.int64)
        with ObliviousSession(EMConfig(M=64, B=4), seed=SEED) as s:
            masked = s.dataset(data).apply("mask", hi=100)
            if terminal == "join":
                right = np.stack(
                    [np.arange(48) % 7, np.arange(48)], axis=1
                ).astype(np.int64)
                masked.join(s.dataset(right), fanout=2).run()
            else:
                masked.group_by(agg="count").run()
            return s.machine.trace.fingerprint()

    views = {run(n) for n in (4, 24, 48)}
    assert len(views) == 1, (
        f"mask→{terminal} leaked the surviving count: {len(views)} "
        "distinct transcripts across selectivities at fixed "
        "(shape, params, seed)"
    )


@pytest.mark.parametrize("name", LEAKY_ALGOS)
def test_non_oblivious_baselines_fail_the_invariant(name):
    """Negative control: merge_sort's merge order depends on the data, so
    the harness must distinguish same-shape inputs — proving the check
    has teeth (and why the spec declares ``oblivious=False``)."""
    n = 96
    idx = np.arange(1, n + 1, dtype=np.int64)
    rng = np.random.default_rng(0)
    inputs = [
        np.column_stack([idx, idx]),
        np.column_stack([idx[::-1].copy(), idx]),
        np.column_stack([rng.permutation(idx), idx]),
    ]
    views = {
        adversary_fingerprint(name, data, {})[0] for data in inputs
    }
    assert len(views) > 1, (
        f"{name!r} unexpectedly produced one adversary view — either it "
        "became oblivious (update its spec) or the harness lost its teeth"
    )


# ---------------------------------------------------------------------------
# Streaming + service workloads (satellite of the session-service PR)
# ---------------------------------------------------------------------------

from obliviousness import (  # noqa: E402 - grouped with their tests
    interleaved_tenant_fingerprints,
    streamed_adversary_fingerprint,
    streamed_chain_workload,
)

#: Reference adversary view of the streamed 3-step chain per optimize
#: mode, pinned by the first hypothesis example.
_STREAM_REFERENCE: dict = {}


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@given(variant=st.integers(0, 2**32 - 1))
@settings(max_examples=4, deadline=None)
def test_streamed_chain_transcript_depends_only_on_chunk_schedule(
    optimize, variant
):
    """The streaming extension of the §1 property: a streamed 3-step
    plan's complete transcript — chunk ingestion included — is a fixed
    function of (chunk schedule, params, seed), bit-identical across
    data permutations and value assignments."""
    rng = np.random.default_rng(variant)
    chunks = streamed_chain_workload(rng)
    fp = streamed_adversary_fingerprint(chunks, optimize=optimize)
    ref = _STREAM_REFERENCE.setdefault(optimize, fp)
    assert fp == ref, (
        f"streamed chain (optimize={optimize}) leaked data through its "
        f"transcript: variant {variant} produced view {fp[:16]}… vs "
        f"reference {ref[:16]}… at a fixed chunk schedule"
    )


def test_streamed_transcript_equals_one_shot_transcript():
    """Stronger than invariance: streaming full chunks is transcript-
    equivalent to one-shot upload of the concatenation — the chunked
    load emits the same single traced allocation and the per-chunk
    writes are untraced client→server round trips."""
    import numpy as np

    from repro.api import EMConfig, ObliviousSession, RetryPolicy
    from obliviousness import SEED

    rng = np.random.default_rng(5)
    chunks = streamed_chain_workload(rng)
    fp_stream = streamed_adversary_fingerprint(chunks)
    cfg = EMConfig(M=64, B=4)
    with ObliviousSession(
        cfg, seed=SEED, retry=RetryPolicy(max_attempts=6)
    ) as s:
        ds = s.dataset(np.concatenate(chunks))
        ds.shuffle().apply("mask", lo=2 * 10**5).sort().run()
        assert s.machine.trace.fingerprint() == fp_stream


@given(variant=st.integers(0, 2**32 - 1))
@settings(max_examples=4, deadline=None)
def test_tenant_trace_is_independent_of_other_tenants_data(variant):
    """Two-tenant interleaving invariance: tenant A's serialized trace
    under the batched service is a fixed function of A's own (schedule,
    params, seed) — whatever tenant B streams alongside it, and equal to
    A's solo-run trace."""
    chunks_a = streamed_chain_workload(np.random.default_rng(0))
    chunks_b = streamed_chain_workload(np.random.default_rng(variant + 1))
    fp_a, fp_b = interleaved_tenant_fingerprints(chunks_a, chunks_b)
    key = ("tenant-a", SEED)
    ref = _STREAM_REFERENCE.setdefault(key, fp_a)
    assert fp_a == ref, (
        f"tenant A's trace changed with tenant B's data: variant "
        f"{variant} produced {fp_a[:16]}… vs reference {ref[:16]}…"
    )
    # And interleaving itself is invisible: A's batched trace is its
    # solo trace.
    solo = _STREAM_REFERENCE.setdefault(
        ("solo-a", SEED), streamed_adversary_fingerprint(chunks_a)
    )
    assert fp_a == solo


# ---------------------------------------------------------------------------
# ORAM layer: raw read/write/dummy sequences (satellite of the batching PR)
# ---------------------------------------------------------------------------

from obliviousness import (  # noqa: E402 - grouped with their tests
    assert_oram_bitwise_invariant,
    assert_oram_shape_invariant,
    oram_probe_counts,
    oram_transcript,
)


@pytest.mark.parametrize("backend", ["square_root", "hierarchical"])
@given(variant=st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_oram_transcript_shape_invariant_across_access_sequences(
    backend, variant
):
    """The (op, array) event sequence — length included — is a fixed
    function of (n, seed, schedule length) for ANY mix of reads, writes,
    updates and dummies at any logical indices, across rebuild epochs —
    for either ORAM backend."""
    n = 9
    length = 3 * n  # crosses several epochs (s = 3; hier buffer s0 = 4)
    rng = np.random.default_rng(variant)
    schedules = []
    for _ in range(2):
        schedule = []
        for t in range(length):
            kind = ("read", "write", "update", "dummy")[int(rng.integers(4))]
            i = int(rng.integers(n))
            if kind == "read":
                schedule.append(("read", i))
            elif kind == "write":
                schedule.append(("write", i, int(rng.integers(10**6))))
            elif kind == "update":
                schedule.append(("update", i))
            else:
                schedule.append(("dummy",))
        schedules.append(schedule)
    assert_oram_shape_invariant(n, schedules, backend=backend)


@pytest.mark.parametrize("backend", ["square_root", "hierarchical"])
def test_oram_shape_invariance_covers_rebuild_epochs(backend):
    """The shape check is only meaningful if the window really crosses
    rebuilds — pin that it does, and that rebuild segments are fully
    fixed (they are scans + oblivious sorts, so shape equality over the
    whole window implies it)."""
    n = 9
    _, oram, _ = oram_transcript(n, [("read", 0)] * (3 * n), backend=backend)
    assert oram.rebuilds >= 2


@pytest.mark.parametrize("backend", ["square_root", "hierarchical"])
@given(variant=st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_oram_transcript_bitwise_invariant_across_values_and_op_kinds(
    backend, variant
):
    """At a FIXED logical index schedule, the complete transcript —
    probe positions included — is bit-identical whatever values are
    written and whether each access is a read, a write, or an update:
    the probe tag depends only on the index and the epoch (or level) key."""
    n = 8
    rng = np.random.default_rng(variant)
    indices = [int(rng.integers(n)) for _ in range(3 * n)]
    schedules = []
    for _ in range(2):
        schedule = []
        for i in indices:
            kind = ("read", "write", "update")[int(rng.integers(3))]
            if kind == "write":
                schedule.append(("write", i, int(rng.integers(10**6))))
            elif kind == "update":
                schedule.append(("update", i))
            else:
                schedule.append(("read", i))
        schedules.append(schedule)
    assert_oram_bitwise_invariant(n, schedules, backend=backend)


@pytest.mark.parametrize("n", [8, 13, 100])
def test_oram_binary_search_probe_schedule_is_fixed_length(n):
    """Every access pays exactly ilog2(n_store) + 2 store-meta probes and
    one payload read, wherever (and however early) the tag is found."""
    from repro.util.mathx import ilog2

    _, oram, _ = oram_transcript(n, [])
    want_meta = ilog2(oram.n_store) + 2
    meta_per_access, payload_per_access = oram_probe_counts(
        n, accesses=max(1, min(3, oram.s - 1))
    )
    assert meta_per_access == want_meta
    assert payload_per_access == 1


@pytest.mark.parametrize("n", [8, 13, 100])
def test_hierarchical_probe_schedule_is_fixed_length(n):
    """Hierarchical accesses pay exactly ilog2(caps_k) + 2 meta probes
    and one payload read per *occupied* level — within the first buffer
    epoch only the top level is occupied, so the per-access count is
    ilog2(caps_L) + 2 however early (or whether at all) each level's
    binary search lands on the tag."""
    from repro.util.mathx import ilog2

    _, oram, _ = oram_transcript(n, [], backend="hierarchical")
    assert oram._occupied == [False] * oram.L + [True]
    want_meta = ilog2(oram.caps[-1]) + 2
    meta_per_access, payload_per_access = oram_probe_counts(
        n, accesses=max(1, oram.s0 - 1), backend="hierarchical"
    )
    assert meta_per_access == want_meta
    assert payload_per_access == 1


def test_oram_shape_invariance_holds_for_stretched_shelters():
    """The shelter_factor knob (used by the Theorem-4 peel) changes the
    schedule shape but not its data-independence."""
    n = 9
    schedules = [
        [("read", i % n) for i in range(2 * n)],
        [("write", (i * 5) % n, i) for i in range(2 * n)],
    ]
    assert_oram_shape_invariant(n, schedules, shelter_factor=3)
