"""The obliviousness checker: transcript ≡ f(n, params, seed).

The paper (§1) calls a computation data-oblivious when the adversary's
view depends only on the public problem parameters, never on data
values.  All library randomness flows from an explicit seed, so the
distributional statement becomes an executable one:

    With ``(n, params, seed)`` held fixed, the complete machine
    transcript must be *bit-identical* for any two inputs — any
    permutation of the records, any assignment of key/value contents.

:func:`adversary_fingerprint` runs one registered algorithm through a
fresh session's pipeline executor (optimized or verbatim) and returns
the full machine-trace fingerprint — every allocation, I/O and free the
adversary observed, all attempts included.  :func:`workload` fabricates
per-algorithm inputs whose *public shape* is pinned by this module
(layout length, occupancy, ``k``/``q``/``slack``) while everything
private varies with the given generator; :func:`adversarial_inputs` is
the §1 family of hostile key patterns.  Every ``assert_*`` check raises
:class:`ObliviousnessViolation` on a leak — an ``AssertionError``, so
pytest reports it as a failure, raised explicitly so it also fires
under ``python -O``.
"""

from __future__ import annotations

import numpy as np

from repro.api import (
    NULL_KEY,
    EMConfig,
    ObliviousSession,
    RetryPolicy,
    get_algorithm,
)

__all__ = [
    "SEED",
    "ObliviousnessViolation",
    "adversarial_inputs",
    "workload",
    "adversary_fingerprint",
    "assert_adversary_view_invariant",
    "streamed_chain_workload",
    "streamed_adversary_fingerprint",
    "interleaved_tenant_fingerprints",
    "oram_transcript",
    "oram_probe_counts",
    "assert_oram_shape_invariant",
    "assert_oram_bitwise_invariant",
]

#: The fixed session seed every invariance comparison runs under.
SEED = 0xD0B1


class ObliviousnessViolation(AssertionError):
    """Raised when same-shape inputs produced distinguishable views."""


def adversarial_inputs(
    n: int,
    *,
    rng: np.random.Generator | None = None,
    key_range: int = 2**40,
) -> dict[str, np.ndarray]:
    """The standard family of adversarial inputs of size ``n``.

    The family covers the cases the paper calls out as dangerous for
    non-oblivious algorithms: all-equal keys (the n-way hash collision
    example of §1), already-sorted, reverse-sorted, and uniformly random
    keys.  Values are distinct so outputs remain checkable.
    """
    rng = rng or np.random.default_rng(0)
    idx = np.arange(1, n + 1, dtype=np.int64)
    random_keys = rng.integers(1, key_range, size=n, dtype=np.int64)
    return {
        "all_equal": np.column_stack([np.full(n, 7, dtype=np.int64), idx]),
        "sorted": np.column_stack([idx, idx]),
        "reversed": np.column_stack([idx[::-1].copy(), idx]),
        "random": np.column_stack([random_keys, idx]),
    }


#: Public workload shape per algorithm: chosen so every Las Vegas entry
#: completes in one attempt at :data:`SEED` for any data (a retry's
#: truncated attempt window is *legitimate* public leakage — the paper's
#: algorithms are oblivious per attempt — but it would make bit-equality
#: across datasets vacuously false, so the shapes keep failure
#: probabilities negligible; ``slack`` widens the Lemma 10/14 caps).
_RECORDS_N = 96
_VALUE_N = 128
_SPARSE = {
    # name -> (layout blocks, occupied records, machine M)
    "compact": (32, 6, 64),
    "compact_sparse": (16, 3, 64),
    "compact_sparse_hier": (16, 3, 64),
    "compact_logstar": (48, 3, 64),
    "compact_loose": (64, 8, 256),
}


def _sparse_layout(
    n_blocks: int, occupied: int, B: int, rng: np.random.Generator
) -> np.ndarray:
    """A fixed-shape sparse layout: ``occupied`` live records scattered
    over ``n_blocks`` blocks at rng-chosen block positions."""
    layout = np.zeros((n_blocks * B, 2), dtype=np.int64)
    layout[:, 0] = NULL_KEY
    live = rng.choice(n_blocks, size=occupied, replace=False)
    layout[live * B, 0] = rng.choice(10**6, size=occupied, replace=False) + 1
    layout[live * B, 1] = rng.integers(0, 10**6, size=occupied)
    return layout


def workload(
    name: str, rng: np.random.Generator
) -> tuple[np.ndarray, dict, dict]:
    """``(data, params, config_kwargs)`` for one registered algorithm.

    Everything public (sizes, occupancy, parameters, machine shape) is a
    fixed function of ``name``; everything private (key values, value
    column, record order, which blocks a sparse layout occupies) is
    drawn from ``rng``."""
    spec = get_algorithm(name)
    if name in _SPARSE:
        n_blocks, occupied, M = _SPARSE[name]
        B = 4
        return _sparse_layout(n_blocks, occupied, B, rng), {}, {"M": M, "B": B}
    if name == "join":
        # Two relations.  Public: both sizes, fanout, combine.  Private:
        # every key, which keys collide (and how often), every value.
        n_side = 32
        left, right = (
            np.stack(
                [
                    rng.integers(0, 1000, size=n_side),
                    rng.integers(0, 10**6, size=n_side),
                ],
                axis=1,
            ).astype(np.int64)
            for _ in range(2)
        )
        return (left, right), {"fanout": 2, "combine": "sum"}, {"M": 64, "B": 4}
    if name in ("group_by", "group_by_sorted"):
        # Duplicate-heavy keys: group count and every group size are
        # private, so they must not reach the transcript.
        keys = rng.integers(0, 40, size=_RECORDS_N)
        if spec.requires_input_order == "sorted":
            keys = np.sort(keys)
        data = np.stack(
            [keys, rng.integers(0, 10**6, size=_RECORDS_N)], axis=1
        ).astype(np.int64)
        return data, {"agg": "sum"}, {"M": 64, "B": 4}
    if name in ("oram_read_batch", "oram_read_batch_hier"):
        # Public: record count and request length (with a repeat); private:
        # every key and value.  The requested *ranks* are public here only
        # because the workload pins them — the ORAM hides them regardless,
        # which the ORAM-layer harness below pins directly (for either
        # backend).
        keys = rng.choice(10**6, size=_RECORDS_N, replace=False)
        data = np.stack(
            [keys, rng.integers(0, 10**6, size=_RECORDS_N)], axis=1
        ).astype(np.int64)
        return data, {"indices": [3, 41, 88, 17, 41, 0]}, {"M": 64, "B": 4}
    n = _VALUE_N if spec.output == "value" else _RECORDS_N
    keys = rng.choice(10**6, size=n, replace=False)
    if spec.requires_input_order == "sorted":
        keys = np.sort(keys)
    data = np.stack([keys, rng.integers(0, 10**6, size=n)], axis=1).astype(
        np.int64
    )
    if name in ("select", "select_sorted", "sort_then_pick"):
        params: dict = {"k": n // 2}
        if name == "select":
            params["slack"] = 2.0
    elif name in ("quantiles", "quantiles_sorted"):
        params = {"q": 4}
        if name == "quantiles":
            params["slack"] = 2.0
    elif name == "mask":
        params = {"lo": 10**4, "hi": 9 * 10**5}
    elif name == "scale_values":
        params = {"mul": 3, "add": 7}
    else:
        params = {}
    return data, params, {"M": 64, "B": 4}


def adversary_fingerprint(
    name: str,
    data: np.ndarray,
    params: dict,
    *,
    optimize: bool | str = False,
    backend: str = "memory",
    config_kwargs: dict | None = None,
    seed: int = SEED,
) -> tuple[str, int]:
    """Run ``name`` over ``data`` in a fresh session and return the full
    machine-transcript fingerprint plus the Las Vegas attempt count.

    The fingerprint covers the *entire* adversary view of the run —
    the upload allocation, every block I/O of every attempt, and the
    teardown frees — which is strictly stronger than the per-step
    ``CostReport`` window.

    Arity-2 algorithms take ``data`` as a ``(left, right)`` tuple and are
    routed through :meth:`Dataset.join`."""
    cfg = EMConfig(backend=backend, **(config_kwargs or {"M": 64, "B": 4}))
    with ObliviousSession(
        cfg, seed=seed, retry=RetryPolicy(max_attempts=6)
    ) as session:
        if isinstance(data, tuple):
            left, right = data
            ds = session.dataset(left).join(session.dataset(right), **params)
        else:
            ds = session.dataset(data).apply(name, **params)
        result = ds.run(optimize)
        return session.machine.trace.fingerprint(), result.total.attempts


def assert_adversary_view_invariant(
    name: str,
    datasets,
    params: dict,
    *,
    optimize: bool | str = False,
    backend: str = "memory",
    config_kwargs: dict | None = None,
    seed: int = SEED,
) -> str:
    """Check that all ``datasets`` produce bit-identical adversary views
    at fixed ``(n, params, seed)``; returns the common fingerprint.

    The definition only quantifies over inputs of equal size (per
    relation, for joins), so mixed sizes are a ``ValueError``."""
    datasets = list(datasets)
    sizes = {
        tuple(map(len, d)) if isinstance(d, tuple) else len(d)
        for d in datasets
    }
    if len(sizes) > 1:
        raise ValueError(
            f"obliviousness is defined over equal-size inputs; got sizes {sizes}"
        )
    views = {}
    for i, data in enumerate(datasets):
        fp, attempts = adversary_fingerprint(
            name,
            data,
            params,
            optimize=optimize,
            backend=backend,
            config_kwargs=config_kwargs,
            seed=seed,
        )
        views.setdefault(fp, []).append((i, attempts))
    if len(views) != 1:
        raise ObliviousnessViolation(
            f"{name!r} leaked data through its transcript: "
            f"{len(views)} distinct adversary views over "
            f"{len(datasets)} same-shape inputs: {views}"
        )
    return next(iter(views))


# ---------------------------------------------------------------------------
# Streaming + service harness: the adversary view of mini-batch uploads
# ---------------------------------------------------------------------------
#
# A streamed source's public surface is its chunk *schedule* — the chunk
# count and the fixed per-chunk record count — never the data-dependent
# arrival sizes (short chunks are padded to the schedule before any
# traced operation sees them).  These helpers extend the invariance
# property to that surface: at a fixed (chunk schedule, params, seed),
# the complete transcript of a streamed multi-step plan must be
# bit-identical across data permutations; and under the multi-tenant
# service, one tenant's transcript must be independent of what the
# *other* tenants stream (the batcher coalesces round-robin rounds but
# each session's serialized trace stays its canonical adversary view).


def streamed_chain_workload(
    rng: np.random.Generator, *, num_chunks: int = 2, chunk_records: int = 48
) -> list[np.ndarray]:
    """Chunked records with a pinned public shape: ``num_chunks`` full
    chunks of ``chunk_records`` records, exactly half the keys inside
    the chain's mask window (a step's surviving count is public — see
    ``test_mask_selectivity_is_public_when_composed``); key values,
    the value column and the record order all vary with ``rng``."""
    total = num_chunks * chunk_records
    half = total // 2
    keep = rng.choice(10**5, size=half, replace=False) + 2 * 10**5
    drop = rng.choice(10**5, size=total - half, replace=False)
    keys = rng.permutation(np.concatenate([keep, drop]))
    data = np.stack(
        [keys, rng.integers(0, 10**6, size=total)], axis=1
    ).astype(np.int64)
    return [
        data[i * chunk_records : (i + 1) * chunk_records]
        for i in range(num_chunks)
    ]


def streamed_adversary_fingerprint(
    chunks,
    *,
    chunk_records: int | None = None,
    num_chunks: int | None = None,
    optimize: bool | str = False,
    backend: str = "memory",
    seed: int = SEED,
) -> str:
    """Full machine-transcript fingerprint of the reference streamed
    3-step chain (shuffle → mask → sort) over ``chunks`` in a fresh
    session — chunk ingestion, every attempt, and teardown included."""
    cfg = EMConfig(M=64, B=4, backend=backend)
    with ObliviousSession(
        cfg, seed=seed, retry=RetryPolicy(max_attempts=6)
    ) as session:
        ds = session.stream(
            chunks, chunk_records=chunk_records, num_chunks=num_chunks
        )
        ds.shuffle().apply("mask", lo=2 * 10**5).sort().run(optimize)
        return session.machine.trace.fingerprint()


def interleaved_tenant_fingerprints(
    chunks_a,
    chunks_b,
    *,
    seed_a: int = SEED,
    seed_b: int = SEED + 1,
    backend: str = "memory",
) -> tuple[str, str]:
    """Run tenant A's and tenant B's streamed chains interleaved through
    one :class:`~repro.service.ObliviousService` batch over shared
    storage; returns both tenants' full machine-trace fingerprints."""
    from repro.service import ObliviousService

    cfg = EMConfig(M=64, B=4, backend=backend)
    with ObliviousService(cfg) as svc:
        sess_a = svc.session("tenant-a", seed=seed_a)
        sess_b = svc.session("tenant-b", seed=seed_b)
        plan_a = (
            sess_a.stream(chunks_a)
            .shuffle()
            .apply("mask", lo=2 * 10**5)
            .sort()
            .plan()
        )
        plan_b = (
            sess_b.stream(chunks_b)
            .shuffle()
            .apply("mask", lo=2 * 10**5)
            .sort()
            .plan()
        )
        svc.run_batch(
            [("a", "tenant-a", plan_a), ("b", "tenant-b", plan_b)]
        )
        return (
            sess_a.machine.trace.fingerprint(),
            sess_b.machine.trace.fingerprint(),
        )


# ---------------------------------------------------------------------------
# ORAM-layer harness: the adversary view of raw read/write/dummy sequences
# ---------------------------------------------------------------------------
#
# Both ORAM backends give the paper's *distributional* guarantee: the
# store-probe path tracks the searched tag's rank, and tags are a PRF of
# the logical index under the epoch (square-root) or per-level
# (hierarchical) key, so at a FIXED seed two different index sequences
# produce different (identically distributed) probe positions —
# full-transcript bit-equality across index sequences is
# information-theoretically unavailable for any scheme that probes
# per-index positions.  What IS bitwise-invariant, and what these helpers
# pin for either backend, is everything else:
#
# * the transcript *shape* — the (op, array) event sequence, event count
#   included — is a fixed function of (n, backend geometry, schedule
#   length) across arbitrary index/value/op-kind choices, rebuild/merge
#   epochs and all (rebuild segments are bit-identical including
#   indices, being fixed scans and oblivious sorts);
# * the *full* transcript, indices included, across data values and
#   read/write/update op kinds at a fixed index schedule — the probe path
#   never depends on what is stored or which kind of access runs;
# * the fixed-length ``_probe`` binary-search schedule: every access pays
#   exactly ``ilog2(store slots) + 2`` meta probes and one payload read
#   per probed store (the shelter+main store for square-root; every
#   occupied level for hierarchical), found-early or not.
#
# (The distributional half — probe positions across seeds — is pinned by
# the KS test in ``tests/test_oram.py``.)


def oram_transcript(
    n: int,
    schedule,
    *,
    M: int = 2048,
    B: int = 4,
    seed: int = SEED,
    shelter_factor: int = 1,
    backend: str = "square_root",
):
    """Run ``schedule`` against a fresh ORAM of the given ``backend``.

    ``schedule`` is a sequence of ``("read", i)``, ``("write", i, v)``,
    ``("update", i)`` or ``("dummy",)`` ops.  Returns ``(machine, oram,
    events)`` where ``events`` is the post-construction transcript as an
    ``(k, 3)`` array of (op, array_id, index) rows.  ``shelter_factor``
    only shapes the square-root backend (see :func:`repro.oram.make_oram`).
    """
    from repro.em.block import NULL_KEY
    from repro.em.machine import EMMachine
    from repro.oram import make_oram

    machine = EMMachine(M=M, B=B)
    oram = make_oram(
        backend,
        machine,
        n,
        np.random.default_rng(seed),
        shelter_factor=shelter_factor,
    )
    start = len(machine.trace)
    for op in schedule:
        if op[0] == "read":
            oram.read(op[1])
        elif op[0] == "write":
            blk = np.zeros((B, 2), dtype=np.int64)
            blk[:, 0] = NULL_KEY
            blk[0, 0] = op[2]
            oram.write(op[1], blk)
        elif op[0] == "update":
            oram.update(op[1], lambda b: b + 1)
        elif op[0] == "dummy":
            oram.dummy_op()
        else:  # pragma: no cover - harness misuse
            raise ValueError(f"unknown ORAM op {op[0]!r}")
    return machine, oram, machine.trace.as_array()[start:]


def oram_probe_counts(n: int, accesses: int, **kwargs) -> tuple[int, int]:
    """(store-meta reads, store-payload reads) per access, measured over
    ``accesses`` reads inside one epoch (no rebuild/merge in the window).

    The store is the union of the backend's tag-sorted ``stores`` (the
    square-root backend has one; for the hierarchical backend only level
    L is occupied before the first merge, so the window probes exactly
    that store)."""
    machine, oram, events = oram_transcript(
        n, [("read", t % n) for t in range(accesses)], **kwargs
    )
    if oram.rebuilds:
        raise ValueError("probe-count window must stay inside an epoch")
    meta_ids = {st.meta.array_id for st in oram.stores}
    payload_ids = {st.payload.array_id for st in oram.stores}
    reads = events[events[:, 0] == 0]
    meta = int(np.count_nonzero(np.isin(reads[:, 1], list(meta_ids))))
    payload = int(np.count_nonzero(np.isin(reads[:, 1], list(payload_ids))))
    return meta // accesses, payload // accesses


def assert_oram_shape_invariant(n: int, schedules, **kwargs) -> None:
    """All equal-length ``schedules`` must produce the identical
    (op, array) event sequence — arbitrary indices, values, op kinds."""
    shapes = set()
    for schedule in schedules:
        _, _, events = oram_transcript(n, schedule, **kwargs)
        shapes.add(events[:, :2].tobytes())
    if len(shapes) != 1:
        raise ObliviousnessViolation(
            f"ORAM transcript shape leaked the access sequence: {len(shapes)} "
            f"distinct shapes over {len(schedules)} same-length schedules"
        )


def assert_oram_bitwise_invariant(n: int, schedules, **kwargs) -> None:
    """All ``schedules`` sharing one index sequence (only values and
    read/write/update kinds differ) must produce bit-identical
    transcripts, indices included."""
    views = set()
    for schedule in schedules:
        machine, _, _ = oram_transcript(n, schedule, **kwargs)
        views.add(machine.trace.fingerprint())
    if len(views) != 1:
        raise ObliviousnessViolation(
            f"ORAM transcript leaked values or op kinds: {len(views)} distinct "
            f"views over {len(schedules)} same-index schedules"
        )
