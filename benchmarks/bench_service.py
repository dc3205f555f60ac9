"""Streaming uploads and the multi-tenant service: what serving costs.

Two questions a deployment asks of the service layer, measured:

* **streamed vs one-shot upload** — the same sort, once with the whole
  input uploaded in one ``load_records`` call and once streamed as
  mini-batch chunks.  The server-side I/O is byte-identical (the chunked
  load emits the same single allocation and the executor replays the
  same access pattern), so the price of bounding the client's resident
  set to one chunk is only the extra client→server round trips — one
  per chunk.
* **cross-session batching** — four sessions running concurrently under
  :class:`repro.service.ObliviousService`.  Each session's serialized
  trace is its solo trace, but the service coalesces compatible
  round-robin rounds across sessions, so the measured shared round
  count drops well below the back-to-back sum (≈4x fewer turnarounds
  for four look-alike sessions).

``run_all.py`` calls :func:`run_service_benchmark` to print both; the
``bench_service_*`` targets pin their exact figures.
"""

from __future__ import annotations

import numpy as np

from repro.api import EMConfig, ObliviousSession
from repro.service import ObliviousService, ServiceLimits


def _records(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.permutation(n), rng.integers(0, 10**6, size=n)], axis=1
    ).astype(np.int64)


def _chunks(recs: np.ndarray, size: int) -> list[np.ndarray]:
    return [recs[i : i + size] for i in range(0, len(recs), size)]


def measure_streaming(
    n: int, chunk_records: int, config: EMConfig, seed: int
) -> dict:
    """One-shot vs streamed upload of the same sort; asserts the two are
    byte-identical in output and full transcript before reporting."""
    recs = _records(n, seed)
    with ObliviousSession(config, seed=seed) as one_shot:
        r1 = one_shot.dataset(recs).sort().run()
        fp1 = one_shot.machine.trace.fingerprint()
        one_peak = one_shot.machine.peak_upload_records

    with ObliviousSession(config, seed=seed) as streamed:
        r2 = streamed.stream(_chunks(recs, chunk_records)).sort().run()
        fp2 = streamed.machine.trace.fingerprint()
        stream_peak = streamed.machine.peak_upload_records
        round_trips = streamed.machine.client_loads

    assert np.array_equal(r1.records, r2.records), "streamed sort diverged"
    assert fp1 == fp2, "streaming changed the adversary view"
    assert stream_peak <= chunk_records, "client staged more than one chunk"
    return {
        "one_shot_total_ios": r1.total.total,
        "streamed_total_ios": r2.total.total,
        "one_shot_peak_upload_records": one_peak,
        "streamed_peak_upload_records": stream_peak,
        "streamed_round_trips": round_trips,
    }


def measure_batching(
    n: int, chunk_records: int, config: EMConfig, seed: int, sessions: int = 4
) -> dict:
    """Cross-session round coalescing at ``sessions`` concurrent streamed
    sorts under one service."""
    with ObliviousService(
        config,
        limits=ServiceLimits(max_concurrent_plans=sessions),
        seed=seed,
    ) as svc:
        subs = []
        for i in range(sessions):
            sess = svc.session(f"tenant-{i}", seed=seed + i)
            recs = _records(n, seed + 100 + i)
            plan = (
                sess.stream(_chunks(recs, chunk_records))
                .shuffle()
                .sort()
                .plan()
            )
            subs.append((f"s{i}", f"tenant-{i}", plan))
        results, report = svc.run_batch(subs)
        assert len(results) == sessions
    assert report.shared_rounds < report.solo_rounds, (
        "cross-session batching saved nothing"
    )
    return {
        "batch_sessions": sessions,
        "batch_solo_rounds": report.solo_rounds,
        "batch_shared_rounds": report.shared_rounds,
        "batch_reduction": report.reduction,
    }


def run_service_benchmark(smoke: bool, config: EMConfig, seed: int) -> int:
    """Measure and print both service questions; returns the failure
    count for run_all."""
    n, chunk = (256, 64) if smoke else (1024, 128)
    try:
        streaming = measure_streaming(n, chunk, config, seed)
        batching = measure_batching(n // 2, chunk, config, seed)
        print(
            f"\nservice: streamed sort n={n} in {len(_chunks(_records(n, seed), chunk))} "
            f"chunks — same {streaming['streamed_total_ios']} I/Os as one-shot, "
            f"peak client records {streaming['streamed_peak_upload_records']} "
            f"vs {streaming['one_shot_peak_upload_records']}; "
            f"{batching['batch_sessions']} batched sessions: "
            f"{batching['batch_solo_rounds']} solo → "
            f"{batching['batch_shared_rounds']} shared rounds "
            f"({100 * batching['batch_reduction']:.1f}% fewer turnarounds)"
        )
        return 0
    except Exception as exc:  # noqa: BLE001 - report, then fail the run
        print(f"\nservice benchmark FAILED: {exc}")
        return 1


# -- pytest-benchmark entry points (run with `pytest benchmarks/`) ----------

_CONFIG = EMConfig(M=128, B=4, trace=True)


#: Exact figures at chunk 64, seed 0: ``n -> (I/Os of either upload,
#: streamed round trips, streamed peak upload records)``.
STREAMING_PINS = {256: (13877, 4, 64), 512: (61068, 8, 64)}


def bench_service_streaming(capsys):
    rows = []
    for n, pin in STREAMING_PINS.items():
        m = measure_streaming(n, 64, _CONFIG, seed=0)
        assert m["one_shot_total_ios"] == m["streamed_total_ios"]
        row = (
            m["streamed_total_ios"],
            m["streamed_round_trips"],
            m["streamed_peak_upload_records"],
        )
        assert row == pin, n
        rows.append([n, *row])
    with capsys.disabled():
        print()
        print(
            "streamed upload — identical I/Os, peak client residency = one chunk"
        )
        for row in rows:
            print("  n={} ios={} round_trips={} peak={}".format(*row))


def bench_service_batching(capsys):
    m = measure_batching(256, 64, _CONFIG, seed=0)
    with capsys.disabled():
        print()
        print(
            f"cross-session batching — {m['batch_sessions']} sessions, "
            f"{m['batch_solo_rounds']} solo → {m['batch_shared_rounds']} "
            f"shared rounds ({100 * m['batch_reduction']:.1f}% reduction)"
        )
    assert (m["batch_solo_rounds"], m["batch_shared_rounds"]) == (22700, 5675)
    assert m["batch_reduction"] > 0.5
