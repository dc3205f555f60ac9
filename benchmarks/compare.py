#!/usr/bin/env python
"""Diff two benchmark artifact directories (cross-PR comparison).

``run_all.py --json DIR`` writes one ``BENCH_<algo>.json`` per registered
algorithm plus ``BENCH_pipeline.json``; CI uploads them per run.  This
tool diffs two such directories — typically the previous main-branch
run's artifacts against the current one — and prints per-algorithm
deltas for the tracked metrics (block I/Os, wall time, Las Vegas
attempts, batch efficiency, and the pipeline's optimizer savings)::

    python benchmarks/compare.py old-artifacts/ new-artifacts/

Exit code is 0 unless ``--fail-on-regression`` is given *and* some
metric regressed by more than ``--threshold`` percent — CI wires it as a
non-blocking step (wall time on shared runners is noisy; modeled I/O
counts are deterministic, so an I/O regression is always worth reading).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Metrics diffed per artifact — wall time is noisy across runners,
#: modeled I/Os are deterministic.
METRICS = ("total_ios", "wall_seconds", "attempts", "mean_batch_size")
PIPELINE_METRICS = (
    "total_ios",
    "optimized_total_ios",
    "pipeline_round_trips",
    "pipeline_wall_seconds",
    "optimized_wall_seconds",
)
ORAM_METRICS = (
    "total_ios",
    "wall_seconds",
    "peel_constant_per_r15",
    "sqrt_amortized_ios_per_access",
    "hier_amortized_ios_per_access",
)
SERVICE_METRICS = (
    "streamed_total_ios",
    "one_shot_total_ios",
    "streamed_peak_upload_records",
    "streamed_round_trips",
    "streamed_wall_seconds",
    "batch_shared_rounds",
    "batch_reduction",
    "batch_wall_seconds",
)
QUERY_METRICS = (
    "total_ios",
    "join_ios",
    "group_by_ios",
    "join_est_ratio",
    "group_by_est_ratio",
    "attempts",
    "wall_seconds",
)
LINT_METRICS = (
    "expected_findings",
    "unexpected_findings",
    "pragmas",
    "lint_public_entries",
    "wall_seconds",
)
#: Artifacts with their own metric tables; everything else uses METRICS.
#: A metric missing on either side (schema drift between PRs, or a brand
#: new artifact like BENCH_oram.json on its first compare) is reported as
#: a note, never an error.
ARTIFACT_METRICS = {
    "pipeline": PIPELINE_METRICS,
    "oram": ORAM_METRICS,
    "service": SERVICE_METRICS,
    "query": QUERY_METRICS,
    "lint": LINT_METRICS,
}
#: Deterministic metrics: any worsening is flagged regardless of threshold.
EXACT = {
    "total_ios",
    "optimized_total_ios",
    "pipeline_round_trips",
    "attempts",
    "peel_constant_per_r15",
    "sqrt_amortized_ios_per_access",
    "hier_amortized_ios_per_access",
    "streamed_total_ios",
    "one_shot_total_ios",
    "streamed_peak_upload_records",
    "streamed_round_trips",
    "batch_shared_rounds",
    "join_ios",
    "group_by_ios",
    "unexpected_findings",
}
#: Metrics where a *larger* value is the good direction (batch quality).
HIGHER_IS_BETTER = {"mean_batch_size", "batch_reduction"}


def load_dir(path: Path, notes: list[str] | None = None) -> dict[str, dict]:
    """``{artifact name: parsed json}`` for every BENCH_*.json in ``path``.

    Unreadable or non-object artifacts are skipped with a note — a
    corrupt upload from one CI run must not kill every future compare
    against it."""
    out = {}
    for f in sorted(path.glob("BENCH_*.json")):
        try:
            payload = json.loads(f.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            if notes is not None:
                notes.append(f"unreadable artifact {f.name}: {exc}")
            continue
        if not isinstance(payload, dict):
            if notes is not None:
                notes.append(f"malformed artifact {f.name}: not a JSON object")
            continue
        out[f.stem.removeprefix("BENCH_")] = payload
    return out


def diff_artifacts(
    old: dict[str, dict], new: dict[str, dict], threshold_pct: float = 10.0
) -> tuple[list[list], list[str]]:
    """Rows of ``[name, metric, old, new, delta%]`` plus regression notes.

    Only artifacts present on both sides are compared; additions and
    removals are reported as notes, not regressions (new algorithms and
    retired ones are normal PR traffic)."""
    rows: list[list] = []
    notes: list[str] = []
    for name in sorted(set(old) | set(new)):
        if name not in old:
            notes.append(f"new artifact: {name}")
            continue
        if name not in new:
            notes.append(f"removed artifact: {name}")
            continue
        metrics = ARTIFACT_METRICS.get(name, METRICS)
        for metric in metrics:
            a, b = old[name].get(metric), new[name].get(metric)
            if a is None or b is None:
                if a != b:
                    notes.append(f"{name}.{metric}: {a} → {b} (metric added/removed)")
                continue
            if not all(isinstance(v, (int, float)) for v in (a, b)):
                notes.append(
                    f"{name}.{metric}: non-numeric values {a!r} → {b!r} (skipped)"
                )
                continue
            delta = (b - a) / a * 100.0 if a else (0.0 if b == a else float("inf"))
            rows.append([name, metric, a, b, delta])
            worsened = b < a if metric in HIGHER_IS_BETTER else b > a
            worse = worsened and (metric in EXACT or abs(delta) > threshold_pct)
            if worse:
                notes.append(
                    f"REGRESSION {name}.{metric}: {a} → {b} ({delta:+.1f}%)"
                )
    return rows, notes


def render(rows: list[list]) -> str:
    header = ["algorithm", "metric", "old", "new", "delta"]
    fmt_rows = [
        [
            r[0],
            r[1],
            f"{r[2]:.4g}" if isinstance(r[2], float) else str(r[2]),
            f"{r[3]:.4g}" if isinstance(r[3], float) else str(r[3]),
            f"{r[4]:+.1f}%",
        ]
        for r in rows
    ]
    widths = [
        max(len(header[i]), max((len(r[i]) for r in fmt_rows), default=0))
        for i in range(5)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("-" * (sum(widths) + 8))
    for r in fmt_rows:
        lines.append("  ".join(c.rjust(w) if i >= 2 else c.ljust(w)
                               for i, (c, w) in enumerate(zip(r, widths))))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="baseline artifact directory")
    parser.add_argument("new", type=Path, help="candidate artifact directory")
    parser.add_argument(
        "--threshold", type=float, default=10.0,
        help="percent change flagged as a regression for noisy metrics "
        "(deterministic ones — I/Os, attempts, round trips — flag on any "
        "increase)",
    )
    parser.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 1 when a regression is flagged (default: report only)",
    )
    args = parser.parse_args(argv)
    for d in (args.old, args.new):
        if not d.is_dir():
            print(f"compare: {d} is not a directory", file=sys.stderr)
            return 2
    load_notes: list[str] = []
    old, new = load_dir(args.old, load_notes), load_dir(args.new, load_notes)
    if not old or not new:
        for note in load_notes:
            print(note)
        print(
            f"compare: nothing to diff ({len(old)} baseline / "
            f"{len(new)} candidate artifacts)"
        )
        return 0
    rows, notes = diff_artifacts(old, new, args.threshold)
    notes = load_notes + notes
    print(render(rows))
    if notes:
        print()
        for note in notes:
            print(note)
    regressions = [n for n in notes if n.startswith("REGRESSION")]
    print(
        f"\n{len(rows)} metric(s) compared, {len(regressions)} regression(s)"
    )
    return 1 if regressions and args.fail_on_regression else 0


if __name__ == "__main__":
    sys.exit(main())
