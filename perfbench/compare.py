#!/usr/bin/env python3
"""Compare two sets of ``perfbench/run.py`` results, workload by metric.

Each side is an ``e2e.json`` written by ``run.py --workload all --out
DIR`` (pass the file or its directory).  Given one side, it is compared
against the committed baseline, ``perfbench/baseline/e2e.json``::

    python3 perfbench/run.py --workload all --seed 11 --out /tmp/new
    python3 perfbench/compare.py /tmp/new              # against the baseline
    python3 perfbench/compare.py old/ new/

One row per workload x metric: the median of each side's runs, the
change, and for end-to-end metrics a verdict against the bound in
``BENCHMARK.json``.  End-to-end counts are deterministic, so any change
to them is flagged.  Per-layer metrics have no bound and are listed for
attribution only.  Exit code 1 with ``--fail-on-regression`` when an
end-to-end metric got worse than its bound allows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline" / "e2e.json"


def load(path: Path) -> dict:
    if path.is_dir():
        path = path / "e2e.json"
    return json.loads(path.read_text())


def medians(results: dict) -> dict[tuple[str, str], float]:
    """``(workload, metric) -> median`` over every run that reports it."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in results["runs"]:
        for metric, m in run["result"]["metrics"].items():
            values.setdefault((run["workload"], metric), []).append(m["value"])
    return {key: statistics.median(vals) for key, vals in values.items()}


def verdict(metric: dict, old: float, new: float) -> str:
    """``ok``, ``worse`` or ``better``: beyond the metric's bound, or for
    an end-to-end count, by any change at all."""
    if new == old:
        return "ok"
    if not old:
        return "n/a"
    change = (new - old) / old
    if metric["better"] == "higher":
        change = -change
    bound = 0.0 if metric["unit"] == "count" else metric["bound"]
    if change > bound:
        return "worse"
    return "better" if change < -bound else "ok"


def compare(old: dict, new: dict, spec: dict) -> tuple[list[list[str]], list[str]]:
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    order = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    a, b = medians(old), medians(new)
    rows, flagged = [], []
    for key in sorted(set(a) | set(b), key=lambda k: (k[0], order.index(k[1]) if k[1] in order else len(order))):
        workload, name = key
        if key not in a or key not in b:
            rows.append([workload, name, _fmt(a.get(key)), _fmt(b.get(key)), "", "", "only one side"])
            continue
        delta = f"{(b[key] - a[key]) / a[key]:+.1%}" if a[key] else ""
        if name in e2e:
            v = verdict(e2e[name], a[key], b[key])
            if v == "worse":
                flagged.append(f"{workload} {name}: {_fmt(a[key])} -> {_fmt(b[key])}")
            rows.append([workload, name, _fmt(a[key]), _fmt(b[key]), delta, f"{e2e[name]['bound']:.1%}", v])
        else:
            rows.append([workload, name, _fmt(a[key]), _fmt(b[key]), delta, "", ""])
    return rows, flagged


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.5g}"


def render(rows: list[list[str]]) -> str:
    header = ["workload", "metric", "old", "new", "change", "bound", "verdict"]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    return "\n".join(
        "  ".join(c.ljust(w) if i < 2 else c.rjust(w) for i, (c, w) in enumerate(zip(r, widths)))
        for r in [header] + rows
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sides", nargs="+", type=Path, metavar="RESULTS",
                        help="NEW (against the baseline) or OLD NEW")
    parser.add_argument("--fail-on-regression", action="store_true")
    args = parser.parse_args(argv)
    if len(args.sides) > 2:
        parser.error("give one or two result sets")
    old_path, new_path = ([BASELINE] + args.sides)[-2:]
    old, new = load(old_path), load(new_path)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if old["meta"] != new["meta"]:
        print(f"note: different environments: {old['meta']} vs {new['meta']}\n")
    rows, flagged = compare(old, new, spec)
    print(render(rows))
    print()
    for line in flagged:
        print(f"REGRESSION {line}")
    print(f"{len(rows)} rows, {len(flagged)} end-to-end regression(s)")
    return 1 if flagged and args.fail_on_regression else 0


if __name__ == "__main__":
    sys.exit(main())
