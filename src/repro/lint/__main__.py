"""CLI for the static obliviousness linter.

Exit status: 0 when clean (strict mode additionally requires the
expected merge-sort baseline findings to still fire — their absence
means the analyzer regressed, not that the baseline became oblivious);
1 on unexpected findings; 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.findings import RULES
from repro.lint.runner import run_lint


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Static obliviousness linter (taint, spec "
        "conformance).",
    )
    parser.add_argument(
        "root",
        nargs="?",
        default=None,
        help="package directory to analyze (default: the installed "
        "repro package)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on any unexpected finding or if the expected "
        "baseline findings disappear",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report on stdout",
    )
    parser.add_argument(
        "--rules",
        action="store_true",
        help="list rule IDs and exit",
    )
    args = parser.parse_args(argv)

    if args.rules:
        for rule, text in sorted(RULES.items()):
            print(f"{rule}: {text}")
        return 0

    root = Path(args.root).resolve() if args.root else None
    report = run_lint(root)

    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        for f in report.findings:
            print(f.format())
        print(
            f"-- {len(report.findings)} finding(s): "
            f"{len(report.expected)} expected, "
            f"{len(report.unexpected)} unexpected; "
            f"{report.pragma_count} pragma(s), "
            f"{report.lint_public_count} lint_public entr(ies)."
        )

    if args.strict:
        if report.unexpected:
            print(
                f"strict: {len(report.unexpected)} unexpected finding(s)",
                file=sys.stderr,
            )
            return 1
        if not report.merge_sort_flagged():
            print(
                "strict: expected merge-sort baseline findings are gone — "
                "the analyzer lost its teeth",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
