"""Lint orchestration: build the project model, run the two passes.

The report scope (where Pass-1 findings are *emitted*) is narrower
than the parse scope (everything under ``src/repro``, so summaries
exist for helpers like ``em/batch.py``): algorithm code in ``core/``,
``networks/``, ``oram/``, ``iblt/``, ``relational/``, ``baselines/``
and the registry.  Findings in ``baselines/`` are the expected,
asserted-on list — the whole point of the external merge-sort baseline
is that its I/O sequence is data-dependent — and strict mode fails
only on findings outside it (or if the expected merge-sort findings
ever disappear, which would mean the analyzer lost its teeth).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.conformance import check_specs
from repro.lint.findings import Finding
from repro.lint.model import Project
from repro.lint.taint import analyze_function, compute_summaries

__all__ = ["LintReport", "run_lint"]

#: Dotted-module prefixes where Pass 1 emits findings.
REPORT_SCOPE = (
    "repro.core",
    "repro.networks",
    "repro.oram",
    "repro.iblt",
    "repro.relational",
    "repro.baselines",
    "repro.api.registry",
)

#: Dotted-module prefixes whose findings are the expected baseline.
EXPECTED_SCOPE = ("repro.baselines",)


@dataclass
class LintReport:
    findings: list[Finding] = field(default_factory=list)
    pragma_count: int = 0
    lint_public_count: int = 0
    summary_rounds: int = 0

    @property
    def expected(self) -> list[Finding]:
        return [f for f in self.findings if f.expected]

    @property
    def unexpected(self) -> list[Finding]:
        return [f for f in self.findings if not f.expected]

    def rule_counts(self) -> dict[str, int]:
        return dict(Counter(f.rule for f in self.findings))

    def merge_sort_flagged(self) -> bool:
        return any(
            "external_merge_sort" in f.path and f.rule.startswith("OBL")
            for f in self.expected
        )

    def strict_ok(self) -> bool:
        return not self.unexpected and self.merge_sort_flagged()

    def as_dict(self) -> dict:
        return {
            "rule_counts": self.rule_counts(),
            "expected": len(self.expected),
            "unexpected": len(self.unexpected),
            "pragmas": self.pragma_count,
            "lint_public_entries": self.lint_public_count,
            "summary_rounds": self.summary_rounds,
            "merge_sort_flagged": self.merge_sort_flagged(),
            "findings": [f.as_dict() for f in self.findings],
        }


def _in_scope(dotted: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        dotted == p or dotted.startswith(p + ".") for p in prefixes
    )


def _registry_metadata() -> tuple[frozenset, int, dict]:
    """Import the registry for spec objects + lint_public sanitizers.

    Returns ``(extra_public_names, lint_public_entry_count, specs)``.
    Import failures degrade to a pure-static run rather than crashing
    the linter.
    """
    try:
        from repro.api import registry
    except Exception:
        return frozenset(), 0, {}
    specs = {name: registry.get(name) for name in registry.names()}
    names: set[str] = set()
    count = 0
    for spec in specs.values():
        for entry in getattr(spec, "lint_public", ()) or ():
            count += 1
            expr = entry[0] if isinstance(entry, tuple) else entry
            names.add(str(expr).split(".")[0])
    return frozenset(names), count, specs


def run_lint(
    root: Path | None = None,
    *,
    spec_pass: bool = True,
) -> LintReport:
    if root is None:
        root = Path(__file__).resolve().parents[1]
    report = LintReport()
    project = Project()
    project.add_tree(root)
    project.finalize()
    report.summary_rounds = compute_summaries(project)

    extra_public, lint_public_count, specs = _registry_metadata()
    report.lint_public_count = lint_public_count

    findings: list[Finding] = []
    report_mods = [
        m for m in project.modules.values() if _in_scope(m.dotted, REPORT_SCOPE)
    ]
    for mod in report_mods:
        public = extra_public if mod.dotted == "repro.api.registry" else frozenset()
        for func in mod.functions.values():
            _, fnd = analyze_function(
                func, project, report=True, extra_public=public
            )
            findings.extend(fnd)
        findings.extend(mod.pragmas.errors)
        report.pragma_count += len(mod.pragmas.by_line)

    if spec_pass and specs:
        findings.extend(check_specs(project, specs))

    # Unused-pragma findings come last: every pass above may mark use.
    for mod in report_mods:
        findings.extend(mod.pragmas.unused_findings())

    # Deduplicate (the same sink can be reported through two call
    # chains) and mark the expected baseline.
    seen: set[tuple] = set()
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.message)):
        key = (f.rule, f.path, f.line, f.message)
        if key in seen:
            continue
        seen.add(key)
        expected = "/baselines/" in f.path or f.path.startswith("repro/baselines")
        if expected and f.rule.startswith("OBL") and f.rule not in ("OBL104", "OBL105"):
            f = Finding(
                rule=f.rule,
                path=f.path,
                line=f.line,
                message=f.message,
                chain=f.chain,
                expected=True,
            )
        report.findings.append(f)
    return report
