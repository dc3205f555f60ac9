"""Static obliviousness linter for the reproduction codebase.

Two passes over the algorithm sources, complementing the *dynamic*
adversary-view harness (which can only witness violations its sampled
inputs happen to trigger):

1. taint/obliviousness — no machine payload value may influence the
   I/O sequence (:mod:`repro.lint.taint`);
2. AlgorithmSpec conformance — declared spec flags must match runner
   source (:mod:`repro.lint.conformance`).

Run with ``python -m repro.lint [--strict] [--json]``.
"""

from repro.lint.findings import RULES, Finding
from repro.lint.runner import LintReport, run_lint

__all__ = ["Finding", "LintReport", "RULES", "run_lint"]
