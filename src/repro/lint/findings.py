"""Finding and rule definitions for the static obliviousness linter.

Every rule has a stable ID so CI baselines, pragmas and the JSON
artifact can refer to findings without depending on message wording.
Rule families mirror the two analysis passes:

* ``OBL1xx`` — Pass 1, taint/obliviousness (:mod:`repro.lint.taint`);
* ``SPEC2xx`` — Pass 2, :class:`~repro.api.registry.AlgorithmSpec`
  conformance (:mod:`repro.lint.conformance`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Finding", "RULES"]

#: Rule ID -> one-line description (the linter's vocabulary).
RULES: dict[str, str] = {
    "OBL101": "data-tainted branch condition guards observable effects "
    "(I/O, allocation, or an abort)",
    "OBL102": "data-tainted expression used as an index, range, length or "
    "array operand of an I/O or allocation call",
    "OBL103": "data-tainted loop bound or iterable guards observable effects",
    "OBL104": "malformed oblint pragma or missing justification string",
    "OBL105": "unused oblint pragma (matched no finding and sanitized "
    "no assignment)",
    "SPEC201": "runner mutates its input array but the spec declares "
    "in_place=False",
    "SPEC202": "spec declares in_place=True but the runner never writes "
    "its input array",
    "SPEC203": "spec declares randomized=False but a LasVegasFailure raise "
    "is reachable from the runner",
    "SPEC204": "spec declares randomized=False (and not draws_randomness) "
    "but the runner draws from the per-attempt RNG",
    "SPEC205": "spec declares oblivious=True but the runner's reachable "
    "code has Pass-1 taint findings",
    "SPEC206": "scan_kernel is impure: it mutates its input blocks "
    "or performs machine I/O",
    "SPEC207": "spec declares null_tolerant=False, is reachable from padded "
    "layouts via a null-tolerant spec's variants, yet never tests "
    "the NULL sentinel",
    "SPEC208": "spec lint_public metadata entry carries no justification",
}


@dataclass(frozen=True)
class Finding:
    """One linter finding.

    ``chain`` is the taint chain (or call chain) that led to the
    finding, innermost origin first — e.g. ``("payload read at
    external_merge_sort.py:80", "heap")``.  ``expected`` marks findings
    the repo deliberately keeps (the non-oblivious baselines); strict
    mode fails only on unexpected findings.
    """

    rule: str
    path: str
    line: int
    message: str
    chain: tuple[str, ...] = field(default_factory=tuple)
    expected: bool = False

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown rule ID {self.rule!r}")

    def format(self) -> str:
        tag = " [expected]" if self.expected else ""
        text = f"{self.path}:{self.line}: {self.rule}{tag} {self.message}"
        if self.chain:
            text += f"  (chain: {' -> '.join(self.chain)})"
        return text

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "chain": list(self.chain),
            "expected": self.expected,
        }
