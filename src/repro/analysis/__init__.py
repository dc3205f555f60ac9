"""Analytical I/O estimates from the paper's bounds."""

from repro.analysis.bounds import IOBound, PAPER_BOUNDS, estimate_ios

__all__ = [
    "IOBound",
    "PAPER_BOUNDS",
    "estimate_ios",
]
