"""Integer math helpers used throughout the library.

The paper's bounds are stated in terms of ``N/B``, ``M/B``, ``log_{M/B}``,
``log*`` and the tower-of-twos sequence (Appendix B); this module provides
exact integer versions of all of them.
"""

from __future__ import annotations

import math

__all__ = [
    "ceil_div",
    "ilog2",
    "is_pow2",
    "log_base",
    "log_star",
    "next_pow2",
    "tower_of_twos",
]


def ceil_div(a: int, b: int) -> int:
    """Return ``ceil(a / b)`` for non-negative integers without float error."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    if a < 0:
        raise ValueError(f"dividend must be non-negative, got {a}")
    return -(-a // b)


def is_pow2(n: int) -> bool:
    """Return True iff ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def next_pow2(n: int) -> int:
    """Return the smallest power of two that is >= ``n`` (and >= 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def ilog2(n: int) -> int:
    """Return ``floor(log2(n))`` for a positive integer ``n``."""
    if n <= 0:
        raise ValueError(f"ilog2 requires a positive integer, got {n}")
    return n.bit_length() - 1


def log_base(n: float, base: float) -> float:
    """Return ``log_base(n)``, clamped below by 1.0.

    The paper's I/O bounds always appear as ``(N/B) * log_{M/B}(N/B)`` where
    the log factor is at least one; clamping keeps fitted complexity curves
    well-behaved when ``n <= base``.
    """
    if n <= 1:
        return 1.0
    if base <= 1:
        raise ValueError(f"log base must exceed 1, got {base}")
    return max(1.0, math.log(n) / math.log(base))


def log_star(n: float) -> int:
    """Return the iterated logarithm ``log*`` of ``n``.

    ``log_star(n)`` is the number of times ``log2`` must be applied
    before the value drops to <= 1.  Used by Theorem 9's
    ``O((N/B) log*(N/B))`` loose-compaction bound.
    """
    count = 0
    x = float(n)
    while x > 1.0:
        x = math.log(x) / math.log(2.0)
        count += 1
        if count > 64:  # unreachable for any physical input
            raise OverflowError("log_star failed to converge")
    return count


def tower_of_twos(i: int) -> int:
    """Return ``t_i`` from Appendix B: ``t_1 = 2**2`` and ``t_{i+1} = 2**t_i``.

    Only tiny indices are ever needed (the sequence reaches 2**65536 at
    ``i = 4``); larger indices raise ``OverflowError`` so callers notice
    loops that failed to terminate.
    """
    if i < 1:
        raise ValueError(f"tower index must be >= 1, got {i}")
    t = 4  # t_1 = 2**2
    for _ in range(i - 1):
        if t > 4096:
            raise OverflowError(f"tower_of_twos({i}) exceeds any usable size")
        t = 2**t
    return t
