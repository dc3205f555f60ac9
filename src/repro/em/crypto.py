"""Simulated semantically-secure re-encryption.

The paper assumes block contents are encrypted under a semantically secure
scheme "such that re-encryption of the same value is indistinguishable from
an encryption of a different value" (§1).  We do not need real cryptography
to reproduce the algorithmic claims; what matters is the *information
available to Bob*: for every write he sees only that a fresh ciphertext
replaced the old one, never whether the plaintext changed.

``CiphertextVersions`` models this by assigning every block a monotonically
increasing opaque version on each write.  The invariant enforced (and
tested) is that the version sequence is a deterministic function of the
write *pattern*, never of the written *values* — i.e. the simulated
ciphertexts leak nothing beyond the trace itself.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CiphertextVersions"]


class CiphertextVersions:
    """Per-block opaque ciphertext version counters for one array.

    One shared clock advances once per write, so after any sequence of
    ``reencrypt*`` calls the clock equals the array's total write count
    and each block holds the clock value of its last write.
    """

    __slots__ = ("_versions", "_clock")

    def __init__(self, num_blocks: int) -> None:
        if num_blocks < 0:
            raise ValueError(f"num_blocks must be non-negative, got {num_blocks}")
        self._versions = np.zeros(num_blocks, dtype=np.int64)
        self._clock = 0

    def reencrypt(self, index: int) -> int:
        """Record that block ``index`` was overwritten with a fresh ciphertext.

        Returns the new version.  Called on *every* write — including
        writes that put back unchanged plaintext, which is precisely how
        the algorithms hide whether a cell was modified (e.g. the IBLT
        insertion pass of Theorem 4).
        """
        self._clock += 1
        self._versions[index] = self._clock
        return self._clock

    def reencrypt_many(self, indices: np.ndarray) -> None:
        """Record a fresh ciphertext for every index, in sequence order.

        Equivalent to calling :meth:`reencrypt` once per entry of
        ``indices``: the clock advances by ``len(indices)`` and duplicate
        indices keep the version of their *last* write.
        """
        indices = np.asarray(indices, dtype=np.int64).ravel()
        k = len(indices)
        if k == 0:
            return
        self._versions[indices] = np.arange(
            self._clock + 1, self._clock + k + 1, dtype=np.int64
        )
        self._clock += k

    def reencrypt_range(self, lo: int, hi: int) -> None:
        """:meth:`reencrypt_many` for the range ``[lo, hi)``."""
        k = hi - lo
        if k <= 0:
            return
        self._versions[lo:hi] = np.arange(
            self._clock + 1, self._clock + k + 1, dtype=np.int64
        )
        self._clock += k

    def version(self, index: int) -> int:
        """Return the current version of block ``index`` (adversary-visible)."""
        return int(self._versions[index])

    def snapshot(self) -> np.ndarray:
        """Return a copy of all current versions."""
        return self._versions.copy()
