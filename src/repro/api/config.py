"""Session configuration: machine shape, storage backend, retry budget."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.em.machine import EMMachine
from repro.em.storage import MemmapBackend, MemoryBackend, StorageBackend

__all__ = ["EMConfig", "RetryPolicy", "BACKENDS"]

#: Registered backend constructors, keyed by :attr:`EMConfig.backend` name.
BACKENDS = {
    "memory": lambda cfg: MemoryBackend(),
    "memmap": lambda cfg: MemmapBackend(cfg.backend_dir),
}


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry budget for the paper's Las Vegas algorithms.

    ``max_attempts`` caps how many independently-seeded attempts a
    session makes before re-raising the failure as
    :class:`repro.errors.RetryExhausted`.  Each attempt draws its
    randomness from a child stream derived from the session seed and the
    attempt number, so retries are deterministic given the seed yet
    statistically independent.
    """

    max_attempts: int = 5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )


@dataclass(frozen=True)
class EMConfig:
    """Parameters of the external-memory machine a session owns.

    Parameters
    ----------
    M, B:
        Private-memory and block sizes, exactly as in :class:`EMMachine`.
    trace:
        Record the adversary-visible trace (needed for
        ``Result.cost.trace_fingerprint``; disable for large benchmarks).
    backend:
        Storage-backend name — a key of :data:`BACKENDS`, currently
        ``"memory"`` (RAM, default) or ``"memmap"`` (file-backed, for
        out-of-core arrays).
    backend_dir:
        Directory for file-backed backends; ``None`` uses a private
        temporary directory removed on ``close()``.
    """

    M: int = 256
    B: int = 8
    trace: bool = True
    backend: str = "memory"
    backend_dir: str | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"choose from {sorted(BACKENDS)}"
            )

    def with_overrides(self, **kw) -> "EMConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)

    def make_backend(self) -> StorageBackend:
        """Instantiate this config's storage backend."""
        return BACKENDS[self.backend](self)

    def make_machine(
        self,
        backend: StorageBackend | None = None,
        *,
        owns_backend: bool = True,
    ) -> EMMachine:
        """Build the machine (with ``backend``, or a fresh one).

        ``owns_backend=False`` leaves backend teardown to the caller —
        the service layer's shared-storage arrangement.
        """
        return EMMachine(
            self.M,
            self.B,
            trace=self.trace,
            backend=backend if backend is not None else self.make_backend(),
            owns_backend=owns_backend,
        )
