"""External-memory model substrate (paper §1).

Simulates the client/server storage split the paper is set in: Alice owns a
CPU with a private cache of ``M`` words; Bob hosts the bulk data on a block
device with blocks of ``B`` words.  Every read and write at block
granularity is counted (the model's cost measure) and appended to an access
trace — exactly the information the honest-but-curious adversary observes.
"""

from repro.em.block import (
    NULL_KEY,
    empty_block,
    is_empty,
    make_block,
    make_records,
    occupancy,
)
from repro.em.cache import CacheOverflowError, ClientCache
from repro.em.crypto import CiphertextVersions
from repro.em.errors import EMError, OutOfBoundsError
from repro.em.machine import EMMachine, IOMeter
from repro.em.storage import EMArray, MemmapBackend, MemoryBackend, StorageBackend
from repro.em.trace import AccessTrace

__all__ = [
    "NULL_KEY",
    "empty_block",
    "is_empty",
    "make_block",
    "make_records",
    "occupancy",
    "CacheOverflowError",
    "ClientCache",
    "CiphertextVersions",
    "EMError",
    "OutOfBoundsError",
    "EMMachine",
    "IOMeter",
    "EMArray",
    "StorageBackend",
    "MemoryBackend",
    "MemmapBackend",
    "AccessTrace",
]
