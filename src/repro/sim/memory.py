"""Device memory state for the functional simulator.

Both spaces are word-addressed (4-byte words) behind byte-based
addresses, matching how the model counts traffic.  Values are stored as
float64 so integers (column indices, addresses) and float32 data share
one representation without precision loss in the ranges we use.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import MemoryAccessError


@dataclass(frozen=True)
class Allocation:
    """One named global-memory allocation."""

    name: str
    base: int  # byte address
    size: int  # bytes

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


class GlobalMemory:
    """A bump-allocated global-memory arena.

    Allocations are 128-byte aligned (one maximal coalescing segment),
    as CUDA's allocator guarantees.  Arrays can be marked *cacheable*
    to emulate binding them to a texture (used by the SpMV case study).
    """

    _ALIGN = 128

    def __init__(self, capacity_words: int = 1 << 22) -> None:
        self._data = np.zeros(capacity_words, dtype=np.float64)
        self._top = self._ALIGN  # leave address 0 unmapped to catch bugs
        self._allocations: list[Allocation] = []
        self._cacheable: set[str] = set()

    @property
    def allocations(self) -> tuple[Allocation, ...]:
        return tuple(self._allocations)

    def _grow_to(self, words: int) -> None:
        if words <= len(self._data):
            return
        new_size = max(words, 2 * len(self._data))
        grown = np.zeros(new_size, dtype=np.float64)
        grown[: len(self._data)] = self._data
        self._data = grown

    def alloc(self, words: int, name: str = "") -> int:
        """Reserve ``words`` 4-byte words; returns the base byte address."""
        if words <= 0:
            raise MemoryAccessError("allocation must be positive")
        base = self._top
        size = words * 4
        self._top += size
        if self._top % self._ALIGN:
            self._top += self._ALIGN - self._top % self._ALIGN
        self._grow_to(self._top // 4)
        allocation = Allocation(name or f"alloc{len(self._allocations)}", base, size)
        self._allocations.append(allocation)
        return base

    def alloc_array(self, values: np.ndarray, name: str = "") -> int:
        """Allocate and initialize from a 1-D numpy array."""
        values = np.asarray(values, dtype=np.float64).ravel()
        base = self.alloc(len(values), name)
        self._data[base // 4 : base // 4 + len(values)] = values
        return base

    def mark_cacheable(self, name: str) -> None:
        """Flag an allocation as texture-bound (hardware cache eligible)."""
        if not any(a.name == name for a in self._allocations):
            raise MemoryAccessError(f"no allocation named {name!r}")
        self._cacheable.add(name)

    def is_cacheable(self, address: int) -> bool:
        allocation = self.allocation_at(address)
        return allocation is not None and allocation.name in self._cacheable

    @property
    def cacheable_names(self) -> frozenset[str]:
        """Names of texture-bound allocations (batch-lookup helper)."""
        return frozenset(self._cacheable)

    def digest(self) -> str:
        """Content fingerprint of the arena (layout, flags and data).

        Used as part of on-disk trace-cache keys: data-dependent kernels
        (e.g. SpMV's index-driven gathers) produce different traces for
        different memory contents, so cached traces must be keyed by
        what the kernel could have read.
        """
        h = hashlib.sha256()
        for allocation in self._allocations:
            h.update(
                f"{allocation.name}:{allocation.base}:{allocation.size};".encode()
            )
        h.update(",".join(sorted(self._cacheable)).encode())
        h.update(self._data[: self._top // 4].tobytes())
        return h.hexdigest()

    def allocation_at(self, address: int) -> Allocation | None:
        """The allocation containing a byte address, if any."""
        for allocation in self._allocations:
            if allocation.contains(address):
                return allocation
        return None

    def _word_indices(self, addresses: np.ndarray) -> np.ndarray:
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size == 0:
            return addresses
        if np.any(addresses & 3):
            raise MemoryAccessError("global access must be 4-byte aligned")
        if int(addresses.min()) < self._ALIGN or int(addresses.max()) + 4 > self._top:
            raise MemoryAccessError(
                f"global access out of bounds (arena top = {self._top})"
            )
        return addresses >> 2

    def read(self, addresses: np.ndarray) -> np.ndarray:
        """Read one word per byte address."""
        return self._data[self._word_indices(addresses)]

    def write(self, addresses: np.ndarray, values: np.ndarray) -> None:
        """Write one word per byte address."""
        self._data[self._word_indices(addresses)] = values

    def read_array(self, base: int, words: int) -> np.ndarray:
        """Bulk read for host-side validation."""
        addresses = base + 4 * np.arange(words, dtype=np.int64)
        return self.read(addresses)


class SharedMemory:
    """Per-block scratchpad, word-addressed like the hardware banks."""

    def __init__(self, words: int) -> None:
        if words < 0:
            raise MemoryAccessError("shared size must be non-negative")
        self._data = np.zeros(max(words, 1), dtype=np.float64)
        self._bytes = words * 4

    @property
    def size_bytes(self) -> int:
        return self._bytes

    def _word_indices(self, addresses: np.ndarray) -> np.ndarray:
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size == 0:
            return addresses
        if np.any(addresses % 4):
            raise MemoryAccessError("shared access must be 4-byte aligned")
        if np.any(addresses < 0) or np.any(addresses + 4 > self._bytes):
            raise MemoryAccessError(
                f"shared access out of bounds (footprint = {self._bytes} B)"
            )
        return addresses // 4

    def read(self, addresses: np.ndarray) -> np.ndarray:
        return self._data[self._word_indices(addresses)]

    def write(self, addresses: np.ndarray, values: np.ndarray) -> None:
        self._data[self._word_indices(addresses)] = values
