"""Texture cache model (per cluster, set-associative LRU).

The paper does not *model* the texture cache -- it only measures kernels
that bind the SpMV vector to a texture (Fig. 12).  This cache lives in
the hardware simulator for the same purpose: the "+Cache" bars.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import HardwareModelError


class TextureCache:
    """Set-associative LRU cache over aligned lines."""

    def __init__(self, capacity: int, line: int, ways: int) -> None:
        if capacity <= 0 or line <= 0 or ways <= 0:
            raise HardwareModelError("cache geometry must be positive")
        if capacity % (line * ways):
            raise HardwareModelError("capacity must divide into line*ways sets")
        self.line = line
        self.ways = ways
        self.num_sets = capacity // (line * ways)
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0

    def _lines_of(self, address: int, size: int) -> range:
        first = address // self.line
        last = (address + size - 1) // self.line
        return range(first, last + 1)

    def access(self, address: int, size: int) -> tuple[int, int]:
        """Touch a segment; returns (hit_bytes, miss_bytes)."""
        hit_bytes = 0
        miss_bytes = 0
        for line_tag in self._lines_of(address, size):
            entry = self._sets[line_tag % self.num_sets]
            if line_tag in entry:
                entry.move_to_end(line_tag)
                self.hits += 1
                hit_bytes += self.line
            else:
                self.misses += 1
                miss_bytes += self.line
                entry[line_tag] = None
                if len(entry) > self.ways:
                    entry.popitem(last=False)
        return hit_bytes, miss_bytes

    def copy(self) -> "TextureCache":
        """An independent cache with the same contents and counters."""
        new = TextureCache.__new__(TextureCache)
        new.line = self.line
        new.ways = self.ways
        new.num_sets = self.num_sets
        new._sets = [entry.copy() for entry in self._sets]
        new.hits = self.hits
        new.misses = self.misses
        return new

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        for entry in self._sets:
            entry.clear()
        self.hits = 0
        self.misses = 0
