"""A linear-scan reference model of one cache set (not collected by pytest).

It keeps the original per-access algorithms that ``CacheSet`` and
``LRUPolicy`` replaced with indexes: tag lookup by scanning every way, a
free-way scan on every fill, and victims chosen by a minimum over per-way
timestamps.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple


class LinearScanCacheSet:
    """One cache set whose every operation scans all ways."""

    def __init__(self, associativity: int, policy: str = "lru", seed: int = 0) -> None:
        self.associativity = associativity
        self.policy = policy
        # way -> (tag, dirty) for resident blocks.
        self._ways: List[Optional[Tuple[int, bool]]] = [None] * associativity
        self._clock = 0
        self._stamp: Dict[int, int] = {}
        self._rng = random.Random(seed)

    def lookup(self, tag: int) -> Optional[int]:
        for way, block in enumerate(self._ways):
            if block is not None and block[0] == tag:
                return way
        return None

    def _use(self, way: int, inserted: bool) -> None:
        if self.policy == "lru" or (self.policy == "fifo" and inserted):
            self._clock += 1
            self._stamp[way] = self._clock

    def access(self, tag: int, is_write: bool) -> bool:
        way = self.lookup(tag)
        if way is None:
            return False
        self._use(way, inserted=False)
        if is_write:
            self._ways[way] = (tag, True)
        return True

    def _victim(self, valid_ways: List[int]) -> int:
        if self.policy == "random":
            return self._rng.choice(valid_ways)
        return min(valid_ways, key=lambda way: self._stamp.get(way, -1))

    def fill(self, tag: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Install ``tag``; returns the evicted ``(tag, dirty)`` block, if any."""
        existing = self.lookup(tag)
        if existing is not None:
            old_tag, was_dirty = self._ways[existing]
            self._ways[existing] = (old_tag, was_dirty or dirty)
            self._use(existing, inserted=False)
            return None
        victim = None
        free_way = next((w for w, block in enumerate(self._ways) if block is None), None)
        if free_way is None:
            free_way = self._victim([w for w, block in enumerate(self._ways) if block is not None])
            victim = self._ways[free_way]
            self._stamp.pop(free_way, None)
        self._ways[free_way] = (tag, dirty)
        self._use(free_way, inserted=True)
        return victim

    def invalidate(self, tag: int) -> Optional[Tuple[int, bool]]:
        way = self.lookup(tag)
        if way is None:
            return None
        block = self._ways[way]
        self._ways[way] = None
        self._stamp.pop(way, None)
        return block

    def occupancy(self) -> int:
        return sum(1 for block in self._ways if block is not None)

    def tags(self) -> List[int]:
        return [block[0] for block in self._ways if block is not None]
