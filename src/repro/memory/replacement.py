"""Cache replacement policies.

The conventional LLC, the per-SM L1 caches, and the extended LLC all use a
replacement policy object to decide which way of a set to evict.  The paper's
extended LLC kernel implements LRU with per-block counters held in the
metadata register (Algorithm 1); the conventional caches also use LRU.  FIFO
and random policies are provided for ablations and tests.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, Iterable, List, Optional


class ReplacementPolicy(abc.ABC):
    """Tracks recency/insertion state for one cache set and picks victims.

    A policy instance manages ``associativity`` ways indexed ``0 ..
    associativity - 1``.  The cache informs the policy about insertions and
    accesses; the policy answers victim queries.
    """

    def __init__(self, associativity: int) -> None:
        if associativity <= 0:
            raise ValueError(f"associativity must be positive, got {associativity}")
        self.associativity = associativity

    @abc.abstractmethod
    def on_insert(self, way: int) -> None:
        """Record that a new block was installed into ``way``."""

    @abc.abstractmethod
    def on_access(self, way: int) -> None:
        """Record a hit on the block in ``way``."""

    @abc.abstractmethod
    def victim(self, valid_ways: Iterable[int]) -> int:
        """Choose the way to evict among the distinct ``valid_ways`` (all ways occupied)."""

    def on_invalidate(self, way: int) -> None:
        """Record that ``way`` was invalidated.  Default: no-op."""

    def _check_way(self, way: int) -> None:
        if not 0 <= way < self.associativity:
            raise ValueError(f"way {way} out of range [0, {self.associativity})")


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used replacement.

    Mirrors the paper's extended LLC kernel behaviour: each block carries an
    LRU counter which is reset on a hit while all other counters decrement
    (Algorithm 1, lines 8-12).  Here we keep the equivalent recency order.
    """

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        # Used ways, least recently used first (dicts keep insertion order).
        self._recency: Dict[int, None] = {}

    def _touch(self, way: int) -> None:
        self._recency.pop(way, None)
        self._recency[way] = None

    def on_insert(self, way: int) -> None:
        self._check_way(way)
        self._touch(way)

    def on_access(self, way: int) -> None:
        self._check_way(way)
        self._touch(way)

    def on_invalidate(self, way: int) -> None:
        self._check_way(way)
        self._recency.pop(way, None)

    def victim(self, valid_ways: Iterable[int]) -> int:
        candidates = list(valid_ways)
        if not candidates:
            raise ValueError("victim() called with no valid ways")
        if len(candidates) == len(self._recency) == self.associativity:
            # A full set: every way is a candidate and the oldest one loses.
            return next(iter(self._recency))
        # A way never used since its last invalidation is older than any other.
        for way in candidates:
            if way not in self._recency:
                return way
        wanted = set(candidates)
        return next(way for way in self._recency if way in wanted)


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out replacement: evict the oldest inserted block."""

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        self._clock = 0
        self._inserted_at: Dict[int, int] = {}

    def on_insert(self, way: int) -> None:
        self._check_way(way)
        self._clock += 1
        self._inserted_at[way] = self._clock

    def on_access(self, way: int) -> None:
        self._check_way(way)

    def on_invalidate(self, way: int) -> None:
        self._check_way(way)
        self._inserted_at.pop(way, None)

    def victim(self, valid_ways: Iterable[int]) -> int:
        candidates = list(valid_ways)
        if not candidates:
            raise ValueError("victim() called with no valid ways")
        return min(candidates, key=lambda way: self._inserted_at.get(way, -1))


class RandomPolicy(ReplacementPolicy):
    """Random replacement with a seeded generator for reproducibility."""

    def __init__(self, associativity: int, seed: int = 0) -> None:
        super().__init__(associativity)
        self._rng = random.Random(seed)

    def on_insert(self, way: int) -> None:
        self._check_way(way)

    def on_access(self, way: int) -> None:
        self._check_way(way)

    def victim(self, valid_ways: Iterable[int]) -> int:
        candidates = list(valid_ways)
        if not candidates:
            raise ValueError("victim() called with no valid ways")
        return self._rng.choice(candidates)


_POLICY_FACTORIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
}


def make_replacement_policy(name: str, associativity: int, **kwargs) -> ReplacementPolicy:
    """Create a replacement policy by name (``"lru"``, ``"fifo"``, ``"random"``)."""
    try:
        factory = _POLICY_FACTORIES[name.lower()]
    except KeyError:
        valid = ", ".join(sorted(_POLICY_FACTORIES))
        raise ValueError(f"unknown replacement policy {name!r}; expected one of: {valid}") from None
    return factory(associativity, **kwargs)
