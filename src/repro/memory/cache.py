"""A generic set-associative cache model.

It is a *functional* model: it tracks tags, valid and dirty bits and
replacement state, and reports hits, misses and dirty evictions.  The
conventional LLC slices (:mod:`repro.memory.llc`) keep their own LRU sets
on the replay path and report the same :class:`CacheStats`; the LRU
``SetAssociativeCache`` is their reference model in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.memory.replacement import ReplacementPolicy, make_replacement_policy


@dataclass
class CacheBlock:
    """One cache block: tag plus valid/dirty metadata."""

    tag: int
    valid: bool = True
    dirty: bool = False

    def __post_init__(self) -> None:
        if self.tag < 0:
            raise ValueError("tag must be non-negative")


@dataclass
class CacheStats:
    """Aggregate access statistics for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    fills: int = 0
    writes: int = 0

    @property
    def accesses(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when there were no accesses)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def miss_rate(self) -> float:
        """Fraction of lookups that missed (0.0 when there were no accesses)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return a new :class:`CacheStats` summing self and ``other``."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            dirty_evictions=self.dirty_evictions + other.dirty_evictions,
            fills=self.fills + other.fills,
            writes=self.writes + other.writes,
        )


class CacheSet:
    """One set of a set-associative cache."""

    def __init__(self, associativity: int, policy: str = "lru") -> None:
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        self.associativity = associativity
        self._ways: List[Optional[CacheBlock]] = [None] * associativity
        # tag -> way of every resident block.
        self._way_of: Dict[int, int] = {}
        self._policy: ReplacementPolicy = make_replacement_policy(policy, associativity)

    def lookup(self, tag: int) -> Optional[int]:
        """Return the way holding ``tag`` or ``None`` on a miss (no side effects)."""
        return self._way_of.get(tag)

    def access(self, tag: int, is_write: bool) -> bool:
        """Perform a lookup, updating replacement and dirty state on a hit.

        Returns ``True`` on a hit.
        """
        way = self._way_of.get(tag)
        if way is None:
            return False
        self._policy.on_access(way)
        if is_write:
            block = self._ways[way]
            assert block is not None
            block.dirty = True
        return True

    def fill(self, tag: int, dirty: bool = False) -> Optional[CacheBlock]:
        """Install ``tag`` into the set, returning the evicted block if any.

        If the tag is already present the existing block is refreshed in
        place and ``None`` is returned.
        """
        existing = self._way_of.get(tag)
        if existing is not None:
            block = self._ways[existing]
            assert block is not None
            block.dirty = block.dirty or dirty
            self._policy.on_access(existing)
            return None

        victim_block: Optional[CacheBlock] = None
        if len(self._way_of) < self.associativity:
            free_way = self._ways.index(None)
        else:
            free_way = self._policy.victim(range(self.associativity))
            victim_block = self._ways[free_way]
            assert victim_block is not None
            del self._way_of[victim_block.tag]
            self._policy.on_invalidate(free_way)

        self._ways[free_way] = CacheBlock(tag=tag, valid=True, dirty=dirty)
        self._way_of[tag] = free_way
        self._policy.on_insert(free_way)
        return victim_block

    def invalidate(self, tag: int) -> Optional[CacheBlock]:
        """Remove ``tag`` from the set, returning the invalidated block if present."""
        way = self._way_of.pop(tag, None)
        if way is None:
            return None
        block = self._ways[way]
        self._ways[way] = None
        self._policy.on_invalidate(way)
        return block

    def occupancy(self) -> int:
        """Number of valid blocks currently in the set."""
        return len(self._way_of)

    def tags(self) -> List[int]:
        """Tags of all valid blocks in the set (arbitrary order)."""
        return [blk.tag for blk in self._ways if blk is not None]


class SetAssociativeCache:
    """A set-associative cache keyed by byte addresses.

    Args:
        capacity_bytes: Total data capacity.
        block_size: Cache block (line) size in bytes; must be a power of two.
        associativity: Number of ways per set.
        policy: Replacement policy name (``"lru"``, ``"fifo"``, ``"random"``).
        write_allocate: Whether write misses allocate a block (GPU L2s do).
        name: Optional label for diagnostics.
    """

    def __init__(
        self,
        capacity_bytes: int,
        block_size: int = 128,
        associativity: int = 16,
        policy: str = "lru",
        write_allocate: bool = True,
        name: str = "cache",
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if block_size <= 0 or block_size & (block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        if capacity_bytes % (block_size * associativity):
            raise ValueError(
                "capacity_bytes must be a multiple of block_size * associativity "
                f"(got {capacity_bytes} with block {block_size} x {associativity} ways)"
            )
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self.associativity = associativity
        self.policy_name = policy
        self.write_allocate = write_allocate
        self.name = name
        self.num_sets = capacity_bytes // (block_size * associativity)
        self._sets = [CacheSet(associativity, policy) for _ in range(self.num_sets)]
        self.stats = CacheStats()

    # -- address helpers ---------------------------------------------------

    def set_index(self, address: int) -> int:
        """Set index for a byte address."""
        return (address // self.block_size) % self.num_sets

    def tag_for(self, address: int) -> int:
        """Tag for a byte address."""
        return address // (self.block_size * self.num_sets)

    def block_address(self, address: int) -> int:
        """Align ``address`` down to the containing cache block."""
        return address - (address % self.block_size)

    def _rebuild_address(self, tag: int, set_index: int) -> int:
        return (tag * self.num_sets + set_index) * self.block_size

    # -- operations --------------------------------------------------------

    def probe(self, address: int) -> bool:
        """Check for presence without updating any state."""
        set_index = self.set_index(address)
        return self._sets[set_index].lookup(self.tag_for(address)) is not None

    def access(self, address: int, is_write: bool = False) -> Tuple[bool, Optional[int]]:
        """Access the cache for a load or store.

        On a hit, replacement state is updated (and the block is marked dirty
        for writes) and ``(True, None)`` is returned.  On a miss the block is
        filled (for reads, and for writes when ``write_allocate`` is set) and
        ``(False, writeback_address)`` is returned where ``writeback_address``
        is the block address of a dirty victim that must be written back, or
        ``None`` when no dirty eviction occurred.
        """
        set_index = self.set_index(address)
        tag = self.tag_for(address)
        cache_set = self._sets[set_index]

        if is_write:
            self.stats.writes += 1

        if cache_set.access(tag, is_write):
            self.stats.hits += 1
            return True, None

        self.stats.misses += 1
        writeback: Optional[int] = None
        if not is_write or self.write_allocate:
            victim = cache_set.fill(tag, dirty=is_write)
            self.stats.fills += 1
            if victim is not None:
                self.stats.evictions += 1
                if victim.dirty:
                    self.stats.dirty_evictions += 1
                    writeback = self._rebuild_address(victim.tag, set_index)
        return False, writeback

    def fill(self, address: int, dirty: bool = False) -> Optional[int]:
        """Install a block without counting a demand access.

        Returns the block address of a dirty victim requiring writeback, if any.
        """
        set_index = self.set_index(address)
        cache_set = self._sets[set_index]
        victim = cache_set.fill(self.tag_for(address), dirty=dirty)
        self.stats.fills += 1
        if victim is None:
            return None
        self.stats.evictions += 1
        if victim.dirty:
            self.stats.dirty_evictions += 1
            return self._rebuild_address(victim.tag, set_index)
        return None

    def invalidate(self, address: int) -> bool:
        """Invalidate the block containing ``address``.  Returns True if present."""
        set_index = self.set_index(address)
        return self._sets[set_index].invalidate(self.tag_for(address)) is not None

    def flush(self) -> int:
        """Invalidate every block.  Returns the number of dirty blocks dropped."""
        dirty = 0
        for cache_set in self._sets:
            for tag in list(cache_set.tags()):
                block = cache_set.invalidate(tag)
                if block is not None and block.dirty:
                    dirty += 1
        return dirty

    def occupancy(self) -> int:
        """Total number of valid blocks resident in the cache."""
        return sum(cache_set.occupancy() for cache_set in self._sets)

    def occupancy_bytes(self) -> int:
        """Total bytes of valid data resident in the cache."""
        return self.occupancy() * self.block_size

    def reset_stats(self) -> None:
        """Zero the access statistics (contents are preserved)."""
        self.stats = CacheStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache(name={self.name!r}, capacity={self.capacity_bytes}, "
            f"block={self.block_size}, ways={self.associativity}, sets={self.num_sets})"
        )
