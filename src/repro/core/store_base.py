"""Common machinery shared by the extended LLC's on-chip memory stores.

Each cache-mode SM lends three kinds of on-chip memory to the extended LLC:
its register file, its shared memory and its L1 cache.  All three behave as a
collection of fully associative extended LLC *sets* (one set per extended LLC
kernel warp) holding 128-byte blocks with valid/dirty bits, tags and LRU
counters — exactly the structure the extended LLC kernel lays out in Figure 8
and queries with Algorithm 1.  They differ in capacity, access latency,
bandwidth and whether compression applies, which the concrete store classes
(:mod:`repro.core.register_file_store`, :mod:`repro.core.shared_memory_store`,
:mod:`repro.core.l1_store`) specialize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.compression import BDICompressor, CompressionLevel


@dataclass
class ExtendedBlockMetadata:
    """Metadata block for one extended LLC block (Figure 8, item 4).

    Holds the tag, valid bit, dirty bit and LRU counter that the extended LLC
    kernel keeps coalesced in the per-set metadata register, plus the block's
    compression level when compression is enabled.
    """

    tag: int = -1
    valid: bool = False
    dirty: bool = False
    lru_counter: int = 0
    compression: CompressionLevel = CompressionLevel.UNCOMPRESSED


@dataclass
class StoreStats:
    """Access statistics of one extended LLC store."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit rate over all lookups (0.0 with no accesses)."""
        return self.hits / self.accesses if self.accesses else 0.0


class ExtendedLLCSet:
    """One fully associative extended LLC set owned by one kernel warp.

    Args:
        base_ways: Number of 128-byte block slots physically available
            (32 data-array registers in the register file layout).
        compression_enabled: When True, compressed blocks occupy fewer bytes
            so more logical blocks fit into the same physical storage.
        block_size: Logical block size in bytes.
    """

    def __init__(self, base_ways: int, compression_enabled: bool = False, block_size: int = 128) -> None:
        if base_ways <= 0:
            raise ValueError("base_ways must be positive")
        self.base_ways = base_ways
        self.compression_enabled = compression_enabled
        self.block_size = block_size
        self.physical_bytes = base_ways * block_size
        # Resident blocks by tag in LRU-counter order: every counter update
        # moves the block to the end, so the first one is the LRU victim.
        self._blocks: Dict[int, ExtendedBlockMetadata] = {}
        self._lru_clock = 0
        # Physical bytes of the resident blocks, kept up to date by every
        # fill, eviction and invalidation.
        self._stored_bytes = 0

    # -- capacity accounting ----------------------------------------------------

    def _bytes_for(self, level: CompressionLevel) -> int:
        return level.compressed_size if self.compression_enabled else self.block_size

    def occupancy(self) -> int:
        """Number of logical blocks resident in the set."""
        return len(self._blocks)

    def occupancy_bytes(self) -> int:
        """Physical bytes consumed by resident blocks."""
        return self._stored_bytes

    # -- Algorithm 1: tag lookup --------------------------------------------------

    def lookup(self, tag: int) -> bool:
        """Tag lookup without state changes (the warp's ballot over metadata)."""
        meta = self._blocks.get(tag)
        return meta is not None and meta.valid

    def access(self, tag: int, is_write: bool = False) -> bool:
        """Look up ``tag``; on a hit update LRU (and dirty state for writes)."""
        blocks = self._blocks
        meta = blocks.get(tag)
        if meta is None or not meta.valid:
            return False
        del blocks[tag]
        blocks[tag] = meta
        self._lru_clock += 1
        meta.lru_counter = self._lru_clock
        if is_write:
            meta.dirty = True
        return True

    # -- fills and evictions -------------------------------------------------------

    def fill(
        self,
        tag: int,
        dirty: bool = False,
        compression: CompressionLevel = CompressionLevel.UNCOMPRESSED,
    ) -> List[Tuple[int, bool]]:
        """Insert ``tag``, evicting LRU victims until the block fits.

        Returns a list of ``(victim_tag, was_dirty)`` pairs for every evicted
        block (empty when nothing had to be evicted).
        """
        blocks = self._blocks
        meta = blocks.pop(tag, None)
        if meta is not None:
            blocks[tag] = meta
            meta.valid = True
            meta.dirty = meta.dirty or dirty
            self._stored_bytes += self._bytes_for(compression) - self._bytes_for(meta.compression)
            meta.compression = compression
            self._lru_clock += 1
            meta.lru_counter = self._lru_clock
            return []

        needed = self._bytes_for(compression)
        evicted: List[Tuple[int, bool]] = []
        while self._stored_bytes + needed > self.physical_bytes and blocks:
            victim_tag = next(iter(blocks))
            victim = blocks.pop(victim_tag)
            self._stored_bytes -= self._bytes_for(victim.compression)
            evicted.append((victim_tag, victim.dirty))

        self._lru_clock += 1
        self._stored_bytes += needed
        blocks[tag] = ExtendedBlockMetadata(
            tag=tag,
            valid=True,
            dirty=dirty,
            lru_counter=self._lru_clock,
            compression=compression,
        )
        return evicted

    def invalidate(self, tag: int) -> Optional[ExtendedBlockMetadata]:
        """Remove ``tag`` from the set, returning its metadata if present."""
        meta = self._blocks.pop(tag, None)
        if meta is not None:
            self._stored_bytes -= self._bytes_for(meta.compression)
        return meta

    def tags(self) -> List[int]:
        """Tags of all resident blocks."""
        return list(self._blocks)

    def metadata(self, tag: int) -> Optional[ExtendedBlockMetadata]:
        """Metadata of a resident block (or None)."""
        return self._blocks.get(tag)


class ExtendedLLCStore:
    """A set of extended LLC sets backed by one kind of on-chip memory.

    Concrete subclasses provide the capacity model (how many block slots the
    underlying memory offers per warp) and the timing label used by the
    controller to pick access latencies.
    """

    #: Label used by :class:`repro.core.config.ExtendedLLCTiming`.
    store_kind = "register_file"
    #: Whether BDI compression can be applied to blocks in this store
    #: (the L1 store handles blocks in hardware, so compression does not apply).
    supports_compression = True

    def __init__(
        self,
        num_warps: int,
        ways_per_set: int,
        compression_enabled: bool = False,
        block_size: int = 128,
    ) -> None:
        if num_warps <= 0:
            raise ValueError("num_warps must be positive")
        if ways_per_set <= 0:
            raise ValueError("ways_per_set must be positive")
        self.num_warps = num_warps
        self.ways_per_set = ways_per_set
        self.block_size = block_size
        self.compression_enabled = compression_enabled and self.supports_compression
        self.sets: List[ExtendedLLCSet] = [
            ExtendedLLCSet(ways_per_set, self.compression_enabled, block_size)
            for _ in range(num_warps)
        ]
        self.stats = StoreStats()
        self._compressor = BDICompressor()

    # -- capacity ----------------------------------------------------------------

    def data_capacity_bytes(self) -> int:
        """Physical data capacity offered to the extended LLC."""
        return self.num_warps * self.ways_per_set * self.block_size

    # -- access path ----------------------------------------------------------------

    def set_for(self, set_index: int) -> ExtendedLLCSet:
        """The set owned by warp ``set_index`` (local to this store)."""
        if not 0 <= set_index < self.num_warps:
            raise ValueError(f"set_index {set_index} out of range [0, {self.num_warps})")
        return self.sets[set_index]

    def access(self, set_index: int, tag: int, is_write: bool = False) -> bool:
        """Serve one extended LLC request against this store; True on a hit."""
        hit = self.set_for(set_index).access(tag, is_write)
        if hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return hit

    def fill(
        self,
        set_index: int,
        tag: int,
        dirty: bool = False,
        compression: CompressionLevel = CompressionLevel.UNCOMPRESSED,
    ) -> List[Tuple[int, bool]]:
        """Install a block after a miss; returns evicted ``(tag, dirty)`` pairs."""
        if not self.compression_enabled:
            compression = CompressionLevel.UNCOMPRESSED
        evicted = self.set_for(set_index).fill(tag, dirty=dirty, compression=compression)
        stats = self.stats
        stats.fills += 1
        if evicted:
            stats.evictions += len(evicted)
            stats.dirty_evictions += sum(1 for _, was_dirty in evicted if was_dirty)
        return evicted

    def reset(self) -> None:
        """Drop all contents and statistics."""
        self.sets = [
            ExtendedLLCSet(self.ways_per_set, self.compression_enabled, self.block_size)
            for _ in range(self.num_warps)
        ]
        self.stats = StoreStats()
