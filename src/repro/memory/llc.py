"""The banked conventional last level cache (LLC).

The RTX 3080 baseline has a 5 MiB LLC distributed over 10 partitions, each
colocated with a memory controller.  Each :class:`LLCPartition` owns one
set-associative slice and a simple bandwidth model
(~300 GB/s per partition per the paper's §5 discussion).  The
:class:`BankedLLC` stitches partitions together using the block-interleaved
:class:`~repro.memory.address_mapping.AddressMapping`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.memory.address_mapping import AddressMapping
from repro.memory.cache import CacheStats


@dataclass(frozen=True)
class LLCConfig:
    """Configuration for the conventional LLC."""

    capacity_bytes: int = 5 * 1024 * 1024
    num_partitions: int = 10
    block_size: int = 128
    associativity: int = 16
    hit_latency_cycles: float = 230.0       # ~160 ns at 1.44 GHz
    bandwidth_gbps_per_partition: float = 300.0
    core_clock_ghz: float = 1.44
    mshr_entries: int = 64

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if self.capacity_bytes % self.num_partitions:
            raise ValueError("capacity_bytes must divide evenly across partitions")

    @property
    def partition_capacity_bytes(self) -> int:
        """Data capacity of one partition's slice."""
        return self.capacity_bytes // self.num_partitions

    @property
    def bytes_per_cycle_per_partition(self) -> float:
        """Partition bandwidth in bytes per core cycle."""
        return self.bandwidth_gbps_per_partition / self.core_clock_ghz

    def with_capacity(self, capacity_bytes: int) -> "LLCConfig":
        """Return a copy with a different total capacity (same banking)."""
        return LLCConfig(
            capacity_bytes=capacity_bytes,
            num_partitions=self.num_partitions,
            block_size=self.block_size,
            associativity=self.associativity,
            hit_latency_cycles=self.hit_latency_cycles,
            bandwidth_gbps_per_partition=self.bandwidth_gbps_per_partition,
            core_clock_ghz=self.core_clock_ghz,
            mshr_entries=self.mshr_entries,
        )

    def scaled_capacity(self, factor: float) -> "LLCConfig":
        """Return a copy with capacity scaled by ``factor`` (e.g. the 4x-LLC baseline)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        new_capacity = int(self.capacity_bytes * factor)
        # Keep the capacity a clean multiple of partition * ways * block.
        granule = self.num_partitions * self.associativity * self.block_size
        new_capacity = max(granule, (new_capacity // granule) * granule)
        return self.with_capacity(new_capacity)


class LLCPartition:
    """One LLC partition: a write-allocate LRU cache slice and a bandwidth account.

    Each set maps the tag of every resident block to its dirty bit, least
    recently used first, so a hit moves the tag to the end and a fill into
    a full set evicts the first one.
    """

    def __init__(self, partition_id: int, config: LLCConfig) -> None:
        block_size = config.block_size
        if block_size <= 0 or block_size & (block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        if config.associativity <= 0:
            raise ValueError("associativity must be positive")
        self.partition_id = partition_id
        self.config = config
        granule = block_size * config.associativity
        self.capacity_bytes = max(granule, (config.partition_capacity_bytes // granule) * granule)
        self.num_sets = self.capacity_bytes // granule
        self._sets: List[Dict[int, bool]] = [{} for _ in range(self.num_sets)]
        self.stats = CacheStats()
        self._block_size = block_size
        self._tag_span = block_size * self.num_sets
        self._ways = config.associativity
        self._hit_latency = config.hit_latency_cycles
        self._bytes_per_cycle = config.bytes_per_cycle_per_partition
        self._busy_until_cycle = 0.0
        self.bytes_served = 0
        self.requests_served = 0

    def access(
        self, address: int, is_write: bool, size_bytes: int, now_cycle: float
    ) -> Tuple[bool, float, Optional[int]]:
        """Look up the block at ``address`` in this partition's slice.

        Returns ``(hit, latency_cycles, writeback_address)`` where latency
        includes the partition queueing delay and ``writeback_address`` is a
        dirty victim needing writeback to DRAM (or ``None``).  A miss fills
        the block (dirty for writes); a write hit marks it dirty.
        """
        if address < 0:
            raise ValueError("address must be non-negative")
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        busy_until = self._busy_until_cycle
        start = busy_until if busy_until > now_cycle else now_cycle

        set_index = address // self._block_size % self.num_sets
        blocks = self._sets[set_index]
        tag = address // self._tag_span
        stats = self.stats
        if is_write:
            stats.writes += 1
        writeback = None
        dirty = blocks.pop(tag, None)
        if dirty is not None:
            blocks[tag] = dirty or is_write
            stats.hits += 1
            hit = True
        else:
            stats.misses += 1
            hit = False
            if len(blocks) >= self._ways:
                victim = next(iter(blocks))
                stats.evictions += 1
                if blocks.pop(victim):
                    stats.dirty_evictions += 1
                    writeback = (victim * self.num_sets + set_index) * self._block_size
            blocks[tag] = is_write
            stats.fills += 1

        self._busy_until_cycle = start + size_bytes / self._bytes_per_cycle
        self.bytes_served += size_bytes
        self.requests_served += 1
        return hit, start - now_cycle + self._hit_latency, writeback

    def occupancy(self) -> int:
        """Number of valid blocks resident in the slice."""
        return sum(len(blocks) for blocks in self._sets)

    def throughput_gbps(self, elapsed_cycles: float) -> float:
        """Achieved throughput of this partition in GB/s over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        bytes_per_cycle = self.bytes_served / elapsed_cycles
        return bytes_per_cycle * self.config.core_clock_ghz

    def reset(self) -> None:
        """Clear contents and counters."""
        self._sets = [{} for _ in range(self.num_sets)]
        self.stats = CacheStats()
        self._busy_until_cycle = 0.0
        self.bytes_served = 0
        self.requests_served = 0


class BankedLLC:
    """The full conventional LLC: all partitions plus the address mapping."""

    def __init__(self, config: LLCConfig | None = None) -> None:
        self.config = config or LLCConfig()
        self.mapping = AddressMapping(
            num_partitions=self.config.num_partitions, block_size=self.config.block_size
        )
        self.partitions: List[LLCPartition] = [
            LLCPartition(i, self.config) for i in range(self.config.num_partitions)
        ]

    def partition_for(self, address: int) -> LLCPartition:
        """Partition responsible for ``address``."""
        return self.partitions[self.mapping.partition_of(address)]

    def access(
        self, address: int, is_write: bool, size_bytes: int, now_cycle: float = 0.0
    ) -> Tuple[bool, float, Optional[int]]:
        """Route the access to its partition and look it up in the slice there."""
        return self.partition_for(address).access(address, is_write, size_bytes, now_cycle)

    def aggregate_stats(self) -> CacheStats:
        """Combined hit/miss statistics across all partitions."""
        stats = CacheStats()
        for partition in self.partitions:
            stats = stats.merge(partition.stats)
        return stats

    def total_capacity_bytes(self) -> int:
        """Actual modelled capacity (sum of partition slices)."""
        return sum(p.capacity_bytes for p in self.partitions)

    def throughput_gbps(self, elapsed_cycles: float) -> float:
        """Aggregate achieved LLC throughput in GB/s."""
        return sum(p.throughput_gbps(elapsed_cycles) for p in self.partitions)

    def reset(self) -> None:
        """Reset every partition."""
        for partition in self.partitions:
            partition.reset()
