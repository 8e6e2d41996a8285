"""Static address interleaving across LLC partitions and DRAM channels.

GPUs stripe the physical address space across LLC partitions (each colocated
with a memory controller) at cache-block granularity.  The same mapping is
used by the baseline and by Morpheus; Morpheus adds a *second* level of
separation inside the partition (see
:mod:`repro.core.address_separation`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AddressMapping:
    """Block-interleaved mapping of addresses onto partitions and channels.

    Args:
        num_partitions: Number of LLC partitions (10 on an RTX 3080).
        block_size: Interleaving granularity in bytes (one cache block).
        num_channels: Number of DRAM channels; defaults to one per partition.
    """

    num_partitions: int = 10
    block_size: int = 128
    num_channels: int = 0

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if self.block_size <= 0 or self.block_size & (self.block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        if self.num_channels < 0:
            raise ValueError("num_channels must be non-negative")
        if self.num_channels == 0:
            object.__setattr__(self, "num_channels", self.num_partitions)

    def block_number(self, address: int) -> int:
        """Global cache-block number of a byte address."""
        if address < 0:
            raise ValueError("address must be non-negative")
        return address // self.block_size

    def partition_of(self, address: int) -> int:
        """LLC partition responsible for ``address``."""
        return self.block_number(address) % self.num_partitions

    def channel_of(self, address: int) -> int:
        """DRAM channel responsible for ``address``."""
        return self.block_number(address) % self.num_channels

    def addresses_for_partition(self, partition: int, count: int, start_block: int = 0) -> list:
        """Generate ``count`` block addresses that map to ``partition``.

        Useful in tests and microbenchmarks that need partition-local streams.
        """
        if not 0 <= partition < self.num_partitions:
            raise ValueError(f"partition {partition} out of range")
        if count < 0:
            raise ValueError("count must be non-negative")
        return [
            (start_block + i) * self.num_partitions * self.block_size + partition * self.block_size
            for i in range(count)
        ]
