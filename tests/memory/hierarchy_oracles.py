"""Request-object reference models of the LLC slice and DRAM steps (not collected by pytest).

Before the replay passed plain values, :class:`~repro.memory.llc.LLCPartition`
composed a :class:`~repro.memory.cache.SetAssociativeCache` with its timing,
and :class:`~repro.memory.dram.DRAMModel` served
:class:`~repro.memory.request.MemoryRequest` objects through per-channel
state records.  Those compositions are kept here as oracles for the flat
steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.memory.cache import SetAssociativeCache
from repro.memory.dram import DRAMConfig
from repro.memory.llc import LLCConfig
from repro.memory.request import MemoryRequest


class ReferencePartition:
    """One LLC partition: a :class:`SetAssociativeCache` behind a bandwidth account."""

    def __init__(self, partition_id: int, config: LLCConfig) -> None:
        self.config = config
        granule = config.block_size * config.associativity
        capacity = max(granule, (config.partition_capacity_bytes // granule) * granule)
        self.cache = SetAssociativeCache(
            capacity_bytes=capacity,
            block_size=config.block_size,
            associativity=config.associativity,
            name=f"llc-partition-{partition_id}",
        )
        self._busy_until_cycle = 0.0
        self.bytes_served = 0
        self.requests_served = 0

    def access(self, request: MemoryRequest, now_cycle: float) -> Tuple[bool, float, Optional[int]]:
        start = max(now_cycle, self._busy_until_cycle)
        queue_delay = start - now_cycle
        hit, writeback = self.cache.access(request.address, is_write=request.is_write)
        service_cycles = request.size_bytes / self.config.bytes_per_cycle_per_partition
        self._busy_until_cycle = start + service_cycles
        self.bytes_served += request.size_bytes
        self.requests_served += 1
        return hit, queue_delay + self.config.hit_latency_cycles, writeback


@dataclass
class _ChannelState:
    busy_until_cycle: float = 0.0
    accesses: int = 0


class ReferenceDRAM:
    """The DRAM model serving :class:`MemoryRequest` objects channel record by record."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        self._channels: List[_ChannelState] = [_ChannelState() for _ in range(config.num_channels)]
        self.total_accesses = 0
        self.total_bytes = 0
        self._row_toggle = 0

    def access(self, request: MemoryRequest, now_cycle: float) -> float:
        channel = self._channels[
            (request.address // self.config.block_size) % self.config.num_channels
        ]
        start = max(now_cycle, channel.busy_until_cycle)
        queue_delay = start - now_cycle
        core_latency = self.config.access_latency_cycles
        self._row_toggle += 1
        hit_threshold = int(round(self.config.row_buffer_hit_rate * 100))
        if (self._row_toggle * 37) % 100 < hit_threshold:
            core_latency *= self.config.row_buffer_hit_latency_factor
        transfer_cycles = request.size_bytes / self.config.bytes_per_cycle_per_channel
        channel.busy_until_cycle = start + transfer_cycles
        channel.accesses += 1
        self.total_accesses += 1
        self.total_bytes += request.size_bytes
        return queue_delay + core_latency + transfer_cycles

    def per_channel_accesses(self):
        return {i: channel.accesses for i, channel in enumerate(self._channels)}
