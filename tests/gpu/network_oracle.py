"""The per-link reference composition of a network traversal (not collected by pytest).

Before the network kept its per-port link state in flat lists, each port
was a :class:`CrossbarSwitch` of two :class:`CrossbarLink` objects and a
traversal composed ``CrossbarLink.transfer`` with a separate congestion
step.  That composition is kept here as the oracle for
:meth:`~repro.interconnect.network.InterconnectNetwork.traverse`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.interconnect.network import InterconnectConfig, NetworkStats


@dataclass
class CrossbarLink:
    """A single directed link with finite bandwidth."""

    bytes_per_cycle: float
    base_latency_cycles: float
    busy_until_cycle: float = 0.0
    bytes_transferred: int = 0

    def transfer(self, size_bytes: int, now_cycle: float) -> float:
        """Send ``size_bytes`` no earlier than ``now_cycle``; queueing + traversal + serialization."""
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        start = max(now_cycle, self.busy_until_cycle)
        queue_delay = start - now_cycle
        serialization = size_bytes / self.bytes_per_cycle
        self.busy_until_cycle = start + serialization
        self.bytes_transferred += size_bytes
        return queue_delay + self.base_latency_cycles + serialization

    def utilization(self, elapsed_cycles: float) -> float:
        """Fraction of link bandwidth consumed over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.bytes_transferred / (self.bytes_per_cycle * elapsed_cycles))


class CrossbarSwitch:
    """A pair of request/response links attached to one network endpoint."""

    def __init__(self, bytes_per_cycle: float, base_latency_cycles: float) -> None:
        self.request_link = CrossbarLink(bytes_per_cycle, base_latency_cycles)
        self.response_link = CrossbarLink(bytes_per_cycle, base_latency_cycles)

    def total_bytes(self) -> int:
        return self.request_link.bytes_transferred + self.response_link.bytes_transferred


class ReferenceNetwork:
    """One :class:`CrossbarSwitch` per partition, traversed link by link."""

    def __init__(self, config: InterconnectConfig) -> None:
        self.config = config
        self.ports: List[CrossbarSwitch] = [
            CrossbarSwitch(config.bytes_per_cycle_per_port, config.one_way_latency_cycles)
            for _ in range(config.num_partitions)
        ]
        self.stats = NetworkStats()

    def _congestion_penalty(self, port: CrossbarSwitch, elapsed_cycles: float) -> float:
        if elapsed_cycles <= 0:
            return 1.0
        utilization = port.request_link.utilization(elapsed_cycles)
        if utilization <= self.config.congestion_knee:
            return 1.0
        over = (utilization - self.config.congestion_knee) / (1.0 - self.config.congestion_knee)
        return 1.0 + over * self.config.max_congestion_penalty

    def traverse(self, partition_id, size_bytes, now_cycle, response_bytes=128, elapsed_cycles=0.0):
        port = self.ports[partition_id]
        penalty = self._congestion_penalty(port, elapsed_cycles)
        request_latency = port.request_link.transfer(size_bytes, now_cycle) * penalty
        response_latency = (
            port.response_link.transfer(response_bytes, now_cycle + request_latency) * penalty
        )
        total = request_latency + response_latency
        self.stats.flits_injected += 2
        self.stats.bytes_injected += size_bytes + response_bytes
        self.stats.total_latency_cycles += total
        self.stats.traversals += 1
        return total

    def total_load_bytes(self) -> int:
        return sum(port.total_bytes() for port in self.ports)
