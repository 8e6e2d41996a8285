"""The SM <-> LLC-partition interconnection network.

The network connects every SM to every LLC partition.  We model it as one
:class:`~repro.interconnect.crossbar.CrossbarSwitch` per LLC partition (the
partition side is the bandwidth bottleneck in GPUs) plus a load-dependent
latency term, and we track the statistics the paper reports in §7.4:
injection rate, throughput, and average latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.interconnect.crossbar import CrossbarSwitch


@dataclass(frozen=True)
class InterconnectConfig:
    """Interconnect parameters.

    The one-way latency default (~60 cycles, i.e. ~40 ns at 1.44 GHz)
    reflects the gap between the raw LLC array latency and the SM-observed
    LLC latency reported for Ampere-class GPUs.
    """

    num_partitions: int = 10
    one_way_latency_cycles: float = 60.0
    bytes_per_cycle_per_port: float = 208.0
    congestion_knee: float = 0.7
    max_congestion_penalty: float = 0.5

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if self.one_way_latency_cycles < 0:
            raise ValueError("one_way_latency_cycles must be non-negative")
        if self.bytes_per_cycle_per_port <= 0:
            raise ValueError("bytes_per_cycle_per_port must be positive")
        if not 0.0 < self.congestion_knee <= 1.0:
            raise ValueError("congestion_knee must be in (0, 1]")
        if self.max_congestion_penalty < 0:
            raise ValueError("max_congestion_penalty must be non-negative")


@dataclass
class NetworkStats:
    """Aggregate interconnect statistics (the §7.4 metrics)."""

    flits_injected: int = 0
    bytes_injected: int = 0
    total_latency_cycles: float = 0.0
    traversals: int = 0

    @property
    def average_latency_cycles(self) -> float:
        """Average per-traversal latency (0.0 when nothing was sent)."""
        if self.traversals == 0:
            return 0.0
        return self.total_latency_cycles / self.traversals


class InterconnectNetwork:
    """Crossbar-style network between SMs and LLC partitions.

    The same network also carries Morpheus's extended-LLC traffic (controller
    to cache-mode SM and back), so Morpheus traversals simply call
    :meth:`traverse` one extra round trip.
    """

    def __init__(self, config: InterconnectConfig | None = None) -> None:
        self.config = config or InterconnectConfig()
        self._ports: List[CrossbarSwitch] = [
            CrossbarSwitch(self.config.bytes_per_cycle_per_port, self.config.one_way_latency_cycles)
            for _ in range(self.config.num_partitions)
        ]
        self.stats = NetworkStats()

    def _congestion_penalty(self, port: CrossbarSwitch, elapsed_cycles: float) -> float:
        """Latency multiplier (>= 1.0) from port utilization beyond the knee."""
        if elapsed_cycles <= 0:
            return 1.0
        utilization = port.request_link.utilization(elapsed_cycles)
        if utilization <= self.config.congestion_knee:
            return 1.0
        over = (utilization - self.config.congestion_knee) / (1.0 - self.config.congestion_knee)
        return 1.0 + over * self.config.max_congestion_penalty

    def traverse(
        self,
        partition_id: int,
        size_bytes: int,
        now_cycle: float,
        response_bytes: int = 128,
        elapsed_cycles: float = 0.0,
    ) -> float:
        """Send a request to ``partition_id`` and its response back.

        Returns the combined round-trip latency in cycles.  ``elapsed_cycles``
        (total simulated time so far) feeds the congestion model.
        """
        if not 0 <= partition_id < self.config.num_partitions:
            raise ValueError(f"partition_id {partition_id} out of range")
        port = self._ports[partition_id]
        penalty = self._congestion_penalty(port, elapsed_cycles)
        request_latency = port.send_request(size_bytes, now_cycle) * penalty
        response_latency = port.send_response(response_bytes, now_cycle + request_latency) * penalty

        total = request_latency + response_latency
        self.stats.flits_injected += 2
        self.stats.bytes_injected += size_bytes + response_bytes
        self.stats.total_latency_cycles += total
        self.stats.traversals += 1
        return total

    def total_load_bytes(self) -> int:
        """Total payload carried by the network in both directions."""
        return sum(port.total_bytes() for port in self._ports)

    def reset(self) -> None:
        """Clear all ports and statistics."""
        for port in self._ports:
            port.reset()
        self.stats = NetworkStats()
