"""The SM <-> LLC-partition interconnection network.

The network connects every SM to every LLC partition.  We model it as one
crossbar port per LLC partition (the partition side is the bandwidth
bottleneck in GPUs), each a pair of directed links — request and response —
with a bandwidth account, plus a load-dependent latency term, and we track
the statistics the paper reports in §7.4: injection rate, throughput, and
average latency.

The Morpheus evaluation cares about three interconnect effects: the
baseline traversal latency between an SM and an LLC partition, the *extra*
round trip that extended-LLC requests pay (Morpheus controller -> cache-mode
SM -> Morpheus controller, Figure 5), and congestion: Morpheus roughly
doubles NoC load (§7.4), inflating average latency by a few percent without
saturating the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


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
        ports = self.config.num_partitions
        # Per-port link state, request (SM -> partition) and response
        # directions: the cycle the link frees up and the bytes it has carried.
        self._request_busy_until: List[float] = [0.0] * ports
        self._request_bytes: List[int] = [0] * ports
        self._response_busy_until: List[float] = [0.0] * ports
        self._response_bytes: List[int] = [0] * ports
        self._bytes_per_cycle = self.config.bytes_per_cycle_per_port
        self._base_latency = self.config.one_way_latency_cycles
        self._knee = self.config.congestion_knee
        self._knee_headroom = 1.0 - self.config.congestion_knee
        self._max_penalty = self.config.max_congestion_penalty
        self.stats = NetworkStats()

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
        (total simulated time so far) feeds the congestion model: beyond the
        knee, the request link's utilization over ``elapsed_cycles`` scales
        both directions' latency (queueing + traversal + serialization).
        """
        if not 0 <= partition_id < self.config.num_partitions:
            raise ValueError(f"partition_id {partition_id} out of range")
        if size_bytes <= 0 or response_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        bytes_per_cycle = self._bytes_per_cycle
        penalty = 1.0
        if elapsed_cycles > 0:
            utilization = self._request_bytes[partition_id] / (bytes_per_cycle * elapsed_cycles)
            if utilization > 1.0:
                utilization = 1.0
            if utilization > self._knee:
                over = (utilization - self._knee) / self._knee_headroom
                penalty = 1.0 + over * self._max_penalty

        busy_until = self._request_busy_until[partition_id]
        start = busy_until if busy_until > now_cycle else now_cycle
        serialization = size_bytes / bytes_per_cycle
        self._request_busy_until[partition_id] = start + serialization
        self._request_bytes[partition_id] += size_bytes
        request_latency = (start - now_cycle + self._base_latency + serialization) * penalty

        arrival = now_cycle + request_latency
        busy_until = self._response_busy_until[partition_id]
        start = busy_until if busy_until > arrival else arrival
        serialization = response_bytes / bytes_per_cycle
        self._response_busy_until[partition_id] = start + serialization
        self._response_bytes[partition_id] += response_bytes
        response_latency = (start - arrival + self._base_latency + serialization) * penalty

        total = request_latency + response_latency
        stats = self.stats
        stats.flits_injected += 2
        stats.bytes_injected += size_bytes + response_bytes
        stats.total_latency_cycles += total
        stats.traversals += 1
        return total

    def total_load_bytes(self) -> int:
        """Total payload carried by the network in both directions."""
        return sum(self._request_bytes) + sum(self._response_bytes)

    def reset(self) -> None:
        """Clear all ports and statistics."""
        ports = self.config.num_partitions
        self._request_busy_until = [0.0] * ports
        self._request_bytes = [0] * ports
        self._response_busy_until = [0.0] * ports
        self._response_bytes = [0] * ports
        self.stats = NetworkStats()
