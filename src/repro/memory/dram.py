"""Off-chip GDDR6X DRAM model.

The model captures the two properties the Morpheus evaluation depends on:

* a long access latency (~600 ns on the RTX 3080 per the paper's Figure 5
  discussion and the Turing/Ampere microbenchmarking literature), and
* a finite per-channel bandwidth (320-bit GDDR6X interface, ~760 GB/s
  aggregate, split across the memory partitions).

Bandwidth is modelled with per-channel token-bucket style accounting: each
channel can serve ``bandwidth_bytes_per_cycle`` of payload per core cycle and
requests queue behind earlier ones on the same channel.  Row-buffer locality
is modelled as a hit probability that shaves a fraction of the core latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class DRAMConfig:
    """Configuration of the off-chip memory system.

    Default values approximate the 10 GiB, 320-bit GDDR6X system of the
    NVIDIA RTX 3080 (Table 1 of the paper), expressed in *core cycles* of a
    1.44 GHz GPU clock.
    """

    num_channels: int = 10
    capacity_bytes: int = 10 * 1024 ** 3
    access_latency_cycles: float = 864.0        # ~600 ns at 1.44 GHz
    bandwidth_gbps_per_channel: float = 76.0    # ~760 GB/s aggregate / 10 channels
    core_clock_ghz: float = 1.44
    row_buffer_hit_rate: float = 0.45
    row_buffer_hit_latency_factor: float = 0.75
    block_size: int = 128

    def __post_init__(self) -> None:
        if self.num_channels <= 0:
            raise ValueError("num_channels must be positive")
        if self.access_latency_cycles <= 0:
            raise ValueError("access_latency_cycles must be positive")
        if self.bandwidth_gbps_per_channel <= 0:
            raise ValueError("bandwidth_gbps_per_channel must be positive")
        if not 0.0 <= self.row_buffer_hit_rate <= 1.0:
            raise ValueError("row_buffer_hit_rate must be in [0, 1]")

    @property
    def bytes_per_cycle_per_channel(self) -> float:
        """Channel bandwidth expressed in bytes per core cycle."""
        return self.bandwidth_gbps_per_channel / self.core_clock_ghz

    @property
    def total_bandwidth_gbps(self) -> float:
        """Aggregate off-chip bandwidth in GB/s."""
        return self.bandwidth_gbps_per_channel * self.num_channels

    def scaled(self, frequency_factor: float) -> "DRAMConfig":
        """Return a config with bandwidth scaled and latency reduced by ``frequency_factor``.

        Used by the Frequency-Boost baseline, which raises memory-system
        clocks by 10-20 % using the power headroom of gated cores.
        """
        if frequency_factor <= 0:
            raise ValueError("frequency_factor must be positive")
        return DRAMConfig(
            num_channels=self.num_channels,
            capacity_bytes=self.capacity_bytes,
            access_latency_cycles=self.access_latency_cycles / frequency_factor,
            bandwidth_gbps_per_channel=self.bandwidth_gbps_per_channel * frequency_factor,
            core_clock_ghz=self.core_clock_ghz,
            row_buffer_hit_rate=self.row_buffer_hit_rate,
            row_buffer_hit_latency_factor=self.row_buffer_hit_latency_factor,
            block_size=self.block_size,
        )


class DRAMModel:
    """Latency/bandwidth model of the off-chip DRAM.

    The model is deliberately simple but captures queueing: a request to a
    channel cannot start before the channel has finished transferring the
    previous request's payload, so sustained demand beyond the channel
    bandwidth inflates effective latency — exactly the behaviour that makes
    memory-bound GPU kernels saturate.
    """

    def __init__(self, config: DRAMConfig | None = None) -> None:
        self.config = config or DRAMConfig()
        channels = self.config.num_channels
        # Per-channel state: the cycle the channel frees up and the accesses served.
        self._busy_until: List[float] = [0.0] * channels
        self._accesses: List[int] = [0] * channels
        self.total_accesses = 0
        self.total_bytes = 0
        self._row_toggle = 0
        self._block_size = self.config.block_size
        self._bytes_per_cycle = self.config.bytes_per_cycle_per_channel
        self._row_hit_threshold = int(round(self.config.row_buffer_hit_rate * 100))

    def access(self, address: int, size_bytes: int, now_cycle: float) -> float:
        """Serve ``size_bytes`` at ``address`` starting no earlier than ``now_cycle``.

        Returns the latency in cycles from ``now_cycle`` until the data is
        available (including any queueing delay on the channel).
        """
        if address < 0:
            raise ValueError("address must be non-negative")
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        # Channels are block-interleaved.
        channel = address // self._block_size % self.config.num_channels
        busy_until = self._busy_until[channel]
        start = busy_until if busy_until > now_cycle else now_cycle

        core_latency = self.config.access_latency_cycles
        # Deterministic row-buffer locality: a fixed fraction of accesses hit
        # the open row and pay a reduced latency.
        self._row_toggle += 1
        if (self._row_toggle * 37) % 100 < self._row_hit_threshold:
            core_latency *= self.config.row_buffer_hit_latency_factor

        transfer_cycles = size_bytes / self._bytes_per_cycle
        self._busy_until[channel] = start + transfer_cycles
        self._accesses[channel] += 1

        self.total_accesses += 1
        self.total_bytes += size_bytes

        return start - now_cycle + core_latency + transfer_cycles

    def bandwidth_utilization(self, elapsed_cycles: float) -> float:
        """Fraction of peak bandwidth used over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        peak_bytes = (
            self.config.bytes_per_cycle_per_channel
            * self.config.num_channels
            * elapsed_cycles
        )
        if peak_bytes == 0:
            return 0.0
        return min(1.0, self.total_bytes / peak_bytes)

    def per_channel_accesses(self) -> Dict[int, int]:
        """Accesses served by each channel."""
        return dict(enumerate(self._accesses))

    def reset(self) -> None:
        """Clear all channel state and counters."""
        channels = self.config.num_channels
        self._busy_until = [0.0] * channels
        self._accesses = [0] * channels
        self.total_accesses = 0
        self.total_bytes = 0
        self._row_toggle = 0
