"""GPU hardware configuration (Table 1 of the paper).

The baseline models an NVIDIA RTX 3080 (GA102): 68 SMs, a two-level warp
scheduler, a 320-bit GDDR6X interface with 10 GiB of memory, a 5 MiB
conventional LLC split over 10 partitions, 128 KiB of unified L1/shared
memory per SM and a 256 KiB register file per SM.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.interconnect.network import InterconnectConfig
from repro.memory.dram import DRAMConfig
from repro.memory.llc import LLCConfig

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


@dataclass(frozen=True)
class GPUConfig:
    """Top-level GPU configuration.

    Attributes mirror Table 1 plus the per-component configs needed by the
    simulator.  All latency values are in core cycles at ``core_clock_ghz``.
    """

    name: str = "rtx3080"
    num_sms: int = 68
    core_clock_ghz: float = 1.44
    warps_per_sm: int = 48
    threads_per_warp: int = 32
    max_threads_per_sm: int = 1536
    cuda_cores_per_sm: int = 128
    register_file_bytes_per_sm: int = 256 * KIB
    registers_per_warp: int = 42
    l1_shared_bytes_per_sm: int = 128 * KIB
    l1_cache_bytes_per_sm: int = 64 * KIB
    l1_hit_latency_cycles: float = 32.0
    warp_scheduler: str = "two-level"
    block_size: int = 128

    llc: LLCConfig = field(default_factory=LLCConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ValueError("num_sms must be positive")
        if self.warps_per_sm <= 0:
            raise ValueError("warps_per_sm must be positive")
        if self.threads_per_warp <= 0:
            raise ValueError("threads_per_warp must be positive")
        if self.llc.num_partitions != self.interconnect.num_partitions:
            raise ValueError(
                "LLC and interconnect must agree on the number of partitions "
                f"({self.llc.num_partitions} vs {self.interconnect.num_partitions})"
            )

    # -- derived configurations ----------------------------------------------

    def with_num_sms(self, num_sms: int) -> "GPUConfig":
        """Return a copy restricted to ``num_sms`` SMs (core scaling studies)."""
        if not 1 <= num_sms <= self.num_sms:
            raise ValueError(f"num_sms must be in [1, {self.num_sms}], got {num_sms}")
        return replace(self, num_sms=num_sms)

    def with_llc_scale(self, factor: float) -> "GPUConfig":
        """Return a copy with the conventional LLC scaled by ``factor`` (2x / 4x studies)."""
        return replace(self, llc=self.llc.scaled_capacity(factor))

    def with_llc_capacity(self, capacity_bytes: int) -> "GPUConfig":
        """Return a copy with an exact conventional LLC capacity."""
        return replace(self, llc=self.llc.with_capacity(capacity_bytes))

    def with_frequency_boost(self, factor: float) -> "GPUConfig":
        """Return a copy with memory-system clocks boosted by ``factor``.

        Models the Frequency-Boost baseline: interconnect, LLC and DRAM run
        ``factor``x faster (latencies shrink, bandwidths grow).
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        boosted_llc = LLCConfig(
            capacity_bytes=self.llc.capacity_bytes,
            num_partitions=self.llc.num_partitions,
            block_size=self.llc.block_size,
            associativity=self.llc.associativity,
            hit_latency_cycles=self.llc.hit_latency_cycles / factor,
            bandwidth_gbps_per_partition=self.llc.bandwidth_gbps_per_partition * factor,
            core_clock_ghz=self.llc.core_clock_ghz,
            mshr_entries=self.llc.mshr_entries,
        )
        boosted_noc = InterconnectConfig(
            num_partitions=self.interconnect.num_partitions,
            one_way_latency_cycles=self.interconnect.one_way_latency_cycles / factor,
            bytes_per_cycle_per_port=self.interconnect.bytes_per_cycle_per_port * factor,
            congestion_knee=self.interconnect.congestion_knee,
            max_congestion_penalty=self.interconnect.max_congestion_penalty,
        )
        return replace(
            self,
            llc=boosted_llc,
            dram=self.dram.scaled(factor),
            interconnect=boosted_noc,
        )

    def with_extra_l1(self, extra_bytes_per_sm: int) -> "GPUConfig":
        """Return a copy with ``extra_bytes_per_sm`` added to each SM's L1.

        Models the Unified-SM-Mem baseline, which folds unused register file
        space into the L1 data cache.
        """
        if extra_bytes_per_sm < 0:
            raise ValueError("extra_bytes_per_sm must be non-negative")
        return replace(
            self,
            l1_cache_bytes_per_sm=self.l1_cache_bytes_per_sm + extra_bytes_per_sm,
            l1_shared_bytes_per_sm=self.l1_shared_bytes_per_sm + extra_bytes_per_sm,
        )


RTX3080_CONFIG = GPUConfig()
"""The default baseline configuration used throughout the reproduction."""
