"""Morpheus configuration: extended-LLC timing, layout and controller sizing.

Numbers come from the paper:

* §5 characterization — per-unit access latencies (register file 2 ns, shared
  memory 25 ns, L1 34 ns), extended LLC access latency >= 300 ns dominated by
  the NoC round trip, extended LLC via RF+L1 combined configuration of 32 RF
  warps + 16 L1 warps giving 328 KiB capacity, 185 ns average latency,
  34 GB/s bandwidth and 61 pJ/B.
* §4.1.2 / Fig. 5 — conventional LLC miss 608 ns, extended LLC miss 773 ns;
  predicted misses are as fast as conventional misses.
* §4.1.2 cost paragraph — two 32-byte Bloom filters per extended LLC set,
  up to 256 extended LLC sets per partition, 16 KiB per partition.
* §4.1.3 / §7.5 — 5 KiB query logic storage per partition, 21 KiB total
  overhead per partition (~4 % of the partition's conventional slice).
"""

from __future__ import annotations

from dataclasses import dataclass, field

KIB = 1024


@dataclass(frozen=True)
class ExtendedLLCTiming:
    """Latency/bandwidth primitives of the extended LLC kernel (in nanoseconds / GB/s).

    These are converted to core cycles by the controller using the GPU clock.
    """

    register_file_access_ns: float = 2.0
    shared_memory_access_ns: float = 25.0
    l1_access_ns: float = 34.0
    noc_one_way_ns: float = 42.0
    tag_lookup_ns: float = 30.0
    kernel_dispatch_ns: float = 55.0
    warp_scheduling_slot_ns: float = 2.2
    indirect_mov_software_ns: float = 18.0
    indirect_mov_hardware_ns: float = 4.0
    compression_overhead_ns: float = 12.0
    decompression_overhead_ns: float = 10.0
    register_file_bandwidth_gbps: float = 1000.0
    shared_memory_bandwidth_gbps: float = 170.0
    l1_bandwidth_gbps: float = 170.0
    per_sm_extended_bandwidth_gbps: float = 34.0

    def access_latency_ns(
        self,
        store: str,
        indirect_mov_hardware: bool = False,
        compressed: bool = False,
    ) -> float:
        """One extended-LLC data access serviced by ``store`` on a cache-mode SM.

        The latency excludes the NoC round trip (added by the controller) and
        includes kernel dispatch, tag lookup, the data-array access, the
        Indirect-MOV procedure (register file and shared memory stores only)
        and decompression if the block is compressed.
        """
        base = self.kernel_dispatch_ns + self.tag_lookup_ns
        if store == "register_file":
            base += self.register_file_access_ns
            base += (
                self.indirect_mov_hardware_ns
                if indirect_mov_hardware
                else self.indirect_mov_software_ns
            )
        elif store == "shared_memory":
            base += self.shared_memory_access_ns
            base += (
                self.indirect_mov_hardware_ns
                if indirect_mov_hardware
                else self.indirect_mov_software_ns
            )
        elif store == "l1":
            base += self.l1_access_ns
        else:
            raise ValueError(f"unknown store {store!r}")
        if compressed:
            base += self.decompression_overhead_ns
        return base


@dataclass(frozen=True)
class MorpheusConfig:
    """Configuration of the Morpheus controller and extended LLC kernel.

    Attributes:
        enable_compression: Use BDI compression in the extended LLC kernel
            (the Morpheus-Compression / Morpheus-ALL variants).
        enable_indirect_mov_isa: Use the native Indirect-MOV instruction
            (the Morpheus-Indirect-MOV / Morpheus-ALL variants).
        predictor: Hit/miss predictor flavour (``"bloom"``, ``"none"``,
            ``"perfect"``); Fig. 13 compares these.
        rf_warps: Warps of the extended LLC kernel assigned to the register
            file store (32 in the paper's combined configuration).
        l1_warps: Warps assigned to the L1 store (16 in the paper).
        shared_memory_warps: Warps assigned to the shared-memory store
            (0 by default; L1 and shared memory are unified on the RTX 3080).
        extended_llc_associativity: Blocks per extended LLC set (32).
        block_size: Cache block size in bytes (128).
        bloom_filter_bytes: Size of each Bloom filter (32 B).
        bloom_filters_per_set: Two alternating filters per set.
        max_extended_sets_per_partition: Warp status table rows (256).
        query_logic_storage_bytes: Request queue + warp status table +
            read/write data buffers per partition (5 KiB).
        max_cache_mode_fraction: At most 75 % of SMs may be in cache mode.
        registers_reserved_per_warp: Auxiliary registers reserved by the
            extended LLC kernel per warp.
        timing: Latency/bandwidth primitives.
    """

    enable_compression: bool = False
    enable_indirect_mov_isa: bool = False
    predictor: str = "bloom"
    rf_warps: int = 32
    l1_warps: int = 16
    shared_memory_warps: int = 0
    extended_llc_associativity: int = 32
    block_size: int = 128
    bloom_filter_bytes: int = 32
    bloom_filters_per_set: int = 2
    max_extended_sets_per_partition: int = 256
    query_logic_storage_bytes: int = 5 * KIB
    max_cache_mode_fraction: float = 0.75
    registers_reserved_per_warp: int = 8
    compression_epoch_cycles: int = 10_000
    timing: ExtendedLLCTiming = field(default_factory=ExtendedLLCTiming)

    def __post_init__(self) -> None:
        if self.predictor not in ("bloom", "none", "perfect"):
            raise ValueError(f"unknown predictor {self.predictor!r}")
        if self.rf_warps < 0 or self.l1_warps < 0 or self.shared_memory_warps < 0:
            raise ValueError("warp allocations must be non-negative")
        if self.rf_warps + self.l1_warps + self.shared_memory_warps == 0:
            raise ValueError("the extended LLC kernel needs at least one warp")
        if not 0.0 < self.max_cache_mode_fraction <= 1.0:
            raise ValueError("max_cache_mode_fraction must be in (0, 1]")
        if self.extended_llc_associativity <= 0:
            raise ValueError("extended_llc_associativity must be positive")
        if self.block_size <= 0 or self.block_size & (self.block_size - 1):
            raise ValueError("block_size must be a positive power of two")

    # -- controller storage overheads (§7.5) ----------------------------------

    @property
    def total_warps(self) -> int:
        """Warps used by the extended LLC kernel per cache-mode SM."""
        return self.rf_warps + self.l1_warps + self.shared_memory_warps

    @property
    def bloom_filter_storage_bytes_per_partition(self) -> int:
        """Bloom filter storage per LLC partition (16 KiB in the paper)."""
        return (
            self.bloom_filter_bytes
            * self.bloom_filters_per_set
            * self.max_extended_sets_per_partition
        )


BASIC_MORPHEUS = MorpheusConfig()
"""Morpheus-Basic: no compression, software Indirect-MOV, Bloom predictor."""

MORPHEUS_ALL = MorpheusConfig(enable_compression=True, enable_indirect_mov_isa=True)
"""Morpheus-ALL: both optimizations enabled."""
