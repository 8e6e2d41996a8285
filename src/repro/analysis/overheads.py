"""Morpheus hardware overhead accounting (§7.5).

The Morpheus controller adds two storage structures per LLC partition — the
Bloom filters of the hit/miss predictor (16 KiB) and the extended LLC query
logic unit (5 KiB) — for a total of 21 KiB per partition, about 4 % of a
partition's conventional LLC slice on the RTX 3080.  Its logic adds under 1 %
to total GPU power.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import MorpheusConfig
from repro.energy.components import ComponentEnergies, DEFAULT_ENERGIES
from repro.gpu.config import GPUConfig, RTX3080_CONFIG

KIB = 1024


@dataclass(frozen=True)
class MorpheusOverheads:
    """Storage and power overheads of the Morpheus controller."""

    bloom_filter_bytes_per_partition: int
    query_logic_bytes_per_partition: int
    num_partitions: int
    llc_slice_bytes_per_partition: int
    controller_power_watts: float
    typical_gpu_power_watts: float

    @property
    def total_bytes_per_partition(self) -> int:
        """Total added storage per LLC partition (≈21 KiB)."""
        return self.bloom_filter_bytes_per_partition + self.query_logic_bytes_per_partition

    @property
    def total_bytes(self) -> int:
        """Total added storage across all partitions (≈210 KiB)."""
        return self.total_bytes_per_partition * self.num_partitions

    @property
    def storage_fraction_of_llc_slice(self) -> float:
        """Added storage as a fraction of one partition's conventional slice (≈4 %)."""
        if self.llc_slice_bytes_per_partition <= 0:
            return 0.0
        return self.total_bytes_per_partition / self.llc_slice_bytes_per_partition

    @property
    def power_fraction(self) -> float:
        """Controller power as a fraction of typical GPU power (≈0.93 %)."""
        if self.typical_gpu_power_watts <= 0:
            return 0.0
        return self.controller_power_watts / self.typical_gpu_power_watts


def compute_overheads(
    morpheus: MorpheusConfig | None = None,
    gpu: GPUConfig = RTX3080_CONFIG,
    energies: ComponentEnergies = DEFAULT_ENERGIES,
    typical_gpu_power_watts: float = 300.0,
) -> MorpheusOverheads:
    """Compute the §7.5 overhead numbers for a Morpheus configuration."""
    config = morpheus or MorpheusConfig()
    per_partition_slice = gpu.llc.capacity_bytes // gpu.llc.num_partitions
    # The controller sits in every LLC partition, so this report charges
    # ``morpheus_controller_watts`` once per partition.  Scoring
    # (:class:`~repro.energy.model.EnergyModel`) charges it once per GPU.
    return MorpheusOverheads(
        bloom_filter_bytes_per_partition=config.bloom_filter_storage_bytes_per_partition,
        query_logic_bytes_per_partition=config.query_logic_storage_bytes,
        num_partitions=gpu.llc.num_partitions,
        llc_slice_bytes_per_partition=per_partition_slice,
        controller_power_watts=energies.morpheus_controller_watts * gpu.llc.num_partitions,
        typical_gpu_power_watts=typical_gpu_power_watts,
    )
