"""GPU energy model.

Combines dynamic energy (per byte moved through each memory-hierarchy level,
per instruction executed) with static power integrated over the modelled
execution time.  This is the component-level equivalent of AccelWattch used
for the paper's performance/watt results (Figure 12 bottom): the conclusions
there rest on (1) how many off-chip accesses each system performs and (2) how
long it runs, both of which the model captures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.energy.components import ComponentEnergies, DEFAULT_ENERGIES


@dataclass
class EnergyBreakdown:
    """Energy totals (joules) broken down by component."""

    dram_j: float = 0.0
    llc_j: float = 0.0
    extended_llc_j: float = 0.0
    l1_j: float = 0.0
    noc_j: float = 0.0
    core_dynamic_j: float = 0.0
    static_j: float = 0.0
    morpheus_controller_j: float = 0.0

    @property
    def total_j(self) -> float:
        """Total GPU energy in joules."""
        return (
            self.dram_j
            + self.llc_j
            + self.extended_llc_j
            + self.l1_j
            + self.noc_j
            + self.core_dynamic_j
            + self.static_j
            + self.morpheus_controller_j
        )

    def as_dict(self) -> Dict[str, float]:
        """Breakdown as a plain dictionary (for reports)."""
        return {
            "dram": self.dram_j,
            "llc": self.llc_j,
            "extended_llc": self.extended_llc_j,
            "l1": self.l1_j,
            "noc": self.noc_j,
            "core_dynamic": self.core_dynamic_j,
            "static": self.static_j,
            "morpheus_controller": self.morpheus_controller_j,
        }


class EnergyModel:
    """Computes GPU energy and performance/watt from simulation activity counts."""

    def __init__(self, energies: ComponentEnergies | None = None) -> None:
        self.energies = energies or DEFAULT_ENERGIES

    def compute(
        self,
        execution_cycles: float,
        instructions: float,
        dram_bytes: float,
        llc_bytes: float,
        extended_llc_bytes: float,
        l1_bytes: float,
        noc_bytes: float,
        num_compute_sms: int,
        num_cache_sms: int = 0,
        num_gated_sms: int = 0,
        morpheus_enabled: bool = False,
    ) -> EnergyBreakdown:
        """Compute the energy breakdown of one simulated execution.

        Args:
            execution_cycles: Modelled execution time in core cycles.
            instructions: Application instructions executed.
            dram_bytes: Bytes moved to/from off-chip DRAM.
            llc_bytes: Bytes served by the conventional LLC.
            extended_llc_bytes: Bytes served by the extended LLC.
            l1_bytes: Bytes served by the per-SM L1 caches.
            noc_bytes: Bytes carried by the interconnect.
            num_compute_sms: SMs executing application threads.
            num_cache_sms: SMs in cache mode (Morpheus).
            num_gated_sms: Power-gated SMs (IBL-style baselines).
            morpheus_enabled: Whether the Morpheus controller is powered.
        """
        if execution_cycles < 0:
            raise ValueError("execution_cycles must be non-negative")
        e = self.energies
        pj_to_j = 1e-12

        seconds = execution_cycles / (e.core_clock_ghz * 1e9)
        static_watts = (
            e.base_static_watts
            + num_compute_sms * e.sm_static_watts
            + num_cache_sms * e.sm_cache_mode_watts
            # Power-gated SMs contribute (almost) nothing.
            + num_gated_sms * 0.02 * e.sm_static_watts
        )
        controller_j = (e.morpheus_controller_watts * seconds) if morpheus_enabled else 0.0

        return EnergyBreakdown(
            dram_j=dram_bytes * e.dram_pj_per_byte * pj_to_j,
            llc_j=llc_bytes * e.llc_pj_per_byte * pj_to_j,
            extended_llc_j=extended_llc_bytes * e.extended_llc_pj_per_byte * pj_to_j,
            l1_j=l1_bytes * e.l1_pj_per_byte * pj_to_j,
            noc_j=noc_bytes * e.noc_pj_per_byte * pj_to_j,
            core_dynamic_j=instructions * e.core_dynamic_pj_per_instruction * pj_to_j,
            static_j=static_watts * seconds,
            morpheus_controller_j=controller_j,
        )

    def performance_per_watt(
        self, ipc: float, breakdown: EnergyBreakdown, execution_cycles: float
    ) -> float:
        """IPC per watt for a run with the given energy breakdown."""
        if execution_cycles <= 0:
            return 0.0
        seconds = execution_cycles / (self.energies.core_clock_ghz * 1e9)
        if seconds <= 0:
            return 0.0
        watts = breakdown.total_j / seconds
        if watts <= 0:
            return 0.0
        return ipc / watts

    def average_power_watts(self, breakdown: EnergyBreakdown, execution_cycles: float) -> float:
        """Average GPU power over the run."""
        if execution_cycles <= 0:
            return 0.0
        seconds = execution_cycles / (self.energies.core_clock_ghz * 1e9)
        return breakdown.total_j / seconds if seconds > 0 else 0.0
