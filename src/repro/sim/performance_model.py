"""The bottleneck (roofline-style) performance model, split from the replay.

A simulation has two halves: a **functional memory-hierarchy replay** (the
:class:`~repro.sim.engine.MemoryHierarchyEngine` driving a trace through the
cache/controller/NoC/DRAM structures) and an **analytic scoring step** that
turns the replay's counters into IPC, execution time, energy and
performance/watt.  This module holds the second half as a standalone, pure
:class:`PerformanceModel`: given one :class:`ReplayMeasurement` it can be
re-applied under different analytic parameters (peak IPC, MLP, energy
constants) without re-running the replay — which is what makes disk-cached
and batched experiment execution cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.energy.model import EnergyModel
from repro.sim.engine import HierarchyCounters
from repro.sim.stats import SimulationStats
from repro.workloads.applications import ApplicationProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.hit_miss_predictor import PredictorStats
    from repro.gpu.config import GPUConfig
    from repro.sim.simulator import SimulationConfig
    from repro.sim.vector_model import MeasurementScorer


@dataclass(frozen=True)
class ResourceEnvelope:
    """The share of each *shared* memory-system resource a run may use.

    The performance model's bandwidth limits are computed against this
    envelope instead of hardcoded whole-GPU capacities: a share of ``s``
    caps the run at ``s`` times the GPU's aggregate bandwidth on that
    channel.  The default envelope grants every channel in full, which
    reproduces the historical single-tenant numbers bit-for-bit (the
    capacities are multiplied by exactly ``1.0``).

    Only the channels *shared between concurrent residents* are enveloped:
    DRAM bandwidth, conventional-LLC bandwidth and the NoC.  Compute and
    the extended-LLC bandwidth are private — they live in the resident's
    own granted SMs — and the latency/MLP limit keeps the replay-measured
    latency (queueing inflation under contention is not modelled).

    The envelope is a pure *scoring* input: it never affects the
    functional replay, so sweeping envelopes re-scores cached
    measurements at zero replay cost (it is a
    :data:`~repro.sim.simulator.SCORE_FIELDS` entry of the config).

    Attributes:
        dram_bandwidth_share: Fraction of the aggregate DRAM bandwidth.
        llc_bandwidth_share: Fraction of the conventional-LLC bandwidth.
        noc_bandwidth_share: Fraction of the NoC bandwidth.
    """

    dram_bandwidth_share: float = 1.0
    llc_bandwidth_share: float = 1.0
    noc_bandwidth_share: float = 1.0

    def __post_init__(self) -> None:
        for name in ("dram_bandwidth_share", "llc_bandwidth_share", "noc_bandwidth_share"):
            share = getattr(self, name)
            if not 0.0 < share <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {share}")

    @property
    def is_default(self) -> bool:
        """True for the whole-GPU envelope (every share exactly 1)."""
        return (
            self.dram_bandwidth_share == 1.0
            and self.llc_bandwidth_share == 1.0
            and self.noc_bandwidth_share == 1.0
        )


#: The whole-GPU envelope: every shared channel granted in full.
DEFAULT_ENVELOPE = ResourceEnvelope()

#: The shared memory-system channels an envelope apportions, in the fixed
#: order solvers iterate them.
SHARED_CHANNELS: Tuple[str, ...] = ("dram", "llc", "noc")

#: Envelope field per shared channel.
ENVELOPE_FIELDS: Dict[str, str] = {
    "dram": "dram_bandwidth_share",
    "llc": "llc_bandwidth_share",
    "noc": "noc_bandwidth_share",
}


def shared_bandwidth_capacities(gpu: "GPUConfig") -> Dict[str, float]:
    """Whole-GPU aggregate capacity of each shared channel, in bytes/cycle.

    The measured NoC bytes cover both directions while the per-port
    bandwidth is per direction, so the aggregate NoC capacity is doubled.
    """
    return {
        "dram": gpu.dram.bytes_per_cycle_per_channel * gpu.dram.num_channels,
        "llc": gpu.llc.bytes_per_cycle_per_partition * gpu.llc.num_partitions,
        "noc": (
            2.0
            * gpu.interconnect.bytes_per_cycle_per_port
            * gpu.interconnect.num_partitions
        ),
    }


def shared_bandwidth_demand(stats: SimulationStats, gpu: "GPUConfig") -> Dict[str, float]:
    """One scored run's offered load on each shared channel, in bytes/cycle.

    Derived purely from the run's :class:`~repro.sim.stats.SimulationStats`
    at its modelled IPC — the demand signal the co-run contention solver
    turns into proportional-pressure envelope shares.  The conventional-LLC
    demand excludes extended-LLC traffic (that bandwidth is private to the
    resident's own cache-mode SMs).
    """
    dram = (
        stats.dram_bytes / stats.instructions * stats.ipc
        if stats.instructions > 0
        else 0.0
    )
    conventional_llc = (
        max(0.0, stats.llc_throughput_gbps - stats.extended_llc_throughput_gbps)
        / gpu.core_clock_ghz
    )
    return {
        "dram": dram,
        "llc": conventional_llc,
        "noc": stats.noc_injection_bytes_per_cycle,
    }


@dataclass(frozen=True)
class ReplayMeasurement:
    """Everything one trace replay produces that the scoring step consumes.

    Attributes:
        counters: Per-level hit/traffic/latency counters from the engine.
        noc_average_latency_cycles: Average one-way NoC latency observed.
        predictor: Aggregated hit/miss-predictor statistics, or ``None`` when
            the run had no Morpheus controllers.
    """

    counters: HierarchyCounters
    noc_average_latency_cycles: float = 0.0
    predictor: Optional["PredictorStats"] = None

    def to_jsonable(self) -> Dict[str, Any]:
        """Render the measurement as JSON-compatible data.

        The rendering round-trips exactly: floats survive JSON via repr, so
        :meth:`from_jsonable` rebuilds a measurement whose score is
        bit-identical to the original's.
        """
        return {
            "counters": self.counters.to_jsonable(),
            "noc_average_latency_cycles": self.noc_average_latency_cycles,
            "predictor": (
                self.predictor.to_jsonable() if self.predictor is not None else None
            ),
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "ReplayMeasurement":
        """Rebuild a measurement from :meth:`to_jsonable` output."""
        from repro.core.hit_miss_predictor import PredictorStats

        predictor = payload.get("predictor")
        return cls(
            counters=HierarchyCounters.from_jsonable(payload["counters"]),
            noc_average_latency_cycles=payload["noc_average_latency_cycles"],
            predictor=(
                PredictorStats.from_jsonable(predictor) if predictor is not None else None
            ),
        )


class PerformanceModel:
    """Scores one replay measurement into :class:`SimulationStats`.

    IPC is the minimum of the compute limit, the DRAM bandwidth limit, the
    conventional/extended LLC bandwidth limits, the interconnect limit and
    the latency/MLP limit.  The shared-channel capacities (DRAM,
    conventional LLC, NoC) are granted through the config's
    :class:`ResourceEnvelope` — the default whole-GPU envelope reproduces
    the historical numbers bit-for-bit, while fractional shares model a
    co-resident tenant's slice of the memory system.  Execution time,
    energy and performance/watt follow from the modelled IPC and the
    per-level traffic extrapolated to the application's full instruction
    count.

    The model is pure: ``score`` depends only on its arguments and the
    energy-model constants, so one replay can be re-scored under different
    analytic parameters without re-replaying the trace.
    """

    def __init__(self, energy_model: EnergyModel | None = None) -> None:
        self.energy_model = energy_model or EnergyModel()

    def score(
        self,
        profile: ApplicationProfile,
        config: "SimulationConfig",
        measurement: ReplayMeasurement,
    ) -> SimulationStats:
        """Turn ``measurement`` into full statistics for ``profile`` under ``config``."""
        cfg = config
        gpu = cfg.gpu
        counters = measurement.counters

        l1_hit = profile.l1_hit_rate_for_capacity(gpu.l1_shared_bytes_per_sm)
        apki_l1 = profile.l1_apki
        apki_llc = profile.llc_apki(l1_hit)
        block = gpu.block_size

        accesses = max(1, counters.llc_accesses)
        dram_demand_fraction = counters.dram_access_fraction
        llc_mpki = apki_llc * (1.0 - counters.llc_hit_rate)
        dram_apki = apki_llc * dram_demand_fraction

        # Bytes moved per kilo-instruction at each level (measured per LLC
        # access, scaled by the application's LLC access intensity).
        conv_bytes_per_ki = counters.conventional_bytes / accesses * apki_llc
        ext_bytes_per_ki = counters.extended_bytes / accesses * apki_llc
        dram_bytes_per_ki = counters.dram_bytes / accesses * apki_llc
        noc_bytes_per_ki = counters.noc_bytes / accesses * apki_llc
        l1_bytes_per_ki = apki_l1 * block

        # --- IPC limits -------------------------------------------------------------
        limits: Dict[str, float] = {}
        limits["compute"] = (
            cfg.num_compute_sms * cfg.peak_warp_ipc_per_sm * profile.compute_efficiency
        )

        def bandwidth_limit(bytes_per_cycle: float, bytes_per_ki: float) -> float:
            if bytes_per_ki <= 1e-9:
                return float("inf")
            return bytes_per_cycle / (bytes_per_ki / 1000.0)

        # Shared-channel capacities are granted through the config's resource
        # envelope; the default envelope multiplies by exactly 1.0, so
        # single-tenant scoring is bit-identical to the pre-envelope model.
        envelope = cfg.envelope
        capacities = shared_bandwidth_capacities(gpu)

        dram_bpc = capacities["dram"] * envelope.dram_bandwidth_share
        limits["dram_bandwidth"] = bandwidth_limit(dram_bpc, dram_bytes_per_ki)

        llc_bpc = capacities["llc"] * envelope.llc_bandwidth_share
        limits["llc_bandwidth"] = bandwidth_limit(llc_bpc, conv_bytes_per_ki)

        if cfg.num_cache_sms > 0 and cfg.morpheus is not None:
            ext_bpc = (
                cfg.morpheus.timing.per_sm_extended_bandwidth_gbps
                / gpu.core_clock_ghz
                * cfg.num_cache_sms
            )
            limits["extended_llc_bandwidth"] = bandwidth_limit(ext_bpc, ext_bytes_per_ki)

        noc_bpc = capacities["noc"] * envelope.noc_bandwidth_share
        limits["noc_bandwidth"] = bandwidth_limit(noc_bpc, noc_bytes_per_ki)

        avg_latency = max(1.0, counters.average_latency_cycles)
        if apki_llc > 1e-9:
            limits["latency"] = (
                cfg.num_compute_sms * cfg.mlp_per_sm / avg_latency * (1000.0 / apki_llc)
            )
        else:
            limits["latency"] = float("inf")

        ipc = min(limits.values())
        bottleneck = min(limits, key=limits.get)

        instructions = float(profile.instructions)
        execution_cycles = instructions / max(ipc, 1e-9)

        # --- energy -----------------------------------------------------------------
        kilo_instructions = instructions / 1000.0
        num_gated = 0
        num_active_extra = gpu.num_sms - cfg.num_compute_sms - cfg.num_cache_sms
        if cfg.power_gate_unused:
            num_gated = num_active_extra
            num_active_extra = 0
        breakdown = self.energy_model.compute(
            execution_cycles=execution_cycles,
            instructions=instructions,
            dram_bytes=dram_bytes_per_ki * kilo_instructions,
            llc_bytes=conv_bytes_per_ki * kilo_instructions,
            extended_llc_bytes=ext_bytes_per_ki * kilo_instructions,
            l1_bytes=l1_bytes_per_ki * kilo_instructions,
            noc_bytes=noc_bytes_per_ki * kilo_instructions,
            num_compute_sms=cfg.num_compute_sms + num_active_extra,
            num_cache_sms=cfg.num_cache_sms,
            num_gated_sms=num_gated,
            morpheus_enabled=cfg.morpheus is not None and cfg.num_cache_sms > 0,
        )
        perf_per_watt = self.energy_model.performance_per_watt(ipc, breakdown, execution_cycles)
        avg_power = self.energy_model.average_power_watts(breakdown, execution_cycles)

        predictor = measurement.predictor

        # Achieved throughputs at the modelled IPC (GB/s).
        seconds_per_ki = (1000.0 / max(ipc, 1e-9)) / (gpu.core_clock_ghz * 1e9)

        def throughput_gbps(bytes_per_ki: float) -> float:
            if seconds_per_ki <= 0:
                return 0.0
            return bytes_per_ki / seconds_per_ki / 1e9

        return SimulationStats(
            application=profile.name,
            system=cfg.system_name,
            num_compute_sms=cfg.num_compute_sms,
            num_cache_sms=cfg.num_cache_sms,
            num_gated_sms=num_gated,
            ipc=ipc,
            execution_cycles=execution_cycles,
            instructions=instructions,
            l1_hit_rate=l1_hit,
            llc_hit_rate=counters.llc_hit_rate,
            conventional_llc_hit_rate=counters.conventional_hit_rate,
            extended_llc_hit_rate=counters.extended_hit_rate,
            extended_fraction=counters.extended_fraction,
            llc_mpki=llc_mpki,
            llc_apki=apki_llc,
            dram_accesses_per_ki=dram_apki,
            dram_bytes=dram_bytes_per_ki * kilo_instructions,
            dram_bandwidth_utilization=min(
                1.0, throughput_gbps(dram_bytes_per_ki) / max(1e-9, gpu.dram.total_bandwidth_gbps)
            ),
            llc_throughput_gbps=throughput_gbps(conv_bytes_per_ki + ext_bytes_per_ki),
            extended_llc_throughput_gbps=throughput_gbps(ext_bytes_per_ki),
            noc_bytes=noc_bytes_per_ki * kilo_instructions,
            noc_injection_bytes_per_cycle=noc_bytes_per_ki / 1000.0 * ipc,
            noc_average_latency_cycles=measurement.noc_average_latency_cycles,
            average_memory_latency_cycles=avg_latency,
            bottleneck=bottleneck,
            limits=limits,
            predictor_false_positive_rate=(
                predictor.false_positive_rate if predictor is not None else 0.0
            ),
            predictor_false_negatives=(
                predictor.false_negatives if predictor is not None else 0
            ),
            predicted_miss_fraction=(
                counters.predicted_misses / accesses if accesses else 0.0
            ),
            energy=breakdown,
            average_power_watts=avg_power,
            performance_per_watt=perf_per_watt,
        )

    def scorer(
        self,
        profile: ApplicationProfile,
        config: "SimulationConfig",
        measurement: ReplayMeasurement,
    ) -> "MeasurementScorer":
        """A :class:`~repro.sim.vector_model.MeasurementScorer` over ``measurement``.

        The scorer hoists every replay-side invariant once; use it to score
        the same measurement under many score-tier parameter variants
        (batch sweeps, per-iteration contention envelopes) without paying
        the full :meth:`score` preamble per point.  Results are
        bit-identical to :meth:`score`.
        """
        from repro.sim.vector_model import MeasurementScorer

        return MeasurementScorer(
            profile, config, measurement, energy_model=self.energy_model
        )

    def score_batch(
        self,
        profile: ApplicationProfile,
        configs: Sequence["SimulationConfig"],
        measurement: ReplayMeasurement,
        validate: bool = True,
    ) -> List[SimulationStats]:
        """Score ``measurement`` under every config in one vectorized pass.

        All configs must share the replay parameters the measurement was
        produced under (they may differ in any
        :data:`~repro.sim.simulator.SCORE_FIELDS` dimension); with
        ``validate`` each config is checked against the first and a
        mismatch raises :class:`ValueError`.  Callers that group configs by
        ``replay_key`` (e.g. the runner) may pass ``validate=False``.

        Bit-identical to calling :meth:`score` per config; tiny batches
        take the scalar loop instead.
        """
        if not configs:
            return []
        scorer = self.scorer(profile, configs[0], measurement)
        if validate:
            for config in configs[1:]:
                if not scorer.matches_replay(config):
                    raise ValueError(
                        "score_batch configs must share replay parameters; "
                        f"{config!r} differs from {configs[0]!r} in a "
                        "REPLAY_FIELDS dimension"
                    )
        return scorer.score_batch(configs)
