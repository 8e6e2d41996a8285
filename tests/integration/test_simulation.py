"""Integration tests: the simulator, the evaluated systems and the paper's headline behaviours.

These tests run the trace-driven simulation at reduced (FAST) fidelity, so
they check qualitative behaviour — who wins and in which direction — rather
than exact figures.
"""

import pytest

from repro.core.config import MorpheusConfig
from repro.sim.engine import MemoryHierarchyEngine
from repro.sim.simulator import GPUSimulator, SimulationConfig, simulate
from repro.gpu.config import RTX3080_CONFIG
from repro.systems.fidelity import FAST_FIDELITY
from repro.systems.morpheus_system import MorpheusSystem, MorpheusVariant
from repro.systems.registry import evaluate_application, get_system, run_scenario
from repro.workloads.applications import get_application
from repro.workloads.generator import TraceGenerator

FAST_KWARGS = dict(
    capacity_scale=FAST_FIDELITY.capacity_scale,
    trace_accesses=FAST_FIDELITY.trace_accesses,
    warmup_accesses=FAST_FIDELITY.warmup_accesses,
)


def run(profile_name: str, **kwargs) -> "SimulationStats":
    profile = get_application(profile_name)
    merged = {**FAST_KWARGS, **kwargs}
    return simulate(profile, SimulationConfig(**merged))


class TestEngine:
    def test_engine_counts_accesses(self):
        profile = get_application("cfd")
        engine = MemoryHierarchyEngine(RTX3080_CONFIG, capacity_scale=1 / 32)
        trace = TraceGenerator(profile, 20, scale=1 / 32, seed=1).generate(2000)
        counters = engine.run(trace)
        assert counters.llc_accesses == 2000
        assert counters.llc_hits + counters.dram_accesses >= 2000 * 0.95

    def test_morpheus_engine_routes_to_extended_llc(self):
        profile = get_application("cfd")
        engine = MemoryHierarchyEngine(
            RTX3080_CONFIG,
            morpheus=MorpheusConfig(),
            cache_sm_ids=list(range(20, 40)),
            capacity_scale=1 / 32,
        )
        trace = TraceGenerator(profile, 20, scale=1 / 32, seed=1).generate(3000)
        counters = engine.run(trace)
        assert counters.extended_requests > 0
        assert counters.extended_hits > 0

    def test_reset_counters_preserves_cache_contents(self):
        profile = get_application("cfd")
        engine = MemoryHierarchyEngine(RTX3080_CONFIG, capacity_scale=1 / 32)
        generator = TraceGenerator(profile, 20, scale=1 / 32, seed=1)
        engine.run(generator.generate(2000))
        occupancy_before = sum(p.occupancy() for p in engine.llc.partitions)
        engine.reset_counters()
        assert engine.counters.llc_accesses == 0
        assert sum(p.occupancy() for p in engine.llc.partitions) == occupancy_before


class TestSimulatorBasics:
    def test_simulation_produces_positive_ipc(self):
        stats = run("cfd", num_compute_sms=34)
        assert stats.ipc > 0
        assert stats.execution_cycles > 0
        assert stats.energy is not None
        assert stats.performance_per_watt > 0

    def test_memory_bound_app_is_memory_limited_at_high_sm_count(self):
        stats = run("p-bfs", num_compute_sms=68)
        assert stats.bottleneck in ("dram_bandwidth", "latency", "noc_bandwidth")

    def test_compute_bound_app_is_compute_limited(self):
        stats = run("mri-q", num_compute_sms=68)
        assert stats.bottleneck == "compute"

    def test_compute_bound_scales_with_sms(self):
        low = run("mri-q", num_compute_sms=10)
        high = run("mri-q", num_compute_sms=68)
        assert high.ipc / low.ipc == pytest.approx(6.8, rel=0.05)

    def test_memory_bound_saturates_with_sms(self):
        low = run("stencil", num_compute_sms=10)
        high = run("stencil", num_compute_sms=68)
        assert high.ipc / low.ipc < 2.0

    def test_larger_llc_helps_memory_bound_app(self):
        base = run("kmeans", num_compute_sms=24, power_gate_unused=True)
        bigger = run(
            "kmeans",
            num_compute_sms=24,
            power_gate_unused=True,
            gpu=RTX3080_CONFIG.with_llc_scale(4),
        )
        assert bigger.ipc > base.ipc

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_compute_sms=60, num_cache_sms=20)
        with pytest.raises(ValueError):
            SimulationConfig(num_cache_sms=4)  # cache SMs without Morpheus


class TestMorpheusBehaviour:
    def test_morpheus_beats_same_compute_sms_without_it(self):
        baseline = run("kmeans", num_compute_sms=24, power_gate_unused=True)
        morpheus = run(
            "kmeans",
            num_compute_sms=24,
            num_cache_sms=44,
            morpheus=MorpheusConfig(enable_compression=True, enable_indirect_mov_isa=True),
            power_gate_unused=True,
        )
        assert morpheus.ipc > baseline.ipc
        assert morpheus.llc_hit_rate > baseline.llc_hit_rate

    def test_morpheus_reduces_offchip_traffic(self):
        baseline = run("kmeans", num_compute_sms=24, power_gate_unused=True)
        morpheus = run(
            "kmeans",
            num_compute_sms=24,
            num_cache_sms=44,
            morpheus=MorpheusConfig(),
            power_gate_unused=True,
        )
        assert morpheus.dram_accesses_per_ki < baseline.dram_accesses_per_ki

    def test_predictor_has_no_false_negatives(self):
        morpheus = run(
            "cfd",
            num_compute_sms=34,
            num_cache_sms=34,
            morpheus=MorpheusConfig(),
            power_gate_unused=True,
        )
        assert morpheus.predictor_false_negatives == 0

    def test_compression_increases_extended_capacity_benefit(self):
        basic = run(
            "kmeans", num_compute_sms=24, num_cache_sms=44,
            morpheus=MorpheusConfig(), power_gate_unused=True,
        )
        compressed = run(
            "kmeans", num_compute_sms=24, num_cache_sms=44,
            morpheus=MorpheusConfig(enable_compression=True), power_gate_unused=True,
        )
        assert compressed.ipc >= basic.ipc

    def test_morpheus_increases_noc_load(self):
        baseline = run("kmeans", num_compute_sms=24, power_gate_unused=True)
        morpheus = run(
            "kmeans", num_compute_sms=24, num_cache_sms=44,
            morpheus=MorpheusConfig(), power_gate_unused=True,
        )
        assert morpheus.noc_bytes > baseline.noc_bytes


class TestEvaluatedSystems:
    def test_morpheus_all_beats_bl_on_thrashing_app(self):
        bl = evaluate_application("BL", "kmeans", fidelity=FAST_FIDELITY)
        morpheus = evaluate_application("Morpheus-ALL", "kmeans", fidelity=FAST_FIDELITY)
        assert morpheus.execution_cycles < bl.execution_cycles

    def test_morpheus_energy_efficiency_beats_bl(self):
        bl = evaluate_application("BL", "kmeans", fidelity=FAST_FIDELITY)
        morpheus = evaluate_application("Morpheus-ALL", "kmeans", fidelity=FAST_FIDELITY)
        assert morpheus.performance_per_watt > bl.performance_per_watt

    def test_morpheus_does_not_hurt_compute_bound_apps(self):
        bl = evaluate_application("BL", "mri-q", fidelity=FAST_FIDELITY)
        morpheus = evaluate_application("Morpheus-ALL", "mri-q", fidelity=FAST_FIDELITY)
        assert morpheus.ipc == pytest.approx(bl.ipc, rel=0.05)
        assert morpheus.num_cache_sms == 0

    def test_morpheus_operating_point_uses_cache_sms_for_memory_bound(self):
        system = MorpheusSystem(MorpheusVariant.ALL, fidelity=FAST_FIDELITY)
        point = system.operating_point(get_application("kmeans"))
        assert point.num_cache_sms > 0
        assert point.num_compute_sms + point.num_cache_sms <= 68

    def test_ibl_uses_fewer_sms_for_thrashing_app(self):
        ibl = evaluate_application("IBL", "kmeans", fidelity=FAST_FIDELITY)
        assert ibl.num_compute_sms < 68


class TestSystemRegistry:
    def test_unknown_system_rejected_with_valid_names(self):
        with pytest.raises(ValueError, match="Morpheus-ALL"):
            get_system("Morpheus-Turbo")

    def test_predictor_override_needs_a_morpheus_system(self):
        with pytest.raises(ValueError):
            get_system("BL", predictor="perfect")
        declarative = get_system("Morpheus-Basic", predictor="perfect")
        named = get_system("Morpheus-Basic(perfect)")
        assert declarative.name == named.name == "Morpheus-Basic(perfect)"
        assert declarative.morpheus_config == named.morpheus_config

    def test_ibl_2x_llc_doubles_the_conventional_llc(self):
        system = get_system("IBL-2X-LLC", fidelity=FAST_FIDELITY)
        assert system.name == "IBL-2X-LLC"
        assert system.scale_factor == 2.0
        assert system._gpu.llc == RTX3080_CONFIG.with_llc_scale(2.0).llc

    def test_scenario_arbitration_and_policy_are_exclusive(self):
        from repro.scenarios.policy import DynamicCapacityManager

        with pytest.raises(ValueError, match="not both"):
            run_scenario(
                "Morpheus-Basic",
                "bursty",
                fidelity=FAST_FIDELITY,
                policy=DynamicCapacityManager(),
                arbitration="proportional",
            )
