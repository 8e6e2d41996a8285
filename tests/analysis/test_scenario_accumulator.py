"""Streaming scenario aggregation: bit-identity with list-based reductions.

The production reductions (:func:`per_app_timelines`,
:func:`transition_overheads`, :func:`scenario_energy_j`) all read the one
:class:`ScenarioAccumulator` pass, so the references they are held to live
here: straightforward list-based folds over ``result.phases``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import pytest

from repro.analysis.scenarios import (
    AppTimeline,
    ScenarioAccumulator,
    TransitionOverheads,
    per_app_timelines,
    scenario_energy_j,
    slowdown_stats,
    time_weighted_ipc,
    transition_overheads,
    weighted_percentile,
)
from repro.energy.components import DEFAULT_ENERGIES
from repro.runner import ExperimentRunner
from repro.scenarios import SCENARIO_LIBRARY, ScenarioEngine, get_scenario
from fidelity_utils import TINY_FIDELITY
from scenarios.scenario_test_utils import per_phase_reference

SYSTEM = "Morpheus-Basic"
SHAPES = sorted(name for name in SCENARIO_LIBRARY if name != "diurnal")
SHAPE_KWARGS = {"fleet": {"num_phases": 60, "seed": 2}}


def engine_for(tmp_path, name):
    runner = ExperimentRunner(cache_dir=tmp_path / f"cache-{name}", max_workers=0)
    return ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY)


def build(name):
    return get_scenario(name, **SHAPE_KWARGS.get(name, {}))


def run_shape(tmp_path, name):
    return engine_for(tmp_path, name).run(build(name), SYSTEM)


# -- list-based references -------------------------------------------------------------


def reference_transition_overheads(result, energies=DEFAULT_ENERGIES):
    transitions = 0
    flush_cycles = 0.0
    warmup_cycles = 0.0
    flushed = 0.0
    filled = 0.0
    for execution in result.phases:
        cost = execution.decision.transition
        if cost.is_zero:
            continue
        transitions += 1
        flush_cycles += cost.flush_cycles
        warmup_cycles += cost.warmup_cycles
        flushed += cost.flushed_dirty_bytes
        filled += cost.warmup_fill_bytes
    total = result.total_cycles
    return TransitionOverheads(
        transitions=transitions,
        flush_cycles=flush_cycles,
        warmup_cycles=warmup_cycles,
        flushed_dirty_bytes=flushed,
        warmup_fill_bytes=filled,
        dram_energy_j=(flushed + filled) * energies.dram_pj_per_byte * 1e-12,
        overhead_fraction=(flush_cycles + warmup_cycles) / total if total > 0 else 0.0,
    )


def reference_scenario_energy_j(result, energies=DEFAULT_ENERGIES):
    total = 0.0
    for execution in result.phases:
        for resident in execution.residents:
            breakdown = resident.stats.energy
            if breakdown is None or resident.stats.instructions <= 0:
                continue
            scale = resident.instructions / resident.stats.instructions
            total += breakdown.total_j * scale
    return total + reference_transition_overheads(result, energies).dram_energy_j


def reference_per_app_timelines(result) -> Dict[str, AppTimeline]:
    order = result.scenario.applications
    instructions = {name: 0.0 for name in order}
    resident_cycles = {name: 0.0 for name in order}
    transition_cycles = {name: 0.0 for name in order}
    weighted_ipc = {name: 0.0 for name in order}
    weighted_uncontended_ipc = {name: 0.0 for name in order}
    resident_weight = {name: 0.0 for name in order}
    compute_sm_cycles = {name: 0.0 for name in order}
    cache_sm_cycles = {name: 0.0 for name in order}
    for execution in result.phases:
        stall = execution.decision.transition.total_cycles
        weight = execution.phase.duration_weight
        for resident in execution.residents:
            name = resident.application
            instructions[name] += resident.instructions
            resident_cycles[name] += execution.cycles
            transition_cycles[name] += stall
            weighted_ipc[name] += weight * resident.stats.ipc
            weighted_uncontended_ipc[name] += weight * resident.uncontended_ipc
            resident_weight[name] += weight
            compute_sm_cycles[name] += resident.grant.compute_sms * execution.cycles
            cache_sm_cycles[name] += resident.grant.cache_sms * execution.cycles
    timelines = {}
    for name in order:
        cycles = resident_cycles[name]
        weight = resident_weight[name]
        timelines[name] = AppTimeline(
            application=name,
            instructions=instructions[name],
            resident_cycles=cycles,
            transition_cycles=transition_cycles[name],
            ipc=instructions[name] / cycles if cycles > 0 else 0.0,
            slice_ipc=weighted_ipc[name] / weight if weight > 0 else 0.0,
            uncontended_slice_ipc=(
                weighted_uncontended_ipc[name] / weight if weight > 0 else 0.0
            ),
            mean_compute_sms=compute_sm_cycles[name] / cycles if cycles > 0 else 0.0,
            mean_cache_sms=cache_sm_cycles[name] / cycles if cycles > 0 else 0.0,
        )
    return timelines


def phase_slowdowns(
    result, reference_ipc: Optional[Mapping[str, float]] = None
) -> Dict[str, List[Tuple[float, float]]]:
    """Per-application (slowdown, duration weight) pairs, in phase order."""
    pairs: Dict[str, List[Tuple[float, float]]] = {
        name: [] for name in result.scenario.applications
    }
    for execution in result.phases:
        weight = execution.phase.duration_weight
        for resident in execution.residents:
            reference = (
                reference_ipc[resident.application]
                if reference_ipc is not None
                else resident.uncontended_ipc
            )
            ipc = resident.stats.ipc
            slowdown = reference / ipc if ipc > 0.0 and reference > 0.0 else 0.0
            pairs[resident.application].append((slowdown, weight))
    return pairs


class TestWeightedPercentile:
    def test_nearest_rank_on_unit_weights(self):
        pairs = [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)]
        assert weighted_percentile(pairs, 0.25) == 1.0
        assert weighted_percentile(pairs, 0.50) == 2.0
        assert weighted_percentile(pairs, 1.00) == 4.0

    def test_weights_shift_the_rank(self):
        pairs = [(1.0, 3.0), (10.0, 1.0)]
        assert weighted_percentile(pairs, 0.75) == 1.0
        assert weighted_percentile(pairs, 0.90) == 10.0

    def test_mapping_and_raw_pairs_agree(self):
        pairs = [(2.0, 1.0), (1.0, 0.5), (2.0, 1.0), (3.0, 0.25)]
        grouped = {1.0: 0.5, 2.0: 2.0, 3.0: 0.25}
        for fraction in (0.1, 0.5, 0.9, 0.99, 1.0):
            assert weighted_percentile(pairs, fraction) == weighted_percentile(
                grouped, fraction
            )

    def test_empty_pairs_yield_zero(self):
        assert weighted_percentile([], 0.5) == 0.0

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_rejects_bad_fractions(self, fraction):
        with pytest.raises(ValueError):
            weighted_percentile([(1.0, 1.0)], fraction)


class TestSlowdownStats:
    def test_folds_pairs(self):
        stats = slowdown_stats("spmv", [(1.0, 2.0), (1.5, 1.0), (4.0, 1.0)])
        assert stats.application == "spmv"
        assert stats.weight == 4.0
        assert stats.p50 == 1.0
        assert stats.max == 4.0
        assert stats.p99 == 4.0


class TestAccumulatorBitIdentity:
    @pytest.mark.parametrize("name", SHAPES)
    def test_matches_list_based_reductions_on_every_shape(self, tmp_path, name):
        result = run_shape(tmp_path, name)
        aggregates = ScenarioAccumulator.from_result(result).aggregates()

        assert aggregates.phases == len(result.phases)
        assert aggregates.total_instructions == result.total_instructions
        assert aggregates.compute_cycles == result.compute_cycles
        assert aggregates.transition_cycles == result.transition_cycles
        assert aggregates.total_cycles == result.total_cycles
        assert aggregates.time_weighted_ipc == time_weighted_ipc(result)
        assert aggregates.energy_j == reference_scenario_energy_j(result)
        assert aggregates.transitions == reference_transition_overheads(result)
        assert aggregates.timelines == reference_per_app_timelines(result)
        # The production reductions are thin reads of the same pass.
        assert scenario_energy_j(result) == aggregates.energy_j
        assert transition_overheads(result) == aggregates.transitions
        assert per_app_timelines(result) == aggregates.timelines
        assert aggregates.slowdowns == {
            application: slowdown_stats(application, pairs)
            for application, pairs in phase_slowdowns(result).items()
        }

    def test_same_aggregates_for_dedup_and_per_phase_runs(self, tmp_path):
        scenario = build("corun_overlap")
        dedup = engine_for(tmp_path / "dedup", "corun_overlap").run(scenario, SYSTEM)
        reference = ScenarioAccumulator(scenario)
        for execution in per_phase_reference(
            engine_for(tmp_path / "reference", "corun_overlap"), scenario, SYSTEM
        ):
            reference.add(execution)
        assert (
            ScenarioAccumulator.from_result(dedup).aggregates()
            == reference.aggregates()
        )

    def test_incremental_add_equals_from_result(self, tmp_path):
        result = run_shape(tmp_path, "bursty")
        accumulator = ScenarioAccumulator(result.scenario)
        for execution in result.phases:
            accumulator.add(execution)
        assert (
            accumulator.aggregates()
            == ScenarioAccumulator.from_result(result).aggregates()
        )

    def test_reference_ipc_drives_the_slowdowns(self, tmp_path):
        result = run_shape(tmp_path, "corun_pair")
        references = {name: 2.0 for name in result.scenario.applications}
        aggregates = ScenarioAccumulator.from_result(
            result, reference_ipc=references
        ).aggregates()
        assert aggregates.slowdowns == {
            application: slowdown_stats(application, pairs)
            for application, pairs in phase_slowdowns(
                result, reference_ipc=references
            ).items()
        }
        # Every other aggregate ignores the reference.
        plain = ScenarioAccumulator.from_result(result).aggregates()
        assert aggregates.time_weighted_ipc == plain.time_weighted_ipc
        assert aggregates.energy_j == plain.energy_j
        assert aggregates.timelines == plain.timelines
