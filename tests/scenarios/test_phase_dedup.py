"""Phase-signature dedup: bit-identity with the per-phase oracle, at fleet scale.

The engine solves each distinct phase signature once; that must be an
invisible optimisation, so every library shape's per-phase results equal
:func:`~scenario_test_utils.per_phase_reference`, which solves every phase
on its own.  The fleet-scale test then pins the whole point — thousands of
phases collapse to tens of signatures, every phase is accounted for by the
dedup counters and the reloaded signature counts, and a warm re-run touches
exactly one scenario-tier payload.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.runner import ExperimentRunner
from repro.scenarios import (
    SCENARIO_LIBRARY,
    PhaseSignature,
    ScenarioEngine,
    fleet,
    get_scenario,
)
from repro.telemetry import Telemetry
from repro.telemetry.report import summarize
from scenario_test_utils import TINY_FIDELITY, per_phase_reference

SYSTEM = "Morpheus-Basic"

#: Library shapes under test ("diurnal" is an alias of "ramp"); the fleet
#: shape is shrunk so the full matrix stays fast.
SHAPES = sorted(name for name in SCENARIO_LIBRARY if name != "diurnal")
SHAPE_KWARGS = {"fleet": {"num_phases": 60, "seed": 2}}


def build(name):
    return get_scenario(name, **SHAPE_KWARGS.get(name, {}))


def engine_for(tmp_path, subdir):
    runner = ExperimentRunner(cache_dir=tmp_path / subdir, max_workers=0)
    return ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY)


def snapshot(phases) -> list:
    """A comparable rendering of per-phase executions (stats + cycle accounting)."""
    return [
        (
            execution.index,
            dataclasses.asdict(execution.phase),
            dataclasses.asdict(execution.decision),
            [dataclasses.asdict(resident) for resident in execution.residents],
            execution.instructions,
            execution.compute_cycles,
        )
        for execution in phases
    ]


class TestDedupBitIdentity:
    @pytest.mark.parametrize("name", SHAPES)
    def test_matches_per_phase_path_on_every_library_shape(self, tmp_path, name):
        scenario = build(name)
        run = engine_for(tmp_path, "engine").run(scenario, SYSTEM)
        reference = per_phase_reference(
            engine_for(tmp_path, "reference"), scenario, SYSTEM
        )
        assert snapshot(run.phases) == snapshot(reference)
        assert run.dedup_hits == len(scenario.phases) - len(run.signatures)
        # Each signature's count is the number of phases bearing it.
        bearing = Counter(
            PhaseSignature(
                residents=phase.phase.residents,
                duration_weight=phase.phase.duration_weight,
                split=phase.decision.split,
                grants=phase.decision.grants,
            )
            for phase in reference
        )
        assert {
            execution.signature: execution.count for execution in run.signatures
        } == bearing


class TestFleetScale:
    def test_5k_phase_fleet_dedups_and_reloads_one_payload(self, tmp_path):
        scenario = fleet(num_phases=5000, seed=7)
        trace_dir = tmp_path / "trace"
        with Telemetry(directory=trace_dir, enabled=True):
            cold_engine = engine_for(tmp_path, "cache")
            cold = cold_engine.run(scenario, SYSTEM)
            warm_engine = engine_for(tmp_path, "cache")
            warm = warm_engine.run(scenario, SYSTEM)

        # Thousands of phases, tens of signatures.
        signatures = len(cold.signatures)
        assert 0 < signatures < 100
        assert cold.dedup_hits == 5000 - signatures
        assert len(cold.phases) == 5000

        # Warm: zero replay-tier traffic, exactly one scenario-tier payload.
        warm_cache = warm_engine.runner.disk_cache
        assert warm_engine.runner.replays == 0
        assert warm_cache.replay_misses == 0
        assert warm_cache.tier_counters()["scenario_hits"] == 1
        assert snapshot(warm.phases) == snapshot(cold.phases)
        # Signature counts are derived from the reloaded phase ids, not
        # stored, and still account for every phase.
        counts = [execution.count for execution in warm.signatures]
        assert counts == [execution.count for execution in cold.signatures]
        assert sum(counts) == len(warm.phases)

        # Only the cold pass lowers phases, and its counters account for
        # every one of them.
        counters = summarize(trace_dir)["counters"]
        assert counters["scenario.dedup.hits"] == cold.dedup_hits
        assert counters["scenario.dedup.misses"] == signatures
        histograms = summarize(trace_dir)["histograms"]
        assert histograms["scenario.signature_solve_seconds"]["count"] > 0
