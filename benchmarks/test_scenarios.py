"""Scenario engine: phase-lowering hot path and warm timeline aggregation.

Unlike the figure benchmarks, the interesting cost here is not the (cached)
leaf simulations but the scenario bookkeeping itself: policy planning plus
config construction (``ScenarioEngine.lower``) runs once per (timeline,
system, policy) and scales with the phase count, so a large fleet of
timeline experiments pays it constantly.  The second benchmark times a full
warm-cache timeline run — lowering plus cache lookups plus aggregation —
which is what a re-scored scenario study costs per timeline.
"""

from __future__ import annotations

import dataclasses

from conftest import BENCH_FIDELITY, run_scoring

from repro.analysis.scenarios import time_weighted_ipc, transition_overheads
from repro.runner import active_runner
from repro.scenarios import (
    ContentionModel,
    DynamicCapacityManager,
    ScenarioEngine,
    corun_overlap,
    ramp,
    solve_scenario_contention,
)
from repro.sim.simulator import SimulationConfig
from repro.workloads.applications import get_application

#: A long diurnal timeline (2 * 24 - 1 = 47 phases) stresses per-phase work.
LOWERING_SCENARIO = ramp(application="kmeans", low_sms=10, high_sms=60, steps=24)

#: A short timeline for the end-to-end warm-run benchmark.
RUN_SCENARIO = ramp(application="kmeans", low_sms=24, high_sms=60, steps=3)

#: A contended overlapping co-run for the fixed-point solver benchmark.
CORUN_SCENARIO = corun_overlap(rounds=2)


def test_scenario_phase_lowering(benchmark):
    """Time lowering a 47-phase diurnal timeline to leaf configs (pure)."""
    engine = ScenarioEngine(fidelity=BENCH_FIDELITY)
    policy = DynamicCapacityManager(hysteresis_sms=2)

    lowered = benchmark(lambda: engine.lower(LOWERING_SCENARIO, "Morpheus-ALL", policy))

    assert len(lowered) == len(LOWERING_SCENARIO)
    # The ramp hands capacity back on every ascending step: the dynamic
    # manager must charge at least one non-zero transition.
    assert any(not leaf.decision.transition.is_zero for leaf in lowered)


def test_scenario_warm_timeline_run(benchmark):
    """Time a warm-cache timeline run (lowering + scoring path + aggregation)."""
    engine = ScenarioEngine(fidelity=BENCH_FIDELITY)

    result = run_scoring(
        benchmark, lambda: engine.run(RUN_SCENARIO, "Morpheus-Basic")
    )

    assert len(result) == len(RUN_SCENARIO)
    assert time_weighted_ipc(result) > 0
    assert transition_overheads(result).transitions > 0


def test_corun_contention_solve(benchmark):
    """Time the co-run shared-bandwidth fixed point over warm measurements.

    Each timed round drops the scored-stats layers *and* the persisted
    scenario aggregates, then re-runs the whole contended timeline:
    lowering, the uncontended batch and the proportional-pressure
    fixed-point solve — all pure scoring over the warm measurement tier.
    A regression in the solver's iteration count or per-iteration scoring
    cost shows up directly, with zero replay noise.
    """
    engine = ScenarioEngine(fidelity=BENCH_FIDELITY)

    result = run_scoring(
        benchmark, lambda: engine.run(CORUN_SCENARIO, "Morpheus-ALL")
    )

    assert len(result) == len(CORUN_SCENARIO)
    for execution in result.phases:
        for resident in execution.residents:
            # The solve actually contended the residents.
            assert resident.stats.ipc < resident.uncontended_ipc


def _corun_leaves():
    base = SimulationConfig(
        num_compute_sms=28,
        power_gate_unused=True,
        capacity_scale=BENCH_FIDELITY.capacity_scale,
        trace_accesses=BENCH_FIDELITY.trace_accesses,
        warmup_accesses=BENCH_FIDELITY.warmup_accesses,
        system_name="bench-contention",
        seed=1,
    )
    return [
        (
            get_application(app),
            dataclasses.replace(base, num_compute_sms=sms, system_name=app),
        )
        for app, sms in (("spmv", 28), ("cfd", 24))
    ]


def test_contention_fixed_point_kernel(benchmark):
    """Time the raw fixed-point solve of one co-run phase over warm measurements.

    The solver hoists the per-measurement invariants into a precomputed
    scorer once per resident, so each iteration costs only the
    score-tier arithmetic.
    """
    runner = active_runner()
    leaves = _corun_leaves()
    uncontended = runner.run_leaves(leaves)
    gpu = leaves[0][1].gpu

    (solution,) = benchmark(
        lambda: solve_scenario_contention(
            runner, gpu, [(leaves, uncontended)], ContentionModel()
        )
    )

    assert solution.converged
    assert all(stats.ipc > 0 for stats in solution.stats)
