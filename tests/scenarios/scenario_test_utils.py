"""Shared helpers for the scenario test suites (not collected by pytest).

:func:`per_phase_reference` is the O(phases) oracle the signature-dedup
engine is held to: it solves every phase of a timeline on its own, from
the engine's public lowering and the runner's public leaf API, and never
touches the engine's execution path.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from fidelity_utils import TINY_FIDELITY
from repro.runner.runner import active_runner
from repro.scenarios import (
    CapacityPolicy,
    ContentionModel,
    PhaseExecution,
    ResidentExecution,
    ScenarioEngine,
    ScenarioSpec,
    proportional_pressure_shares,
)
from repro.scenarios.contention import MIN_SHARE
from repro.sim.performance_model import (
    DEFAULT_ENVELOPE,
    ENVELOPE_FIELDS,
    ResourceEnvelope,
    SHARED_CHANNELS,
    shared_bandwidth_demand,
)
from repro.sim.stats import SimulationStats
from repro.workloads.applications import get_application

__all__ = ["TINY_FIDELITY", "per_call_fixed_point", "per_phase_reference"]


def per_call_fixed_point(
    runner, gpu, leaves, uncontended: Sequence[SimulationStats], model: ContentionModel
) -> Tuple[List[SimulationStats], List[ResourceEnvelope]]:
    """One co-run phase's contention, re-scored per call every iteration.

    The same damped proportional-pressure iteration as
    :func:`~repro.scenarios.contention.solve_scenario_contention`, but each
    iterate scores through :meth:`ExperimentRunner.score_measurement` on a
    freshly replaced config instead of a precomputed scorer.
    """
    measurements = [runner.measurement_for(profile, config) for profile, config in leaves]
    shares = [{channel: 1.0 for channel in SHARED_CHANNELS} for _ in leaves]
    stats = list(uncontended)
    envelopes = [DEFAULT_ENVELOPE for _ in leaves]
    for _ in range(model.max_iterations):
        targets = proportional_pressure_shares(
            [shared_bandwidth_demand(entry, gpu) for entry in stats]
        )
        movement = 0.0
        for share, target in zip(shares, targets):
            for channel in SHARED_CHANNELS:
                current = share[channel]
                stepped = current + model.damping * (target[channel] - current)
                stepped = min(1.0, max(MIN_SHARE, stepped))
                movement = max(movement, abs(stepped - current))
                share[channel] = stepped
        envelopes = [
            ResourceEnvelope(
                **{ENVELOPE_FIELDS[channel]: share[channel] for channel in SHARED_CHANNELS}
            )
            for share in shares
        ]
        stats = [
            runner.score_measurement(
                profile, dataclasses.replace(config, envelope=envelope), measurement
            )
            for (profile, config), envelope, measurement in zip(
                leaves, envelopes, measurements
            )
        ]
        if movement < model.tolerance:
            break
    return stats, envelopes


def per_phase_reference(
    engine: ScenarioEngine,
    scenario: ScenarioSpec,
    system: str,
    policy: Optional[CapacityPolicy] = None,
) -> List[PhaseExecution]:
    """Execute ``scenario`` one phase at a time: the engine's reference.

    Lowers with :meth:`ScenarioEngine.lower`, runs every distinct leaf
    through one :meth:`ExperimentRunner.run_leaves` batch, then solves each
    co-run phase's contention on its own with the per-call fixed point and
    builds its :class:`PhaseExecution` directly — no signatures, no
    aggregate cache, no shared solves.  ``engine.run(...).phases`` must
    equal the returned list field for field.
    """
    runner = engine.runner if engine.runner is not None else active_runner()
    lowered = engine.lower(scenario, system, policy)
    profiles = {name: get_application(name) for name in scenario.applications}
    unique = list(
        dict.fromkeys(
            (leaf.application, leaf.config) for phase in lowered for leaf in phase.leaves
        )
    )
    batch = runner.run_leaves(
        [(profiles[application], config) for application, config in unique]
    )
    stats_by_leaf = dict(zip(unique, batch))

    executions = []
    for phase in lowered:
        keys = [(leaf.application, leaf.config) for leaf in phase.leaves]
        uncontended = [stats_by_leaf[key] for key in keys]
        if len(keys) > 1 and engine.contention.enabled:
            leaf_stats, envelopes = per_call_fixed_point(
                runner,
                engine.gpu,
                [(profiles[application], config) for application, config in keys],
                uncontended,
                engine.contention,
            )
        else:
            leaf_stats = uncontended
            envelopes = [DEFAULT_ENVELOPE] * len(keys)
        instructions = phase.phase.duration_weight * scenario.instructions_per_weight
        compute_cycles = instructions / max(sum(s.ipc for s in leaf_stats), 1e-9)
        executions.append(
            PhaseExecution(
                index=phase.index,
                phase=phase.phase,
                decision=phase.decision,
                residents=tuple(
                    ResidentExecution(
                        grant=leaf.grant,
                        stats=stats,
                        instructions=stats.ipc * compute_cycles,
                        envelope=envelope,
                        uncontended_ipc=base.ipc,
                    )
                    for leaf, stats, envelope, base in zip(
                        phase.leaves, leaf_stats, envelopes, uncontended
                    )
                ),
                instructions=instructions,
                compute_cycles=compute_cycles,
            )
        )
    return executions
