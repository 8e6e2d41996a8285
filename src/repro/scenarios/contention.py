"""Shared-bandwidth contention between co-resident tenants.

A co-run phase's residents do not only compete for the arbitrated
extended-LLC grants — they share the GPU's DRAM channels, conventional-LLC
banks and NoC.  This module solves that contention as a small fixed point
over the *scoring* tier:

1. each resident's leaf is scored under its current
   :class:`~repro.sim.performance_model.ResourceEnvelope` (initially the
   whole-GPU default, i.e. the historical uncontended model);
2. the scored IPCs determine each resident's offered load on every shared
   channel (:func:`~repro.sim.performance_model.shared_bandwidth_demand`);
3. the loads determine **proportional-pressure shares** — on each channel
   every resident is entitled to capacity in proportion to its demand, so
   an unsaturated channel throttles nobody (each entitlement covers its
   demand) while a saturated one slows every user by the same pressure
   ratio unless it is bound elsewhere;
4. the shares are damped into new envelopes and the residents re-scored.

The iteration is deterministic (fixed resident order, pure float
arithmetic, in-process scoring), damped (:attr:`ContentionModel.damping`)
and bounded (:attr:`ContentionModel.max_iterations`), so serial and
parallel runners produce bit-identical solutions.  Crucially it is a
**score-tier-only** computation: the envelope is a
:data:`~repro.sim.simulator.SCORE_FIELDS` entry, every iteration re-scores
the phase's cached replay measurements, and no trace is ever re-replayed —
contention costs nothing at the replay tier.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, TYPE_CHECKING

from repro.sim.performance_model import (
    DEFAULT_ENVELOPE,
    ENVELOPE_FIELDS,
    ResourceEnvelope,
    SHARED_CHANNELS,
    shared_bandwidth_demand,
)
from repro.sim.stats import SimulationStats
from repro.telemetry import telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.config import GPUConfig
    from repro.runner.runner import ExperimentRunner
    from repro.sim.simulator import SimulationConfig
    from repro.workloads.applications import ApplicationProfile

#: Smallest share the solver assigns: envelopes require shares in (0, 1],
#: and a resident with (near-)zero demand on a channel must keep an
#: epsilon entitlement rather than a forbidden zero share.
MIN_SHARE = 1e-9


@dataclass(frozen=True)
class ContentionModel:
    """Knobs of the co-run shared-bandwidth fixed-point solver.

    Attributes:
        enabled: When false, co-run residents score under the whole-GPU
            default envelope — the pre-contention behaviour.
        damping: Fraction of the distance toward the proportional-pressure
            target each iteration takes (``1.0`` is undamped).  Damping
            keeps the demand/share feedback loop from oscillating.
        max_iterations: Hard bound on solver iterations; the last iterate
            is used if the tolerance was not reached (deterministic either
            way).
        tolerance: Convergence threshold on the largest per-channel share
            movement in one iteration.
    """

    enabled: bool = True
    damping: float = 0.5
    max_iterations: int = 40
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class PhaseContentionSolution:
    """The solved state of one co-run phase.

    ``stats``/``envelopes`` are the contended results per resident (leaf
    order); ``uncontended`` are the same leaves scored under the default
    whole-GPU envelope — the pair is what lets
    :func:`repro.analysis.scenarios.contention_breakdown` split each
    resident's slowdown into an extended-LLC-grant component and a
    bandwidth-interference component.
    """

    stats: Tuple[SimulationStats, ...]
    envelopes: Tuple[ResourceEnvelope, ...]
    uncontended: Tuple[SimulationStats, ...]
    iterations: int
    converged: bool


def proportional_pressure_shares(
    demands: Sequence[Dict[str, float]],
) -> List[Dict[str, float]]:
    """Target envelope shares: each channel split in proportion to demand.

    On a channel with aggregate demand ``D`` and capacity ``C``, a resident
    demanding ``d`` is entitled to the share ``d / D`` — capacity
    ``C * d / D``.  When ``D <= C`` that entitlement is at least ``d`` (no
    throttling: the bandwidth limit sits above the IPC that generated the
    demand), and when ``D > C`` every resident is scaled by the same
    ``C / D`` pressure ratio unless some other limit binds first.  A
    channel nobody demands is split evenly (its limit is unbounded anyway).
    """
    count = len(demands)
    targets: List[Dict[str, float]] = [{} for _ in range(count)]
    for channel in SHARED_CHANNELS:
        total = sum(demand[channel] for demand in demands)
        for index, demand in enumerate(demands):
            if total > 0.0:
                share = demand[channel] / total
            else:
                share = 1.0 / count
            targets[index][channel] = min(1.0, max(MIN_SHARE, share))
    return targets


def _envelope(shares: Dict[str, float]) -> ResourceEnvelope:
    return ResourceEnvelope(
        **{ENVELOPE_FIELDS[channel]: shares[channel] for channel in SHARED_CHANNELS}
    )


def solve_scenario_contention(
    runner: "ExperimentRunner",
    gpu: "GPUConfig",
    groups: Sequence[
        Tuple[
            Sequence[Tuple["ApplicationProfile", "SimulationConfig"]],
            Sequence[SimulationStats],
        ]
    ],
    model: ContentionModel,
) -> List[PhaseContentionSolution]:
    """Solve co-run phases' shared-bandwidth contention by fixed-point re-scoring.

    ``groups`` holds one ``(leaves, uncontended)`` pair per *distinct*
    phase signature of a timeline (thousands of phases collapse to tens of
    groups; pass a one-element list to solve a single phase): ``leaves``
    are the phase's per-resident (profile, config) pairs — configs at the
    default envelope — and ``uncontended`` their already-scored
    default-envelope stats.  Single-resident groups (and a disabled model)
    return the uncontended stats unchanged, guaranteeing single-tenant
    timelines are bit-identical to the pre-contention model.  Groups are
    solved independently, so each solution is bit-identical to solving
    that group on its own.

    Each leaf's replay measurement is fetched **once**
    (:meth:`~repro.runner.runner.ExperimentRunner.measurement_for` — a
    cache hit on any warm runner) and wrapped in a precomputed
    :class:`~repro.sim.vector_model.MeasurementScorer`, hoisted **across
    groups** (a leaf shared by several signatures builds its scorer once).
    The iterations call its
    :meth:`~repro.sim.vector_model.MeasurementScorer.score_envelope` scalar
    fast path, which is bit-identical to per-call
    :meth:`~repro.runner.runner.ExperimentRunner.score_measurement`
    scoring.  Only the *converged* contended configs of every group go back
    through the two-phase cache, in a single
    :meth:`~repro.runner.runner.ExperimentRunner.run_leaves` batch, so
    their score-tier evaluations flow through the vectorized
    ``score_batch`` path and land in the stats tier under their envelope
    score keys.  No trace is ever re-replayed.

    Each group's fixed-point wall time lands in the
    ``scenario.signature_solve_seconds`` histogram.
    """
    tel = telemetry()
    scorer_cache: Dict[
        Tuple[str, "SimulationConfig"],
        Tuple[object, object],
    ] = {}

    def hoisted(profile: "ApplicationProfile", config: "SimulationConfig"):
        key = (profile.name, config)
        entry = scorer_cache.get(key)
        if entry is None:
            measurement = runner.measurement_for(profile, config)
            entry = (measurement, runner.scorer_for(profile, config, measurement))
            scorer_cache[key] = entry
        return entry

    solutions: List[PhaseContentionSolution] = [None] * len(groups)  # type: ignore[list-item]
    pending: List[Tuple[int, Tuple[ResourceEnvelope, ...], int, bool]] = []
    contended_leaves: List[Tuple["ApplicationProfile", "SimulationConfig"]] = []
    slices: List[Tuple[int, int]] = []
    for group_index, (leaves, uncontended) in enumerate(groups):
        count = len(leaves)
        if count <= 1 or not model.enabled:
            solutions[group_index] = PhaseContentionSolution(
                stats=tuple(uncontended),
                envelopes=tuple(DEFAULT_ENVELOPE for _ in range(count)),
                uncontended=tuple(uncontended),
                iterations=0,
                converged=True,
            )
            continue
        solve_start = time.perf_counter()
        scorers = [hoisted(profile, config)[1] for profile, config in leaves]
        shares = [
            {channel: 1.0 for channel in SHARED_CHANNELS} for _ in range(count)
        ]
        stats: List[SimulationStats] = list(uncontended)
        iterations = 0
        converged = False
        envelopes: Tuple[ResourceEnvelope, ...] = tuple(
            DEFAULT_ENVELOPE for _ in range(count)
        )
        with tel.span("contention.solve", residents=count) as span:
            for iterations in range(1, model.max_iterations + 1):
                demands = [shared_bandwidth_demand(entry, gpu) for entry in stats]
                targets = proportional_pressure_shares(demands)
                movement = 0.0
                for index in range(count):
                    for channel in SHARED_CHANNELS:
                        current = shares[index][channel]
                        stepped = current + model.damping * (
                            targets[index][channel] - current
                        )
                        stepped = min(1.0, max(MIN_SHARE, stepped))
                        movement = max(movement, abs(stepped - current))
                        shares[index][channel] = stepped
                envelopes = tuple(
                    _envelope(shares[index]) for index in range(count)
                )
                stats = [
                    scorer.score_envelope(envelope)
                    for scorer, envelope in zip(scorers, envelopes)
                ]
                if tel.enabled:
                    tel.observe("contention.residual", movement)
                if movement < model.tolerance:
                    converged = True
                    break
            span.set(iterations=iterations, converged=converged)
        if tel.enabled:
            tel.observe("contention.iterations", iterations)
            tel.observe(
                "scenario.signature_solve_seconds",
                time.perf_counter() - solve_start,
            )
        offset = len(contended_leaves)
        contended_leaves.extend(
            (profile, dataclasses.replace(config, envelope=envelope))
            for (profile, config), envelope in zip(leaves, envelopes)
        )
        slices.append((offset, offset + count))
        pending.append((group_index, envelopes, iterations, converged))
    if pending:
        # One cross-signature persistence batch: every group's converged
        # contended configs are scored (and stored) together, so score-tier
        # misses go through the vectorized batch path.  Scoring is pure, so
        # the returned stats match what the last iterations computed.
        final = runner.run_leaves(contended_leaves)
        for (group_index, envelopes, iterations, converged), (lo, hi) in zip(
            pending, slices
        ):
            _, uncontended = groups[group_index]
            solutions[group_index] = PhaseContentionSolution(
                stats=tuple(final[lo:hi]),
                envelopes=envelopes,
                uncontended=tuple(uncontended),
                iterations=iterations,
                converged=converged,
            )
    return solutions
