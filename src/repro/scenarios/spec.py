"""Declarative multi-phase workload timelines.

A :class:`ScenarioSpec` describes a **timeline**: an ordered sequence of
:class:`ScenarioPhase` entries, each carrying the applications *resident* on
the GPU during that phase, how many SMs the scheduler grants each of them
for compute, and a relative ``duration_weight``.  Phases are what Morpheus
reacts to: when the aggregate demand drops, idle SMs can be borrowed for the
extended LLC; when it rises, the scheduler hands capacity back and the
extended LLC must shrink.

A phase with one resident is the classic single-tenant case and keeps the
original ``ScenarioPhase(application=..., compute_sm_demand=...)``
constructor.  A phase may instead carry several :class:`Residency` entries —
a true multi-tenant **co-run**: every resident computes concurrently on its
own SM share while the capacity policies arbitrate the pooled idle-SM
extended-LLC capacity across them.

Scenario keys layer on top of the two-phase runner contract: every phase is
lowered to an existing :class:`~repro.runner.spec.RunSpec`, so the leaf
results are addressed by the ordinary replay/score keys — a scenario adds no
third cache tier.  :meth:`ScenarioSpec.scenario_key` exists so *scenario
level* artifacts (aggregated timelines, reports) can be content-addressed
too; it embeds :data:`SCENARIO_SCHEMA_VERSION` **and** both leaf schema
versions, because a replay- or score-behaviour change invalidates any
aggregate derived from the leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.runner.spec import (
    REPLAY_SCHEMA_VERSION,
    SCORE_SCHEMA_VERSION,
    content_hash,
)

#: Version of the scenario-level aggregation schema.  Bump whenever the
#: phase-lowering semantics, the transition-cost model layout or the
#: scenario aggregation (instruction accounting, cycle totals) change —
#: anything that would make a previously stored scenario-level aggregate
#: stale even though the leaf replay/score entries are still valid.
#: Version 2: phases may carry multiple concurrent residents (co-run),
#: decisions carry per-resident extended-LLC grants, and phase cycles are
#: derived from the residents' aggregate throughput.
#: Version 3: co-run residents are scored under solved shared-bandwidth
#: :class:`~repro.sim.performance_model.ResourceEnvelope` shares (the
#: contention fixed point), executions carry the contended/uncontended
#: pair, and scenario aggregates are persisted under
#: :meth:`~repro.scenarios.engine.ScenarioEngine.run_key`.
#: Version 4: persisted scenario aggregates use the signature-keyed layout
#: (distinct phase signatures plus per-phase signature/transition ids)
#: written by the deduplicating engine.  Dedup itself is execution-plan-only
#: — leaf replay/score keys and the computed per-phase results are unchanged.
#: Version 5: the signature layout is the only one the engine reads, and
#: signatures no longer store their phase ``count`` (it is derived from the
#: phase ids on load); the bump turns older entries into cache misses.
SCENARIO_SCHEMA_VERSION = 5


@dataclass(frozen=True)
class Residency:
    """One application resident on the GPU during a phase.

    Attributes:
        application: Name of the resident application
            (see :data:`repro.workloads.applications.APPLICATIONS`).
        compute_sm_demand: SMs the scheduler grants this resident for
            compute during the phase.
    """

    application: str
    compute_sm_demand: int

    def __post_init__(self) -> None:
        if not self.application:
            raise ValueError("a residency needs an application name")
        if self.compute_sm_demand <= 0:
            raise ValueError("compute_sm_demand must be positive")


@dataclass(frozen=True)
class ScenarioPhase:
    """One phase of a workload timeline.

    Single-tenant phases use the original ``(application,
    compute_sm_demand)`` constructor; multi-tenant co-run phases pass a
    ``residents`` tuple instead (exactly one of the two forms).  Either way
    ``residents`` is the canonical storage — for a single-tenant phase the
    ``application``/``compute_sm_demand`` fields and the one-entry
    ``residents`` tuple agree, and for a co-run phase the two legacy fields
    are ``None`` (use :attr:`total_compute_sm_demand` and
    :attr:`applications`).

    Attributes:
        application: Name of the application running during a single-tenant
            phase; ``None`` for a co-run phase.
        compute_sm_demand: SMs the scheduler grants the single resident for
            compute; ``None`` for a co-run phase.  The GPU's remaining SMs
            are idle and may be borrowed by Morpheus for the extended LLC.
        duration_weight: Relative length of the phase.  The engine converts
            weights to instructions via
            :attr:`ScenarioSpec.instructions_per_weight`.
        label: Optional human-readable tag shown in per-phase tables.
        residents: The applications resident during the phase with their
            compute-SM shares (one entry per application).
    """

    application: Optional[str] = None
    compute_sm_demand: Optional[int] = None
    duration_weight: float = 1.0
    label: str = ""
    residents: Tuple[Residency, ...] = ()

    def __post_init__(self) -> None:
        if self.duration_weight <= 0:
            raise ValueError("duration_weight must be positive")
        residents = tuple(self.residents)
        if residents:
            if self.application is not None or self.compute_sm_demand is not None:
                raise ValueError(
                    "pass either residents or application/compute_sm_demand, not both"
                )
            names = [residency.application for residency in residents]
            if len(set(names)) != len(names):
                raise ValueError(
                    f"a phase's residents must be distinct applications, got {names}"
                )
        else:
            if not self.application:
                raise ValueError("a phase needs an application name")
            if self.compute_sm_demand is None or self.compute_sm_demand <= 0:
                raise ValueError("compute_sm_demand must be positive")
            residents = (Residency(self.application, self.compute_sm_demand),)
        object.__setattr__(self, "residents", residents)
        if len(residents) == 1:
            # Canonicalize: a phase built from a one-entry residents tuple is
            # identical (and hashes identically) to the legacy constructor.
            object.__setattr__(self, "application", residents[0].application)
            object.__setattr__(
                self, "compute_sm_demand", residents[0].compute_sm_demand
            )
        else:
            object.__setattr__(self, "application", None)
            object.__setattr__(self, "compute_sm_demand", None)

    @property
    def is_corun(self) -> bool:
        """True when several applications are resident concurrently."""
        return len(self.residents) > 1

    @property
    def applications(self) -> Tuple[str, ...]:
        """The resident applications, in residency order."""
        return tuple(residency.application for residency in self.residents)

    @property
    def total_compute_sm_demand(self) -> int:
        """Aggregate compute-SM demand of every resident."""
        return sum(residency.compute_sm_demand for residency in self.residents)

    def describe(self) -> str:
        """Compact human-readable tag for error messages and tables."""
        if self.label:
            return self.label
        return "+".join(self.applications)


@dataclass(frozen=True)
class ScenarioSpec:
    """A named timeline of phases.

    Attributes:
        name: Scenario name (library scenarios use their factory name).
        phases: The ordered phases of the timeline.
        instructions_per_weight: Instructions executed per unit of
            ``duration_weight``.  This sets the absolute timeline length, and
            therefore how much fixed-cost reconfiguration (flush/warm-up)
            matters relative to useful work: shorter phases make transitions
            relatively more expensive.
        description: Optional human-readable summary.
    """

    name: str
    phases: Tuple[ScenarioPhase, ...]
    instructions_per_weight: float = 2.0e8
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(self.phases))
        if not self.name:
            raise ValueError("a scenario needs a name")
        if not self.phases:
            raise ValueError("a scenario needs at least one phase")
        if self.instructions_per_weight <= 0:
            raise ValueError("instructions_per_weight must be positive")

    def __len__(self) -> int:
        return len(self.phases)

    @property
    def total_weight(self) -> float:
        """Sum of the phases' duration weights."""
        return sum(phase.duration_weight for phase in self.phases)

    @property
    def applications(self) -> Tuple[str, ...]:
        """Distinct applications appearing in the timeline, in first-seen order."""
        seen = []
        for phase in self.phases:
            for name in phase.applications:
                if name not in seen:
                    seen.append(name)
        return tuple(seen)

    @property
    def max_compute_sm_demand(self) -> int:
        """The largest aggregate compute demand of any phase (sizes worst-case splits)."""
        return max(phase.total_compute_sm_demand for phase in self.phases)

    @property
    def has_corun_phases(self) -> bool:
        """True when any phase carries several concurrent residents."""
        return any(phase.is_corun for phase in self.phases)

    def scenario_key(self) -> str:
        """Content-hash key of the timeline for scenario-level artifacts.

        Layers on the runner's schema contract: the key embeds
        :data:`SCENARIO_SCHEMA_VERSION` plus both leaf schema versions, so a
        replay- or score-behaviour bump invalidates scenario-level aggregates
        exactly as it invalidates the leaf cache entries they derive from.

        Canonicalizing a fleet-scale timeline walks every phase, so the key
        is computed once and memoized on this (frozen, immutable) instance —
        a warm re-run of a thousand-phase spec must not pay the O(phases)
        hash again.
        """
        versions = (
            REPLAY_SCHEMA_VERSION,
            SCORE_SCHEMA_VERSION,
            SCENARIO_SCHEMA_VERSION,
        )
        cached = self.__dict__.get("_scenario_key_memo")
        if cached is not None and cached[0] == versions:
            return cached[1]
        key = content_hash({"schema": versions, "scenario": self})
        object.__setattr__(self, "_scenario_key_memo", (versions, key))
        return key
