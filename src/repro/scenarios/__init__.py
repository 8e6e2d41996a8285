"""Dynamic scenarios: multi-phase workload timelines with time-varying idle SMs.

Describe a timeline with :class:`ScenarioSpec` (or pick one from
:data:`SCENARIO_LIBRARY`), choose a capacity policy — the
:class:`DynamicCapacityManager` grows/shrinks the extended LLC with each
phase's idle capacity and charges flush/warm-up transition costs, while
:class:`FixedSplitPolicy` models the offline static split — and execute the
whole timeline with a :class:`ScenarioEngine`.  Every phase lowers to an
ordinary :class:`~repro.runner.spec.RunSpec` leaf, so scenario runs share
the two-phase replay/score cache with everything else in the repository.

Scenario-level analysis (time-weighted IPC, energy, transition overheads,
per-phase tables) lives in :mod:`repro.analysis.scenarios`.
"""

from repro.scenarios.contention import (
    ContentionModel,
    PhaseContentionSolution,
    proportional_pressure_shares,
    solve_scenario_contention,
)
from repro.scenarios.engine import (
    LoweredLeaf,
    LoweredPhase,
    PhaseExecution,
    PhaseSignature,
    ResidentExecution,
    SCENARIO_SYSTEMS,
    ScenarioEngine,
    ScenarioRunResult,
    SignatureExecution,
    SignaturePhases,
)
from repro.scenarios.library import (
    SCENARIO_LIBRARY,
    bursty,
    corun_overlap,
    corun_pair,
    fleet,
    get_scenario,
    mixed_tenancy,
    ramp,
    steady,
)
from repro.scenarios.policy import (
    ARBITRATION_MODES,
    CapacityPolicy,
    DynamicCapacityManager,
    FixedSplitPolicy,
    NO_TRANSITION,
    PhaseDecision,
    ResidentGrant,
    TransitionCost,
    TransitionCostModel,
    arbitrate_extended_llc,
    combine_costs,
    contended_llc_sensitivity,
    grant_transition,
    llc_capacity_sensitivity,
    max_cache_mode_sms,
)
from repro.scenarios.spec import (
    Residency,
    SCENARIO_SCHEMA_VERSION,
    ScenarioPhase,
    ScenarioSpec,
)

__all__ = [
    "ARBITRATION_MODES",
    "CapacityPolicy",
    "ContentionModel",
    "DynamicCapacityManager",
    "FixedSplitPolicy",
    "LoweredLeaf",
    "PhaseContentionSolution",
    "LoweredPhase",
    "NO_TRANSITION",
    "PhaseDecision",
    "PhaseExecution",
    "PhaseSignature",
    "Residency",
    "ResidentExecution",
    "ResidentGrant",
    "SCENARIO_LIBRARY",
    "SCENARIO_SCHEMA_VERSION",
    "SCENARIO_SYSTEMS",
    "ScenarioEngine",
    "ScenarioPhase",
    "ScenarioRunResult",
    "ScenarioSpec",
    "SignatureExecution",
    "SignaturePhases",
    "TransitionCost",
    "TransitionCostModel",
    "arbitrate_extended_llc",
    "bursty",
    "combine_costs",
    "contended_llc_sensitivity",
    "corun_overlap",
    "corun_pair",
    "fleet",
    "get_scenario",
    "grant_transition",
    "llc_capacity_sensitivity",
    "max_cache_mode_sms",
    "mixed_tenancy",
    "proportional_pressure_shares",
    "ramp",
    "solve_scenario_contention",
    "steady",
]
