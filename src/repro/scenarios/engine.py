"""The scenario engine: lowering timelines to leaf runs and executing them.

:class:`ScenarioEngine` turns a :class:`~repro.scenarios.spec.ScenarioSpec`
into per-phase :class:`~repro.sim.simulator.SimulationConfig` leaves
(**lowering** — pure, no simulation) and executes them through the
process-wide :class:`~repro.runner.runner.ExperimentRunner`'s two-phase
cache (**running**).  Because leaves are addressed by the ordinary
replay/score keys, repeated phases replay **at most once** per timeline,
re-running a scenario over a warm cache replays nothing, and analytic
re-scores of scenario leaves stay zero-replay-cost like any other run.

Co-run phases additionally solve **shared-bandwidth contention**: each
resident's leaf is re-scored under fixed-point
:class:`~repro.sim.performance_model.ResourceEnvelope` shares
(:mod:`repro.scenarios.contention`), so concurrent tenants see each
other's DRAM/LLC/NoC pressure instead of each owning the whole memory
system.  Finished timeline aggregates are persisted under
:meth:`ScenarioEngine.run_key` in the cache's ``scenarios/`` tier, so a
warm scenario re-run loads one JSON payload instead of re-scoring every
leaf.

Baselines and every Morpheus variant run under any scenario:

* ``BL`` keeps idle SMs active (burning static power),
* ``IBL`` power-gates them,
* ``Morpheus-*`` borrow them for the extended LLC under a
  :class:`~repro.scenarios.policy.CapacityPolicy` — by default the
  :class:`~repro.scenarios.policy.DynamicCapacityManager`, which replaces
  the offline per-application split search for timeline runs and charges
  flush/warm-up costs at every reconfiguration.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.energy.components import DEFAULT_ENERGIES
from repro.gpu.config import GPUConfig, RTX3080_CONFIG
from repro.runner.cache import stats_from_jsonable, stats_to_jsonable
from repro.runner.runner import ExperimentRunner, active_runner
from repro.runner.spec import content_hash
from repro.scenarios.contention import (
    ContentionModel,
    PhaseContentionSolution,
    solve_scenario_contention,
)
from repro.scenarios.policy import (
    CapacityPolicy,
    DynamicCapacityManager,
    NO_TRANSITION,
    PhaseDecision,
    ResidentGrant,
    TransitionCost,
    TransitionCostModel,
)
from repro.scenarios.spec import (
    Residency,
    SCENARIO_SCHEMA_VERSION,
    ScenarioPhase,
    ScenarioSpec,
)
from repro.sim.performance_model import DEFAULT_ENVELOPE, ResourceEnvelope
from repro.telemetry import telemetry
from repro.sim.simulator import SimulationConfig
from repro.sim.stats import SimulationStats
from repro.systems.fidelity import Fidelity, STANDARD_FIDELITY, get_fidelity
from repro.systems.morpheus_system import MorpheusOperatingPoint, MorpheusVariant
from repro.systems.registry import SCENARIO_SYSTEMS
from repro.workloads.applications import ApplicationProfile, get_application

_MORPHEUS_VARIANTS: Dict[str, MorpheusVariant] = {
    variant.value: variant for variant in MorpheusVariant
}


@dataclass(frozen=True)
class LoweredLeaf:
    """One resident's leaf simulation within a lowered phase."""

    grant: ResidentGrant
    config: SimulationConfig

    @property
    def application(self) -> str:
        """The resident application this leaf simulates."""
        return self.grant.application


@dataclass(frozen=True)
class LoweredPhase:
    """One phase lowered to concrete leaf simulations (one per resident)."""

    index: int
    phase: ScenarioPhase
    decision: PhaseDecision
    leaves: Tuple[LoweredLeaf, ...]

    @property
    def config(self) -> SimulationConfig:
        """The single leaf config of a single-tenant phase (convenience)."""
        if len(self.leaves) != 1:
            raise ValueError(
                f"co-run phase {self.phase.describe()!r} lowers to "
                f"{len(self.leaves)} leaves; use .leaves"
            )
        return self.leaves[0].config


@dataclass(frozen=True)
class ResidentExecution:
    """One resident's executed leaf within a phase.

    ``instructions`` is the share of the phase's instruction budget this
    resident retired — residents run *concurrently* for the whole phase, so
    each contributes in proportion to its leaf IPC.

    ``stats`` are the resident's **contended** results: on a co-run phase
    they are scored under the resident's solved shared-bandwidth
    ``envelope``, while ``uncontended_ipc`` records what the same leaf
    scored under the whole-GPU default envelope — the gap between the two
    is pure bandwidth interference (the extended-LLC grant is identical on
    both sides).  Single-tenant phases keep the default envelope and the
    two IPCs coincide.
    """

    grant: ResidentGrant
    stats: SimulationStats
    instructions: float
    envelope: ResourceEnvelope = DEFAULT_ENVELOPE
    uncontended_ipc: float = 0.0

    @property
    def application(self) -> str:
        """The resident application."""
        return self.grant.application

    @property
    def ipc(self) -> float:
        """The resident's modelled (contended) IPC at its granted shares."""
        return self.stats.ipc

    @property
    def bandwidth_interference_fraction(self) -> float:
        """IPC lost to shared-bandwidth contention, relative to uncontended."""
        if self.uncontended_ipc <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.stats.ipc / self.uncontended_ipc)


@dataclass(frozen=True)
class PhaseExecution:
    """One executed phase: its lowered form plus the scored leaf results.

    ``instructions`` is the phase's share of the timeline
    (``duration_weight * instructions_per_weight``), retired collectively by
    the phase's residents; ``compute_cycles`` is the wall-clock time that
    takes at their aggregate IPC (for a single-tenant phase, exactly
    ``instructions / ipc``).  The transition cost into the phase lives in
    ``decision.transition``.
    """

    index: int
    phase: ScenarioPhase
    decision: PhaseDecision
    residents: Tuple[ResidentExecution, ...]
    instructions: float
    compute_cycles: float

    @property
    def stats(self) -> SimulationStats:
        """The single leaf stats of a single-tenant phase (convenience)."""
        if len(self.residents) != 1:
            raise ValueError(
                f"co-run phase {self.phase.describe()!r} has "
                f"{len(self.residents)} resident results; use .residents"
            )
        return self.residents[0].stats

    @property
    def cycles(self) -> float:
        """Phase cycles including the transition stall charged on entry."""
        return self.compute_cycles + self.decision.transition.total_cycles


@dataclass(frozen=True)
class PhaseSignature:
    """The canonical identity of a phase's execution.

    Two phases with equal signatures — same residency list, same duration
    weight, same planned split and per-resident grants — lower to the same
    leaves, solve the same contention fixed point and retire the same
    instruction budget, so the engine computes their execution **once** and
    reuses it.  A fleet timeline has thousands of phases but only tens of
    signatures.

    What the signature deliberately excludes: the phase ``label`` (labels
    are cosmetic) and the transition *into* the phase (it depends on the
    predecessor, so it is tracked per phase, not per signature).  The leaf
    configs are a pure function of (grants, system, engine parameters), so
    they need no separate entry.
    """

    residents: Tuple[Residency, ...]
    duration_weight: float
    split: MorpheusOperatingPoint
    grants: Tuple[ResidentGrant, ...]


@dataclass(frozen=True)
class SignatureExecution:
    """One distinct signature's solved execution, shared by its phases.

    ``count`` is how many phases of the timeline bear this signature — the
    run's dedup hits are ``sum(count) - len(signatures)``.
    """

    signature: PhaseSignature
    residents: Tuple[ResidentExecution, ...]
    instructions: float
    compute_cycles: float
    count: int


class SignaturePhases(SequenceABC):
    """Lazy per-phase view over a signature-deduplicated run.

    Presents the familiar ``result.phases`` sequence of
    :class:`PhaseExecution` while storing only O(signatures) state: the
    distinct :class:`SignatureExecution` records, the interned transition
    costs, and two int id arrays mapping each phase to its signature and
    transition.  ``__getitem__`` materializes a ``PhaseExecution`` on
    demand (bit-identical to solving that phase on its own);
    iterating never holds more than one phase at a time, so streaming
    consumers keep peak memory bounded by signatures, not phases.
    """

    __slots__ = (
        "_scenario",
        "_executions",
        "_signature_ids",
        "_transitions",
        "_transition_ids",
        "_decisions",
    )

    def __init__(
        self,
        scenario: ScenarioSpec,
        executions: Tuple[SignatureExecution, ...],
        signature_ids: Tuple[int, ...],
        transitions: Tuple[TransitionCost, ...],
        transition_ids: Tuple[int, ...],
    ) -> None:
        if len(signature_ids) != len(transition_ids):
            raise ValueError("signature/transition id arrays must align")
        self._scenario = scenario
        self._executions = executions
        self._signature_ids = signature_ids
        self._transitions = transitions
        self._transition_ids = transition_ids
        # (signature id, transition id) pairs are few; interning the
        # PhaseDecision per pair keeps repeated access allocation-free.
        self._decisions: Dict[Tuple[int, int], PhaseDecision] = {}

    def __len__(self) -> int:
        return len(self._signature_ids)

    def _decision(self, signature_id: int, transition_id: int) -> PhaseDecision:
        key = (signature_id, transition_id)
        decision = self._decisions.get(key)
        if decision is None:
            signature = self._executions[signature_id].signature
            decision = PhaseDecision(
                split=signature.split,
                transition=self._transitions[transition_id],
                grants=signature.grants,
            )
            self._decisions[key] = decision
        return decision

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("phase index out of range")
        signature_id = self._signature_ids[index]
        execution = self._executions[signature_id]
        return PhaseExecution(
            index=index,
            phase=self._scenario.phases[index],
            decision=self._decision(signature_id, self._transition_ids[index]),
            residents=execution.residents,
            instructions=execution.instructions,
            compute_cycles=execution.compute_cycles,
        )


@dataclass
class ScenarioRunResult:
    """The full outcome of one (scenario, system, policy) timeline run.

    ``phases`` is a lazy :class:`SignaturePhases` view of the per-phase
    executions (O(signatures) memory); ``signatures`` exposes the distinct
    :class:`SignatureExecution` records behind it.
    """

    scenario: ScenarioSpec
    system: str
    policy_name: str
    phases: Sequence[PhaseExecution]
    run_key: str
    signatures: Tuple[SignatureExecution, ...]
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.phases)

    @property
    def total_instructions(self) -> float:
        """Instructions retired across the whole timeline."""
        return sum(execution.instructions for execution in self.phases)

    @property
    def compute_cycles(self) -> float:
        """Cycles spent retiring instructions (no transition stalls)."""
        return sum(execution.compute_cycles for execution in self.phases)

    @property
    def transition_cycles(self) -> float:
        """Cycles lost to extended-LLC flushes and warm-ups."""
        return sum(
            execution.decision.transition.total_cycles for execution in self.phases
        )

    @property
    def total_cycles(self) -> float:
        """End-to-end timeline cycles (compute + transitions)."""
        return self.compute_cycles + self.transition_cycles

    @property
    def dedup_hits(self) -> int:
        """Phases served by an already-solved signature."""
        return len(self.phases) - len(self.signatures)


class ScenarioEngine:
    """Lowers scenario timelines to leaf runs and executes them via the runner.

    Args:
        runner: Runner executing the leaves; ``None`` resolves the
            process-wide runner at call time.
        gpu: Baseline GPU configuration shared by all phases.
        fidelity: Trace sizing preset for the phase leaves.
        seed: Trace-generation seed shared by all phases.
        transition_model: Flush/warm-up cost knobs for dynamic policies.
        predictor: Hit/miss predictor flavour for Morpheus systems.
        contention: Shared-bandwidth fixed-point solver knobs for co-run
            phases (see :class:`~repro.scenarios.contention.ContentionModel`);
            ``None`` uses the defaults.
    """

    def __init__(
        self,
        runner: Optional[ExperimentRunner] = None,
        gpu: GPUConfig = RTX3080_CONFIG,
        fidelity: Fidelity = STANDARD_FIDELITY,
        seed: int = 1,
        transition_model: Optional[TransitionCostModel] = None,
        predictor: str = "bloom",
        contention: Optional[ContentionModel] = None,
    ) -> None:
        self.runner = runner
        self.gpu = gpu
        self.fidelity = get_fidelity(fidelity)
        self.seed = seed
        self.transition_model = transition_model or TransitionCostModel()
        self.predictor = predictor
        self.contention = contention or ContentionModel()
        self._solo_reference_memo: Dict[str, Dict[str, float]] = {}

    def _runner(self) -> ExperimentRunner:
        return self.runner if self.runner is not None else active_runner()

    def _profiles(self, scenario: ScenarioSpec) -> Dict[str, ApplicationProfile]:
        return {name: get_application(name) for name in scenario.applications}

    def _validate_demands(self, scenario: ScenarioSpec) -> None:
        for phase in scenario.phases:
            if phase.total_compute_sm_demand > self.gpu.num_sms:
                raise ValueError(
                    f"phase {phase.describe()!r} demands "
                    f"{phase.total_compute_sm_demand} SMs but the GPU has "
                    f"{self.gpu.num_sms}"
                )

    def _leaf_config(
        self, grant: ResidentGrant, morpheus: Optional[object], system: str
    ) -> SimulationConfig:
        """The leaf config one resident grant lowers to (pure function)."""
        return SimulationConfig(
            gpu=self.gpu,
            morpheus=morpheus if grant.cache_sms > 0 else None,
            num_compute_sms=grant.compute_sms,
            num_cache_sms=grant.cache_sms,
            power_gate_unused=system != "BL",
            capacity_scale=self.fidelity.capacity_scale,
            trace_accesses=self.fidelity.trace_accesses,
            warmup_accesses=self.fidelity.warmup_accesses,
            system_name=system,
            replay_mode=self.fidelity.mode,
            seed=self.seed,
        )

    # -- lowering (pure) ---------------------------------------------------------------

    def lower(
        self,
        scenario: ScenarioSpec,
        system: str,
        policy: Optional[CapacityPolicy] = None,
    ) -> List[LoweredPhase]:
        """Lower every phase of ``scenario`` to leaf configs (no simulation).

        A single-tenant phase lowers to one leaf; a co-run phase lowers to
        **one leaf per resident**, each simulated at the resident's granted
        compute-SM share and its arbitrated slice of the pooled extended-LLC
        capacity.  This is the per-phase form of the planning and config
        construction :meth:`run` performs per distinct signature, exposed
        for inspection and for the per-phase reference the tests check
        :meth:`run` against.
        """
        self._validate_demands(scenario)
        profiles = self._profiles(scenario)
        with telemetry().span(
            "scenario.plan", system=system, phases=len(scenario.phases)
        ):
            decisions, morpheus = self._plan(scenario, system, policy, profiles)
        lowered = []
        with telemetry().span(
            "scenario.lower", system=system, phases=len(scenario.phases)
        ):
            for index, (phase, decision) in enumerate(
                zip(scenario.phases, decisions)
            ):
                grants = self._decision_grants(phase, decision)
                leaves = tuple(
                    LoweredLeaf(
                        grant=grant,
                        config=self._leaf_config(grant, morpheus, system),
                    )
                    for grant in grants
                )
                lowered.append(
                    LoweredPhase(
                        index=index, phase=phase, decision=decision, leaves=leaves
                    )
                )
        return lowered

    @staticmethod
    def _decision_grants(
        phase: ScenarioPhase, decision: PhaseDecision
    ) -> Tuple[ResidentGrant, ...]:
        """The per-resident grants of one decision, validated against the phase.

        Policies that predate co-run support may omit grants for
        single-tenant phases; the engine synthesizes the obvious one-entry
        breakdown from the aggregate split.  Explicit grants must cover
        exactly the phase's residents at their demanded compute shares, and
        their pooled cache SMs must match the aggregate split.
        """
        split = decision.split
        if not decision.grants:
            if phase.is_corun:
                raise ValueError(
                    f"co-run phase {phase.describe()!r} needs per-resident "
                    "grants, but the policy returned none"
                )
            return (
                ResidentGrant(
                    application=phase.application,
                    compute_sms=split.num_compute_sms,
                    cache_sms=split.num_cache_sms,
                ),
            )
        grants = decision.grants
        granted = {grant.application: grant for grant in grants}
        demanded = {r.application: r.compute_sm_demand for r in phase.residents}
        if set(granted) != set(demanded) or any(
            granted[app].compute_sms != demanded[app] for app in demanded
        ):
            raise ValueError(
                f"phase {phase.describe()!r}: per-resident grants "
                f"{[(g.application, g.compute_sms) for g in grants]} do not "
                f"match the residency list {sorted(demanded.items())}"
            )
        if sum(grant.cache_sms for grant in grants) != split.num_cache_sms:
            raise ValueError(
                f"phase {phase.describe()!r}: resident cache grants sum to "
                f"{sum(g.cache_sms for g in grants)} but the split allocates "
                f"{split.num_cache_sms} cache-mode SMs"
            )
        return grants

    def _plan(
        self,
        scenario: ScenarioSpec,
        system: str,
        policy: Optional[CapacityPolicy],
        profiles: Mapping[str, ApplicationProfile],
    ) -> Tuple[List[PhaseDecision], Optional[object]]:
        """Per-phase decisions plus the Morpheus config (``None`` for baselines)."""
        if system in ("BL", "IBL"):
            decisions = [
                PhaseDecision(
                    split=MorpheusOperatingPoint(
                        num_compute_sms=phase.total_compute_sm_demand,
                        num_cache_sms=0,
                        # BL keeps idle SMs active; IBL gates them.
                        num_gated_sms=(
                            self.gpu.num_sms - phase.total_compute_sm_demand
                            if system == "IBL"
                            else 0
                        ),
                    ),
                    transition=NO_TRANSITION,
                    grants=tuple(
                        ResidentGrant(
                            application=residency.application,
                            compute_sms=residency.compute_sm_demand,
                            cache_sms=0,
                        )
                        for residency in phase.residents
                    ),
                )
                for phase in scenario.phases
            ]
            return decisions, None
        variant = _MORPHEUS_VARIANTS.get(system)
        if variant is None:
            valid = ", ".join(SCENARIO_SYSTEMS)
            raise ValueError(
                f"unknown scenario system {system!r}; expected one of: {valid}"
            )
        morpheus = variant.to_config(self.predictor)
        policy = policy or DynamicCapacityManager()
        decisions = policy.plan(
            scenario, self.gpu, morpheus, profiles, self.transition_model
        )
        if len(decisions) != len(scenario.phases):
            raise ValueError(
                f"policy {policy.name!r} returned {len(decisions)} decisions "
                f"for {len(scenario.phases)} phases"
            )
        return decisions, morpheus

    # -- execution ---------------------------------------------------------------------

    def run(
        self,
        scenario: ScenarioSpec,
        system: str,
        policy: Optional[CapacityPolicy] = None,
    ) -> ScenarioRunResult:
        """Execute ``scenario`` on ``system`` and return the timeline result.

        The finished aggregate is persisted in the runner cache's scenario
        tier under :meth:`run_key`, so a warm re-run of the same timeline
        loads **one** JSON payload instead of re-scoring every leaf (and a
        cold one stores it for the next caller).

        Leaves are deduplicated by (application, config) — the config alone
        does not identify a leaf: co-run phases of different applications
        can lower to identical configs and must not share a result — and
        executed as **one** replay-pooled batch, so repeated phases cost one
        leaf execution and parallel runners replay distinct leaves
        concurrently even across applications and residents.

        Co-run phases run their residents *concurrently* and **contended**:
        each resident's shared-bandwidth envelope is solved by fixed-point
        re-scoring (see :mod:`repro.scenarios.contention` — a
        score-tier-only computation, so contention never re-replays a
        trace), the phase retires its instruction budget collectively with
        each resident contributing in proportion to its contended IPC, and
        the phase's wall-clock cycles are the budget over the residents'
        aggregate contended IPC.
        """
        start = time.perf_counter()
        runner = self._runner()
        run_key = self.run_key(scenario, system, policy)
        payload = runner.load_scenario_payload(run_key)
        if payload is not None:
            try:
                return self._result_from_payload(
                    scenario,
                    system,
                    run_key,
                    payload,
                    elapsed_seconds=time.perf_counter() - start,
                )
            except (KeyError, TypeError, ValueError):
                # A malformed aggregate (e.g. a hand-edited entry) is
                # recomputed and overwritten rather than trusted.
                pass
        with telemetry().span(
            "scenario.run", system=system, phases=len(scenario.phases)
        ):
            result = self._run_cold(scenario, system, policy, run_key, start)
        runner.maybe_auto_prune()
        return result

    def _run_cold(
        self,
        scenario: ScenarioSpec,
        system: str,
        policy: Optional[CapacityPolicy],
        run_key: str,
        start: float,
    ) -> ScenarioRunResult:
        """The cold path of :meth:`run`: solve once per distinct signature.

        Phases are canonicalized to :class:`PhaseSignature` *after*
        planning (dynamic policies are history-dependent — hysteresis can
        make identical phases plan differently — so signatures must derive
        from the decisions, not the raw phases).  Each distinct signature
        lowers once, enters the leaf batch once, solves contention once and
        builds its :class:`ResidentExecution` tuple once; the per-phase
        view is reconstructed lazily.  Every float is computed with the same
        arithmetic as solving each phase on its own (the per-phase reference
        the tests hold this path to), so the executions are bit-identical.
        """
        runner = self._runner()
        self._validate_demands(scenario)
        profiles = self._profiles(scenario)
        tel = telemetry()
        with tel.span(
            "scenario.plan", system=system, phases=len(scenario.phases)
        ):
            decisions, morpheus = self._plan(scenario, system, policy, profiles)

        signatures: List[PhaseSignature] = []
        signature_leaves: List[Tuple[LoweredLeaf, ...]] = []
        signature_counts: List[int] = []
        signature_index: Dict[PhaseSignature, int] = {}
        signature_ids: List[int] = []
        transitions: List[TransitionCost] = []
        transition_index: Dict[TransitionCost, int] = {}
        transition_ids: List[int] = []
        with tel.span(
            "scenario.lower", system=system, phases=len(scenario.phases)
        ):
            for phase, decision in zip(scenario.phases, decisions):
                grants = self._decision_grants(phase, decision)
                signature = PhaseSignature(
                    residents=phase.residents,
                    duration_weight=phase.duration_weight,
                    split=decision.split,
                    grants=grants,
                )
                signature_id = signature_index.get(signature)
                if signature_id is None:
                    signature_id = len(signatures)
                    signature_index[signature] = signature_id
                    signatures.append(signature)
                    signature_counts.append(0)
                    signature_leaves.append(
                        tuple(
                            LoweredLeaf(
                                grant=grant,
                                config=self._leaf_config(grant, morpheus, system),
                            )
                            for grant in grants
                        )
                    )
                signature_counts[signature_id] += 1
                signature_ids.append(signature_id)
                transition = decision.transition
                transition_id = transition_index.get(transition)
                if transition_id is None:
                    transition_id = len(transitions)
                    transition_index[transition] = transition_id
                    transitions.append(transition)
                transition_ids.append(transition_id)
        if tel.enabled:
            tel.count("scenario.dedup.hits", len(signature_ids) - len(signatures))
            tel.count("scenario.dedup.misses", len(signatures))

        # One replay-pooled leaf batch over the distinct signatures' leaves,
        # in phase-order first-seen order.
        unique: List[Tuple[str, SimulationConfig]] = []
        seen = set()
        for leaves in signature_leaves:
            for leaf in leaves:
                key = (leaf.application, leaf.config)
                if key not in seen:
                    seen.add(key)
                    unique.append(key)
        batch = runner.run_leaves(
            [(profiles[application], config) for application, config in unique]
        )
        stats_by_leaf: Dict[Tuple[str, SimulationConfig], SimulationStats] = dict(
            zip(unique, batch)
        )

        # Contention: one fixed point per distinct co-run *leaf set* (two
        # signatures differing only in duration weight share a solve),
        # hoisted scorers and one persistence batch across all of them.
        signature_keys = [
            tuple((leaf.application, leaf.config) for leaf in leaves)
            for leaves in signature_leaves
        ]
        group_order: List[Tuple[Tuple[str, SimulationConfig], ...]] = []
        group_index: Dict[Tuple[Tuple[str, SimulationConfig], ...], int] = {}
        for keys in signature_keys:
            if len(keys) > 1 and keys not in group_index:
                group_index[keys] = len(group_order)
                group_order.append(keys)
        with tel.span("scenario.arbitrate", system=system) as arbitrate_span:
            solved = solve_scenario_contention(
                runner,
                self.gpu,
                [
                    (
                        [
                            (profiles[application], config)
                            for application, config in keys
                        ],
                        [stats_by_leaf[key] for key in keys],
                    )
                    for keys in group_order
                ],
                self.contention,
            )
            arbitrate_span.set(corun_sets=len(group_order))
        solutions: Dict[
            Tuple[Tuple[str, SimulationConfig], ...], PhaseContentionSolution
        ] = dict(zip(group_order, solved))

        executions: List[SignatureExecution] = []
        for signature, leaves, keys, count in zip(
            signatures, signature_leaves, signature_keys, signature_counts
        ):
            uncontended = [stats_by_leaf[key] for key in keys]
            if len(keys) > 1:
                solution = solutions[keys]
                leaf_stats: Sequence[SimulationStats] = solution.stats
                envelopes: Sequence[ResourceEnvelope] = solution.envelopes
            else:
                leaf_stats = uncontended
                envelopes = (DEFAULT_ENVELOPE,) * len(keys)
            instructions = (
                signature.duration_weight * scenario.instructions_per_weight
            )
            aggregate_ipc = sum(stats.ipc for stats in leaf_stats)
            compute_cycles = instructions / max(aggregate_ipc, 1e-9)
            executions.append(
                SignatureExecution(
                    signature=signature,
                    residents=tuple(
                        ResidentExecution(
                            grant=leaf.grant,
                            stats=stats,
                            instructions=stats.ipc * compute_cycles,
                            envelope=envelope,
                            uncontended_ipc=base.ipc,
                        )
                        for leaf, stats, envelope, base in zip(
                            leaves, leaf_stats, envelopes, uncontended
                        )
                    ),
                    instructions=instructions,
                    compute_cycles=compute_cycles,
                    count=count,
                )
            )
            if tel.enabled:
                tel.event(
                    "scenario.signature",
                    system=system,
                    residents=len(keys),
                    corun=len(keys) > 1,
                    phases=count,
                    compute_cycles=compute_cycles,
                )
        result = ScenarioRunResult(
            scenario=scenario,
            system=system,
            policy_name=self._policy_name(system, policy),
            phases=SignaturePhases(
                scenario,
                tuple(executions),
                tuple(signature_ids),
                tuple(transitions),
                tuple(transition_ids),
            ),
            run_key=run_key,
            elapsed_seconds=time.perf_counter() - start,
            signatures=tuple(executions),
        )
        runner.store_scenario_payload(
            run_key,
            self._signature_payload(
                result.policy_name,
                tuple(executions),
                signature_ids,
                transitions,
                transition_ids,
            ),
        )
        return result

    # -- scenario-aggregate persistence --------------------------------------------------

    @staticmethod
    def _signature_payload(
        policy_name: str,
        executions: Tuple[SignatureExecution, ...],
        signature_ids: Sequence[int],
        transitions: Sequence[TransitionCost],
        transition_ids: Sequence[int],
    ) -> Dict[str, Any]:
        """Serialize one run's aggregate for the cache's scenario tier.

        O(signatures) payload for an O(phases) timeline: the distinct
        signature executions and interned transitions are stored once, and
        each phase contributes one ``[signature_id, transition_id]`` pair
        (which also determines every signature's ``count``).  The scenario
        spec itself is *not* stored: the aggregate is loaded by a caller
        holding the same spec (the run key proves it).  Floats survive JSON
        via repr, so a reloaded result is bit-identical to the stored one.
        """
        return {
            "policy_name": policy_name,
            "signatures": [
                {
                    "residents_spec": [
                        dataclasses.asdict(residency)
                        for residency in execution.signature.residents
                    ],
                    "duration_weight": execution.signature.duration_weight,
                    "split": dataclasses.asdict(execution.signature.split),
                    "grants": [
                        dataclasses.asdict(grant)
                        for grant in execution.signature.grants
                    ],
                    "residents": [
                        {
                            "grant": dataclasses.asdict(resident.grant),
                            "stats": stats_to_jsonable(resident.stats),
                            "instructions": resident.instructions,
                            "envelope": dataclasses.asdict(resident.envelope),
                            "uncontended_ipc": resident.uncontended_ipc,
                        }
                        for resident in execution.residents
                    ],
                    "instructions": execution.instructions,
                    "compute_cycles": execution.compute_cycles,
                }
                for execution in executions
            ],
            "transitions": [
                dataclasses.asdict(transition) for transition in transitions
            ],
            "phases": [
                [signature_id, transition_id]
                for signature_id, transition_id in zip(
                    signature_ids, transition_ids
                )
            ],
        }

    @staticmethod
    def _result_from_payload(
        scenario: ScenarioSpec,
        system: str,
        run_key: str,
        payload: Mapping[str, Any],
        elapsed_seconds: float,
    ) -> ScenarioRunResult:
        """Rebuild a run from :meth:`_signature_payload`.

        Every phase id is range- and type-checked, so a corrupt entry
        raises into :meth:`run`'s recompute path instead of attaching the
        wrong execution to a phase.
        """
        entries = payload["phases"]
        if len(entries) != len(scenario.phases):
            raise ValueError(
                f"aggregate has {len(entries)} phases for a "
                f"{len(scenario.phases)}-phase scenario"
            )
        transitions = tuple(
            TransitionCost(**entry) for entry in payload["transitions"]
        )
        signature_entries = payload["signatures"]
        counts = [0] * len(signature_entries)
        signature_ids: List[int] = []
        transition_ids: List[int] = []
        for item in entries:
            signature_id, transition_id = item
            if not isinstance(signature_id, int) or not isinstance(
                transition_id, int
            ):
                raise ValueError("aggregate phase ids must be integers")
            if not 0 <= signature_id < len(signature_entries):
                raise ValueError(
                    f"aggregate signature id {signature_id} out of range"
                )
            if not 0 <= transition_id < len(transitions):
                raise ValueError(
                    f"aggregate transition id {transition_id} out of range"
                )
            counts[signature_id] += 1
            signature_ids.append(signature_id)
            transition_ids.append(transition_id)
        executions = []
        for entry, count in zip(signature_entries, counts):
            signature = PhaseSignature(
                residents=tuple(
                    Residency(**residency)
                    for residency in entry["residents_spec"]
                ),
                duration_weight=entry["duration_weight"],
                split=MorpheusOperatingPoint(**entry["split"]),
                grants=tuple(
                    ResidentGrant(**grant) for grant in entry["grants"]
                ),
            )
            executions.append(
                SignatureExecution(
                    signature=signature,
                    residents=tuple(
                        ResidentExecution(
                            grant=ResidentGrant(**resident["grant"]),
                            stats=stats_from_jsonable(resident["stats"]),
                            instructions=resident["instructions"],
                            envelope=ResourceEnvelope(**resident["envelope"]),
                            uncontended_ipc=resident["uncontended_ipc"],
                        )
                        for resident in entry["residents"]
                    ),
                    instructions=entry["instructions"],
                    compute_cycles=entry["compute_cycles"],
                    count=count,
                )
            )
        executions = tuple(executions)
        return ScenarioRunResult(
            scenario=scenario,
            system=system,
            policy_name=payload["policy_name"],
            phases=SignaturePhases(
                scenario,
                executions,
                tuple(signature_ids),
                transitions,
                tuple(transition_ids),
            ),
            run_key=run_key,
            elapsed_seconds=elapsed_seconds,
            signatures=executions,
        )

    @staticmethod
    def _policy_name(system: str, policy: Optional[CapacityPolicy]) -> str:
        """The label a run records for its capacity policy."""
        if system == "BL":
            return "all-active"
        if system == "IBL":
            return "power-gate"
        return (policy or DynamicCapacityManager()).name

    def run_systems(
        self,
        scenario: ScenarioSpec,
        systems: Sequence[str] = SCENARIO_SYSTEMS,
        policy: Optional[CapacityPolicy] = None,
    ) -> Dict[str, ScenarioRunResult]:
        """Run ``scenario`` on several systems; ``{system: result}``."""
        return {system: self.run(scenario, system, policy) for system in systems}

    def solo_reference_ipcs(
        self,
        scenario: ScenarioSpec,
        system: str,
        policy: Optional[CapacityPolicy] = None,
    ) -> Dict[str, float]:
        """Per-application solo reference IPCs for co-run metrics.

        For every application in ``scenario``, runs the timeline that
        application would see **alone**: only the phases where it is
        resident, at its own compute-SM demand, with the whole idle
        remainder of the GPU available to the capacity policy.  The
        reference is the duration-weight-weighted mean of the solo leaf
        IPCs — the same *equal-slice* aggregation
        :func:`repro.analysis.scenarios.per_app_timelines` uses for the
        shared run, so normalized progress compares each phase like for
        like (transition stalls are reported separately on both sides).
        Solo leaves flow through the same two-phase cache as everything
        else, so warm re-runs replay nothing.

        References are memoized per (scenario, system, policy, engine
        parameters) — the same content key addressing the run's scenario
        aggregates — so repeated co-run analyses against the same
        references do **zero** runner work after the first call.  Across
        processes the computed references are persisted in the cache's
        scenario tier, so a warm call costs one payload load.

        The cold path plans every application's solo timeline, then
        deduplicates the per-(application, config) solo leaves **across
        all applications** into one replay-pooled batch — residents whose
        solo residencies overlap (the common case: every round of a co-run
        timeline grants the same shares) cost one leaf execution total,
        not one per application per phase.  Each reference is the same
        duration-weighted mean of the same leaf IPCs the per-app runs
        computed, in the same order, so the values are bit-identical.
        """
        memo_key = self.run_key(scenario, system, policy)
        cached = self._solo_reference_memo.get(memo_key)
        if cached is not None:
            return dict(cached)
        runner = self._runner()
        references_key = content_hash({"solo_references": memo_key})
        payload = runner.load_scenario_payload(references_key)
        if payload is not None:
            try:
                references = {
                    str(name): float(value)
                    for name, value in payload["references"].items()
                }
            except (AttributeError, KeyError, TypeError, ValueError):
                references = None
            if references is not None and set(references) == set(
                scenario.applications
            ):
                self._solo_reference_memo[memo_key] = dict(references)
                return references
        # Cold: plan each solo timeline, dedup the leaves across every
        # application, execute one batch, and fold the references.
        unique: List[Tuple[str, SimulationConfig]] = []
        leaf_index: Dict[Tuple[str, SimulationConfig], int] = {}
        per_app: Dict[str, List[Tuple[float, int]]] = {}
        for application in scenario.applications:
            phases = tuple(
                ScenarioPhase(
                    application=application,
                    compute_sm_demand=next(
                        residency.compute_sm_demand
                        for residency in phase.residents
                        if residency.application == application
                    ),
                    duration_weight=phase.duration_weight,
                    label=phase.label,
                )
                for phase in scenario.phases
                if application in phase.applications
            )
            solo = ScenarioSpec(
                name=f"{scenario.name}:{application}-solo",
                phases=phases,
                instructions_per_weight=scenario.instructions_per_weight,
                description=f"{application}'s residencies of {scenario.name!r}, alone",
            )
            self._validate_demands(solo)
            profiles = self._profiles(solo)
            decisions, morpheus = self._plan(solo, system, policy, profiles)
            entries: List[Tuple[float, int]] = []
            for phase, decision in zip(solo.phases, decisions):
                grant = self._decision_grants(phase, decision)[0]
                key = (application, self._leaf_config(grant, morpheus, system))
                index = leaf_index.get(key)
                if index is None:
                    index = len(unique)
                    leaf_index[key] = index
                    unique.append(key)
                entries.append((phase.duration_weight, index))
            per_app[application] = entries
        batch = runner.run_leaves(
            [
                (get_application(application), config)
                for application, config in unique
            ]
        )
        references = {}
        for application, entries in per_app.items():
            total_weight = sum(weight for weight, _ in entries)
            references[application] = (
                sum(weight * batch[index].ipc for weight, index in entries)
                / total_weight
                if total_weight > 0
                else 0.0
            )
        runner.store_scenario_payload(
            references_key, {"references": references}
        )
        self._solo_reference_memo[memo_key] = dict(references)
        return dict(references)

    def run_key(
        self,
        scenario: ScenarioSpec,
        system: str,
        policy: Optional[CapacityPolicy] = None,
    ) -> str:
        """Content-hash key of one timeline run (scenario-level artifacts).

        Extends :meth:`ScenarioSpec.scenario_key` — which already embeds the
        replay/score/scenario schema versions — with everything else that
        shapes the result: system, policy, GPU, fidelity, seed, predictor,
        the transition-cost knobs, the co-run contention-solver knobs and
        the energy constants the runner scores (and keys) leaves with.
        This key addresses the persisted scenario aggregates in the cache's
        ``scenarios/`` tier.
        """
        policy = policy if policy is not None else (
            None if system in ("BL", "IBL") else DynamicCapacityManager()
        )
        # Class name + instance fields, so parameterized policy subclasses
        # (a public extension point) never collide on a shared `name`.
        policy_fields: Dict[str, object] = dict(vars(policy)) if policy is not None else {}
        policy_class = type(policy).__name__ if policy is not None else None
        energy_model = self._runner().energy_model
        energies = energy_model.energies if energy_model is not None else DEFAULT_ENERGIES
        return content_hash(
            {
                "schema": SCENARIO_SCHEMA_VERSION,
                "scenario_key": scenario.scenario_key(),
                "system": system,
                "policy": policy.name if policy is not None else None,
                "policy_class": policy_class,
                "policy_fields": policy_fields,
                "gpu": self.gpu,
                "fidelity": self.fidelity,
                "seed": self.seed,
                "predictor": self.predictor,
                "transition_model": self.transition_model,
                "contention": self.contention,
                "energies": energies,
            }
        )
