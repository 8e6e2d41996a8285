"""Scenario-level analysis: timeline aggregates over per-phase leaf results.

A :class:`~repro.scenarios.engine.ScenarioRunResult` holds one scored leaf
per phase plus the transition costs charged between phases; this module
turns that into the timeline-level numbers the scenario studies report:

* :func:`time_weighted_ipc` — instructions retired over *all* cycles,
  including reconfiguration stalls, so transition costs show up as lost
  throughput;
* :func:`scenario_energy_j` — per-phase energy scaled to each phase's share
  of the timeline, plus the DRAM energy of flush writebacks and warm-up
  fills;
* :func:`transition_overheads` — the flush/warm-up breakdown and its share
  of the timeline;
* co-run aggregation — :func:`per_app_timelines` (per-application
  time-weighted IPC and capacity shares), :func:`weighted_speedup` /
  :func:`fairness` against solo references, and :func:`contention_breakdown`
  (per-application cycles lost to co-residency, decomposed into the
  extended-LLC-grant component and the shared-bandwidth-interference
  component, with transitions reported separately);
* :func:`phase_table` / :func:`corun_table` / :func:`compare_runs` —
  human-readable reports;
* :class:`ScenarioAccumulator` — the one reduction behind them all: a
  **streaming** fold over ``result.phases`` in timeline order with
  O(distinct signatures) running state, which also yields weighted
  p50/p95/p99 per-application phase-slowdown percentiles for fleet SLA
  reporting.

Everything here is pure post-processing of already-cached leaf results:
re-running an analysis never touches the replay tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.analysis.report import format_table
from repro.energy.components import ComponentEnergies, DEFAULT_ENERGIES
from repro.scenarios.engine import PhaseExecution, ScenarioRunResult
from repro.scenarios.spec import ScenarioSpec

_PJ_TO_J = 1e-12


@dataclass(frozen=True)
class TransitionOverheads:
    """Aggregate reconfiguration costs of one timeline run.

    Attributes:
        transitions: Phase boundaries that did reconfiguration work.
        flush_cycles: Total cycles draining dirty extended-LLC data.
        warmup_cycles: Total cycles re-warming grown capacity.
        flushed_dirty_bytes: Dirty bytes written back to DRAM.
        warmup_fill_bytes: Bytes streamed from DRAM during warm-ups.
        dram_energy_j: DRAM energy of that transition traffic.
        overhead_fraction: Share of the timeline's total cycles lost to
            transitions (0 for static policies and steady timelines).
    """

    transitions: int
    flush_cycles: float
    warmup_cycles: float
    flushed_dirty_bytes: float
    warmup_fill_bytes: float
    dram_energy_j: float
    overhead_fraction: float

    @property
    def total_cycles(self) -> float:
        """Total reconfiguration stall in core cycles."""
        return self.flush_cycles + self.warmup_cycles


def time_weighted_ipc(result: ScenarioRunResult) -> float:
    """Timeline IPC: total instructions over total cycles (with transitions).

    Equivalent to the duration-weighted harmonic mean of the per-phase IPCs,
    degraded by reconfiguration stalls — the honest "what did the timeline
    actually deliver" number.
    """
    if result.total_cycles <= 0:
        return 0.0
    return result.total_instructions / result.total_cycles


def _aggregates(
    result: ScenarioRunResult, energies: ComponentEnergies = DEFAULT_ENERGIES
) -> "ScenarioAggregates":
    """One streaming pass over ``result`` (see :class:`ScenarioAccumulator`)."""
    return ScenarioAccumulator.from_result(result, energies=energies).aggregates()


def transition_overheads(
    result: ScenarioRunResult,
    energies: ComponentEnergies = DEFAULT_ENERGIES,
) -> TransitionOverheads:
    """Aggregate the flush/warm-up costs of one timeline run."""
    return _aggregates(result, energies).transitions


def scenario_energy_j(
    result: ScenarioRunResult,
    energies: ComponentEnergies = DEFAULT_ENERGIES,
) -> float:
    """Total timeline energy in joules.

    Each resident's leaf energy (computed for the application's full
    instruction count) is scaled linearly to the instructions that resident
    retired during the phase — energy is proportional to instructions at a
    fixed IPC and split — and the DRAM energy of transition traffic is
    added on top.  Static power during the (comparatively short) transition
    stalls is neglected, and co-run phases sum their residents' scaled leaf
    energies (a pessimistic bound: each leaf already accounts its own
    share of the uncore).
    """
    return _aggregates(result, energies).energy_j


def phase_table(result: ScenarioRunResult) -> str:
    """Per-phase report of one timeline run (splits, IPC, transition stalls).

    Co-run phases print one row per resident: the phase-level columns
    (gated SMs, cycles, transition stall) appear on the first resident's
    row, the per-resident columns (compute/cache grant, IPC) on each.
    """
    rows = []
    for execution in result.phases:
        split = execution.decision.split
        cost = execution.decision.transition
        for position, resident in enumerate(execution.residents):
            first = position == 0
            rows.append(
                [
                    execution.index if first else "",
                    execution.phase.describe() if first else "",
                    resident.application,
                    resident.grant.compute_sms,
                    resident.grant.cache_sms,
                    split.num_gated_sms if first else "",
                    resident.stats.ipc,
                    execution.compute_cycles if first else "",
                    cost.total_cycles if first else "",
                ]
            )
    title = (
        f"Scenario {result.scenario.name!r} on {result.system} "
        f"({result.policy_name} policy):"
    )
    return format_table(
        [
            "phase", "label", "app",
            "compute", "cache", "gated",
            "IPC", "cycles", "transition",
        ],
        rows,
        title=title,
    )


# -- co-run aggregation --------------------------------------------------------------


@dataclass(frozen=True)
class AppTimeline:
    """One application's aggregate across the phases where it was resident.

    Attributes:
        application: The application name.
        instructions: Instructions the application retired over the timeline.
        resident_cycles: Wall-clock cycles of the phases where it was
            resident, **including** those phases' transition stalls (every
            resident sits out a reconfiguration).
        transition_cycles: The share of ``resident_cycles`` lost to
            transitions.
        ipc: Time-weighted IPC: ``instructions / resident_cycles``.
        slice_ipc: *Equal-slice* IPC — the duration-weight-weighted mean of
            the application's per-phase leaf IPCs (transition-free).  This
            is the number to normalize against a solo reference computed
            the same way
            (:meth:`~repro.scenarios.engine.ScenarioEngine.solo_reference_ipcs`):
            phase durations depend on who shares the GPU, so comparing
            wall-clock IPCs across tenancy configurations mixes throughput
            with scheduling, while the per-phase means compare like slices.
        uncontended_slice_ipc: The same equal-slice aggregation over the
            **uncontended** leaf IPCs — what the application would have
            scored at its granted SM shares with the whole shared memory
            system to itself.  The gap to ``slice_ipc`` is pure
            shared-bandwidth interference; the gap from the solo reference
            down to ``uncontended_slice_ipc`` is the extended-LLC-grant
            (capacity arbitration) component.
        mean_compute_sms: Cycle-weighted mean compute-SM grant.
        mean_cache_sms: Cycle-weighted mean extended-LLC grant.
    """

    application: str
    instructions: float
    resident_cycles: float
    transition_cycles: float
    ipc: float
    slice_ipc: float
    uncontended_slice_ipc: float
    mean_compute_sms: float
    mean_cache_sms: float


def per_app_timelines(result: ScenarioRunResult) -> Dict[str, AppTimeline]:
    """Aggregate one timeline run per application, in first-seen order.

    The building block of the co-run metrics: for a single-tenant timeline
    it degenerates to one entry whose IPC is the run's time-weighted IPC.
    """
    return _aggregates(result).timelines


def _normalized_progress(
    timelines: Mapping[str, AppTimeline], reference_ipc: Mapping[str, float]
) -> Dict[str, float]:
    """Per-application ``slice_ipc / solo reference`` (the one shared path)."""
    progress = {}
    for name, timeline in timelines.items():
        reference = reference_ipc[name]
        progress[name] = timeline.slice_ipc / reference if reference > 0 else 0.0
    return progress


def weighted_speedup(
    result: ScenarioRunResult, reference_ipc: Mapping[str, float]
) -> float:
    """Multi-tenant weighted speedup against per-application solo references.

    ``sum_app(shared slice IPC / solo slice IPC)`` — the standard
    multiprogram throughput metric; equals the number of tenants when
    co-residency costs nothing, and both sides use the equal-slice
    aggregation (see :attr:`AppTimeline.slice_ipc`).  ``reference_ipc``
    typically comes from
    :meth:`~repro.scenarios.engine.ScenarioEngine.solo_reference_ipcs`.
    """
    return sum(_normalized_progress(per_app_timelines(result), reference_ipc).values())


def fairness(
    result: ScenarioRunResult, reference_ipc: Mapping[str, float]
) -> float:
    """Min/max ratio of the per-application normalized progress (1 = fair).

    The usual co-run fairness index: each application's shared-mode IPC is
    normalized to its solo reference, and the worst-treated tenant's
    progress is divided by the best-treated one's.
    """
    ratios = list(
        _normalized_progress(per_app_timelines(result), reference_ipc).values()
    )
    if not ratios or max(ratios) <= 0:
        return 0.0
    return min(ratios) / max(ratios)


@dataclass(frozen=True)
class AppContention:
    """One application's co-residency cost against its solo reference.

    ``contention_cycles`` is the extra time the application's retired
    instructions took at its shared equal-slice IPC compared to retiring
    them at the solo reference IPC (negative when sharing beat the
    reference).  It decomposes exactly into the two channels a co-resident
    loses through:

    * ``capacity_grant_cycles`` — solo reference down to the *uncontended*
      shared IPC: the cost of running at the arbitrated extended-LLC grant
      (and compute share) instead of owning the whole idle pool, with the
      full memory system still to itself;
    * ``bandwidth_interference_cycles`` — uncontended down to the contended
      IPC: the cost of sharing DRAM/LLC/NoC bandwidth with the
      co-residents, at identical grants (nonzero only when the contention
      fixed point actually throttled a shared channel).

    ``transition_cycles`` is the part of its resident time spent in
    reconfiguration stalls, reported separately.
    """

    application: str
    ipc: float
    uncontended_ipc: float
    reference_ipc: float
    normalized_progress: float
    contention_cycles: float
    capacity_grant_cycles: float
    bandwidth_interference_cycles: float
    transition_cycles: float


@dataclass(frozen=True)
class ContentionBreakdown:
    """Contention-overhead breakdown of one co-run timeline."""

    per_app: Tuple[AppContention, ...]
    weighted_speedup: float
    fairness: float

    @property
    def contention_cycles(self) -> float:
        """Total extra cycles across applications vs their solo references."""
        return sum(app.contention_cycles for app in self.per_app)

    @property
    def capacity_grant_cycles(self) -> float:
        """Total cycles lost to arbitrated extended-LLC grants (vs solo pools)."""
        return sum(app.capacity_grant_cycles for app in self.per_app)

    @property
    def bandwidth_interference_cycles(self) -> float:
        """Total cycles lost to shared DRAM/LLC/NoC bandwidth interference."""
        return sum(app.bandwidth_interference_cycles for app in self.per_app)


def _breakdown_from(
    timelines: Mapping[str, AppTimeline], reference_ipc: Mapping[str, float]
) -> ContentionBreakdown:
    """Build a :class:`ContentionBreakdown` from one timeline aggregation."""
    progress = _normalized_progress(timelines, reference_ipc)
    per_app = []
    for name, timeline in timelines.items():
        reference = reference_ipc[name]
        shared_cycles = (
            timeline.instructions / timeline.slice_ipc
            if timeline.slice_ipc > 0
            else 0.0
        )
        uncontended_cycles = (
            timeline.instructions / timeline.uncontended_slice_ipc
            if timeline.uncontended_slice_ipc > 0
            else 0.0
        )
        ideal_cycles = timeline.instructions / reference if reference > 0 else 0.0
        per_app.append(
            AppContention(
                application=name,
                ipc=timeline.slice_ipc,
                uncontended_ipc=timeline.uncontended_slice_ipc,
                reference_ipc=reference,
                normalized_progress=progress[name],
                contention_cycles=shared_cycles - ideal_cycles,
                capacity_grant_cycles=uncontended_cycles - ideal_cycles,
                bandwidth_interference_cycles=shared_cycles - uncontended_cycles,
                transition_cycles=timeline.transition_cycles,
            )
        )
    ratios = list(progress.values())
    return ContentionBreakdown(
        per_app=tuple(per_app),
        weighted_speedup=sum(ratios),
        fairness=min(ratios) / max(ratios) if ratios and max(ratios) > 0 else 0.0,
    )


def contention_breakdown(
    result: ScenarioRunResult, reference_ipc: Mapping[str, float]
) -> ContentionBreakdown:
    """Break one timeline's co-residency cost down per application.

    Pure post-processing: the references are per-application solo IPCs
    (see :meth:`~repro.scenarios.engine.ScenarioEngine.solo_reference_ipcs`),
    so computing the breakdown never runs a simulation.
    """
    return _breakdown_from(per_app_timelines(result), reference_ipc)


def corun_table(
    result: ScenarioRunResult, reference_ipc: Mapping[str, float]
) -> str:
    """Per-application co-run report (shares, IPC, progress, contention).

    The contention column is split into its two components: cycles lost to
    the arbitrated extended-LLC *grant* (solo pool vs arbitrated slice,
    full bandwidth on both sides) and cycles lost to shared *bandwidth*
    interference (identical grant, contended vs whole-GPU envelope).
    """
    timelines = per_app_timelines(result)
    breakdown = _breakdown_from(timelines, reference_ipc)
    rows = []
    for app in breakdown.per_app:
        timeline = timelines[app.application]
        rows.append(
            [
                app.application,
                timeline.mean_compute_sms,
                timeline.mean_cache_sms,
                app.ipc,
                app.uncontended_ipc,
                app.reference_ipc,
                f"{app.normalized_progress:.3f}",
                app.capacity_grant_cycles,
                app.bandwidth_interference_cycles,
                app.transition_cycles,
            ]
        )
    title = (
        f"Co-run {result.scenario.name!r} on {result.system} "
        f"({result.policy_name} policy): weighted speedup "
        f"{breakdown.weighted_speedup:.3f}, fairness {breakdown.fairness:.3f}"
    )
    return format_table(
        [
            "app", "mean compute", "mean cache",
            "IPC", "uncontended IPC", "solo IPC", "progress",
            "grant cycles", "bandwidth cycles", "transition cycles",
        ],
        rows,
        title=title,
    )


# -- streaming aggregation -----------------------------------------------------------


def _grouped_weights(
    pairs: Union[Mapping[float, float], Iterable[Tuple[float, float]]],
) -> Dict[float, float]:
    """Group (value, weight) pairs into a value → total-weight mapping.

    Weights of equal values are summed in input order, so grouping a raw
    per-phase pair list produces bitwise the same totals as the
    accumulator's incremental grouping.
    """
    if isinstance(pairs, Mapping):
        return dict(pairs)
    grouped: Dict[float, float] = {}
    for value, weight in pairs:
        grouped[value] = grouped.get(value, 0.0) + weight
    return grouped


def weighted_percentile(
    pairs: Union[Mapping[float, float], Iterable[Tuple[float, float]]],
    fraction: float,
) -> float:
    """Weighted nearest-rank percentile of (value, weight) pairs.

    The smallest value whose cumulative weight (in ascending value order)
    reaches ``fraction`` of the total weight — the weighted analogue of the
    nearest-rank percentile the telemetry layer reports.  Accepts either a
    raw pair iterable or an already-grouped value → weight mapping;
    both produce identical results for the same underlying pairs.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    grouped = _grouped_weights(pairs)
    values = sorted(grouped)
    total = 0.0
    for value in values:
        total += grouped[value]
    if not values or total <= 0.0:
        return 0.0
    threshold = fraction * total
    cumulative = 0.0
    for value in values:
        cumulative += grouped[value]
        if cumulative >= threshold:
            return value
    return values[-1]


@dataclass(frozen=True)
class SlowdownStats:
    """Weighted phase-slowdown percentiles of one application.

    Attributes:
        application: The application name.
        weight: Total duration weight of the phases it was resident in.
        p50/p95/p99: Weighted nearest-rank percentiles of its per-phase
            slowdown (see :class:`ScenarioAccumulator`) — the fleet SLA
            view: p99 is the slowdown its worst 1% of resident time
            exceeded.
        max: The worst per-phase slowdown.
    """

    application: str
    weight: float
    p50: float
    p95: float
    p99: float
    max: float


def slowdown_stats(
    application: str,
    pairs: Union[Mapping[float, float], Iterable[Tuple[float, float]]],
) -> SlowdownStats:
    """Fold (slowdown, weight) pairs into :class:`SlowdownStats`."""
    grouped = _grouped_weights(pairs)
    values = sorted(grouped)
    total = 0.0
    for value in values:
        total += grouped[value]
    return SlowdownStats(
        application=application,
        weight=total,
        p50=weighted_percentile(grouped, 0.50),
        p95=weighted_percentile(grouped, 0.95),
        p99=weighted_percentile(grouped, 0.99),
        max=values[-1] if values else 0.0,
    )


@dataclass(frozen=True)
class ScenarioAggregates:
    """Every timeline-level aggregate of one run, computed in one pass.

    :func:`scenario_energy_j`, :func:`transition_overheads` and
    :func:`per_app_timelines` read their fields from here, and
    ``time_weighted_ipc`` equals :func:`time_weighted_ipc`; the
    per-application :class:`SlowdownStats` are only available here.
    """

    phases: int
    total_instructions: float
    compute_cycles: float
    transition_cycles: float
    total_cycles: float
    time_weighted_ipc: float
    energy_j: float
    transitions: TransitionOverheads
    timelines: Dict[str, AppTimeline]
    slowdowns: Dict[str, SlowdownStats]


class ScenarioAccumulator:
    """Streaming one-pass aggregation of a timeline run.

    Feed phases **in timeline order** via :meth:`add` (float sums are
    order-sensitive), then read :meth:`aggregates`.  Running state is
    O(applications + distinct slowdown values) — for a fleet run that is
    O(signatures), never O(phases), so folding a lazy
    :class:`~repro.scenarios.engine.SignaturePhases` view aggregates a
    10k-phase timeline without ever materializing a 10k-element list.

    A resident's phase slowdown is ``reference IPC / contended IPC`` —
    how much slower the phase ran than its reference.  With
    ``reference_ipc`` (solo references from
    :meth:`~repro.scenarios.engine.ScenarioEngine.solo_reference_ipcs`)
    the slowdown is relative to running alone; without it, relative to the
    resident's own **uncontended** IPC, isolating shared-bandwidth
    interference.  Every other aggregate ignores ``reference_ipc``.
    """

    def __init__(
        self,
        scenario: ScenarioSpec,
        energies: ComponentEnergies = DEFAULT_ENERGIES,
        reference_ipc: Optional[Mapping[str, float]] = None,
    ) -> None:
        self._scenario = scenario
        self._energies = energies
        self._reference_ipc = reference_ipc
        order = scenario.applications
        self._phases = 0
        self._instructions = 0.0
        self._compute_cycles = 0.0
        self._transition_cycles = 0.0
        self._transitions = 0
        self._flush_cycles = 0.0
        self._warmup_cycles = 0.0
        self._flushed = 0.0
        self._filled = 0.0
        self._energy = 0.0
        self._app_instructions = {name: 0.0 for name in order}
        self._app_resident_cycles = {name: 0.0 for name in order}
        self._app_transition_cycles = {name: 0.0 for name in order}
        self._app_weighted_ipc = {name: 0.0 for name in order}
        self._app_weighted_uncontended_ipc = {name: 0.0 for name in order}
        self._app_resident_weight = {name: 0.0 for name in order}
        self._app_compute_sm_cycles = {name: 0.0 for name in order}
        self._app_cache_sm_cycles = {name: 0.0 for name in order}
        self._slowdowns: Dict[str, Dict[float, float]] = {
            name: {} for name in order
        }

    def add(self, execution: PhaseExecution) -> None:
        """Fold one phase into the running aggregates."""
        self._phases += 1
        self._instructions += execution.instructions
        self._compute_cycles += execution.compute_cycles
        cost = execution.decision.transition
        stall = cost.total_cycles
        self._transition_cycles += stall
        if not cost.is_zero:
            self._transitions += 1
            self._flush_cycles += cost.flush_cycles
            self._warmup_cycles += cost.warmup_cycles
            self._flushed += cost.flushed_dirty_bytes
            self._filled += cost.warmup_fill_bytes
        cycles = execution.cycles
        weight = execution.phase.duration_weight
        for resident in execution.residents:
            name = resident.application
            breakdown = resident.stats.energy
            if breakdown is not None and resident.stats.instructions > 0:
                scale = resident.instructions / resident.stats.instructions
                self._energy += breakdown.total_j * scale
            self._app_instructions[name] += resident.instructions
            self._app_resident_cycles[name] += cycles
            self._app_transition_cycles[name] += stall
            self._app_weighted_ipc[name] += weight * resident.stats.ipc
            self._app_weighted_uncontended_ipc[name] += (
                weight * resident.uncontended_ipc
            )
            self._app_resident_weight[name] += weight
            self._app_compute_sm_cycles[name] += (
                resident.grant.compute_sms * cycles
            )
            self._app_cache_sm_cycles[name] += resident.grant.cache_sms * cycles
            reference = (
                self._reference_ipc[name]
                if self._reference_ipc is not None
                else resident.uncontended_ipc
            )
            ipc = resident.stats.ipc
            slowdown = (
                reference / ipc if ipc > 0.0 and reference > 0.0 else 0.0
            )
            grouped = self._slowdowns[name]
            grouped[slowdown] = grouped.get(slowdown, 0.0) + weight

    @classmethod
    def from_result(
        cls,
        result: ScenarioRunResult,
        energies: ComponentEnergies = DEFAULT_ENERGIES,
        reference_ipc: Optional[Mapping[str, float]] = None,
    ) -> "ScenarioAccumulator":
        """Fold every phase of ``result`` (lazily — one phase at a time)."""
        accumulator = cls(
            result.scenario, energies=energies, reference_ipc=reference_ipc
        )
        for execution in result.phases:
            accumulator.add(execution)
        return accumulator

    def aggregates(self) -> ScenarioAggregates:
        """The aggregates of everything folded so far."""
        total_cycles = self._compute_cycles + self._transition_cycles
        overhead_cycles = self._flush_cycles + self._warmup_cycles
        transitions = TransitionOverheads(
            transitions=self._transitions,
            flush_cycles=self._flush_cycles,
            warmup_cycles=self._warmup_cycles,
            flushed_dirty_bytes=self._flushed,
            warmup_fill_bytes=self._filled,
            dram_energy_j=(
                (self._flushed + self._filled)
                * self._energies.dram_pj_per_byte
                * _PJ_TO_J
            ),
            overhead_fraction=(
                overhead_cycles / total_cycles if total_cycles > 0 else 0.0
            ),
        )
        timelines = {}
        for name in self._scenario.applications:
            cycles = self._app_resident_cycles[name]
            weight = self._app_resident_weight[name]
            timelines[name] = AppTimeline(
                application=name,
                instructions=self._app_instructions[name],
                resident_cycles=cycles,
                transition_cycles=self._app_transition_cycles[name],
                ipc=(
                    self._app_instructions[name] / cycles
                    if cycles > 0
                    else 0.0
                ),
                slice_ipc=(
                    self._app_weighted_ipc[name] / weight if weight > 0 else 0.0
                ),
                uncontended_slice_ipc=(
                    self._app_weighted_uncontended_ipc[name] / weight
                    if weight > 0
                    else 0.0
                ),
                mean_compute_sms=(
                    self._app_compute_sm_cycles[name] / cycles
                    if cycles > 0
                    else 0.0
                ),
                mean_cache_sms=(
                    self._app_cache_sm_cycles[name] / cycles
                    if cycles > 0
                    else 0.0
                ),
            )
        return ScenarioAggregates(
            phases=self._phases,
            total_instructions=self._instructions,
            compute_cycles=self._compute_cycles,
            transition_cycles=self._transition_cycles,
            total_cycles=total_cycles,
            time_weighted_ipc=(
                self._instructions / total_cycles if total_cycles > 0 else 0.0
            ),
            energy_j=self._energy + transitions.dram_energy_j,
            transitions=transitions,
            timelines=timelines,
            slowdowns={
                name: slowdown_stats(name, self._slowdowns[name])
                for name in self._scenario.applications
            },
        )


def compare_runs(
    results: Mapping[str, ScenarioRunResult],
    energies: ComponentEnergies = DEFAULT_ENERGIES,
) -> str:
    """Side-by-side timeline comparison (one row per labelled run)."""
    rows = []
    for label, result in results.items():
        aggregates = _aggregates(result, energies)
        overheads = aggregates.transitions
        rows.append(
            [
                label,
                result.system,
                result.policy_name,
                aggregates.time_weighted_ipc,
                aggregates.total_cycles,
                overheads.total_cycles,
                f"{overheads.overhead_fraction:.3%}",
                aggregates.energy_j,
            ]
        )
    return format_table(
        [
            "run", "system", "policy", "tw-IPC",
            "total cycles", "transition cycles", "overhead", "energy (J)",
        ],
        rows,
        title="Timeline comparison:",
    )
