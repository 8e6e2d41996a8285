"""Parallel, disk-cached, two-phase execution of simulation plans.

:class:`ExperimentRunner` is the single execution path for every simulation
in the repository.  Each leaf simulation runs in two content-addressed
phases backed by the two tiers of the on-disk
:class:`~repro.runner.cache.ResultCache` (plus in-process dict layers):

1. **Replay** — the functional hierarchy replay producing a
   :class:`~repro.sim.performance_model.ReplayMeasurement`, cached under
   :meth:`~repro.runner.spec.RunSpec.replay_key`.  This is the expensive,
   deterministic phase; it runs **at most once per replay key**.
2. **Score** — the pure analytic scoring of a measurement into
   :class:`~repro.sim.stats.SimulationStats`, cached under
   :meth:`~repro.runner.spec.RunSpec.score_key`.  Sweeping analytic
   parameters (peak IPC, MLP, energy constants) only misses this cheap
   tier — the measurement tier hits and no trace is re-replayed.

* ``simulate`` runs one leaf (profile, config) pair through both phases.
* ``run_configs`` / ``score_many`` run a batch of leaf configs for one
  profile: score-tier misses are grouped by replay key, the missing
  *replays* (not whole simulations) are farmed out to a
  ``ProcessPoolExecutor`` (with a transparent serial fallback when
  multiprocessing is unavailable or ``max_workers <= 1``), and scoring
  happens in-process.
* ``run_plan`` executes a declarative :class:`~repro.runner.spec.ExperimentSpec`
  / :class:`~repro.runner.spec.ExperimentPlan` cell matrix in parallel; each
  worker shares the same on-disk cache, so a warm re-run of a plan costs
  only JSON loads.

Determinism: traces are seeded with process-independent hashes, every cell
carries its own seed, and measurements round-trip JSON exactly, so serial
and parallel execution — and direct runs vs cached-measurement re-scores —
produce bit-identical :class:`~repro.sim.stats.SimulationStats`.
"""

from __future__ import annotations

import os
import time
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.energy.components import DEFAULT_ENERGIES
from repro.energy.model import EnergyModel
from repro.runner.cache import ResultCache
from repro.runner.spec import ExperimentCell, ExperimentPlan, ExperimentSpec, RunSpec
from repro.sim.performance_model import PerformanceModel, ReplayMeasurement
from repro.sim.simulator import GPUSimulator, SimulationConfig
from repro.sim.stats import SimulationStats
from repro.telemetry import telemetry
from repro.workloads.applications import ApplicationProfile, get_application

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.energy.components import ComponentEnergies
    from repro.sim.vector_model import MeasurementScorer

#: Environment variable setting the default worker count (0 = serial).
WORKERS_ENV = "REPRO_RUNNER_WORKERS"

#: Environment variable selecting the execution backend: ``local`` (in-process
#: worker pools, the default) or ``service`` (the distributed experiment
#: service of :mod:`repro.runner.service` — replay/cell batches are registered
#: on a job queue and drained by work-stealing worker daemons).
BACKEND_ENV = "REPRO_RUNNER_BACKEND"

#: The backends :class:`ExperimentRunner` accepts.
BACKENDS = ("local", "service")

#: Environment variable disabling the on-disk cache when set to ``0``.
DISK_CACHE_ENV = "REPRO_DISK_CACHE"

#: Environment variable capping the on-disk cache size in bytes.  When set,
#: the runner applies the LRU-by-mtime prune after each completed plan or
#: scenario run (the same cap ``python -m repro.runner prune --max-bytes``
#: applies manually).
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"


@dataclass
class ExperimentResult:
    """Results of one executed plan, keyed by cell."""

    plan: ExperimentPlan
    results: Dict[ExperimentCell, SimulationStats]
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[Tuple[ExperimentCell, SimulationStats]]:
        for cell in self.plan.cells:
            yield cell, self.results[cell]

    def get(
        self,
        system: str,
        application: str,
        seed: Optional[int] = None,
        sm_count: Optional[int] = None,
        predictor: Optional[str] = None,
    ) -> SimulationStats:
        """The stats of one cell (filters may be omitted when unambiguous)."""
        matches = [
            stats
            for cell, stats in self.results.items()
            if cell.system == system
            and cell.application == application
            and (seed is None or cell.seed == seed)
            and (sm_count is None or cell.sm_count == sm_count)
            and (predictor is None or cell.predictor == predictor)
        ]
        if not matches:
            raise KeyError(f"no result for ({system!r}, {application!r})")
        if len(matches) > 1:
            raise KeyError(
                f"({system!r}, {application!r}) is ambiguous; "
                "pass seed/sm_count/predictor"
            )
        return matches[0]

    def by_application(self, application: str) -> Dict[str, SimulationStats]:
        """``{system: stats}`` for one application.

        Raises ``KeyError`` when the plan has several cells per system for
        ``application`` (multiple seeds or SM counts) — use :meth:`get` with
        ``seed``/``sm_count`` to disambiguate instead of silently collapsing.
        """
        by_system: Dict[str, SimulationStats] = {}
        for cell, stats in self.results.items():
            if cell.application != application:
                continue
            if cell.system in by_system:
                raise KeyError(
                    f"plan has multiple cells for ({cell.system!r}, {application!r}); "
                    "use get(seed=..., sm_count=...)"
                )
            by_system[cell.system] = stats
        return by_system


class ExperimentRunner:
    """Executes leaf simulations, config batches and experiment plans.

    Args:
        cache_dir: On-disk cache directory (default: ``$REPRO_CACHE_DIR`` or
            ``.repro_cache``).
        max_workers: Worker processes for batch/plan execution.  ``None``
            reads ``$REPRO_RUNNER_WORKERS`` (default 0); values <= 1 run
            serially in-process.
        use_disk_cache: Persist results to disk (``$REPRO_DISK_CACHE=0``
            disables the default).
        energy_model: Energy model shared by all runs.
        backend: ``"local"`` (in-process worker pools) or ``"service"``
            (distributed execution through the job queue of
            :mod:`repro.runner.service`).  ``None`` reads
            ``$REPRO_RUNNER_BACKEND`` (default ``"local"``).
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_workers: Optional[int] = None,
        use_disk_cache: Optional[bool] = None,
        energy_model: Optional[EnergyModel] = None,
        backend: Optional[str] = None,
    ) -> None:
        if max_workers is None:
            max_workers = int(os.environ.get(WORKERS_ENV, "0") or 0)
        if use_disk_cache is None:
            use_disk_cache = os.environ.get(DISK_CACHE_ENV, "1") != "0"
        if backend is None:
            backend = os.environ.get(BACKEND_ENV, "").strip() or "local"
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown runner backend {backend!r}; expected one of {BACKENDS}"
            )
        self.max_workers = max_workers
        self.use_disk_cache = use_disk_cache
        self.backend = backend
        self.disk_cache = ResultCache(cache_dir)
        self._energy_model = energy_model
        self.memory_hits = 0
        self.measurement_memory_hits = 0
        #: Trace replays actually executed on behalf of this runner (serial,
        #: via worker pools, or — folded back from per-task accounting — via
        #: service workers).  A warm-cache or analytic re-scoring pass keeps
        #: this at zero.
        self.replays = 0
        #: Per-batch :class:`~repro.runner.service.ServiceReport` accounting
        #: when the ``service`` backend executed work for this runner.
        self.service_reports: List = []
        self._memory: Dict[str, SimulationStats] = {}
        self._measurement_memory: Dict[str, ReplayMeasurement] = {}
        self._scenario_memory: Dict[str, Dict] = {}
        self._performance_model = PerformanceModel(energy_model)
        self._cache_suspended = False
        self._service = None
        self._service_finalizer = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_finalizer = None

    # -- cache plumbing ---------------------------------------------------------------

    @property
    def cache_dir(self) -> str:
        """The on-disk cache directory path."""
        return str(self.disk_cache.directory)

    @property
    def energy_model(self) -> Optional[EnergyModel]:
        """The energy model scoring uses.

        Read-only: the scoring model and the score keys must agree on the
        energy constants, so swapping models mid-life would poison the
        shared cache.  Use :meth:`with_energy_model` to re-score under
        different constants instead.
        """
        return self._energy_model

    def with_energy_model(self, energy_model: Optional[EnergyModel]) -> "ExperimentRunner":
        """A sibling runner scoring with ``energy_model`` but sharing caches.

        The sibling shares this runner's on-disk cache object (both tiers,
        including counters) and in-process layers, so re-scoring under
        different energy constants is served from the measurement tier at
        zero replay cost.  Used by :mod:`repro.analysis.rescoring`.
        """
        sibling = ExperimentRunner(
            cache_dir=self.cache_dir,
            max_workers=self.max_workers,
            use_disk_cache=self.use_disk_cache,
            energy_model=energy_model,
            backend=self.backend,
        )
        sibling.disk_cache = self.disk_cache
        sibling._memory = self._memory
        sibling._measurement_memory = self._measurement_memory
        sibling._scenario_memory = self._scenario_memory
        return sibling

    def clear_memory_cache(self) -> None:
        """Drop the in-process result/measurement layers (disk is untouched)."""
        self._memory.clear()
        self._measurement_memory.clear()
        self._scenario_memory.clear()

    def clear_scored_stats(self) -> None:
        """Drop scored stats from every layer this runner uses, keeping measurements.

        After this, the next run re-derives every result from cached
        measurements — pure analytic scoring, zero replays.  Scenario-level
        aggregates are dropped too (they are derived from scored stats, and
        keeping them would let a warm timeline run skip the very scoring
        path being timed).  Benchmarks use it between timed rounds.  The
        on-disk stats/scenario tiers are only touched when this runner
        actually uses them.
        """
        self._memory.clear()
        self._scenario_memory.clear()
        if self.use_disk_cache:
            self.disk_cache.prune(tier=self.disk_cache.STATS_TIER)
            self.disk_cache.prune(tier=self.disk_cache.SCENARIOS_TIER)

    def maybe_auto_prune(self) -> int:
        """Apply the ``$REPRO_CACHE_MAX_BYTES`` size cap, if one is configured.

        Called after each completed plan or scenario run, so long-lived
        experiment campaigns keep the cache bounded without anyone having to
        schedule ``python -m repro.runner prune`` manually.  Evicts
        least-recently-modified entries first (both tiers); returns the
        number of files removed (0 when the variable is unset, unparsable
        or the disk cache is disabled).
        """
        if not self.use_disk_cache:
            return 0
        raw = os.environ.get(CACHE_MAX_BYTES_ENV, "").strip()
        if not raw:
            return 0
        try:
            max_bytes = int(raw)
        except ValueError:
            warnings.warn(
                f"ignoring unparsable {CACHE_MAX_BYTES_ENV}={raw!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            return 0
        if max_bytes < 0:
            return 0
        with telemetry().span("runner.auto_prune", max_bytes=max_bytes) as span:
            removed = self.disk_cache.prune(max_bytes=max_bytes)
            span.set(removed=removed)
        return removed

    @contextmanager
    def cache_bypassed(self) -> Iterator[None]:
        """Context manager: recompute results, but still store them."""
        previous = self._cache_suspended
        self._cache_suspended = True
        try:
            yield
        finally:
            self._cache_suspended = previous

    def _lookup(self, key: str) -> Optional[SimulationStats]:
        if self._cache_suspended:
            return None
        cached = self._memory.get(key)
        if cached is not None:
            self.memory_hits += 1
            return cached
        if self.use_disk_cache:
            tel = telemetry()
            if tel.enabled:
                start = time.perf_counter()
                loaded = self.disk_cache.load(key)
                tel.observe("runner.cache_lookup_seconds", time.perf_counter() - start)
            else:
                loaded = self.disk_cache.load(key)
            if loaded is not None:
                self._memory[key] = loaded
                return loaded
        return None

    def _store(self, key: str, stats: SimulationStats) -> None:
        self._memory[key] = stats
        if self.use_disk_cache:
            self.disk_cache.store(key, stats)

    def _lookup_measurement(self, replay_key: str) -> Optional[ReplayMeasurement]:
        if self._cache_suspended:
            return None
        cached = self._measurement_memory.get(replay_key)
        if cached is not None:
            self.measurement_memory_hits += 1
            return cached
        if self.use_disk_cache:
            tel = telemetry()
            if tel.enabled:
                start = time.perf_counter()
                loaded = self.disk_cache.load_measurement(replay_key)
                tel.observe("runner.cache_lookup_seconds", time.perf_counter() - start)
            else:
                loaded = self.disk_cache.load_measurement(replay_key)
            if loaded is not None:
                self._measurement_memory[replay_key] = loaded
                return loaded
        return None

    def _store_measurement(
        self,
        replay_key: str,
        measurement: ReplayMeasurement,
        mode: str = "replay",
    ) -> None:
        self._measurement_memory[replay_key] = measurement
        if self.use_disk_cache:
            self.disk_cache.store_measurement(replay_key, measurement, mode=mode)

    def load_scenario_payload(self, run_key: str) -> Optional[Dict]:
        """The cached scenario-aggregate payload for ``run_key``, if any.

        Scenario aggregates live in their own cache tier keyed by
        :meth:`~repro.scenarios.engine.ScenarioEngine.run_key`; the scenario
        engine owns the payload schema and rebuilds a
        :class:`~repro.scenarios.engine.ScenarioRunResult` from it.
        """
        if self._cache_suspended:
            return None
        cached = self._scenario_memory.get(run_key)
        if cached is not None:
            return cached
        if self.use_disk_cache:
            loaded = self.disk_cache.load_scenario(run_key)
            if loaded is not None:
                self._scenario_memory[run_key] = loaded
                return loaded
        return None

    def store_scenario_payload(self, run_key: str, payload: Dict) -> None:
        """Persist a scenario-aggregate payload under ``run_key``."""
        self._scenario_memory[run_key] = payload
        if self.use_disk_cache:
            self.disk_cache.store_scenario(run_key, payload)

    # -- leaf execution ---------------------------------------------------------------

    def _energies(self):
        """The energy-model constants results are scored (and keyed) with."""
        if self.energy_model is not None:
            return self.energy_model.energies
        return DEFAULT_ENERGIES

    def _run_spec(
        self, profile: ApplicationProfile, config: SimulationConfig
    ) -> RunSpec:
        return RunSpec(profile, config, self._energies())

    def _score(
        self,
        profile: ApplicationProfile,
        config: SimulationConfig,
        measurement: ReplayMeasurement,
    ) -> SimulationStats:
        """Phase 2: pure analytic scoring of one measurement."""
        return self._performance_model.score(profile, config, measurement)

    def _obtain_measurement(
        self, profile: ApplicationProfile, config: SimulationConfig, replay_key: str
    ) -> ReplayMeasurement:
        """Phase 1: the measurement for ``replay_key``, replaying only on a miss."""
        measurement = self._lookup_measurement(replay_key)
        if measurement is None:
            measurement = _traced_replay(profile, config, replay_key)
            self.replays += 1
            self._store_measurement(replay_key, measurement, mode=config.replay_mode)
        return measurement

    def measurement_for(
        self, profile: ApplicationProfile, config: SimulationConfig
    ) -> ReplayMeasurement:
        """The replay measurement for one leaf, replaying only on a miss.

        Phase 1 alone: used by callers that score one measurement many
        times in-process (e.g. the co-run contention solver's iterations)
        without touching the stats tier per variant.
        """
        run = self._run_spec(profile, config)
        return self._obtain_measurement(profile, config, run.replay_key())

    def score_measurement(
        self,
        profile: ApplicationProfile,
        config: SimulationConfig,
        measurement: ReplayMeasurement,
    ) -> SimulationStats:
        """Phase 2 alone: pure analytic scoring, no cache interaction.

        The complement of :meth:`measurement_for`; bit-identical to what
        :meth:`simulate` would produce for the same inputs because scoring
        is a pure function of (profile, config, measurement, energies).
        """
        return self._score(profile, config, measurement)

    def scorer_for(
        self,
        profile: ApplicationProfile,
        config: SimulationConfig,
        measurement: ReplayMeasurement,
    ) -> "MeasurementScorer":
        """A precomputed scorer over ``measurement`` (this runner's energy model).

        For callers that score one measurement under many score-tier
        variants in-process (the contention solver's per-iteration
        envelopes): the replay-side invariants are hoisted once, and
        :meth:`~repro.sim.vector_model.MeasurementScorer.score_envelope` /
        :meth:`~repro.sim.vector_model.MeasurementScorer.score_batch`
        results are bit-identical to :meth:`score_measurement`.
        """
        return self._performance_model.scorer(profile, config, measurement)

    def score_energy_grid(
        self,
        profile: ApplicationProfile,
        config: SimulationConfig,
        energies_grid: Sequence["ComponentEnergies"],
    ) -> List[SimulationStats]:
        """Score one leaf under many energy-constant variants, batched.

        Each grid point has its own score key (energies are keyed), so warm
        points are served from the stats tier; the cold points share one
        measurement fetch and one roofline evaluation
        (:meth:`~repro.sim.vector_model.MeasurementScorer.score_energy_batch`).
        Bit-identical to scoring each point through a
        :meth:`with_energy_model` sibling's :meth:`simulate`, at a fraction
        of the per-point key-derivation and cache traffic.
        """
        specs = []
        replay_key: Optional[str] = None
        for energies in energies_grid:
            spec = RunSpec(profile, config, energies)
            if replay_key is None:
                replay_key = spec.replay_key()
            else:
                # All points share the replay inputs; reuse the memoized key
                # instead of re-rendering the profile per point.
                object.__setattr__(spec, "_replay_key", replay_key)
            specs.append(spec)
        results: List[Optional[SimulationStats]] = [None] * len(specs)
        score_keys = [spec.score_key() for spec in specs]
        pending = []
        for index, key in enumerate(score_keys):
            cached = self._lookup(key)
            if cached is not None:
                results[index] = cached
            else:
                pending.append(index)
        if pending:
            assert replay_key is not None
            measurement = self._obtain_measurement(profile, config, replay_key)
            scorer = self.scorer_for(profile, config, measurement)
            scored = scorer.score_energy_batch(
                config,
                [EnergyModel(specs[index].energies) for index in pending],
            )
            for index, stats in zip(pending, scored):
                self._store(score_keys[index], stats)
                results[index] = stats
        return [stats for stats in results if stats is not None]

    def simulate(
        self, profile: ApplicationProfile, config: SimulationConfig
    ) -> SimulationStats:
        """Run one leaf simulation through the two-phase cache."""
        run = self._run_spec(profile, config)
        score_key = run.score_key()
        cached = self._lookup(score_key)
        if cached is not None:
            return cached
        measurement = self._obtain_measurement(profile, config, run.replay_key())
        tel = telemetry()
        if tel.enabled:
            start = time.perf_counter()
            stats = self._score(profile, config, measurement)
            tel.observe("runner.score_seconds", time.perf_counter() - start)
        else:
            stats = self._score(profile, config, measurement)
        self._store(score_key, stats)
        return stats

    def run_configs(
        self,
        profile: ApplicationProfile,
        configs: Sequence[SimulationConfig],
        parallel: bool = True,
    ) -> List[SimulationStats]:
        """Run many configs for one profile, parallelizing replay-tier misses.

        Score-tier misses are grouped by replay key, so configs differing
        only in analytic parameters share one replay; only the measurements
        that are missing from both the in-process layer and the on-disk
        measurement tier are farmed out to worker processes.  Scoring is
        cheap and always happens in-process.
        """
        return self.run_leaves([(profile, config) for config in configs], parallel)

    def run_leaves(
        self,
        leaves: Sequence[Tuple[ApplicationProfile, SimulationConfig]],
        parallel: bool = True,
    ) -> List[SimulationStats]:
        """Run many (profile, config) leaves in one replay-pooled batch.

        The general form of :meth:`run_configs`: leaves may mix profiles
        (a multi-application scenario timeline), and all replay-tier misses
        across the whole batch share one worker pool — no per-profile
        serialization.  Replay keys embed the profile, so grouping by key
        never conflates applications.
        """
        tel = telemetry()
        if not tel.enabled:
            return self._run_leaves_impl(leaves, parallel)
        with tel.span("runner.run_leaves", leaves=len(leaves)) as span:
            results = self._run_leaves_impl(leaves, parallel, span)
        return results

    def _run_leaves_impl(
        self,
        leaves: Sequence[Tuple[ApplicationProfile, SimulationConfig]],
        parallel: bool = True,
        span=None,
    ) -> List[SimulationStats]:
        runs = [self._run_spec(profile, config) for profile, config in leaves]
        score_keys = [run.score_key() for run in runs]
        results: List[Optional[SimulationStats]] = [None] * len(leaves)
        pending: List[int] = []
        for index, key in enumerate(score_keys):
            cached = self._lookup(key)
            if cached is not None:
                results[index] = cached
            else:
                pending.append(index)

        if pending:
            # One replay serves every pending analytic variant of its key.
            replay_keys: Dict[int, str] = {}
            by_replay: Dict[str, List[int]] = {}
            for index in pending:
                key = runs[index].replay_key()
                replay_keys[index] = key
                by_replay.setdefault(key, []).append(index)

            measurements: Dict[str, ReplayMeasurement] = {}
            missing: List[str] = []
            for key in by_replay:
                cached_measurement = self._lookup_measurement(key)
                if cached_measurement is not None:
                    measurements[key] = cached_measurement
                else:
                    missing.append(key)

            if missing and parallel and self._service_enabled():
                # Distributed backend: one replay job per missing key; the
                # workers publish measurements to the shared cache and the
                # batch is re-read below through the ordinary serial path
                # (bit-identity by construction).  Any key the service could
                # not materialize falls through to local execution.
                self._service_backend().run_replays(
                    self,
                    [
                        (leaves[by_replay[key][0]][0], leaves[by_replay[key][0]][1], key)
                        for key in missing
                    ],
                )
                still_missing: List[str] = []
                for key in missing:
                    loaded = self._lookup_measurement(key)
                    if loaded is not None:
                        measurements[key] = loaded
                    else:  # pragma: no cover - defensive
                        still_missing.append(key)
                missing = still_missing

            if span is not None:
                span.set(pending=len(pending), replay_misses=len(missing))
            workers = self._effective_workers(len(missing)) if parallel else 1
            computed: Optional[List[ReplayMeasurement]] = None
            if missing and workers > 1:
                jobs = [leaves[by_replay[key][0]] for key in missing]
                computed = self._pool_map(_replay_worker, jobs, workers)
            if computed is None:
                computed = [
                    _replay_worker(leaves[by_replay[key][0]]) for key in missing
                ]
            for key, measurement in zip(missing, computed):
                self.replays += 1
                self._store_measurement(
                    key, measurement, mode=leaves[by_replay[key][0]][1].replay_mode
                )
                measurements[key] = measurement

            # Score each replay group in one batch: same key ⇒ same replay
            # parameters and profile content, so per-config validation is
            # redundant and one vectorized pass covers the whole group.
            with telemetry().span(
                "runner.score", groups=len(by_replay), leaves=len(pending)
            ):
                for key, indices in by_replay.items():
                    measurement = measurements[key]
                    if len(indices) == 1:
                        index = indices[0]
                        profile, config = leaves[index]
                        scored = [self._score(profile, config, measurement)]
                    else:
                        profile = leaves[indices[0]][0]
                        scored = self._performance_model.score_batch(
                            profile,
                            [leaves[index][1] for index in indices],
                            measurement,
                            validate=False,
                        )
                    for index, stats in zip(indices, scored):
                        self._store(score_keys[index], stats)
                        results[index] = stats
        return [stats for stats in results if stats is not None]

    def score_many(
        self,
        profile: ApplicationProfile,
        configs: Sequence[SimulationConfig],
        parallel: bool = True,
    ) -> List[SimulationStats]:
        """Batch re-scoring API: score many analytic variants of one profile.

        Semantically identical to :meth:`run_configs` — named for the common
        case where every config shares its replay inputs with an
        already-replayed run (an MLP/peak-IPC/energy sweep), so the whole
        batch is served from the measurement tier at zero replay cost.
        Check :attr:`replays` afterwards to assert that no replay happened.
        """
        return self.run_configs(profile, configs, parallel=parallel)

    # -- plan execution ---------------------------------------------------------------

    def run_plan(self, plan: ExperimentPlan | ExperimentSpec) -> ExperimentResult:
        """Execute every cell of ``plan`` and return the collected results."""
        if isinstance(plan, ExperimentSpec):
            plan = plan.expand()
        start = time.perf_counter()
        with telemetry().span(
            "runner.run_plan", cells=len(plan.cells), backend=self.backend
        ):
            results = self._run_plan_cells(plan)
        self.maybe_auto_prune()
        return ExperimentResult(
            plan=plan,
            results=results,
            elapsed_seconds=time.perf_counter() - start,
        )

    def _run_plan_cells(
        self, plan: ExperimentPlan
    ) -> Dict[ExperimentCell, SimulationStats]:
        workers = self._effective_workers(len(plan.cells))
        computed: Optional[List[SimulationStats]] = None
        if self._service_enabled() and plan.cells:
            # Distributed backend: every cell becomes a service job; workers
            # publish all leaf results to the shared cache and the plan is
            # then re-executed serially over the warm cache — pure cache
            # hits, bit-identical to a serial run by construction.
            self._service_backend().run_plan_cells(self, plan)
            computed = [self._execute_cell(cell, plan.spec) for cell in plan.cells]
        if computed is None and workers > 1:
            jobs = [
                (cell, plan.spec, self.cache_dir, self.use_disk_cache, self.energy_model)
                for cell in plan.cells
            ]
            pooled = self._pool_map(_cell_worker, jobs, workers)
            if pooled is not None:
                # Workers count replays and cache hits/misses on their own
                # runners; fold both back so this runner's `replays` and its
                # cache's tier counters stay truthful under pooling.
                computed = [stats for stats, _, _ in pooled]
                self.replays += sum(replays for _, replays, _ in pooled)
                for _, _, counters in pooled:
                    self.disk_cache.absorb_counters(counters)
        if computed is None:
            computed = [self._execute_cell(cell, plan.spec) for cell in plan.cells]
        return dict(zip(plan.cells, computed))

    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        """Expand and execute ``spec`` (convenience wrapper for ``run_plan``)."""
        return self.run_plan(spec)

    def _execute_cell(self, cell: ExperimentCell, spec: ExperimentSpec) -> SimulationStats:
        # Imported lazily: repro.systems modules call back into the runner.
        from repro.systems.registry import evaluate_application

        profile = get_application(cell.application)
        fidelity = cell.fidelity if cell.fidelity is not None else spec.fidelity
        if cell.sm_count is not None:
            config = SimulationConfig(
                gpu=spec.gpu,
                num_compute_sms=cell.sm_count,
                power_gate_unused=True,
                capacity_scale=fidelity.capacity_scale,
                trace_accesses=fidelity.trace_accesses,
                warmup_accesses=fidelity.warmup_accesses,
                system_name=cell.system,
                replay_mode=fidelity.mode,
                seed=cell.seed,
            )
            return self.simulate(profile, config)
        # Systems resolve the process-wide runner internally; scope it to
        # this runner so their leaf runs use this cache and energy model.
        with using_runner(self):
            return evaluate_application(
                cell.system,
                profile,
                spec.gpu,
                fidelity,
                seed=cell.seed,
                predictor=cell.predictor,
            )

    # -- service backend --------------------------------------------------------------

    def _service_enabled(self) -> bool:
        """Whether batches should route through the distributed service.

        The service publishes results through the shared on-disk cache, so
        it is only usable when that cache is on and not bypassed; otherwise
        the runner silently uses the local backend (results are identical).
        """
        return (
            self.backend == "service"
            and self.use_disk_cache
            and not self._cache_suspended
        )

    def _service_backend(self):
        """The lazily created :class:`~repro.runner.service.DistributedBackend`.

        Created on first use (the first batch with actual cache misses), so
        warm-cache runs under ``REPRO_RUNNER_BACKEND=service`` never touch
        the queue or spawn a worker.  Worker count: ``$REPRO_SERVICE_WORKERS``
        or this runner's ``max_workers`` (min 1 — the service parallelizes
        across daemons, not in-process pools).
        """
        if self._service is None:
            # Imported lazily: the service module imports this one.
            from repro.runner.service import (
                SERVICE_WORKERS_ENV,
                DistributedBackend,
                ExperimentService,
            )

            env_workers = int(os.environ.get(SERVICE_WORKERS_ENV, "0") or 0)
            service = ExperimentService(
                cache_dir=self.cache_dir,
                num_workers=env_workers if env_workers > 0 else max(1, self.max_workers),
                use_disk_cache=self.use_disk_cache,
            )
            self._service = DistributedBackend(service)
            # Spawned worker daemons outlive one batch (they idle-exit or
            # wait for more work); stop them when this runner is dropped.
            self._service_finalizer = weakref.finalize(self, service.stop)
        return self._service

    # -- worker-pool plumbing ---------------------------------------------------------

    def _effective_workers(self, num_jobs: int) -> int:
        if num_jobs <= 1:
            return 1
        workers = self.max_workers
        if workers is None or workers <= 0:
            return 1
        return min(workers, num_jobs, os.cpu_count() or 1)

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        """The persistent worker pool, created on first use (or ``None``).

        One ``ProcessPoolExecutor`` serves every ``_pool_map`` call for the
        life of the runner, so a plan/scenario run pays worker startup once
        instead of once per batch.  Sized ``min(max_workers, cpu_count)`` —
        an upper bound for every per-batch ``_effective_workers`` value, so
        no call is ever under-provisioned; idle workers cost nothing.
        """
        if self._pool is None:
            size = min(self.max_workers, os.cpu_count() or 1)
            if size < 1:
                return None
            try:
                self._pool = ProcessPoolExecutor(max_workers=size)
            except (OSError, PermissionError, NotImplementedError, ImportError) as error:
                warnings.warn(
                    f"process pool unavailable ({error}); running serially",
                    RuntimeWarning,
                    stacklevel=4,
                )
                return None
            self._pool_finalizer = weakref.finalize(self, _shutdown_pool, self._pool)
        return self._pool

    def _teardown_pool(self) -> None:
        """Shut the persistent pool down (idempotent; a later call recreates it)."""
        pool, self._pool = self._pool, None
        finalizer, self._pool_finalizer = self._pool_finalizer, None
        if finalizer is not None:
            finalizer.detach()
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _pool_map(self, func, jobs, workers: int) -> Optional[List]:
        """Map ``func`` over ``jobs`` in the persistent pool; ``None`` on failure.

        Sandboxes without working multiprocessing primitives fall back to
        serial execution — results are identical either way.  A pool whose
        workers died (``BrokenProcessPool``) is torn down so the next batch
        can start a fresh one.
        """
        pool = self._ensure_pool()
        if pool is None:
            return None
        try:
            with telemetry().span(
                "runner.pool_dispatch", jobs=len(jobs), workers=workers
            ):
                return list(pool.map(func, jobs))
        except (
            BrokenProcessPool,
            OSError,
            PermissionError,
            NotImplementedError,
            ImportError,
        ) as error:
            self._teardown_pool()
            warnings.warn(
                f"process pool unavailable ({error}); running serially",
                RuntimeWarning,
                stacklevel=3,
            )
            return None

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        """Release pooled resources: worker processes, service daemons.

        Idempotent, and optional — both resources are also reclaimed when
        the runner is garbage-collected (and are created lazily, so a
        runner that never pooled work holds nothing).  The on-disk cache
        needs no closing.
        """
        self._teardown_pool()
        self._service = None
        finalizer, self._service_finalizer = self._service_finalizer, None
        if finalizer is not None:
            finalizer()

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    """Finalizer body for the persistent pool (module-level: picklable, no self)."""
    pool.shutdown(wait=False, cancel_futures=True)


def _traced_replay(
    profile: ApplicationProfile,
    config: SimulationConfig,
    replay_key: str = "",
) -> ReplayMeasurement:
    """One trace replay under a ``runner.replay`` span (no-op when disabled)."""
    tel = telemetry()
    if not tel.enabled:
        return GPUSimulator(config).replay(profile)
    with tel.span(
        "runner.replay",
        app=profile.name,
        mode=config.replay_mode,
        replay_key=replay_key,
    ):
        return GPUSimulator(config).replay(profile)


def _replay_worker(
    job: Tuple[ApplicationProfile, SimulationConfig]
) -> ReplayMeasurement:
    """Worker-process entry point for one trace replay (phase 1 only).

    Scoring happens in the parent, so the worker needs no energy model and
    ships back only the compact measurement.
    """
    profile, config = job
    measurement = _traced_replay(profile, config)
    # Pool workers may be torn down without running exit handlers; flush
    # the span before handing the result back.
    telemetry().flush()
    return measurement


def _cell_worker(
    job: Tuple[ExperimentCell, ExperimentSpec, str, bool, Optional[EnergyModel]]
) -> Tuple[SimulationStats, int, Dict[str, int]]:
    """Worker-process entry point for one plan cell.

    Each worker installs its own serial runner pointed at the shared cache
    directory, so the leaf simulations behind a system evaluation (including
    SM-count searches) land in the same on-disk cache as the parent's.
    Returns the cell's stats plus the worker's trace-replay count and cache
    tier counters, which the parent folds into its own ``replays`` and
    ``disk_cache`` counters.
    """
    cell, spec, cache_dir, use_disk_cache, energy_model = job
    runner = ExperimentRunner(
        cache_dir=cache_dir,
        max_workers=0,
        use_disk_cache=use_disk_cache,
        energy_model=energy_model,
        backend="local",
    )
    set_active_runner(runner)
    with telemetry().span(
        "runner.cell", system=cell.system, app=cell.application
    ):
        stats = runner._execute_cell(cell, spec)
    telemetry().flush()
    return stats, runner.replays, runner.disk_cache.tier_counters()


# -- the process-wide runner ---------------------------------------------------------

_ACTIVE_RUNNER: Optional[ExperimentRunner] = None


def active_runner() -> ExperimentRunner:
    """The process-wide runner used by systems, sweeps and the registry."""
    global _ACTIVE_RUNNER
    if _ACTIVE_RUNNER is None:
        _ACTIVE_RUNNER = ExperimentRunner()
    return _ACTIVE_RUNNER


def set_active_runner(runner: Optional[ExperimentRunner]) -> Optional[ExperimentRunner]:
    """Install ``runner`` as the process-wide runner; returns the previous one."""
    global _ACTIVE_RUNNER
    previous = _ACTIVE_RUNNER
    _ACTIVE_RUNNER = runner
    return previous


@contextmanager
def using_runner(runner: ExperimentRunner) -> Iterator[ExperimentRunner]:
    """Context manager scoping the process-wide runner to ``runner``."""
    previous = set_active_runner(runner)
    try:
        yield runner
    finally:
        set_active_runner(previous)
