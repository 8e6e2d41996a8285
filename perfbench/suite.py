"""The benchmark's three workloads.

Each workload is a closed-loop batch job with a single client.  One *round*
of a workload is:

* a set-up (timed as set-up): a fresh runner on a fresh cache directory and
  the round's generated inputs;
* a **cold pass** that computes every result and stores it in the cache;
* a **warm pass**: a fresh runner on the same directory serves the same
  requests from the on-disk tiers;
* untimed correctness checks on both passes.

Workloads see only the inputs generated here from the run's seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import statistics
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

from hostclock import HostClock
from repro.analysis.rescoring import analytic_grid, envelope_sweep
from repro.analysis.scenarios import ScenarioAccumulator
from repro.runner import ExperimentRunner, set_active_runner
from repro.runner.cache import stats_to_jsonable
from repro.scenarios import ScenarioEngine
from repro.scenarios.library import fleet
from repro.sim.engine import MemoryHierarchyEngine
from repro.sim.performance_model import ResourceEnvelope
from repro.sim.simulator import SimulationConfig
from repro.systems.fidelity import Fidelity
from repro.systems.morpheus_system import MorpheusVariant
from repro.systems.registry import EVALUATED_SYSTEMS, evaluate_application
from repro.workloads.applications import MEMORY_BOUND_APPS, get_application
from repro.workloads.generator import SHARED_TRACE_CACHE

#: The figure harness's fidelity (``BENCH_FIDELITY`` of the pytest figure
#: benchmarks), frozen here so the benchmark's work cannot drift with it.
FIG12_FIDELITY = Fidelity(
    capacity_scale=1.0 / 32.0,
    trace_accesses=8_000,
    warmup_accesses=3_000,
    search_trace_accesses=4_000,
    search_warmup_accesses=1_500,
)

SMOKE_FIDELITY = Fidelity(
    capacity_scale=1.0 / 32.0,
    trace_accesses=1_000,
    warmup_accesses=400,
    search_trace_accesses=500,
    search_warmup_accesses=200,
)

#: Band the ``spmv`` Morpheus-ALL/BL speed-up must fall in (anchor ~1.7x).
SPMV_SPEEDUP_BAND = (1.5, 1.9)


@dataclasses.dataclass
class Round:
    """Timings, work counts and check outcomes of one round.

    Times are in reference seconds (see ``hostclock.py``); the ``raw_``
    fields keep the host's own seconds.
    """

    cold_s: float = 0.0
    warm_s: List[float] = dataclasses.field(default_factory=list)
    cold_raw_s: float = 0.0
    warm_raw_s: List[float] = dataclasses.field(default_factory=list)
    cold_units: int = 0
    warm_units: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = dataclasses.field(default_factory=list)
    digest: str = ""
    replays: int = 0
    dedup_hits: int = 0
    phases: int = 0

    @property
    def wall_s(self) -> float:
        """One cold pass followed by one (median) warm pass."""
        return self.cold_s + statistics.median(self.warm_s)

    @property
    def wall_raw_s(self) -> float:
        return self.cold_raw_s + statistics.median(self.warm_raw_s)

    def add_cold(self, seconds: Tuple[float, float]) -> None:
        self.cold_raw_s, self.cold_s = seconds

    def add_warm(self, seconds: Tuple[float, float]) -> None:
        self.warm_raw_s.append(seconds[0])
        self.warm_s.append(seconds[1])

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        self.failures.append(message)


class Sections:
    """Times the timed sections of a round on a :class:`HostClock`.

    Inside a section the tracer (if any) is installed, and then the
    workload's own instrumentation on top of it, so the latter's clock
    ticks run outside every layer span.
    """

    def __init__(self, clock: HostClock, tracer=None) -> None:
        self.clock = clock
        self.tracer = tracer
        self.raw_s = 0.0
        self.total_s = 0.0

    @contextmanager
    def timed(self, instrument=None) -> Iterator[List[Tuple[float, float]]]:
        """Yields a list that receives the section's ``(raw, reference)`` seconds."""
        elapsed: List[Tuple[float, float]] = []
        if self.tracer is not None:
            self.tracer.install()
        if instrument is not None:
            instrument.install()
        self.clock.start()
        try:
            yield elapsed
        finally:
            raw, reference = self.clock.stop()
            # Flush what the section wrote, so the next section does not
            # pay for its writeback.
            os.sync()
            if instrument is not None:
                instrument.uninstall()
            if self.tracer is not None:
                self.tracer.uninstall()
            elapsed.append((raw, reference))
            self.raw_s += raw
            self.total_s += reference

    def tick(self) -> None:
        self.clock.tick()


def fresh_runner(cache_dir: Path) -> ExperimentRunner:
    """A serial, local, disk-cached runner made the process-wide one."""
    runner = ExperimentRunner(
        cache_dir=str(cache_dir), max_workers=0, use_disk_cache=True, backend="local"
    )
    set_active_runner(runner)
    return runner


def canonical(payload) -> str:
    """Exact JSON text of ``payload`` (floats keep every digit)."""
    return json.dumps(payload, sort_keys=True)


def stats_json(stats) -> str:
    return canonical(stats_to_jsonable(stats))


def digest_of(texts: Sequence[str]) -> str:
    """Order-independent digest of a collection of canonical texts."""
    hasher = hashlib.sha256()
    for text in sorted(texts):
        hasher.update(text.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def stats_tier_digest(cache_dir: Path) -> str:
    """Digest of the ``SimulationStats`` of every leaf in the stats tier."""
    texts = []
    for path in (cache_dir / "stats").glob("*/*.json"):
        if not path.name.startswith("."):
            texts.append(canonical(json.loads(path.read_text())["stats"]))
    return digest_of(texts)


class Workload:
    """Base class: sizes, seed and the per-round cache directory."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: Path, clock: HostClock) -> None:
        self.seed = seed
        self.clock = clock
        self.workdir = workdir
        self._rounds = 0

    def new_cache_dir(self) -> Path:
        self._rounds += 1
        path = self.workdir / f"round-{self._rounds}"
        path.mkdir(parents=True)
        return path

    def setup(self):
        raise NotImplementedError

    def run(self, state, sections: Sections) -> Round:
        raise NotImplementedError

    def teardown(self, state) -> None:
        """Delete the round's cache and flush the disk, so the next round's
        writes do not queue behind this round's."""
        set_active_runner(None)
        shutil.rmtree(state["cache_dir"], ignore_errors=True)
        os.sync()


class AccessCounter:
    """Counts LLC accesses replayed (warm-up and measured) at the engine's entry.

    Each replayed trace also gives the host clock a chance to probe, so long
    cells are normalised in short stretches.
    """

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.accesses = 0
        self._original = None

    def install(self) -> None:
        original = self._original = MemoryHierarchyEngine.run
        counter = self

        def run(engine, trace):
            counter.clock.tick()
            counter.accesses += len(trace)
            return original(engine, trace)

        MemoryHierarchyEngine.run = run

    def uninstall(self) -> None:
        MemoryHierarchyEngine.run = self._original


class Fig12Cold(Workload):
    """The Fig-12 matrix (two apps x nine systems) replayed from an empty cache."""

    name = "fig12_cold"
    #: One warm pass takes only tens of milliseconds, so passes are timed in
    #: groups: ``warm_groups`` sections of ``warm_passes`` passes each.
    warm_groups = 8
    warm_passes = 5

    def __init__(self, seed: int, size: str, workdir: Path, clock: HostClock) -> None:
        super().__init__(seed, size, workdir, clock)
        if size == "smoke":
            self.apps: Tuple[str, ...] = ("mri-q",)
            self.fidelity = SMOKE_FIDELITY
            self.expected_replays = 29
        else:
            self.apps = ("spmv", "mri-q")
            self.fidelity = FIG12_FIDELITY
            self.expected_replays = 90
        self.counter = AccessCounter(clock)

    def setup(self):
        SHARED_TRACE_CACHE.clear()
        cache_dir = self.new_cache_dir()
        return {
            "cache_dir": cache_dir,
            "runner": fresh_runner(cache_dir),
            "profiles": [get_application(app) for app in self.apps],
        }

    def _matrix(self, profiles, out: Round, results: Dict, sections: Sections) -> None:
        for profile in profiles:
            for system in EVALUATED_SYSTEMS:
                sections.tick()
                out.attempted += 1
                try:
                    results[(profile.name, system)] = evaluate_application(
                        system, profile, fidelity=self.fidelity, seed=self.seed
                    )
                except Exception:
                    traceback.print_exc()
                    out.fail(f"{profile.name} on {system} raised")

    def run(self, state, sections: Sections) -> Round:
        out = Round()
        cold: Dict = {}
        self.counter.accesses = 0
        with sections.timed(self.counter) as elapsed:
            self._matrix(state["profiles"], out, cold, sections)
        out.add_cold(elapsed[0])
        out.cold_units = self.counter.accesses
        out.replays = state["runner"].replays
        if out.replays != self.expected_replays:
            out.fail(f"cold pass replayed {out.replays}, expected {self.expected_replays}")

        passes = []
        for _ in range(self.warm_groups):
            with sections.timed() as elapsed:
                for _ in range(self.warm_passes):
                    warm: Dict = {}
                    passes.append((fresh_runner(state["cache_dir"]), warm))
                    self._matrix(state["profiles"], out, warm, sections)
            raw, reference = elapsed[0]
            out.add_warm((raw / self.warm_passes, reference / self.warm_passes))

        cold_json = {cell: stats_json(stats) for cell, stats in cold.items()}
        for runner, warm in passes:
            out.warm_units = len(warm)
            out.replays += runner.replays
            if runner.replays:
                out.fail(f"warm pass replayed {runner.replays}")
            for cell, stats in warm.items():
                if stats_json(stats) != cold_json.get(cell):
                    out.fail(f"warm {cell} differs from cold")

        if "spmv" in self.apps and ("spmv", "BL") in cold and ("spmv", "Morpheus-ALL") in cold:
            speedup = cold[("spmv", "Morpheus-ALL")].ipc / cold[("spmv", "BL")].ipc
            low, high = SPMV_SPEEDUP_BAND
            if not low <= speedup <= high:
                out.fail(f"spmv Morpheus-ALL/BL speedup {speedup:.3f} outside {SPMV_SPEEDUP_BAND}")
        out.digest = stats_tier_digest(state["cache_dir"])
        return out


def envelope_grid(count: int, seed: int) -> List[ResourceEnvelope]:
    """A spread of contention envelopes, in a seed-permuted order."""
    envelopes = [
        ResourceEnvelope(
            dram_bandwidth_share=0.1 + 0.9 * ((index * 37 % count) + 1) / count,
            llc_bandwidth_share=0.1 + 0.9 * ((index * 59 % count) + 1) / count,
            noc_bandwidth_share=0.1 + 0.9 * ((index * 83 % count) + 1) / count,
        )
        for index in range(count)
    ]
    random.Random(seed).shuffle(envelopes)
    return envelopes


class RescoreSweep(Workload):
    """Analytic re-scoring sweeps over base measurements, then a disk reload."""

    name = "rescore_sweep"

    def __init__(self, seed: int, size: str, workdir: Path, clock: HostClock) -> None:
        super().__init__(seed, size, workdir, clock)
        if size == "smoke":
            self.apps: Tuple[str, ...] = tuple(MEMORY_BOUND_APPS[:2])
            self.points = 8
        else:
            self.apps = tuple(MEMORY_BOUND_APPS[:8])
            self.points = 128
        self.fidelity = FIG12_FIDELITY

    def _base(self, compute_sms: int, cache_sms: int, system: str) -> SimulationConfig:
        return SimulationConfig(
            morpheus=MorpheusVariant.ALL.to_config() if cache_sms else None,
            num_compute_sms=compute_sms,
            num_cache_sms=cache_sms,
            power_gate_unused=True,
            capacity_scale=self.fidelity.capacity_scale,
            trace_accesses=self.fidelity.trace_accesses,
            warmup_accesses=self.fidelity.warmup_accesses,
            system_name=system,
            replay_mode="analytic",
            seed=1,
        )

    def setup(self):
        cache_dir = self.new_cache_dir()
        runner = fresh_runner(cache_dir)
        bases = [self._base(68, 0, "BL"), self._base(40, 28, "Morpheus-ALL")]
        pairs = [(get_application(app), base) for app in self.apps for base in bases]
        for profile, base in pairs:
            runner.simulate(profile, base)
        return {
            "cache_dir": cache_dir,
            "runner": runner,
            "pairs": pairs,
            "envelopes": envelope_grid(self.points, self.seed),
            "setup_replays": runner.replays,
        }

    @staticmethod
    def _sweep(pairs, envelopes, runner, sections: Sections) -> List:
        leaves = []
        for profile, base in pairs:
            sections.tick()
            leaves.extend(analytic_grid(profile, base, runner=runner).values())
            leaves.extend(envelope_sweep(profile, base, envelopes, runner=runner).values())
        return leaves

    def run(self, state, sections: Sections) -> Round:
        out = Round()
        runner = state["runner"]
        scored: List = []
        try:
            with sections.timed() as elapsed:
                scored = self._sweep(state["pairs"], state["envelopes"], runner, sections)
            out.add_cold(elapsed[0])
        except Exception:
            traceback.print_exc()
            out.fail("score pass raised")
        out.cold_units = len(scored)
        out.attempted += len(scored)
        timed_replays = runner.replays - state["setup_replays"]
        out.replays = timed_replays
        if timed_replays:
            out.fail(f"score pass replayed {timed_replays}")

        loader = fresh_runner(state["cache_dir"])
        loaded: List = []
        try:
            with sections.timed() as elapsed:
                loaded = self._sweep(state["pairs"], state["envelopes"], loader, sections)
            out.add_warm(elapsed[0])
        except Exception:
            traceback.print_exc()
            out.fail("load pass raised")
            out.add_warm((0.0, 0.0))
        out.warm_units = len(loaded)
        out.replays += loader.replays
        if loader.replays:
            out.fail(f"load pass replayed {loader.replays}")
        if loader.disk_cache.misses:
            out.fail(f"load pass missed the stats tier {loader.disk_cache.misses} times")
        scored_json = [stats_json(stats) for stats in scored]
        loaded_json = [stats_json(stats) for stats in loaded]
        if len(loaded_json) != len(scored_json):
            out.fail("load pass returned a different number of leaves")
        mismatched = sum(1 for a, b in zip(scored_json, loaded_json) if a != b)
        if mismatched:
            out.fail(f"{mismatched} loaded leaves differ from scored", mismatched)
        out.digest = digest_of(scored_json)
        return out


def signature_of(execution) -> Tuple:
    """A phase's signature recomputed from the per-phase view."""
    return (
        execution.phase.residents,
        execution.phase.duration_weight,
        execution.decision.split,
        tuple(resident.grant for resident in execution.residents),
    )


class FleetScenarios(Workload):
    """Seeded fleet timelines on four systems, analytic fidelity, cold cache."""

    name = "fleet_scenarios"
    systems: Tuple[str, ...] = ("BL", "IBL", "Morpheus-Basic", "Morpheus-ALL")

    def __init__(self, seed: int, size: str, workdir: Path, clock: HostClock) -> None:
        super().__init__(seed, size, workdir, clock)
        if size == "smoke":
            self.fleet_seeds: Tuple[int, ...] = (seed,)
            self.phases = 400
            self.systems = ("BL", "Morpheus-ALL")
        else:
            self.fleet_seeds = (seed, seed + 1)
            self.phases = 5_000

    def setup(self):
        cache_dir = self.new_cache_dir()
        runner = fresh_runner(cache_dir)
        specs = [fleet(num_phases=self.phases, seed=s) for s in self.fleet_seeds]
        return {
            "cache_dir": cache_dir,
            "runner": runner,
            "specs": specs,
            "engine": ScenarioEngine(fidelity="analytic"),
        }

    def _runs(self, specs, engine, out: Round, results: Dict, sections: Sections) -> None:
        for spec_index, spec in enumerate(specs):
            for system in self.systems:
                sections.tick()
                out.attempted += 1
                try:
                    result = engine.run(spec, system)
                    references = engine.solo_reference_ipcs(spec, system)
                    aggregates = ScenarioAccumulator.from_result(
                        result, reference_ipc=references
                    ).aggregates()
                except Exception:
                    traceback.print_exc()
                    out.fail(f"fleet {spec_index} on {system} raised")
                    continue
                results[(spec_index, system)] = (result, references, aggregates)

    @staticmethod
    def _aggregate_json(entry) -> str:
        _, references, aggregates = entry
        return canonical(
            {"references": references, "aggregates": dataclasses.asdict(aggregates)}
        )

    def run(self, state, sections: Sections) -> Round:
        out = Round()
        cold: Dict = {}
        with sections.timed() as elapsed:
            self._runs(state["specs"], state["engine"], out, cold, sections)
        out.add_cold(elapsed[0])
        out.replays = state["runner"].replays
        for key, (result, _, _) in cold.items():
            phases = len(result.phases)
            out.phases += phases
            out.dedup_hits += result.dedup_hits
            signatures = result.signatures or ()
            misses = len(signatures)
            if result.dedup_hits + misses != phases:
                out.fail(f"{key}: dedup hits + misses != phases")
            distinct = len({signature_of(execution) for execution in result.phases})
            if misses != distinct:
                out.fail(f"{key}: {misses} dedup misses but {distinct} distinct signatures")
            if sum(entry.count for entry in signatures) != phases:
                out.fail(f"{key}: signature counts do not cover the phases")
        out.cold_units = out.phases

        runner = fresh_runner(state["cache_dir"])
        warm: Dict = {}
        with sections.timed() as elapsed:
            self._runs(state["specs"], ScenarioEngine(fidelity="analytic"), out, warm, sections)
        out.add_warm(elapsed[0])
        out.warm_units = sum(len(result.phases) for result, _, _ in warm.values())
        out.replays += runner.replays
        if runner.replays:
            out.fail(f"warm pass replayed {runner.replays}")
        cold_json = {key: self._aggregate_json(entry) for key, entry in cold.items()}
        for key, entry in warm.items():
            if self._aggregate_json(entry) != cold_json.get(key):
                out.fail(f"warm {key} aggregates differ from cold")
        out.digest = digest_of(
            [f"{key[0]}|{key[1]}|{text}" for key, text in cold_json.items()]
        )
        return out


WORKLOADS = {
    workload.name: workload for workload in (Fig12Cold, RescoreSweep, FleetScenarios)
}
