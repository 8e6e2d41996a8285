"""Machine-readable performance benchmarks: scoring and the runner service.

``--benchmark scoring`` (the default) times the two implementations of
analytic re-scoring over one warm replay measurement — the per-point scalar
:meth:`~repro.sim.performance_model.PerformanceModel.score` loop and the
vectorized :meth:`~repro.sim.performance_model.PerformanceModel.score_batch`
pass — across a dense envelope grid and asserts the two are
**bit-identical**.  Results land in ``BENCH_scoring.json``.

``--benchmark runner`` times cold-plan leaf throughput through the
distributed experiment service at 1 worker vs ``--workers`` workers (fresh
cache per timed run, matched pairs, median ratio), asserts the service run
is bit-identical to a serial one with zero duplicate replays, and writes
``BENCH_runner.json`` — including ``cpu_count``, because the measured
speedup is physically bounded by the host's cores (a 1-CPU container
honestly reports ~1.0x; CI's multi-core runners show the real scaling).

``--benchmark search`` times a fixed-seed warm design-space search
(``repro.search``) over the scenario tier — steps/sec plus the scenario
and in-loop memo hit rates, with the zero-replay-miss contract asserted —
and writes ``BENCH_search.json``.

``--benchmark scenarios`` times a 5,000-phase ``fleet`` timeline through
the scenario engine from a fresh cache: cold and warm wall-clock, the dedup
hits and signature count, the peak traced memory of a warm run plus process
peak RSS, with cold/warm per-phase bit-identity and a replay-free warm
reload asserted.  Results land in ``BENCH_scenarios.json``.

``--benchmark replay`` times trace replay itself: every leaf that the nine
Fig-12 systems replay for ``spmv`` at the figure fidelity, re-replayed
``--repeats`` times from warm traces.  Each run becomes one entry of
``BENCH_replay.json``, keyed by ``--label``, with per-system median leaf
times and a digest of every leaf's ``HierarchyCounters``; an entry is
``bit_identical`` when its repeats agree and its digest equals the file's
first entry.  Running the same script against two checkouts (``PYTHONPATH``
pointing at each ``src/``) records a before/after pair.

Usage::

    PYTHONPATH=src python scripts/bench_report.py
        [--benchmark scoring|runner|search|scenarios|replay] [--smoke]
        [--points N] [--workers N] [--repeats N] [--steps N] [--phases N]
        [--label NAME] [--output FILE]

``--smoke`` shrinks the trace and repeat counts so the whole script runs in
a few seconds (the CI configuration); the scoring grid keeps >= 64 points
either way so the measured speedup stays representative.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.runner import ExperimentRunner, set_active_runner
from repro.sim.performance_model import PerformanceModel, ResourceEnvelope
from repro.sim.simulator import GPUSimulator, SimulationConfig
from repro.systems.fidelity import FAST_FIDELITY, Fidelity
from repro.systems.registry import EVALUATED_SYSTEMS, evaluate_application
from repro.workloads.applications import get_application

#: Tiny replay sizing for ``--smoke`` (scoring cost is trace-length
#: independent; only the one-off warm-up replay shrinks).
SMOKE_FIDELITY = Fidelity(
    capacity_scale=1.0 / 64.0,
    trace_accesses=800,
    warmup_accesses=200,
    search_trace_accesses=400,
    search_warmup_accesses=100,
)


#: The Fig-12 figure fidelity (``BENCH_FIDELITY`` of the pytest figure
#: benchmarks), the sizing of the replay benchmark.
FIG12_FIDELITY = Fidelity(
    capacity_scale=1.0 / 32.0,
    trace_accesses=8_000,
    warmup_accesses=3_000,
    search_trace_accesses=4_000,
    search_warmup_accesses=1_500,
)


def _config(fidelity: Fidelity, **kwargs) -> SimulationConfig:
    defaults = dict(
        num_compute_sms=34,
        power_gate_unused=True,
        capacity_scale=fidelity.capacity_scale,
        trace_accesses=fidelity.trace_accesses,
        warmup_accesses=fidelity.warmup_accesses,
        system_name="bench-report",
        seed=1,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def _envelopes(count: int):
    return [
        ResourceEnvelope(
            dram_bandwidth_share=0.1 + 0.9 * ((index * 37 % count) + 1) / count,
            llc_bandwidth_share=0.1 + 0.9 * ((index * 59 % count) + 1) / count,
            noc_bandwidth_share=0.1 + 0.9 * ((index * 83 % count) + 1) / count,
        )
        for index in range(count)
    ]


def _paired_speedup(func_a, func_b, repeats: int, rounds: int = 1):
    """Time two rivals as matched pairs (A, B, A, B, ...).

    On a machine with frequency scaling, timing all of A before all of B
    lets a clock excursion land entirely on one side.  Sampling the two
    back to back makes each (A, B) pair share its thermal state, so the
    per-pair ratio ``a / b`` cancels the clock out; the median over pairs
    is the robust matched-pairs estimate of the true speedup.  The pairs
    are spread over ``rounds`` sleep-separated bursts so a transient host
    excursion (shared-tenant pressure on a virtualized box) cannot cover
    the whole sampling window.  Returns ``(stats_a, stats_b, speedup)``
    where each stats dict carries the min (the ``timeit``-style lower
    bound) and the median of the raw seconds for transparency.
    """
    samples_a, samples_b = [], []
    per_round = max(1, repeats // max(1, rounds))
    for round_index in range(max(1, rounds)):
        if round_index:
            time.sleep(0.4)
        for _ in range(per_round):
            start = time.perf_counter()
            func_a()
            samples_a.append(time.perf_counter() - start)
            start = time.perf_counter()
            func_b()
            samples_b.append(time.perf_counter() - start)
    speedup = statistics.median(
        a / b for a, b in zip(samples_a, samples_b)
    )
    stats_a = {"min": min(samples_a), "median": statistics.median(samples_a)}
    stats_b = {"min": min(samples_b), "median": statistics.median(samples_b)}
    return stats_a, stats_b, speedup


def benchmark_batch_scoring(
    runner, fidelity: Fidelity, points: int, repeats: int, rounds: int = 1
):
    """The tentpole numbers: scalar loop vs vectorized batch, bit-identity."""
    profile = get_application("kmeans")
    config = _config(fidelity)
    measurement = runner.measurement_for(profile, config)
    model = PerformanceModel()
    variants = [
        dataclasses.replace(config, envelope=envelope)
        for envelope in _envelopes(points)
    ]

    scalar = [model.score(profile, variant, measurement) for variant in variants]
    batched = model.score_batch(profile, variants, measurement, validate=False)
    mismatches = sum(
        dataclasses.asdict(a) != dataclasses.asdict(b)
        for a, b in zip(batched, scalar)
    )
    if mismatches:
        raise AssertionError(
            f"score_batch diverged from scalar score on {mismatches}/{points} "
            "points — the bit-identity contract is broken"
        )

    scalar_stats, batch_stats, speedup = _paired_speedup(
        lambda: [model.score(profile, v, measurement) for v in variants],
        lambda: model.score_batch(profile, variants, measurement, validate=False),
        repeats,
        rounds,
    )
    return {
        "points": points,
        "scalar_seconds": scalar_stats["min"],
        "scalar_seconds_median": scalar_stats["median"],
        "batch_seconds": batch_stats["min"],
        "batch_seconds_median": batch_stats["median"],
        "speedup": speedup,
        "bit_identical": True,
    }


def benchmark_runner_service(
    fidelity: Fidelity, leaves_count: int, workers: int, repeats: int, rounds: int = 1
):
    """Cold-plan leaf throughput through the service: 1 worker vs ``workers``.

    Every timed run starts from a fresh cache directory (cold by
    construction) and spawns its own worker daemons, so the measurement
    covers the full distributed path: registration, claim-by-rename,
    replay execution in workers, publication to the shared cache, and the
    coordinator's warm re-derivation.  Bit-identity against a serial run
    and the zero-duplicate-replay invariant are asserted before timing.
    """
    profile = get_application("kmeans")
    configs = [_config(fidelity, seed=seed) for seed in range(1, leaves_count + 1)]

    def cold_run(num_workers: int):
        with tempfile.TemporaryDirectory(prefix="repro-bench-runner-") as cache_dir:
            runner = ExperimentRunner(
                cache_dir=cache_dir, max_workers=num_workers, backend="service"
            )
            try:
                stats = runner.run_configs(profile, configs)
                replays = runner.replays
            finally:
                runner.close()
        return stats, replays

    with tempfile.TemporaryDirectory(prefix="repro-bench-serial-") as cache_dir:
        serial = ExperimentRunner(cache_dir=cache_dir, max_workers=0, backend="local")
        expected = serial.run_configs(profile, configs)
    actual, replays = cold_run(workers)
    mismatches = sum(
        dataclasses.asdict(a) != dataclasses.asdict(b)
        for a, b in zip(actual, expected)
    )
    if mismatches:
        raise AssertionError(
            f"service run diverged from serial on {mismatches}/{leaves_count} "
            "leaves — the bit-identity contract is broken"
        )
    if replays != leaves_count:
        raise AssertionError(
            f"service run performed {replays} replays for {leaves_count} distinct "
            "replay keys — the zero-duplicate-replay contract is broken"
        )

    single_stats, multi_stats, speedup = _paired_speedup(
        lambda: cold_run(1), lambda: cold_run(workers), repeats, rounds
    )
    cpu_count = os.cpu_count() or 1
    report = {
        "leaves": leaves_count,
        "workers": workers,
        "cpu_count": cpu_count,
        "single_worker_seconds": single_stats["min"],
        "single_worker_seconds_median": single_stats["median"],
        "multi_worker_seconds": multi_stats["min"],
        "multi_worker_seconds_median": multi_stats["median"],
        "single_worker_leaves_per_second": leaves_count / single_stats["median"],
        "multi_worker_leaves_per_second": leaves_count / multi_stats["median"],
        "speedup": speedup,
        "bit_identical": True,
        "duplicate_replays": 0,
    }
    if cpu_count < workers:
        report["note"] = (
            f"host has {cpu_count} CPU(s); a {workers}-worker speedup is "
            f"physically capped near {min(cpu_count, workers)}.0x here — run on "
            f">= {workers} cores for the representative number"
        )
    return report


def benchmark_search(fidelity: Fidelity, steps: int, seed: int, agent_name: str):
    """Warm-search throughput: steps/sec and cache hit rates of a fixed-seed run.

    A warm-up pass pays every replay/score cost once; the timed pass then
    re-runs the identical seeded search through a fresh runner sharing the
    cache directory, so the measured rate is the steady-state cost of a
    search step — scenario-tier JSON loads plus agent bookkeeping.  The
    zero-replay-miss contract is asserted on the timed pass.
    """
    from repro.search import ScenarioSearchProblem, make_agent, run_search

    with tempfile.TemporaryDirectory(prefix="repro-bench-search-") as cache_dir:
        warm_started = time.perf_counter()
        warm_runner = ExperimentRunner(cache_dir=cache_dir, max_workers=0)
        warm_problem = ScenarioSearchProblem(runner=warm_runner, fidelity=fidelity)
        warm_problem.baseline()
        run_search(
            warm_problem, make_agent(agent_name, warm_problem.space, seed=seed), steps
        )
        warmup_seconds = time.perf_counter() - warm_started

        runner = ExperimentRunner(cache_dir=cache_dir, max_workers=0)
        problem = ScenarioSearchProblem(runner=runner, fidelity=fidelity)
        baseline = problem.baseline()
        agent = make_agent(agent_name, problem.space, seed=seed)
        started = time.perf_counter()
        result = run_search(problem, agent, steps, baseline=baseline)
        seconds = time.perf_counter() - started

        if runner.replays or runner.disk_cache.replay_misses:
            raise AssertionError(
                f"warm search touched the replay tier ({runner.replays} replays, "
                f"{runner.disk_cache.replay_misses} misses) — the score-tier-only "
                "contract is broken"
            )
        counters = runner.disk_cache.tier_counters()

    scenario_lookups = counters["scenario_hits"] + counters["scenario_misses"]
    return {
        "agent": agent_name,
        "steps": steps,
        "seed": seed,
        "warmup_seconds": warmup_seconds,
        "seconds": seconds,
        "steps_per_second": steps / seconds,
        "baseline_fitness": result.baseline_fitness,
        "best_fitness": result.best_fitness,
        "evaluations": result.evaluations,
        "memo_hits": result.memo_hits,
        "memo_hit_rate": result.memo_hit_rate,
        "scenario_tier_hits": counters["scenario_hits"],
        "scenario_tier_misses": counters["scenario_misses"],
        "scenario_tier_hit_rate": (
            counters["scenario_hits"] / scenario_lookups if scenario_lookups else 0.0
        ),
        "replay_misses": 0,
    }


def benchmark_scenarios(fidelity: Fidelity, phases: int, warm_repeats: int):
    """Fleet-scale scenario engine: cold solve and warm reload.

    A seeded ``fleet`` timeline of ``phases`` phases runs through the
    scenario engine in a fresh cache directory.  The cold run and
    ``warm_repeats`` warm runs (fresh runner sharing the cache, zero
    replay-tier traffic asserted) are timed, and one extra untimed warm run
    is traced with ``tracemalloc`` to capture the peak allocated memory of
    loading the timeline plus folding it through the streaming
    :class:`~repro.analysis.scenarios.ScenarioAccumulator`.  The warm
    reload's per-phase executions must be bit-identical to the cold run's
    before any number is reported.  (Bit-identity against the per-phase
    reference is asserted by the tier-1 tests through
    ``tests/scenarios/scenario_test_utils.py::per_phase_reference``.)
    """
    import hashlib
    import resource
    import tracemalloc

    from repro.analysis.scenarios import ScenarioAccumulator
    from repro.scenarios import ScenarioEngine, fleet

    scenario = fleet(num_phases=phases, seed=7)
    system = "Morpheus-Basic"

    def phase_digest(result):
        hasher = hashlib.sha256()
        for execution in result.phases:
            hasher.update(repr(dataclasses.asdict(execution)).encode("utf-8"))
        return hasher.hexdigest()

    with tempfile.TemporaryDirectory(prefix="repro-bench-scen-") as cache_dir:
        started = time.perf_counter()
        runner = ExperimentRunner(cache_dir=cache_dir, max_workers=0)
        cold_result = ScenarioEngine(runner=runner, fidelity=fidelity).run(
            scenario, system
        )
        cold_seconds = time.perf_counter() - started

        warm_samples = []
        for _ in range(warm_repeats):
            runner = ExperimentRunner(cache_dir=cache_dir, max_workers=0)
            engine = ScenarioEngine(runner=runner, fidelity=fidelity)
            started = time.perf_counter()
            warm_result = engine.run(scenario, system)
            warm_samples.append(time.perf_counter() - started)
            if runner.replays or runner.disk_cache.replay_misses:
                raise AssertionError(
                    "warm scenario run touched the replay tier "
                    f"({runner.replays} replays, "
                    f"{runner.disk_cache.replay_misses} misses)"
                )

        # Peak allocated memory of the steady-state consumer path: load
        # the warm timeline and fold it straight into running aggregates.
        runner = ExperimentRunner(cache_dir=cache_dir, max_workers=0)
        engine = ScenarioEngine(runner=runner, fidelity=fidelity)
        tracemalloc.start()
        traced_result = engine.run(scenario, system)
        ScenarioAccumulator.from_result(traced_result).aggregates()
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()

    if phase_digest(cold_result) != phase_digest(warm_result):
        raise AssertionError(
            "warm scenario reload diverged from the cold run — the "
            "persistence round-trip is not bit-identical"
        )
    return {
        "phases": phases,
        "signatures": len(cold_result.signatures),
        "dedup_hits": cold_result.dedup_hits,
        "dedup_hit_rate": cold_result.dedup_hits / phases,
        "warm_repeats": warm_repeats,
        "cold_seconds": cold_seconds,
        "warm_seconds": min(warm_samples),
        "warm_seconds_median": statistics.median(warm_samples),
        "warm_peak_traced_mib": peak_bytes / (1024.0 * 1024.0),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cold_equals_warm": True,
        "replay_misses_warm": 0,
    }


@contextlib.contextmanager
def _recording_replays(configs):
    """Append the config of every trace replay in the block to ``configs``."""
    original = GPUSimulator.replay

    def replay(simulator, profile):
        configs.append(simulator.config)
        return original(simulator, profile)

    GPUSimulator.replay = replay
    try:
        yield
    finally:
        GPUSimulator.replay = original


def _system_leaves(system: str, profile, fidelity: Fidelity):
    """The replay leaves ``system`` runs for ``profile``, from an empty cache."""
    configs = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-replay-") as cache_dir:
        runner = ExperimentRunner(cache_dir=cache_dir, max_workers=0, backend="local")
        previous = set_active_runner(runner)
        try:
            with _recording_replays(configs):
                evaluate_application(system, profile, fidelity=fidelity, seed=1)
        finally:
            set_active_runner(previous)
            runner.close()
    return configs


def benchmark_replay(fidelity: Fidelity, repeats: int, rounds: int):
    """Per-leaf replay time of ``spmv`` on each Fig-12 system.

    Every system's leaves are discovered once from an empty cache (which
    also fills the shared trace cache), then each leaf is replayed
    ``repeats`` times, spread over ``rounds`` sleep-separated bursts.  The
    timed span is :meth:`GPUSimulator.replay`: engine construction, warm-up
    and measured replay.
    """
    profile = get_application("spmv")
    rounds = max(1, rounds)
    per_round = max(1, repeats // rounds)
    systems = {}
    digests = []
    deterministic = True
    for system in EVALUATED_SYSTEMS:
        leaves = _system_leaves(system, profile, fidelity)
        samples = [[] for _ in leaves]
        counters = [None] * len(leaves)
        for round_index in range(rounds):
            if round_index:
                time.sleep(0.4)
            for index, config in enumerate(leaves):
                for _ in range(per_round):
                    started = time.perf_counter()
                    measurement = GPUSimulator(config).replay(profile)
                    samples[index].append(time.perf_counter() - started)
                    rendered = json.dumps(measurement.counters.to_jsonable(), sort_keys=True)
                    if counters[index] is None:
                        counters[index] = rendered
                    deterministic = deterministic and rendered == counters[index]
        digest = hashlib.sha256("\n".join(counters).encode("utf-8")).hexdigest()
        digests.append(digest)
        systems[system] = {
            "leaves": len(leaves),
            "median_leaf_seconds": statistics.median(
                sample for leaf in samples for sample in leaf
            ),
            "system_seconds": sum(statistics.median(leaf) for leaf in samples),
            "counters_digest": digest,
        }
    return {
        "application": profile.name,
        "fidelity": dataclasses.asdict(fidelity),
        "cpu_count": os.cpu_count() or 1,
        "repeats": rounds * per_round,
        "rounds": rounds,
        "leaves": sum(entry["leaves"] for entry in systems.values()),
        "matrix_seconds": sum(entry["system_seconds"] for entry in systems.values()),
        "systems": systems,
        "counters_digest": hashlib.sha256("".join(digests).encode("utf-8")).hexdigest(),
        "deterministic": deterministic,
    }


def merge_replay_entry(previous, label: str, entry, smoke: bool):
    """Add ``entry`` under ``label`` to a ``BENCH_replay.json`` payload.

    An entry with the same label is replaced.  Every entry is compared with
    the first one: ``bit_identical`` requires equal counter digests (and
    deterministic repeats), and ``speedup_vs_first`` divides the first
    entry's times by this entry's.
    """
    entries = [old for old in (previous or {}).get("entries", []) if old["label"] != label]
    entries.append(dict(entry, label=label))
    reference = entries[0]
    for current in entries:
        current["bit_identical"] = bool(
            current["deterministic"]
            and current["counters_digest"] == reference["counters_digest"]
        )
        current["speedup_vs_first"] = {
            "matrix": reference["matrix_seconds"] / current["matrix_seconds"],
            **{
                system: reference["systems"][system]["median_leaf_seconds"]
                / values["median_leaf_seconds"]
                for system, values in current["systems"].items()
                if system in reference["systems"]
            },
        }
    return {"benchmark": "replay", "smoke": smoke, "entries": entries}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--benchmark",
        choices=("scoring", "runner", "search", "scenarios", "replay"),
        default="scoring",
        help="which benchmark to run (default: scoring)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny traces and few repeats (CI mode; seconds, not minutes)",
    )
    parser.add_argument(
        "--points",
        type=int,
        default=1024,
        help="scoring: envelope grid width (acceptance floor is 64; default 1024)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="runner: service worker daemons on the multi-worker side (default 4)",
    )
    parser.add_argument(
        "--leaves",
        type=int,
        default=None,
        help="runner: cold leaves per timed run (default 16; 6 with --smoke)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats (matched pairs; median ratio reported)"
    )
    parser.add_argument(
        "--steps",
        type=int,
        default=None,
        help="search: steps in the timed search (default 200; 40 with --smoke)",
    )
    parser.add_argument(
        "--phases",
        type=int,
        default=None,
        help="scenarios: fleet timeline length (default 5000; 600 with --smoke)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help=(
            "where to write the JSON report ('-' prints to stdout only; "
            "default BENCH_<benchmark>.json)"
        ),
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="sleep-separated sampling bursts the repeats are spread over",
    )
    parser.add_argument(
        "--label",
        default="current",
        help="replay: name of this run's entry in the report (default: current)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="BENCH_trace",
        default=None,
        metavar="DIR",
        help=(
            "run the benchmark under telemetry, writing a span trace to DIR "
            "(default BENCH_trace) and attaching the per-stage time "
            "breakdown to the JSON report"
        ),
    )
    args = parser.parse_args(argv)

    if args.points < 64:
        parser.error("--points must be >= 64 (the acceptance grid floor)")
    if args.workers < 2:
        parser.error("--workers must be >= 2 (it is compared against 1 worker)")
    fidelity = SMOKE_FIDELITY if args.smoke else FAST_FIDELITY
    output = args.output if args.output is not None else f"BENCH_{args.benchmark}.json"

    trace_dir = Path(args.trace) if args.trace else None
    if trace_dir is not None:
        from repro.telemetry import Telemetry

        trace_dir.mkdir(parents=True, exist_ok=True)
        # A re-run must not merge with a stale trace of the previous one.
        for stale in trace_dir.glob("events-*.jsonl"):
            stale.unlink()
        trace_context = Telemetry(directory=trace_dir, enabled=True)
    else:
        trace_context = contextlib.nullcontext()

    with trace_context:
        if args.benchmark == "replay":
            repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 3)
            rounds = args.rounds if args.rounds is not None else (1 if args.smoke else 3)
            entry = benchmark_replay(
                SMOKE_FIDELITY if args.smoke else FIG12_FIDELITY, repeats, rounds
            )
            previous = None
            if output != "-" and os.path.exists(output):
                with open(output, encoding="utf-8") as handle:
                    previous = json.load(handle)
            report = merge_replay_entry(previous, args.label, entry, args.smoke)
        elif args.benchmark == "search":
            steps = args.steps if args.steps is not None else (40 if args.smoke else 200)
            report = {
                "benchmark": "search",
                "smoke": args.smoke,
                "warm_search": benchmark_search(
                    fidelity, steps, seed=7, agent_name="genetic"
                ),
            }
        elif args.benchmark == "scenarios":
            phases = args.phases if args.phases is not None else (600 if args.smoke else 5000)
            if phases < 1:
                parser.error("--phases must be >= 1")
            warm_repeats = args.repeats if args.repeats is not None else (2 if args.smoke else 3)
            report = {
                "benchmark": "scenarios",
                "smoke": args.smoke,
                "fleet": benchmark_scenarios(
                    fidelity, phases, max(1, warm_repeats)
                ),
            }
        elif args.benchmark == "runner":
            repeats = args.repeats if args.repeats is not None else (3 if args.smoke else 15)
            rounds = args.rounds if args.rounds is not None else (1 if args.smoke else 3)
            leaves = args.leaves if args.leaves is not None else (6 if args.smoke else 16)
            report = {
                "benchmark": "runner",
                "smoke": args.smoke,
                "repeats": repeats,
                "rounds": rounds,
                "cold_plan_throughput": benchmark_runner_service(
                    fidelity, leaves, args.workers, repeats, rounds
                ),
            }
        else:
            repeats = args.repeats if args.repeats is not None else (5 if args.smoke else 60)
            rounds = args.rounds if args.rounds is not None else (1 if args.smoke else 6)
            with tempfile.TemporaryDirectory(prefix="repro-bench-scoring-") as cache_dir:
                runner = ExperimentRunner(cache_dir=cache_dir, max_workers=0)
                report = {
                    "benchmark": "scoring",
                    "smoke": args.smoke,
                    "repeats": repeats,
                    "rounds": rounds,
                    "batch_scoring": benchmark_batch_scoring(
                        runner, fidelity, args.points, repeats, rounds
                    ),
                }

    if trace_dir is not None:
        from repro.telemetry.report import summarize

        trace_summary = summarize(trace_dir)
        report["trace"] = {
            "directory": str(trace_dir),
            "stages": trace_summary["stages"],
            "cache": trace_summary["cache"],
            "histograms": trace_summary["histograms"],
        }

    rendered = json.dumps(report, indent=2, sort_keys=True)
    print(rendered)
    if output != "-":
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")

    if args.benchmark == "replay":
        current = next(e for e in report["entries"] if e["label"] == args.label)
        print(
            f"\nreplay: {current['leaves']} spmv leaves in "
            f"{current['matrix_seconds']:.2f}s, "
            f"{current['speedup_vs_first']['matrix']:.2f}x vs "
            f"'{report['entries'][0]['label']}', "
            f"bit_identical={current['bit_identical']}",
            file=sys.stderr,
        )
        if not current["bit_identical"]:
            return 1
    elif args.benchmark == "search":
        warm = report["warm_search"]
        print(
            f"\nwarm search: {warm['steps_per_second']:.0f} steps/s over "
            f"{warm['steps']} steps (scenario-tier hit rate "
            f"{warm['scenario_tier_hit_rate']:.2%}, memo hit rate "
            f"{warm['memo_hit_rate']:.2%}, zero replay misses)",
            file=sys.stderr,
        )
    elif args.benchmark == "scenarios":
        fleet_report = report["fleet"]
        print(
            f"\nfleet: {fleet_report['phases']} phases -> "
            f"{fleet_report['signatures']} signatures "
            f"({fleet_report['dedup_hit_rate']:.2%} dedup hit rate), cold "
            f"{fleet_report['cold_seconds']:.2f}s, warm "
            f"{fleet_report['warm_seconds']:.3f}s "
            f"({fleet_report['warm_peak_traced_mib']:.1f} MiB traced peak), "
            "cold == warm",
            file=sys.stderr,
        )
    elif args.benchmark == "runner":
        cold = report["cold_plan_throughput"]
        print(
            f"\ncold plan through the service: {cold['speedup']:.2f}x at "
            f"{cold['workers']} workers over 1 "
            f"({cold['multi_worker_leaves_per_second']:.1f} vs "
            f"{cold['single_worker_leaves_per_second']:.1f} leaves/s on a "
            f"{cold['cpu_count']}-CPU host)",
            file=sys.stderr,
        )
    else:
        batch = report["batch_scoring"]["speedup"]
        print(
            f"\nbatch scoring: {batch:.1f}x over scalar "
            f"({report['batch_scoring']['points']} points)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
