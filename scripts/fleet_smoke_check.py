"""CI guard for the fleet-scale scenario engine: dedup telemetry + warm loads.

Runs a seeded 500-phase ``fleet`` timeline on Morpheus-Basic under an
explicit telemetry context through two fresh runners sharing one cache
directory, then asserts the fleet-scale contract:

* phase-signature dedup collapses the timeline to far fewer distinct
  signatures than phases, and the ``scenario.dedup.hits`` /
  ``scenario.dedup.misses`` counters in the trace account for **every**
  phase (hits + misses == phases, misses == distinct signatures);
* the per-signature solve-time histogram
  (``scenario.signature_solve_seconds``) is populated by the cold run;
* the warm second run executes **zero** trace replays, records **zero**
  replay-tier misses, and loads exactly **one** ``scenarios/``-tier
  payload — the signature-keyed aggregate, not thousands of leaves;
* the warm timeline is bit-identical to the cold one, resident by
  resident, through the lazy signature-backed phase view.

Exits non-zero with a diagnostic if any of that regresses — e.g. the
signature key accidentally including a cosmetic field (dedup rate
collapses), the counters drifting from the execution plan, or the warm
path quietly re-lowering phases instead of loading the aggregate.

Usage::

    PYTHONPATH=src python scripts/fleet_smoke_check.py [cache_dir] [trace_dir]
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

from repro.runner import ExperimentRunner, using_runner
from repro.scenarios import ScenarioEngine, fleet
from repro.systems.fidelity import Fidelity
from repro.telemetry import Telemetry
from repro.telemetry.report import summarize

FIDELITY = Fidelity(
    capacity_scale=1.0 / 32.0,
    trace_accesses=4_000,
    warmup_accesses=1_500,
    search_trace_accesses=2_000,
    search_warmup_accesses=750,
)

PHASES = 500
FLEET = fleet(num_phases=PHASES, seed=3)
SYSTEM = "Morpheus-Basic"


def run_pass(cache_dir: str):
    runner = ExperimentRunner(cache_dir=cache_dir, max_workers=0)
    engine = ScenarioEngine(runner=runner, fidelity=FIDELITY)
    with using_runner(runner):
        result = engine.run(FLEET, SYSTEM)
    return runner, result


def snapshot(result) -> list:
    """A comparable rendering of one timeline run (stats + cycle accounting)."""
    return [
        (
            execution.index,
            [
                (
                    resident.application,
                    dataclasses.asdict(resident.grant),
                    dataclasses.asdict(resident.stats),
                    resident.instructions,
                    dataclasses.asdict(resident.envelope),
                    resident.uncontended_ipc,
                )
                for resident in execution.residents
            ],
            dataclasses.asdict(execution.decision.transition),
            execution.instructions,
            execution.compute_cycles,
        )
        for execution in result.phases
    ]


def main() -> int:
    cache_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
        prefix="repro-fleet-check-"
    )
    trace_dir = Path(
        sys.argv[2] if len(sys.argv) > 2 else tempfile.mkdtemp(
            prefix="repro-fleet-trace-"
        )
    )
    trace_dir.mkdir(parents=True, exist_ok=True)
    for stale in trace_dir.glob("events-*.jsonl"):
        stale.unlink()

    with Telemetry(directory=trace_dir, enabled=True):
        cold_runner, cold_result = run_pass(cache_dir)
        warm_runner, warm_result = run_pass(cache_dir)

    signatures = len(cold_result.signatures or ())
    print(
        f"cold pass: {len(cold_result)} phases -> {signatures} signatures "
        f"({cold_result.dedup_hits} dedup hits), {cold_runner.replays} replays"
    )
    warm_cache = warm_runner.disk_cache
    warm_tiers = warm_cache.tier_counters()
    print(
        f"warm pass: {warm_runner.replays} replays, replay tier "
        f"{warm_cache.replay_hits} hits / {warm_cache.replay_misses} misses, "
        f"scenario tier {warm_tiers['scenario_hits']} hits / "
        f"{warm_tiers['scenario_misses']} misses"
    )

    failures = []
    if cold_runner.replays == 0:
        failures.append("cold pass replayed nothing — cache_dir was not cold?")
    if not 0 < signatures < len(cold_result) // 4:
        failures.append(
            f"fleet timeline collapsed to {signatures} signatures over "
            f"{len(cold_result)} phases — dedup is not pulling its weight"
        )
    if cold_result.dedup_hits != len(cold_result) - signatures:
        failures.append(
            f"dedup_hits={cold_result.dedup_hits} != phases - signatures "
            f"({len(cold_result)} - {signatures})"
        )
    if warm_runner.replays != 0:
        failures.append(f"warm pass executed {warm_runner.replays} trace replays")
    if warm_cache.replay_misses != 0:
        failures.append(f"warm pass had {warm_cache.replay_misses} replay-tier misses")
    if warm_tiers["scenario_hits"] != 1:
        failures.append(
            f"warm pass loaded {warm_tiers['scenario_hits']} scenario-tier "
            "payloads — the whole timeline should be one aggregate"
        )
    warm_counts = [execution.count for execution in warm_result.signatures]
    if warm_counts != [execution.count for execution in cold_result.signatures]:
        failures.append("warm signature counts differ from the cold pass's")
    if sum(warm_counts) != len(warm_result):
        failures.append(
            f"warm signature counts sum to {sum(warm_counts)}, not the "
            f"{len(warm_result)} phases"
        )
    if snapshot(cold_result) != snapshot(warm_result):
        failures.append("fleet timeline differs between cold and warm passes")

    summary = summarize(trace_dir)
    counters = summary["counters"]
    histograms = summary["histograms"]
    dedup_hits = counters.get("scenario.dedup.hits")
    dedup_misses = counters.get("scenario.dedup.misses")
    print(
        f"trace: dedup counters hits={dedup_hits} misses={dedup_misses}, "
        f"solve histogram count="
        f"{histograms.get('scenario.signature_solve_seconds', {}).get('count', 0)}"
    )
    if dedup_hits is None or dedup_misses is None:
        failures.append(
            "scenario.dedup.{hits,misses} counters missing from the trace"
        )
    else:
        # Only the cold pass lowers phases; the warm one loads the aggregate.
        if dedup_hits + dedup_misses != PHASES:
            failures.append(
                f"dedup counters account for {dedup_hits + dedup_misses} phases, "
                f"expected {PHASES}"
            )
        if dedup_misses != signatures:
            failures.append(
                f"dedup misses ({dedup_misses}) != distinct signatures "
                f"({signatures})"
            )
    solve_histogram = histograms.get("scenario.signature_solve_seconds")
    if solve_histogram is None or not solve_histogram.get("count"):
        failures.append(
            "scenario.signature_solve_seconds histogram missing or empty"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"OK: {PHASES}-phase fleet collapsed to {signatures} signatures with "
        "dedup counters accounting for every phase, the per-signature "
        "solve-time histogram populated, and the warm re-run served from a "
        "single scenario-tier payload (zero replays, bit-identical)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
