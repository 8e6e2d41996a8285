"""Benchmark entry point: one workload, one process, one fresh cache.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig12_cold --seed 1 --seconds 30 --trace 0

Workloads (see ``suite.py``): ``fig12_cold``, ``rescore_sweep`` and
``fleet_scenarios``.  The run repeats rounds of the workload (set-up, cold
pass, warm pass, checks) until ``--seconds`` would be exceeded, always at
least one, and reports medians over rounds.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it runs one untraced round and
then one round with every layer wrapped (``tracing.py``), and prints the
per-layer metrics.  ``--size smoke`` shrinks every workload for tests.

Host facts and one line per metric go to standard output first; the last
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Caches live under ``.perfbench-cache/`` in the
working directory and are deleted when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups measured per run; ``setup_s`` reports imports plus their median.
MIN_SETUPS = 5


def pin_environment() -> None:
    """Serial local runner, no size cap, no telemetry, no shared cache dir."""
    for name in ("REPRO_CACHE_MAX_BYTES", "REPRO_CACHE_DIR", "REPRO_TELEMETRY_DIR"):
        os.environ.pop(name, None)
    os.environ["REPRO_TELEMETRY"] = "0"
    os.environ["REPRO_RUNNER_WORKERS"] = "0"
    os.environ["REPRO_RUNNER_BACKEND"] = "local"
    os.environ["REPRO_DISK_CACHE"] = "1"


def filesystem_of(path: Path) -> str:
    try:
        done = subprocess.run(
            ["stat", "-f", "-c", "%T", str(path)],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def git_commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rate(units: int, seconds: float) -> float:
    """Work per second; 0 when a pass failed before it could be timed."""
    return units / seconds if seconds > 0 else 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))

    from hostclock import HostClock

    workdir = ROOT / ".perfbench-cache" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)  # left by a killed run with our pid
    try:
        clock = HostClock()
        clock.start()
        import numpy

        import suite
        import tracing

        import_raw_s, import_s = clock.stop()

        if args.workload not in suite.WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        expected = json.loads((HERE / "expected.json").read_text())
        workload = suite.WORKLOADS[args.workload](args.seed, args.size, workdir, clock)
        rounds, setups, trace = run_rounds(workload, args, suite, tracing)
        facts = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cache_fs": filesystem_of(workdir),
            "commit": git_commit(ROOT),
            "rounds": len(rounds),
            "seed": args.seed,
            "raw_wall_s": statistics.median(r.wall_raw_s for r in rounds),
            "raw_import_s": import_raw_s,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    failures = [message for r in rounds for message in r.failures]
    digests = {r.digest for r in rounds}
    if len(digests) > 1:
        failed += 1
        failures.append("rounds of one run produced different output digests")
    want = expected["digests"].get(args.workload)
    if args.size == "full" and args.seed == expected["default_seed"] and digests != {want}:
        failed += 1
        failures.append(f"output digest {sorted(digests)} != expected {want}")

    if args.trace:
        metrics = traced_metrics(rounds[-1], *trace)
    else:
        metrics = {
            "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
            "setup_s": (import_s + statistics.median(setups), "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
            "cold_work_per_s": (
                statistics.median(rate(r.cold_units, r.cold_s) for r in rounds), "1/s"
            ),
            "warm_work_per_s": (
                statistics.median(
                    rate(r.warm_units, seconds) for r in rounds for seconds in r.warm_s
                ),
                "1/s",
            ),
        }

    for name, value in facts.items():
        print(f"host.{name} = {value}")
    for message in failures:
        print(f"FAILED: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}.{name} = {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_rounds(workload, args, suite, tracing):
    """Repeat rounds until ``--seconds`` would be exceeded (at least one).

    In traced mode: one untraced round, then one traced round; the third
    return value is then ``(untraced sections, traced sections, tracer)``.
    """
    clock = workload.clock
    rounds, setups = [], []

    def setup():
        clock.start()
        state = workload.setup()
        setups.append(clock.stop()[1])
        return state

    def one_round(sections):
        state = setup()
        try:
            rounds.append(workload.run(state, sections))
        finally:
            workload.teardown(state)
        return sections

    trace = None
    if args.trace:
        untraced = one_round(suite.Sections(clock))
        tracer = tracing.LayerTracer()
        clock.on_probe = tracer.exclude
        traced = one_round(suite.Sections(clock, tracer))
        clock.on_probe = None
        trace = (untraced, traced, tracer)
    else:
        start = time.perf_counter()
        lengths = []
        while True:
            began = time.perf_counter()
            one_round(suite.Sections(clock))
            lengths.append(time.perf_counter() - began)
            if time.perf_counter() - start + statistics.median(lengths) > args.seconds:
                break
    while len(setups) < MIN_SETUPS:
        workload.teardown(setup())
    return rounds, setups, trace


def traced_metrics(traced_round, untraced, traced, tracer):
    """Per-layer metrics of the traced round, plus attribution and overhead."""
    metrics = tracer.layer_metrics()
    metrics["runner.runner.replays"] = (traced_round.replays, "count")
    metrics["scenarios.engine.dedup_hit_ratio"] = (
        traced_round.dedup_hits / traced_round.phases if traced_round.phases else 0.0,
        "ratio",
    )
    metrics["trace.attributed_frac"] = (tracer.attributed_s / traced.raw_s, "ratio")
    metrics["trace.overhead_frac"] = (traced.total_s / untraced.total_s - 1.0, "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
