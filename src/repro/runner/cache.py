"""Three-tier content-addressed on-disk cache.

The cache directory (default ``.repro_cache/``) holds three tiers, one JSON
file per entry, each sharded by key prefix:

* ``measurements/`` — raw :class:`~repro.sim.performance_model.ReplayMeasurement`
  records, addressed by :meth:`~repro.runner.spec.RunSpec.replay_key`.  This
  is the expensive tier: one entry per functional trace replay.
* ``stats/`` — scored :class:`~repro.sim.stats.SimulationStats`, addressed by
  :meth:`~repro.runner.spec.RunSpec.score_key`.  This is the cheap tier:
  re-deriving an entry from a cached measurement is a pure analytic
  computation.
* ``scenarios/`` — scenario-level aggregates (serialized
  :class:`~repro.scenarios.engine.ScenarioRunResult` payloads), addressed by
  :meth:`~repro.scenarios.engine.ScenarioEngine.run_key`.  Warm scenario
  re-runs load one aggregate instead of re-scoring every timeline leaf.

Because the score key embeds the replay key, changing *any* input addresses
a different stats entry, while changing only analytic parameters (peak IPC,
MLP, energy constants) still hits the measurement tier — sweeps over those
parameters never re-replay a trace.  Stale entries are never returned; they
are simply orphaned (``prune()`` removes them).

Writes are atomic (temp file + ``os.replace``) so concurrent workers of a
:class:`~repro.runner.runner.ExperimentRunner` can share one cache
directory: when two workers race on the same key, both produce identical
deterministic results and the last rename wins.  Temp files left behind by
crashed workers are excluded from entry counts and swept by ``prune()``
once older than an age threshold (younger ones may be in-flight writes).

The module doubles as a maintenance CLI::

    python -m repro.runner.cache stats [--json]
    python -m repro.runner.cache prune [--max-bytes N] [--tier stats|measurements|scenarios]

``prune --max-bytes`` applies an LRU-by-mtime size cap instead of deleting
everything.  ``python -m repro.runner`` is an equivalent entry point that
avoids runpy's double-import ``RuntimeWarning``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.energy.model import EnergyBreakdown
from repro.sim.performance_model import ReplayMeasurement
from repro.sim.stats import SimulationStats
from repro.telemetry import telemetry

#: Default cache directory (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Prefix of the temp files behind atomic writes (dotted, so entry globs
#: must explicitly skip them).
TEMP_PREFIX = ".tmp-"


def stats_to_jsonable(stats: SimulationStats) -> Dict:
    """Render ``stats`` (including the energy breakdown) as JSON-compatible data."""
    return dataclasses.asdict(stats)


def stats_from_jsonable(payload: Dict) -> SimulationStats:
    """Rebuild :class:`SimulationStats` from :func:`stats_to_jsonable` output."""
    data = dict(payload)
    energy = data.pop("energy", None)
    stats = SimulationStats(**data)
    if energy is not None:
        stats.energy = EnergyBreakdown(**energy)
    return stats


class _JsonTier:
    """One directory of content-addressed JSON entries (sharded by key prefix).

    ``name`` labels the tier in live telemetry: every load/store publishes
    ``cache.<name>.{hits,misses,stores,bytes_read,bytes_written}`` counters
    when telemetry is enabled (the plain ``hits``/``misses``/``stores``
    attributes stay authoritative either way).
    """

    def __init__(self, directory: Path, name: str = "") -> None:
        self.directory = directory
        self.name = name or directory.name
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path_for(self, key: str) -> Path:
        """File path of the entry addressed by ``key``."""
        return self.directory / key[:2] / f"{key}.json"

    def load_payload(self, key: str) -> Optional[Dict]:
        """The JSON payload stored under ``key``, or ``None`` on a miss."""
        try:
            with self.path_for(key).open("r", encoding="utf-8") as handle:
                text = handle.read()
            payload = json.loads(text)
        except FileNotFoundError:
            self.misses += 1
            tel = telemetry()
            if tel.enabled:
                tel.count(f"cache.{self.name}.misses")
            return None
        except (OSError, ValueError):
            # A truncated or unreadable entry is treated as a miss; the
            # fresh result will overwrite it.
            self.misses += 1
            tel = telemetry()
            if tel.enabled:
                tel.count(f"cache.{self.name}.misses")
            return None
        self.hits += 1
        tel = telemetry()
        if tel.enabled:
            tel.count(f"cache.{self.name}.hits")
            tel.count(f"cache.{self.name}.bytes_read", len(text))
        return payload

    def store_payload(self, key: str, payload: Dict) -> None:
        """Atomically persist ``payload`` under ``key``.

        Safe under any number of concurrent writer *processes* sharing the
        directory (the distributed service's workers all publish here):

        * Each writer serializes into its own ``mkstemp`` temp file and
          commits with ``os.replace`` — one atomic rename.  Readers
          therefore never observe a torn or partially written entry: the
          entry path either does not exist yet or names a complete file.
        * Keys are content hashes, so racing writers carry identical
          payloads and the last rename is a harmless no-op; there is no
          read-modify-write anywhere, hence nothing to lock.
        * A writer crashing mid-serialize leaves only a dotted ``.tmp-``
          file, which entry globs skip and ``prune`` sweeps once stale.

        The contract is stress-tested in
        ``tests/runner/test_cache_concurrency.py``.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(payload)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=TEMP_PREFIX, suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        tel = telemetry()
        if tel.enabled:
            tel.count(f"cache.{self.name}.stores")
            tel.count(f"cache.{self.name}.bytes_written", len(text))

    def entries(self) -> Iterator[Path]:
        """All committed entries (atomic-write temp files are not entries)."""
        if not self.directory.exists():
            return
        for path in self.directory.glob("*/*.json"):
            if not path.name.startswith("."):
                yield path

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())


class ResultCache:
    """One multi-tier content-addressed cache directory.

    The stats-tier counters are exposed as ``hits``/``misses``/``stores``,
    the measurement-tier counters as ``replay_hits``/``replay_misses``/
    ``replay_stores`` — a re-scoring sweep over a warm cache shows stats-tier
    misses but **zero** ``replay_misses`` turning into replays — and the
    scenario-aggregate tier as ``scenario_hits``/``scenario_misses``/
    ``scenario_stores``.
    """

    #: Tier subdirectory names.
    STATS_TIER = "stats"
    MEASUREMENTS_TIER = "measurements"
    SCENARIOS_TIER = "scenarios"

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        if directory is None:
            directory = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.directory = Path(directory)
        self._stats = _JsonTier(self.directory / self.STATS_TIER, self.STATS_TIER)
        self._measurements = _JsonTier(
            self.directory / self.MEASUREMENTS_TIER, self.MEASUREMENTS_TIER
        )
        self._scenarios = _JsonTier(
            self.directory / self.SCENARIOS_TIER, self.SCENARIOS_TIER
        )

    # -- stats tier (scored results, keyed by score_key) ------------------------------

    @property
    def hits(self) -> int:
        """Stats-tier (scored result) cache hits."""
        return self._stats.hits

    @property
    def misses(self) -> int:
        """Stats-tier (scored result) cache misses."""
        return self._stats.misses

    @property
    def stores(self) -> int:
        """Stats-tier (scored result) cache stores."""
        return self._stats.stores

    def path_for(self, key: str) -> Path:
        """File path of the scored result addressed by score key ``key``."""
        return self._stats.path_for(key)

    def load(self, key: str) -> Optional[SimulationStats]:
        """The cached scored result for score key ``key``, or ``None`` on a miss."""
        payload = self._stats.load_payload(key)
        if payload is None:
            return None
        try:
            return stats_from_jsonable(payload["stats"])
        except (KeyError, TypeError, ValueError):
            self._stats.hits -= 1
            self._stats.misses += 1
            return None

    def store(self, key: str, stats: SimulationStats) -> None:
        """Atomically persist scored ``stats`` under score key ``key``."""
        self._stats.store_payload(key, {"key": key, "stats": stats_to_jsonable(stats)})

    # -- measurement tier (replay outputs, keyed by replay_key) -----------------------

    @property
    def replay_hits(self) -> int:
        """Measurement-tier (replay) cache hits."""
        return self._measurements.hits

    @property
    def replay_misses(self) -> int:
        """Measurement-tier (replay) cache misses."""
        return self._measurements.misses

    @property
    def replay_stores(self) -> int:
        """Measurement-tier (replay) cache stores."""
        return self._measurements.stores

    def measurement_path_for(self, key: str) -> Path:
        """File path of the measurement addressed by replay key ``key``."""
        return self._measurements.path_for(key)

    def load_measurement(self, key: str) -> Optional[ReplayMeasurement]:
        """The cached measurement for replay key ``key``, or ``None`` on a miss."""
        payload = self._measurements.load_payload(key)
        if payload is None:
            return None
        try:
            return ReplayMeasurement.from_jsonable(payload["measurement"])
        except (KeyError, TypeError, ValueError):
            self._measurements.hits -= 1
            self._measurements.misses += 1
            return None

    def store_measurement(
        self, key: str, measurement: ReplayMeasurement, mode: str = "replay"
    ) -> None:
        """Atomically persist ``measurement`` under replay key ``key``.

        ``mode`` records how the measurement was produced (the config's
        ``replay_mode`` — ``"replay"`` or ``"analytic"``).  Both modes share
        the ``measurements/`` tier: the mode is part of the replay key, so
        their entries can never collide, and the stored tag exists purely so
        :meth:`measurement_mode_counts` (and the ``stats`` CLI) can report
        the tiers' composition.
        """
        self._measurements.store_payload(
            key,
            {"key": key, "mode": mode, "measurement": measurement.to_jsonable()},
        )

    def measurement_mode_counts(self) -> Dict[str, int]:
        """On-disk measurement entries per production mode.

        Entries written before the mode tag existed count as ``"replay"``
        (the only mode that existed then); unreadable entries are skipped.
        """
        counts: Dict[str, int] = {}
        for path in self._measurements.entries():
            try:
                with path.open("r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                continue
            mode = payload.get("mode", "replay")
            counts[mode] = counts.get(mode, 0) + 1
        return counts

    # -- scenario tier (timeline aggregates, keyed by ScenarioEngine.run_key) ----------

    @property
    def scenario_hits(self) -> int:
        """Scenario-tier (timeline aggregate) cache hits."""
        return self._scenarios.hits

    @property
    def scenario_misses(self) -> int:
        """Scenario-tier (timeline aggregate) cache misses."""
        return self._scenarios.misses

    @property
    def scenario_stores(self) -> int:
        """Scenario-tier (timeline aggregate) cache stores."""
        return self._scenarios.stores

    def load_scenario(self, key: str) -> Optional[Dict]:
        """The cached scenario-aggregate payload for ``key``, or ``None`` on a miss.

        Payloads are opaque JSON dicts — the scenario engine owns their
        schema (its run key embeds every schema version involved, so a
        stale layout is simply never addressed).
        """
        payload = self._scenarios.load_payload(key)
        if payload is None:
            return None
        result = payload.get("result")
        if not isinstance(result, dict):
            self._scenarios.hits -= 1
            self._scenarios.misses += 1
            return None
        return result

    def store_scenario(self, key: str, result: Dict) -> None:
        """Atomically persist the scenario-aggregate payload under ``key``."""
        self._scenarios.store_payload(key, {"key": key, "result": result})

    # -- cross-process counter folding -------------------------------------------------

    def tier_counters(self) -> Dict[str, int]:
        """All three tiers' hit/miss/store counters as a plain dict.

        Worker processes of a parallel plan ship these back so the parent
        runner's cache counters stay truthful (see :func:`absorb_counters`).
        """
        return {
            "hits": self._stats.hits,
            "misses": self._stats.misses,
            "stores": self._stats.stores,
            "replay_hits": self._measurements.hits,
            "replay_misses": self._measurements.misses,
            "replay_stores": self._measurements.stores,
            "scenario_hits": self._scenarios.hits,
            "scenario_misses": self._scenarios.misses,
            "scenario_stores": self._scenarios.stores,
        }

    def absorb_counters(self, counters: Dict[str, int]) -> None:
        """Fold another process's :meth:`tier_counters` into this cache's."""
        self._stats.hits += counters.get("hits", 0)
        self._stats.misses += counters.get("misses", 0)
        self._stats.stores += counters.get("stores", 0)
        self._measurements.hits += counters.get("replay_hits", 0)
        self._measurements.misses += counters.get("replay_misses", 0)
        self._measurements.stores += counters.get("replay_stores", 0)
        self._scenarios.hits += counters.get("scenario_hits", 0)
        self._scenarios.misses += counters.get("scenario_misses", 0)
        self._scenarios.stores += counters.get("scenario_stores", 0)

    # -- maintenance ------------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return self._stats.path_for(key).exists()

    def __len__(self) -> int:
        """Committed entries across all tiers (temp files excluded)."""
        return len(self._stats) + len(self._measurements) + len(self._scenarios)

    def _tiers(self, tier: Optional[str] = None) -> List[Tuple[str, _JsonTier]]:
        named = [
            (self.STATS_TIER, self._stats),
            (self.MEASUREMENTS_TIER, self._measurements),
            (self.SCENARIOS_TIER, self._scenarios),
        ]
        if tier is None:
            return named
        selected = [(name, t) for name, t in named if name == tier]
        if not selected:
            valid = ", ".join(repr(name) for name, _ in named)
            raise ValueError(f"unknown tier {tier!r}; expected one of: {valid}")
        return selected

    #: Minimum age before a temp file counts as stale.  Atomic writes live
    #: for milliseconds; anything this old belongs to a crashed worker.
    STALE_TEMP_SECONDS = 600.0

    def _stale_temp_files(self) -> Iterator[Path]:
        """Temp files left behind by crashed workers, anywhere in the cache.

        Only temp files older than :data:`STALE_TEMP_SECONDS` qualify:
        concurrent workers share this directory, and sweeping a temp file
        between its ``mkstemp`` and ``os.replace`` would crash that
        worker's store.
        """
        if not self.directory.exists():
            return
        cutoff = time.time() - self.STALE_TEMP_SECONDS
        for path in self.directory.glob(f"**/{TEMP_PREFIX}*.json"):
            try:
                if path.stat().st_mtime <= cutoff:
                    yield path
            except OSError:
                continue

    def _legacy_entries(self) -> Iterator[Path]:
        """Entries from the pre-two-tier layout (``<root>/<xx>/<key>.json``)."""
        if not self.directory.exists():
            return
        for path in self.directory.glob("*/*.json"):
            if path.parent.name in (
                self.STATS_TIER,
                self.MEASUREMENTS_TIER,
                self.SCENARIOS_TIER,
            ):
                continue
            if not path.name.startswith("."):
                yield path

    def size_bytes(self, tier: Optional[str] = None) -> int:
        """Total size of the committed entries in ``tier`` (or all three tiers)."""
        total = 0
        for _, json_tier in self._tiers(tier):
            for path in json_tier.entries():
                try:
                    total += path.stat().st_size
                except OSError:
                    pass
        return total

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per-tier on-disk entry counts and byte totals (for the CLI)."""
        report: Dict[str, Dict[str, int]] = {}
        for name, json_tier in self._tiers():
            report[name] = {
                "entries": len(json_tier),
                "bytes": self.size_bytes(name),
            }
        temp_count = 0
        temp_bytes = 0
        for path in self._stale_temp_files():
            try:
                temp_bytes += path.stat().st_size
            except OSError:
                # A racing worker's atomic rename removed it mid-scan.
                continue
            temp_count += 1
        report["stale_temp_files"] = {"entries": temp_count, "bytes": temp_bytes}
        return report

    def prune(self, max_bytes: Optional[int] = None, tier: Optional[str] = None) -> int:
        """Delete cache entries and return how many files were removed.

        Without ``max_bytes`` every entry in ``tier`` (default: all three
        tiers — ``stats``, ``measurements``, ``scenarios``) is deleted —
        used to reclaim space after schema bumps.  With
        ``max_bytes`` the selected tiers are instead capped to that total
        size, evicting least-recently-modified entries first (LRU by
        mtime).  Stale atomic-write temp files and pre-two-tier legacy
        entries (unreadable orphans under the current layout) are always
        swept, but never counted as cache entries.
        """
        removed = 0
        if not self.directory.exists():
            return removed

        def unlink(path: Path) -> bool:
            try:
                path.unlink()
                return True
            except OSError:
                return False

        for temp in list(self._stale_temp_files()):
            removed += unlink(temp)
        for path in list(self._legacy_entries()):
            removed += unlink(path)

        if max_bytes is None:
            for _, json_tier in self._tiers(tier):
                for path in list(json_tier.entries()):
                    removed += unlink(path)
            return removed

        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        aged: List[Tuple[float, int, Path]] = []
        total = 0
        for _, json_tier in self._tiers(tier):
            for path in json_tier.entries():
                try:
                    stat = path.stat()
                except OSError:
                    continue
                aged.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
        aged.sort(key=lambda item: item[0])
        for _, size, path in aged:
            if total <= max_bytes:
                break
            if unlink(path):
                removed += 1
                total -= size
        return removed


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.runner.cache``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner.cache",
        description="Inspect or prune the on-disk simulation cache.",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"cache directory (default: ${CACHE_DIR_ENV} or {DEFAULT_CACHE_DIR})",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    stats = commands.add_parser("stats", help="print per-tier entry counts and sizes")
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the text table",
    )
    prune = commands.add_parser("prune", help="delete cache entries")
    prune.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="keep the cache under this size (LRU by mtime) instead of emptying it",
    )
    prune.add_argument(
        "--tier",
        choices=(
            ResultCache.STATS_TIER,
            ResultCache.MEASUREMENTS_TIER,
            ResultCache.SCENARIOS_TIER,
        ),
        default=None,
        help=(
            "restrict pruning to one tier: 'stats' (scored results), "
            "'measurements' (replay records), or 'scenarios' (timeline "
            "aggregates); default: all three"
        ),
    )
    args = parser.parse_args(argv)

    cache = ResultCache(args.cache_dir)
    if args.command == "stats":
        report = cache.summary()
        if args.json:
            payload = {
                "directory": str(cache.directory),
                "tiers": report,
                "measurement_modes": cache.measurement_mode_counts(),
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(f"cache {cache.directory}")
        for name, row in report.items():
            print(f"  {name:<18s} {row['entries']:>8d} entries  {row['bytes']:>12d} bytes")
            if name == ResultCache.MEASUREMENTS_TIER:
                # The measurement tier mixes replay and analytic entries
                # (under distinct replay-keyed modes); break it down.
                for mode, count in sorted(cache.measurement_mode_counts().items()):
                    print(f"    mode={mode:<12s} {count:>8d} entries")
        return 0
    removed = cache.prune(max_bytes=args.max_bytes, tier=args.tier)
    print(f"cache {cache.directory}: removed {removed} files")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    raise SystemExit(main())
