"""Tests for the distributed experiment service.

The acceptance properties of the service backend:

* a cold batch/plan through ``REPRO_RUNNER_BACKEND=service`` is
  **bit-identical** to a serial run (results travel through the shared
  cache, never the queue),
* **zero duplicate replays** — measurement-tier stores equal the number of
  distinct replay keys, however many workers run,
* a **killed worker's** job is requeued exactly once and the resumed run
  still matches the serial result with no duplicate stores,
* a killed-and-restarted coordinator **resumes from the cache** without
  re-replaying completed leaves,
* per-task accounting (worker, attempts, runtime, counters) folds back
  into the requesting runner.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import pytest

from repro.energy.components import DEFAULT_ENERGIES, ComponentEnergies
from repro.runner import ExperimentRunner, ExperimentSpec, RunSpec, using_runner
from repro.runner import codec
from repro.runner.queue import DONE, FileQueue, InProcessQueue
from repro.runner.service import (
    CELL_JOB,
    REPLAY_JOB,
    DistributedBackend,
    ExperimentService,
    cell_job,
    execute_job,
    replay_job,
    worker_loop,
)
from repro.sim.simulator import SimulationConfig
from repro.workloads.applications import get_application
from runner_test_utils import TINY_FIDELITY, tiny_config


class _Level(enum.Enum):
    LOW = "low"
    HIGH = "high"


@dataclasses.dataclass(frozen=True)
class _Inner:
    level: _Level = _Level.LOW
    size: int = 0


@dataclasses.dataclass(frozen=True)
class _Containers:
    sizes: Tuple[int, ...] = ()
    pair: Tuple[_Inner, str] = (_Inner(), "")
    items: List[_Inner] = dataclasses.field(default_factory=list)
    by_name: Dict[str, _Inner] = dataclasses.field(default_factory=dict)
    maybe: Optional[_Inner] = None
    either: Union[_Inner, _Level, None] = None


def _stats_dicts(stats_list):
    return [dataclasses.asdict(stats) for stats in stats_list]


def _measurement_files(cache_dir) -> int:
    tier = Path(cache_dir) / "measurements"
    if not tier.exists():
        return 0
    return sum(1 for _ in tier.rglob("*.json"))


def inline_service_runner(cache_dir, max_workers: int = 2) -> ExperimentRunner:
    """A service-backend runner draining an in-process queue inline.

    Exercises the full register/claim/lease/complete protocol without
    forking, so most tests stay fast and sandbox-proof; the spawned-daemon
    path is covered separately.
    """
    runner = ExperimentRunner(
        cache_dir=cache_dir, max_workers=max_workers, backend="service"
    )
    service = ExperimentService(
        cache_dir=runner.cache_dir,
        queue=InProcessQueue(),
        spawn_workers=False,
        num_workers=max_workers,
    )
    runner._service = DistributedBackend(service)
    return runner


class TestCodecRoundTrip:
    def test_profile_and_config_round_trip_exactly(self, kmeans_profile):
        config = tiny_config()
        profile2 = codec.decode(type(kmeans_profile), codec.encode(kmeans_profile))
        config2 = codec.decode(SimulationConfig, codec.encode(config))
        assert profile2 == kmeans_profile
        assert config2 == config

    def test_round_trip_preserves_replay_and_score_keys(self, kmeans_profile):
        # The at-most-once dedup hinges on this: a job payload that decoded
        # to different keys would replay the same leaf twice.
        config = tiny_config(morpheus=None)
        original = RunSpec(kmeans_profile, config, DEFAULT_ENERGIES)
        restored = RunSpec(
            codec.decode(type(kmeans_profile), codec.encode(kmeans_profile)),
            codec.decode(SimulationConfig, codec.encode(config)),
            codec.decode(ComponentEnergies, codec.encode(DEFAULT_ENERGIES)),
        )
        assert restored.replay_key() == original.replay_key()
        assert restored.score_key() == original.score_key()

    def test_json_wire_round_trip(self, kmeans_profile):
        # The payload actually crosses a JSON boundary in the FileQueue.
        config = tiny_config(mlp_per_sm=3.5)
        wire = json.loads(json.dumps(codec.encode(config)))
        assert codec.decode(SimulationConfig, wire) == config

    def test_morpheus_config_round_trips(self):
        from repro.core.config import MorpheusConfig

        config = tiny_config(
            morpheus=MorpheusConfig(enable_compression=True), num_cache_sms=4
        )
        wire = json.loads(json.dumps(codec.encode(config)))
        assert codec.decode(SimulationConfig, wire) == config

    def test_decode_rejects_non_dataclass(self):
        with pytest.raises(TypeError):
            codec.decode(int, 3)

    def test_containers_decode_element_wise(self):
        value = _Containers(
            sizes=(1, 2, 3),
            pair=(_Inner(_Level.HIGH, 4), "x"),
            items=[_Inner(size=5), _Inner(_Level.HIGH, 6)],
            by_name={"a": _Inner(_Level.HIGH, 7)},
            maybe=_Inner(size=8),
            either=_Level.HIGH,
        )
        wire = json.loads(json.dumps(codec.encode(value)))
        decoded = codec.decode(_Containers, wire)
        assert decoded == value
        assert isinstance(decoded.sizes, tuple)
        assert decoded.by_name["a"].level is _Level.HIGH

    def test_missing_fields_keep_their_defaults(self):
        assert codec.decode(_Containers, {"sizes": [9]}) == _Containers(sizes=(9,))

    def test_union_with_no_matching_member_rejected(self):
        with pytest.raises(ValueError):
            codec.decode(_Containers, {"either": "medium"})

    def test_nested_dataclass_needs_a_mapping(self):
        with pytest.raises(TypeError):
            codec.decode(_Containers, {"items": [[1, 2]]})


class TestJobConstruction:
    def test_replay_job_id_is_replay_key(self, kmeans_profile):
        config = tiny_config()
        key = RunSpec(kmeans_profile, config, DEFAULT_ENERGIES).replay_key()
        job = replay_job(kmeans_profile, config, key)
        assert job.job_id == f"{REPLAY_JOB}-{key}"
        assert job.kind == REPLAY_JOB

    def test_cell_job_id_is_content_addressed(self):
        spec = ExperimentSpec(
            systems=("BL",), applications=("spmv",), fidelity=TINY_FIDELITY
        )
        plan = spec.expand()
        first = cell_job(plan.cells[0], spec, None)
        again = cell_job(plan.cells[0], spec, None)
        other = cell_job(plan.cells[0], spec, DEFAULT_ENERGIES)
        assert first.job_id == again.job_id
        assert first.job_id != other.job_id
        assert first.kind == CELL_JOB

    def test_execute_job_rejects_unknown_kind(self, tmp_path):
        from repro.runner.queue import Job

        with pytest.raises(ValueError):
            execute_job(Job(job_id="x", kind="mystery"), str(tmp_path))


class TestServiceBitIdentity:
    def test_cold_batch_matches_serial(self, tmp_path, kmeans_profile):
        configs = [tiny_config(seed=seed) for seed in (1, 2, 3)]
        serial = ExperimentRunner(cache_dir=tmp_path / "serial", max_workers=0)
        service = inline_service_runner(tmp_path / "service")
        expected = serial.run_configs(kmeans_profile, configs)
        actual = service.run_configs(kmeans_profile, configs)
        assert _stats_dicts(actual) == _stats_dicts(expected)
        assert service.replays == serial.replays == 3

    def test_zero_duplicate_replays(self, tmp_path, kmeans_profile):
        # Distinct replay keys == measurement files == replay-tier stores:
        # nothing was replayed twice, nothing stored twice.
        configs = [tiny_config(seed=seed) for seed in (1, 2)]
        configs += [tiny_config(seed=1, mlp_per_sm=9.0)]  # same replay key as seed=1
        service = inline_service_runner(tmp_path / "cache")
        service.run_configs(kmeans_profile, configs)
        distinct = {
            RunSpec(kmeans_profile, config, DEFAULT_ENERGIES).replay_key()
            for config in configs
        }
        assert len(distinct) == 2
        assert service.replays == 2
        assert _measurement_files(service.cache_dir) == len(distinct)
        assert service.disk_cache.replay_stores == len(distinct)

    def test_cold_plan_matches_serial(self, tmp_path):
        spec = ExperimentSpec(
            systems=("BL", "Morpheus-Basic"),
            applications=("spmv",),
            fidelity=TINY_FIDELITY,
        )
        serial = ExperimentRunner(cache_dir=tmp_path / "serial", max_workers=0)
        service = inline_service_runner(tmp_path / "service")
        expected = serial.run_plan(spec)
        actual = service.run_plan(spec)
        for (cell_a, stats_a), (cell_b, stats_b) in zip(expected, actual):
            assert cell_a == cell_b
            assert dataclasses.asdict(stats_a) == dataclasses.asdict(stats_b)
        assert service.replays == serial.replays

    def test_warm_rerun_costs_zero(self, tmp_path, kmeans_profile):
        configs = [tiny_config(seed=seed) for seed in (1, 2)]
        service = inline_service_runner(tmp_path / "cache")
        cold = service.run_configs(kmeans_profile, configs)
        warm = service.run_configs(kmeans_profile, configs)
        assert _stats_dicts(warm) == _stats_dicts(cold)
        assert service.replays == 2  # unchanged by the warm pass

    def test_restarted_coordinator_resumes_from_cache(self, tmp_path, kmeans_profile):
        # "Kill" the coordinator after a cold run (drop the runner), start a
        # fresh one on the same cache: nothing is re-replayed, results match.
        configs = [tiny_config(seed=seed) for seed in (1, 2)]
        first = inline_service_runner(tmp_path / "cache")
        cold = first.run_configs(kmeans_profile, configs)
        first.close()
        second = inline_service_runner(tmp_path / "cache")
        resumed = second.run_configs(kmeans_profile, configs)
        assert _stats_dicts(resumed) == _stats_dicts(cold)
        assert second.replays == 0
        assert _measurement_files(second.cache_dir) == 2

    def test_scenario_engine_through_service_backend(self, tmp_path):
        # Scenario timelines lower to run_leaves batches, which route
        # through the backend automatically — same snapshot either way.
        from repro.scenarios import ScenarioEngine, corun_pair

        scenario = corun_pair(rounds=2)

        def run(runner):
            engine = ScenarioEngine(runner=runner, fidelity=TINY_FIDELITY)
            with using_runner(runner):
                result = engine.run(scenario, "Morpheus-Basic")
            return [
                (execution.index, dataclasses.asdict(execution.stats))
                for execution in result.phases
            ]

        serial = ExperimentRunner(cache_dir=tmp_path / "serial", max_workers=0)
        service = inline_service_runner(tmp_path / "service")
        assert run(service) == run(serial)
        assert service.replays == serial.replays == 2


class TestServiceAccounting:
    def test_report_records_worker_attempts_runtime(self, tmp_path, kmeans_profile):
        service = inline_service_runner(tmp_path / "cache")
        service.run_configs(kmeans_profile, [tiny_config()])
        (report,) = service.service_reports
        (outcome,) = report.outcomes.values()
        assert outcome.kind == REPLAY_JOB
        assert outcome.ok and outcome.fresh
        assert outcome.attempts == 0
        assert outcome.worker is not None
        assert outcome.runtime_seconds > 0.0
        assert outcome.replays == 1
        assert outcome.counters.get("replay_stores") == 1
        assert report.replays == 1
        assert report.total_runtime_seconds > 0.0
        assert report.workers == [outcome.worker]

    def test_stale_outcomes_do_not_double_count(self, tmp_path):
        # run_plan registers its cell jobs every time; on a warm re-run the
        # done records predate the batch, so their recorded replays must not
        # fold into the runner's accounting a second time.
        spec = ExperimentSpec(
            systems=("BL",), applications=("spmv",), fidelity=TINY_FIDELITY
        )
        service = inline_service_runner(tmp_path / "cache")
        service.run_plan(spec)
        cold_replays = service.replays
        assert cold_replays > 0
        service.run_plan(spec)
        assert service.replays == cold_replays
        warm_report = service.service_reports[-1]
        assert warm_report.replays == 0
        assert all(not o.fresh for o in warm_report.outcomes.values())
        assert all(o.replays > 0 for o in warm_report.outcomes.values())

    def test_counters_fold_back_into_coordinator_cache(self, tmp_path, kmeans_profile):
        service = inline_service_runner(tmp_path / "cache")
        service.run_configs(kmeans_profile, [tiny_config()])
        # The inline executor ran on its own runner; its store shows up in
        # the coordinator's counters via absorb_counters.
        assert service.disk_cache.replay_stores == 1

    def test_failed_job_raises_with_details(self, tmp_path):
        from repro.runner.queue import Job

        service = ExperimentService(
            cache_dir=str(tmp_path / "cache"),
            queue=InProcessQueue(),
            spawn_workers=False,
        )
        with pytest.raises(RuntimeError, match="mystery"):
            service.run([Job(job_id="bad-1", kind="mystery")])

    def test_drain_times_out_with_queue_counts(self, tmp_path):
        service = ExperimentService(
            cache_dir=str(tmp_path / "cache"),
            queue=InProcessQueue(),
            spawn_workers=False,
            wait_timeout_seconds=0.05,
            poll_seconds=0.01,
        )
        with pytest.raises(RuntimeError, match="timed out"):
            service.drain(["never-submitted"])


class TestStaleDoneSelfHealing:
    def test_pruned_measurement_is_recomputed(self, tmp_path, kmeans_profile):
        # A done record whose measurement was pruned afterwards must not
        # shadow the work forever: the coordinator forgets it and re-runs.
        config = tiny_config()
        service = inline_service_runner(tmp_path / "cache")
        service.run_configs(kmeans_profile, [config])
        assert service.replays == 1
        # Prune every cached result, keep the queue's done record.
        service.disk_cache.prune(tier=service.disk_cache.MEASUREMENTS_TIER)
        service.disk_cache.prune(tier=service.disk_cache.STATS_TIER)
        service.clear_memory_cache()
        again = service.run_configs(kmeans_profile, [config])
        assert len(again) == 1
        assert service.replays == 2  # genuinely re-replayed
        assert _measurement_files(service.cache_dir) == 1


class TestWorkerLoop:
    def test_drain_and_exit_executes_pending_jobs(self, tmp_path, kmeans_profile):
        # worker_loop is the `python -m repro.runner serve` daemon body; run
        # it inline against a FileQueue so the CLI path is covered without
        # forking.
        config = tiny_config()
        key = RunSpec(kmeans_profile, config, DEFAULT_ENERGIES).replay_key()
        queue = FileQueue(tmp_path / "queue")
        queue.submit(replay_job(kmeans_profile, config, key))
        executed = worker_loop(
            queue,
            str(tmp_path / "cache"),
            worker_id="test-worker",
            drain_and_exit=True,
        )
        assert executed == 1
        status = queue.status(f"{REPLAY_JOB}-{key}")
        assert status.state == DONE
        assert status.worker == "test-worker"
        assert status.result["ok"] is True
        assert _measurement_files(tmp_path / "cache") == 1

    def test_stop_file_halts_the_loop(self, tmp_path):
        queue = FileQueue(tmp_path / "queue")
        stop = tmp_path / "queue" / "stop"
        stop.write_text("stop\n")
        executed = worker_loop(
            queue, str(tmp_path / "cache"), stop_file=str(stop)
        )
        assert executed == 0

    def test_failing_job_completes_with_error(self, tmp_path):
        from repro.runner.queue import Job

        queue = FileQueue(tmp_path / "queue")
        queue.submit(Job(job_id="bad-1", kind="mystery"))
        executed = worker_loop(
            queue, str(tmp_path / "cache"), drain_and_exit=True
        )
        assert executed == 1
        status = queue.status("bad-1")
        assert status.state == DONE
        assert status.result["ok"] is False
        assert "mystery" in status.result["error"]


_CRASHY_WORKER = """
import sys, time
from repro.runner.queue import FileQueue
queue = FileQueue(sys.argv[1])
job = queue.claim("crashy", lease_seconds=float(sys.argv[2]))
print("claimed" if job is not None else "empty", flush=True)
time.sleep(120)
"""


class TestCrashResume:
    def test_killed_worker_job_requeued_once_and_result_bit_identical(
        self, tmp_path, kmeans_profile
    ):
        # The satellite acceptance path, end to end: a worker claims a job
        # and is SIGKILLed mid-lease; the lease expires, exactly one requeue
        # happens, the resumed run completes bit-identically to serial with
        # zero duplicate replay-tier stores.
        config = tiny_config()
        key = RunSpec(kmeans_profile, config, DEFAULT_ENERGIES).replay_key()
        job = replay_job(kmeans_profile, config, key)
        queue_dir = tmp_path / "cache" / "queue"
        queue = FileQueue(queue_dir)
        queue.submit(job)

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        lease = "0.3"
        process = subprocess.Popen(
            [sys.executable, "-c", _CRASHY_WORKER, str(queue_dir), lease],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            assert process.stdout.readline().strip() == "claimed"
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)

        # Mid-lease: the job is leased to the (dead) worker, not expired yet.
        assert queue.status(job.job_id).state == "leased"
        assert queue.requeue_expired() == []
        time.sleep(0.35)
        # Exactly one sweeper wins the requeue; the second sweep is empty.
        assert queue.requeue_expired() == [job.job_id]
        assert queue.requeue_expired() == []
        assert queue.status(job.job_id).attempts == 1

        # Resume: drain the requeued job through the service coordinator.
        service = ExperimentService(
            cache_dir=str(tmp_path / "cache"), queue=queue, spawn_workers=False
        )
        runner = ExperimentRunner(
            cache_dir=tmp_path / "cache", max_workers=0, backend="service"
        )
        runner._service = DistributedBackend(service)
        resumed = runner.run_configs(kmeans_profile, [config])

        serial = ExperimentRunner(cache_dir=tmp_path / "serial", max_workers=0)
        expected = serial.run_configs(kmeans_profile, [config])
        assert _stats_dicts(resumed) == _stats_dicts(expected)
        assert _measurement_files(tmp_path / "cache") == 1
        assert runner.disk_cache.replay_stores == 1  # zero duplicate stores
        (report,) = runner.service_reports
        (outcome,) = report.outcomes.values()
        assert outcome.attempts == 1  # the crashed attempt is on record
        assert outcome.fresh


class TestSpawnedWorkers:
    def test_cold_plan_with_spawned_daemons_matches_serial(self, tmp_path):
        # The real multi-process path: FileQueue + forked worker daemons.
        spec = ExperimentSpec(
            systems=("BL",),
            applications=("spmv", "kmeans"),
            fidelity=TINY_FIDELITY,
        )
        serial = ExperimentRunner(cache_dir=tmp_path / "serial", max_workers=0)
        expected = serial.run_plan(spec)
        service = ExperimentRunner(
            cache_dir=tmp_path / "service", max_workers=2, backend="service"
        )
        try:
            actual = service.run_plan(spec)
            for (cell_a, stats_a), (cell_b, stats_b) in zip(expected, actual):
                assert cell_a == cell_b
                assert dataclasses.asdict(stats_a) == dataclasses.asdict(stats_b)
            assert service.replays == serial.replays
        finally:
            service.close()

    def test_close_is_idempotent_and_context_manager_closes(self, tmp_path):
        with ExperimentRunner(
            cache_dir=tmp_path / "cache", max_workers=1, backend="service"
        ) as runner:
            pass
        runner.close()  # second close is a no-op
