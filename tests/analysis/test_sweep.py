"""Tests for the Figure 1/2 sweep helpers and the stats they normalize."""

import pytest

from fidelity_utils import TINY_FIDELITY
from repro.analysis.sweep import (
    best_configuration,
    llc_scaling_speedups,
    normalized_ipc_curve,
    sm_count_sweep,
    sweep_config,
)
from repro.gpu.config import RTX3080_CONFIG
from repro.runner.runner import ExperimentRunner
from repro.sim.stats import SimulationStats


def stats(ipc=1.0, execution_cycles=0.0, performance_per_watt=0.0, **fields):
    return SimulationStats(
        application=fields.pop("application", "kmeans"),
        system=fields.pop("system", "BL"),
        num_compute_sms=fields.pop("num_compute_sms", 68),
        ipc=ipc,
        execution_cycles=execution_cycles,
        performance_per_watt=performance_per_watt,
        **fields,
    )


class TestSimulationStats:
    def test_normalized_execution_time(self):
        baseline = stats(execution_cycles=200.0)
        assert stats(execution_cycles=50.0).normalized_execution_time(baseline) == 0.25
        assert stats(execution_cycles=50.0).normalized_execution_time(stats()) == 0.0

    def test_normalized_perf_per_watt(self):
        baseline = stats(performance_per_watt=0.5)
        assert stats(performance_per_watt=1.5).normalized_perf_per_watt(baseline) == 3.0
        assert stats(performance_per_watt=1.5).normalized_perf_per_watt(stats()) == 0.0

    def test_summary_names_run_and_bottleneck(self):
        line = stats(ipc=12.5, system="Morpheus-ALL", bottleneck="dram").summary()
        assert "kmeans" in line
        assert "Morpheus-ALL" in line
        assert "IPC=  12.50" in line
        assert line.endswith("bottleneck=dram")


class TestNormalization:
    def test_ipc_curve_is_relative_to_smallest_sm_count(self):
        sweep = {30: stats(ipc=5.0), 10: stats(ipc=2.0), 20: stats(ipc=4.0)}
        curve = normalized_ipc_curve(sweep)
        assert list(curve) == [10, 20, 30]
        assert curve == {10: 1.0, 20: 2.0, 30: 2.5}
        assert normalized_ipc_curve({}) == {}

    def test_ipc_curve_rejects_zero_baseline(self):
        with pytest.raises(ValueError):
            normalized_ipc_curve({10: stats(ipc=0.0), 20: stats(ipc=1.0)})

    def test_llc_speedups_are_relative_to_1x(self):
        sweep = {4.0: stats(ipc=6.0), 1.0: stats(ipc=2.0), 2.0: stats(ipc=3.0)}
        assert llc_scaling_speedups(sweep) == {1.0: 1.0, 2.0: 1.5, 4.0: 3.0}
        with pytest.raises(ValueError):
            llc_scaling_speedups({2.0: stats(ipc=3.0)})
        with pytest.raises(ValueError):
            llc_scaling_speedups({1.0: stats(ipc=0.0)})


class TestSweeps:
    def test_sweep_config_carries_fidelity(self):
        config = sweep_config(RTX3080_CONFIG, 42, TINY_FIDELITY, seed=3)
        assert config.num_compute_sms == 42
        assert config.capacity_scale == TINY_FIDELITY.capacity_scale
        assert config.trace_accesses == TINY_FIDELITY.trace_accesses
        assert config.warmup_accesses == TINY_FIDELITY.warmup_accesses
        assert (config.system_name, config.seed, config.power_gate_unused) == ("sweep", 3, True)

    def test_sm_count_sweep_skips_counts_above_the_gpu(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        gpu = RTX3080_CONFIG.with_num_sms(20)
        sweep = sm_count_sweep(
            "kmeans", (10, 20, 30), gpu=gpu, fidelity=TINY_FIDELITY, runner=runner
        )
        assert sorted(sweep) == [10, 20]
        assert [sweep[count].num_compute_sms for count in (10, 20)] == [10, 20]

    def test_best_configuration_needs_a_fitting_candidate(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path / "cache", max_workers=0)
        with pytest.raises(ValueError):
            best_configuration(
                "kmeans", RTX3080_CONFIG, sm_candidates=(100,),
                fidelity=TINY_FIDELITY, runner=runner,
            )
        assert runner.replays == 0
