"""Tests for the banked LLC and the DRAM model."""

import pytest

from repro.memory.dram import DRAMConfig, DRAMModel
from repro.memory.llc import BankedLLC, LLCConfig, LLCPartition


class TestLLCConfig:
    def test_partition_capacity(self):
        config = LLCConfig()
        assert config.partition_capacity_bytes == 5 * 1024 * 1024 // 10

    def test_scaled_capacity_multiplies(self):
        config = LLCConfig().scaled_capacity(4.0)
        assert config.capacity_bytes == pytest.approx(4 * 5 * 1024 * 1024, rel=0.01)

    def test_scaled_capacity_rejects_non_positive(self):
        with pytest.raises(ValueError):
            LLCConfig().scaled_capacity(0)

    def test_capacity_must_divide_partitions(self):
        with pytest.raises(ValueError):
            LLCConfig(capacity_bytes=1001, num_partitions=10)


class TestLLCPartition:
    def test_miss_then_hit(self):
        partition = LLCPartition(0, LLCConfig())
        hit, latency, _ = partition.access(0, False, 128, 0.0)
        assert not hit
        assert latency >= partition.config.hit_latency_cycles
        hit, _, _ = partition.access(0, False, 128, 10.0)
        assert hit

    def test_dirty_eviction_reports_writeback(self):
        config = LLCConfig(capacity_bytes=10 * 2048, associativity=1, num_partitions=10)
        partition = LLCPartition(0, config)
        sets = partition.num_sets
        partition.access(0, True, 128, 0.0)
        _, _, writeback = partition.access(sets * 128, False, 128, 1.0)
        assert writeback == 0

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ValueError):
            LLCPartition(0, LLCConfig(capacity_bytes=10 * 96 * 16, block_size=96))

    def test_invalid_access_rejected(self):
        partition = LLCPartition(0, LLCConfig())
        with pytest.raises(ValueError):
            partition.access(-128, False, 128, 0.0)
        with pytest.raises(ValueError):
            partition.access(0, False, 0, 0.0)

    def test_throughput_accounting(self):
        partition = LLCPartition(0, LLCConfig())
        partition.access(0, False, 128, 0.0)
        assert partition.throughput_gbps(elapsed_cycles=100.0) > 0.0

    def test_reset(self):
        partition = LLCPartition(0, LLCConfig())
        partition.access(0, False, 128, 0.0)
        partition.reset()
        assert partition.stats.accesses == 0
        assert partition.occupancy() == 0
        assert partition.requests_served == 0


class TestBankedLLC:
    def test_total_capacity_close_to_config(self):
        llc = BankedLLC()
        assert llc.total_capacity_bytes() == pytest.approx(5 * 1024 * 1024, rel=0.05)

    def test_requests_routed_by_address(self):
        llc = BankedLLC()
        assert llc.partition_for(128 * 3).partition_id == 3

    def test_aggregate_stats(self):
        llc = BankedLLC()
        for i in range(20):
            llc.access(i * 128, False, 128, now_cycle=float(i))
        stats = llc.aggregate_stats()
        assert stats.accesses == 20
        assert stats.misses == 20

    def test_reset(self):
        llc = BankedLLC()
        llc.access(0, False, 128)
        llc.reset()
        assert llc.aggregate_stats().accesses == 0


class TestDRAMConfig:
    def test_bytes_per_cycle(self):
        config = DRAMConfig()
        assert config.bytes_per_cycle_per_channel == pytest.approx(76.0 / 1.44)

    def test_total_bandwidth(self):
        config = DRAMConfig()
        assert config.total_bandwidth_gbps == pytest.approx(760.0)

    def test_scaled_raises_bandwidth_and_lowers_latency(self):
        boosted = DRAMConfig().scaled(1.2)
        base = DRAMConfig()
        assert boosted.bandwidth_gbps_per_channel > base.bandwidth_gbps_per_channel
        assert boosted.access_latency_cycles < base.access_latency_cycles

    def test_invalid_row_buffer_rate(self):
        with pytest.raises(ValueError):
            DRAMConfig(row_buffer_hit_rate=1.5)


class TestDRAMModel:
    def test_latency_includes_core_latency(self):
        dram = DRAMModel()
        latency = dram.access(0, 128, now_cycle=0.0)
        assert latency >= dram.config.access_latency_cycles * dram.config.row_buffer_hit_latency_factor

    def test_queueing_under_load(self):
        config = DRAMConfig(num_channels=1, bandwidth_gbps_per_channel=1.44)  # 1 B/cycle
        dram = DRAMModel(config)
        # Saturate the single channel: issue many requests at the same cycle.
        latencies = [dram.access(0, 128, now_cycle=0.0) for _ in range(10)]
        assert latencies[-1] > latencies[0]

    def test_channel_interleaving(self):
        dram = DRAMModel()
        for i in range(10):
            dram.access(i * 128, 128, now_cycle=0.0)
        per_channel = dram.per_channel_accesses()
        assert all(count == 1 for count in per_channel.values())

    def test_invalid_access_rejected(self):
        dram = DRAMModel()
        with pytest.raises(ValueError):
            dram.access(-1, 128, 0.0)
        with pytest.raises(ValueError):
            dram.access(0, 0, 0.0)

    def test_bandwidth_utilization_bounded(self):
        dram = DRAMModel()
        for i in range(100):
            dram.access(i * 128, 128, now_cycle=float(i))
        assert 0.0 < dram.bandwidth_utilization(elapsed_cycles=100.0) <= 1.0

    def test_reset(self):
        dram = DRAMModel()
        dram.access(0, 128, 0.0)
        dram.reset()
        assert dram.total_accesses == 0
        assert dram.total_bytes == 0
