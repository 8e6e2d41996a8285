"""Tests for the GPU configuration and the interconnect."""

import pytest

from repro.gpu.config import GPUConfig, RTX3080_CONFIG
from repro.interconnect.network import InterconnectConfig, InterconnectNetwork


class TestGPUConfig:
    def test_rtx3080_table1_parameters(self):
        config = RTX3080_CONFIG
        assert config.num_sms == 68
        assert config.llc.capacity_bytes == 5 * 1024 * 1024
        assert config.llc.num_partitions == 10
        assert config.dram.capacity_bytes == 10 * 1024 ** 3
        assert config.l1_shared_bytes_per_sm == 128 * 1024
        assert config.register_file_bytes_per_sm == 256 * 1024
        assert config.warps_per_sm == 48

    def test_with_num_sms(self):
        assert RTX3080_CONFIG.with_num_sms(20).num_sms == 20
        with pytest.raises(ValueError):
            RTX3080_CONFIG.with_num_sms(100)

    def test_with_llc_scale(self):
        scaled = RTX3080_CONFIG.with_llc_scale(4)
        assert scaled.llc.capacity_bytes == pytest.approx(20 * 1024 * 1024, rel=0.01)

    def test_frequency_boost_scales_memory_system(self):
        boosted = RTX3080_CONFIG.with_frequency_boost(1.2)
        assert boosted.dram.bandwidth_gbps_per_channel == pytest.approx(76.0 * 1.2)
        assert boosted.llc.hit_latency_cycles < RTX3080_CONFIG.llc.hit_latency_cycles
        assert boosted.interconnect.bytes_per_cycle_per_port > RTX3080_CONFIG.interconnect.bytes_per_cycle_per_port

    def test_with_extra_l1(self):
        bigger = RTX3080_CONFIG.with_extra_l1(100 * 1024)
        assert bigger.l1_shared_bytes_per_sm == 228 * 1024

    def test_partition_mismatch_rejected(self):
        from repro.memory.llc import LLCConfig

        with pytest.raises(ValueError):
            GPUConfig(llc=LLCConfig(num_partitions=5, capacity_bytes=5 * 1024 * 1024))

    def test_invalid_core_counts_rejected(self):
        with pytest.raises(ValueError):
            GPUConfig(num_sms=0)
        with pytest.raises(ValueError):
            GPUConfig(warps_per_sm=0)
        with pytest.raises(ValueError):
            GPUConfig(threads_per_warp=0)
        with pytest.raises(ValueError):
            RTX3080_CONFIG.with_num_sms(0)

    def test_with_llc_capacity_is_exact(self):
        resized = RTX3080_CONFIG.with_llc_capacity(10 * 300 * 1024)
        assert resized.llc.capacity_bytes == 10 * 300 * 1024
        assert resized.llc.partition_capacity_bytes == 300 * 1024
        assert resized.num_sms == RTX3080_CONFIG.num_sms
        # The capacity must split evenly over the 10 partitions.
        with pytest.raises(ValueError):
            RTX3080_CONFIG.with_llc_capacity(3 * 1024 * 1024)

    def test_frequency_boost_keeps_capacities(self):
        boosted = RTX3080_CONFIG.with_frequency_boost(1.5)
        llc, base = boosted.llc, RTX3080_CONFIG.llc
        assert (llc.capacity_bytes, llc.num_partitions, llc.associativity, llc.mshr_entries) == (
            base.capacity_bytes, base.num_partitions, base.associativity, base.mshr_entries
        )
        assert llc.bandwidth_gbps_per_partition == pytest.approx(
            base.bandwidth_gbps_per_partition * 1.5
        )
        assert boosted.interconnect.one_way_latency_cycles == pytest.approx(
            RTX3080_CONFIG.interconnect.one_way_latency_cycles / 1.5
        )
        assert boosted.dram.capacity_bytes == RTX3080_CONFIG.dram.capacity_bytes

    def test_frequency_boost_rejects_non_positive_factor(self):
        with pytest.raises(ValueError):
            RTX3080_CONFIG.with_frequency_boost(0.0)

    def test_extra_l1_grows_l1_cache_and_rejects_negative(self):
        bigger = RTX3080_CONFIG.with_extra_l1(32 * 1024)
        assert bigger.l1_cache_bytes_per_sm == RTX3080_CONFIG.l1_cache_bytes_per_sm + 32 * 1024
        assert bigger.register_file_bytes_per_sm == RTX3080_CONFIG.register_file_bytes_per_sm
        with pytest.raises(ValueError):
            RTX3080_CONFIG.with_extra_l1(-1)


class TestInterconnect:
    def test_link_serialization_and_queueing(self):
        network = InterconnectNetwork(
            InterconnectConfig(bytes_per_cycle_per_port=64, one_way_latency_cycles=10)
        )
        first = network.traverse(0, 128, now_cycle=0.0)
        second = network.traverse(0, 128, now_cycle=0.0)
        assert second > first  # the second traversal queues behind the first

    def test_port_tracks_bytes(self):
        network = InterconnectNetwork(
            InterconnectConfig(bytes_per_cycle_per_port=64, one_way_latency_cycles=5)
        )
        network.traverse(3, 32, 0.0, response_bytes=128)
        assert network.total_load_bytes() == 160

    def test_non_positive_sizes_rejected(self):
        network = InterconnectNetwork()
        with pytest.raises(ValueError):
            network.traverse(0, 0, 0.0)
        with pytest.raises(ValueError):
            network.traverse(0, 32, 0.0, response_bytes=0)

    def test_network_round_trip_latency(self):
        network = InterconnectNetwork()
        latency = network.traverse(0, 32, now_cycle=0.0)
        assert latency >= 2 * network.config.one_way_latency_cycles

    def test_network_stats(self):
        network = InterconnectNetwork()
        for i in range(10):
            network.traverse(i % network.config.num_partitions, 32, now_cycle=i * 2.0)
        assert network.stats.traversals == 10
        assert network.stats.average_latency_cycles > 0
        assert network.total_load_bytes() > 0

    def test_invalid_partition_rejected(self):
        network = InterconnectNetwork()
        with pytest.raises(ValueError):
            network.traverse(99, 32, 0.0)

    def test_congestion_penalty_kicks_in_at_high_load(self):
        config = InterconnectConfig(bytes_per_cycle_per_port=1.0, congestion_knee=0.1)
        network = InterconnectNetwork(config)
        # Saturate port 0 and compare against an unloaded traversal.
        unloaded = network.traverse(1, 32, 0.0, elapsed_cycles=1000.0)
        for _ in range(50):
            network.traverse(0, 32, 0.0, elapsed_cycles=10.0)
        loaded = network.traverse(0, 32, 0.0, elapsed_cycles=10.0)
        assert loaded > unloaded

    def test_reset(self):
        network = InterconnectNetwork()
        network.traverse(0, 32, 0.0)
        network.reset()
        assert network.stats.traversals == 0
        assert network.total_load_bytes() == 0
