"""Tests for the extended LLC stores and the extended LLC kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compression import CompressionLevel
from repro.core.config import MorpheusConfig
from repro.core.extended_llc import Compressibility, ExtendedLLC, ExtendedLLCKernel
from repro.core.l1_store import L1Store
from repro.core.register_file_store import RegisterFileStore
from repro.core.shared_memory_store import SharedMemoryStore
from repro.core.store_base import ExtendedLLCSet
from repro.gpu.config import RTX3080_CONFIG


class TestExtendedLLCSet:
    def test_fill_then_hit(self):
        llc_set = ExtendedLLCSet(base_ways=4)
        llc_set.fill(10)
        assert llc_set.access(10)
        assert not llc_set.access(11)

    def test_lru_eviction(self):
        llc_set = ExtendedLLCSet(base_ways=2)
        llc_set.fill(1)
        llc_set.fill(2)
        llc_set.access(1)
        evicted = llc_set.fill(3)
        assert evicted and evicted[0][0] == 2

    def test_dirty_eviction_flagged(self):
        llc_set = ExtendedLLCSet(base_ways=1)
        llc_set.fill(1, dirty=True)
        evicted = llc_set.fill(2)
        assert evicted == [(1, True)]

    def test_compressed_blocks_increase_effective_ways(self):
        llc_set = ExtendedLLCSet(base_ways=2, compression_enabled=True)
        for tag in range(8):
            llc_set.fill(tag, compression=CompressionLevel.HIGH)
        # 2 ways x 128 B can hold 8 blocks of 32 B each.
        assert llc_set.occupancy() == 8

    def test_occupancy_bytes_never_exceeds_physical(self):
        llc_set = ExtendedLLCSet(base_ways=4, compression_enabled=True)
        for tag in range(100):
            level = CompressionLevel.HIGH if tag % 2 else CompressionLevel.UNCOMPRESSED
            llc_set.fill(tag, compression=level)
            assert llc_set.occupancy_bytes() <= llc_set.physical_bytes

    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_capacity_invariant_property(self, tags):
        llc_set = ExtendedLLCSet(base_ways=8, compression_enabled=True)
        levels = list(CompressionLevel)
        for tag in tags:
            llc_set.fill(tag, dirty=tag % 3 == 0, compression=levels[tag % 3])
        assert llc_set.occupancy_bytes() <= llc_set.physical_bytes


class TestRegisterFileStore:
    def test_single_warp_limited_by_registers_per_thread(self):
        capacity = RegisterFileStore.capacity_bytes_for_warps(1)
        assert capacity < 40 * 1024  # far below the 256 KiB register file

    def test_eight_warps_near_full_register_file(self):
        capacity = RegisterFileStore.capacity_bytes_for_warps(8)
        assert 200 * 1024 <= capacity <= 256 * 1024

    def test_48_warps_matches_paper_layout(self):
        # 48 sets x 32 blocks x 128 B = 192 KiB (Figure 8).
        assert RegisterFileStore.capacity_bytes_for_warps(48) == 192 * 1024

    def test_capacity_peaks_at_eight_warps(self):
        capacities = {w: RegisterFileStore.capacity_bytes_for_warps(w) for w in (1, 8, 16, 32, 48)}
        assert max(capacities, key=capacities.get) == 8

    def test_store_access_and_fill(self):
        store = RegisterFileStore(num_warps=4)
        assert not store.access(0, tag=7)
        store.fill(0, tag=7)
        assert store.access(0, tag=7)
        assert store.stats.hits == 1

    def test_invalid_set_rejected(self):
        store = RegisterFileStore(num_warps=2)
        with pytest.raises(ValueError):
            store.access(5, tag=0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RegisterFileStore(register_file_bytes=0)
        with pytest.raises(ValueError):
            RegisterFileStore(max_registers_per_thread=0)
        with pytest.raises(ValueError):
            RegisterFileStore(aux_registers_per_warp=-1)
        with pytest.raises(ValueError):
            RegisterFileStore.data_registers_per_warp(0)

    def test_store_fits_in_the_sm_register_file(self):
        register_file = RTX3080_CONFIG.register_file_bytes_per_sm
        for warps in (1, 8, 16, 32, 48):
            store = RegisterFileStore(num_warps=warps, register_file_bytes=register_file)
            assert store.data_capacity_bytes() == RegisterFileStore.capacity_bytes_for_warps(
                warps, register_file_bytes=register_file
            )
            assert store.data_capacity_bytes() <= register_file

    def test_effective_capacity_gains_only_when_compressing(self):
        plain = RegisterFileStore(num_warps=8)
        compressed = RegisterFileStore(num_warps=8, compression_enabled=True)
        assert plain.effective_capacity_bytes(2.0) == plain.data_capacity_bytes()
        assert compressed.effective_capacity_bytes(2.0) == 2 * compressed.data_capacity_bytes()
        with pytest.raises(ValueError):
            compressed.effective_capacity_bytes(0.5)

    def test_dirty_eviction_counted_in_store_stats(self):
        # One register-file warp limited to a single data register.
        store = RegisterFileStore(num_warps=1, max_registers_per_thread=11)
        assert store.ways_per_set == 1
        store.fill(0, tag=1, dirty=True)
        evicted = store.fill(0, tag=2)
        assert evicted == [(1, True)]
        assert (store.stats.fills, store.stats.evictions, store.stats.dirty_evictions) == (2, 1, 1)

    def test_reset_drops_contents_and_stats(self):
        store = RegisterFileStore(num_warps=2)
        store.fill(1, tag=9)
        assert store.access(1, tag=9)
        store.reset()
        assert store.stats.accesses == 0
        assert not store.access(1, tag=9)


class TestL1AndSharedStores:
    def test_l1_capacity_flat_with_warps(self):
        assert L1Store.capacity_bytes_for_warps(8) == pytest.approx(
            L1Store.capacity_bytes_for_warps(48), rel=0.05
        )

    def test_shared_capacity_flat_with_warps(self):
        assert SharedMemoryStore.capacity_bytes_for_warps(8) == pytest.approx(
            SharedMemoryStore.capacity_bytes_for_warps(48), rel=0.05
        )

    def test_l1_never_compresses(self):
        store = L1Store(num_warps=4, compression_enabled=True)
        assert not store.compression_enabled

    def test_shared_memory_tags_live_in_register_file(self):
        assert SharedMemoryStore(num_warps=4).tag_storage_location() == "register_file"

    def test_l1_bypasses_conventional_llc(self):
        assert L1Store(num_warps=4).fills_bypass_conventional_llc()

    def test_l1_store_spans_the_unified_l1(self):
        store = L1Store(num_warps=16, l1_bytes=RTX3080_CONFIG.l1_shared_bytes_per_sm)
        assert store.data_capacity_bytes() == 128 * 1024

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            L1Store(l1_bytes=0)
        with pytest.raises(ValueError):
            SharedMemoryStore(shared_memory_bytes=0)
        with pytest.raises(ValueError):
            L1Store.capacity_bytes_for_warps(0)
        with pytest.raises(ValueError):
            SharedMemoryStore.capacity_bytes_for_warps(0)

    def test_compression_level_kept_only_where_supported(self):
        shared = SharedMemoryStore(num_warps=4, compression_enabled=True)
        l1 = L1Store(num_warps=4, compression_enabled=True)
        for store in (shared, l1):
            store.fill(0, tag=3, compression=CompressionLevel.HIGH)
        assert shared.set_for(0).metadata(3).compression is CompressionLevel.HIGH
        assert l1.set_for(0).metadata(3).compression is CompressionLevel.UNCOMPRESSED


class TestExtendedLLCKernel:
    def test_capacity_combines_stores(self):
        kernel = ExtendedLLCKernel(sm_id=0, config=MorpheusConfig())
        total = kernel.physical_capacity_bytes()
        assert total > 256 * 1024  # register file portion plus L1 portion

    def test_compression_raises_effective_capacity(self):
        config = MorpheusConfig(enable_compression=True)
        kernel = ExtendedLLCKernel(
            sm_id=0, config=config, compressibility=Compressibility(0.5, 0.3)
        )
        assert kernel.effective_capacity_bytes() > kernel.physical_capacity_bytes()

    def test_miss_then_fill_then_hit(self):
        kernel = ExtendedLLCKernel(sm_id=0, config=MorpheusConfig())
        result = kernel.access(0, address=4096)
        assert not result.hit
        kernel.fill(0, address=4096)
        assert kernel.access(0, address=4096).hit

    def test_dirty_victims_reported_as_writebacks(self):
        config = MorpheusConfig(rf_warps=1, l1_warps=0)
        kernel = ExtendedLLCKernel(
            sm_id=0, config=config, register_file_bytes=8 * 1024, l1_shared_bytes=4 * 1024
        )
        ways = kernel.register_file_store.ways_per_set
        writebacks = []
        for i in range(ways + 4):
            result = kernel.fill(0, address=i * 128, dirty=True)
            writebacks.extend(result.writebacks)
        assert writebacks

    def test_indirect_mov_isa_reduces_latency(self):
        base = ExtendedLLCKernel(sm_id=0, config=MorpheusConfig())
        fast = ExtendedLLCKernel(sm_id=0, config=MorpheusConfig(enable_indirect_mov_isa=True))
        base.fill(0, address=0)
        fast.fill(0, address=0)
        assert fast.access(0, address=0).service_latency_ns < base.access(0, address=0).service_latency_ns

    def test_needs_at_least_one_store(self):
        with pytest.raises(ValueError):
            MorpheusConfig(rf_warps=0, l1_warps=0, shared_memory_warps=0)


class TestExtendedLLC:
    def test_aggregate_capacity_scales_with_cache_sms(self):
        config = MorpheusConfig()
        small = ExtendedLLC(cache_sm_ids=[0, 1], config=config)
        large = ExtendedLLC(cache_sm_ids=list(range(8)), config=config)
        assert large.physical_capacity_bytes() == 4 * small.physical_capacity_bytes()

    def test_set_ownership_round_trips(self):
        extended = ExtendedLLC(cache_sm_ids=[3, 7, 9], config=MorpheusConfig())
        for global_set in range(0, extended.total_sets, 17):
            sm_id, kernel, local = extended.owner_of_set(global_set)
            assert sm_id in (3, 7, 9)
            assert 0 <= local < kernel.num_sets

    def test_fill_then_resident(self):
        extended = ExtendedLLC(cache_sm_ids=[0], config=MorpheusConfig())
        assert not extended.resident(5, 1024)
        extended.fill(5, 1024)
        assert extended.resident(5, 1024)

    def test_access_hits_after_fill(self):
        extended = ExtendedLLC(cache_sm_ids=[0, 1], config=MorpheusConfig())
        extended.fill(10, 2048)
        assert extended.access(10, 2048).hit

    def test_bandwidth_scales_with_cache_sms(self):
        config = MorpheusConfig()
        assert ExtendedLLC([0, 1], config).aggregate_bandwidth_gbps() == pytest.approx(
            2 * config.timing.per_sm_extended_bandwidth_gbps
        )

    def test_empty_extended_llc_disabled(self):
        extended = ExtendedLLC(cache_sm_ids=[], config=MorpheusConfig())
        assert not extended.enabled

    def test_reset_clears_contents(self):
        extended = ExtendedLLC(cache_sm_ids=[0], config=MorpheusConfig())
        extended.fill(0, 512)
        extended.reset()
        assert not extended.resident(0, 512)
