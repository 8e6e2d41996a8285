"""The extended LLC's construction-time tables against per-call oracles.

``ExtendedLLC`` resolves every global set to its owner once, each kernel
resolves the 64-slot store split once, and the controller counts its
extended sets once.  Each table must agree with the per-access computation
it replaced (kept in ``extended_llc_oracles.py``) everywhere it is read.
"""

import pytest

from repro.core.address_separation import PROPORTIONAL_SPLIT_PERIOD, proportional_split
from repro.core.config import MorpheusConfig
from repro.core.controller import MorpheusController
from repro.core.extended_llc import Compressibility, ExtendedLLC
from repro.memory.llc import LLCConfig, LLCPartition

from extended_llc_oracles import (
    routed_store,
    walking_extended_sets_per_partition,
    walking_owner_of_set,
    walking_proportional_split,
    walking_total_sets,
)

CONFIGS = {
    "basic": MorpheusConfig(),
    "all": MorpheusConfig(enable_compression=True, enable_indirect_mov_isa=True),
    "shared-memory": MorpheusConfig(
        enable_compression=True, rf_warps=16, l1_warps=8, shared_memory_warps=8
    ),
    "rf-only": MorpheusConfig(rf_warps=24, l1_warps=0),
}

SM_LAYOUTS = {
    "single": [7],
    "contiguous": list(range(40, 68)),
    "non-contiguous": [3, 9, 10, 41, 66, 12],
}


def build(config_name: str, layout: str, scale: float = 1.0) -> ExtendedLLC:
    return ExtendedLLC(
        cache_sm_ids=SM_LAYOUTS[layout],
        config=CONFIGS[config_name],
        register_file_bytes=max(512, int(256 * 1024 * scale)),
        l1_shared_bytes=max(512, int(128 * 1024 * scale)),
        compressibility=Compressibility(0.4, 0.3),
    )


@pytest.mark.parametrize("layout", sorted(SM_LAYOUTS))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
class TestOwnerTable:
    def test_total_sets_matches_resummed_total(self, config_name, layout):
        llc = build(config_name, layout)
        assert llc.total_sets == walking_total_sets(llc)

    def test_every_global_set_maps_like_the_walk(self, config_name, layout):
        llc = build(config_name, layout)
        for global_set in range(3 * llc.total_sets):
            sm_id, kernel, local_set = llc.owner_of_set(global_set)
            ref_sm, ref_kernel, ref_local = walking_owner_of_set(llc, global_set)
            assert (sm_id, local_set) == (ref_sm, ref_local)
            assert kernel is ref_kernel


@pytest.mark.parametrize("scale", [1.0, 1.0 / 32.0])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_store_slots_match_per_call_split(config_name, scale):
    llc = build(config_name, "non-contiguous", scale)
    block = llc.config.block_size
    for kernel in llc.kernels.values():
        for slot in range(PROPORTIONAL_SPLIT_PERIOD):
            # The same slot recurs every period; offsets inside a block do
            # not change the block's store.
            for address in (slot * block, (slot + 5 * PROPORTIONAL_SPLIT_PERIOD) * block + 17):
                name, store = kernel._store_for(address)
                assert name == routed_store(kernel, address)
                assert store is kernel.stores[name]


@pytest.mark.parametrize(
    "capacities",
    [
        [("register_file", 100)],
        [("register_file", 3), ("l1", 1)],
        [("register_file", 1), ("l1", 0), ("shared_memory", 1_000)],
        [("a", 1), ("b", 1), ("c", 1)],
        [("a", 1_000_000), ("b", 1), ("c", 1), ("d", 1)],
        [(name, 1) for name in "abcdefghij"],
    ],
)
def test_proportional_split_matches_the_walk(capacities):
    for block in range(3 * PROPORTIONAL_SPLIT_PERIOD):
        assert proportional_split(capacities, block * 128) == walking_proportional_split(
            capacities, block * 128, 128
        )


def test_shared_memory_config_routes_to_every_store():
    kernel = next(iter(build("shared-memory", "single").kernels.values()))
    block = kernel.config.block_size
    routed = {kernel._store_for(slot * block)[0] for slot in range(PROPORTIONAL_SPLIT_PERIOD)}
    assert routed == {"register_file", "l1", "shared_memory"}


@pytest.mark.parametrize("num_partitions", [1, 10, 64])
@pytest.mark.parametrize("layout", sorted(SM_LAYOUTS))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_extended_sets_per_partition_unchanged(config_name, layout, num_partitions):
    llc = build(config_name, layout)
    llc_config = LLCConfig(capacity_bytes=num_partitions * 128 * 1024, num_partitions=num_partitions)
    for partition_id in {0, num_partitions - 1}:
        controller = MorpheusController(
            LLCPartition(partition_id, llc_config), llc, CONFIGS[config_name]
        )
        expected = walking_extended_sets_per_partition(controller)
        assert controller.extended_sets_per_partition() == expected
        assert controller._global_set_base == partition_id * expected


def test_extended_sets_without_extended_llc():
    controller = MorpheusController(LLCPartition(2, LLCConfig()), None, MorpheusConfig())
    assert controller.extended_sets_per_partition() == 1
    assert walking_extended_sets_per_partition(controller) == 1


class TestOwnerValidation:
    def test_negative_global_set_rejected(self):
        with pytest.raises(ValueError):
            build("basic", "single").owner_of_set(-1)

    def test_empty_extended_llc_rejected(self):
        llc = ExtendedLLC(cache_sm_ids=[], config=MorpheusConfig())
        assert llc.total_sets == 0
        with pytest.raises(RuntimeError):
            llc.owner_of_set(0)

    def test_repeated_sm_rejected(self):
        with pytest.raises(ValueError):
            ExtendedLLC(cache_sm_ids=[4, 5, 4], config=MorpheusConfig())
