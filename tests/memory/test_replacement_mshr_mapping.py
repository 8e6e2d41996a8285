"""Tests for replacement policies and address mapping."""

import pytest

from repro.memory.address_mapping import AddressMapping
from repro.memory.replacement import FIFOPolicy, LRUPolicy, RandomPolicy, make_replacement_policy


class TestLRUPolicy:
    def test_victim_is_least_recently_used(self):
        policy = LRUPolicy(4)
        for way in range(4):
            policy.on_insert(way)
        policy.on_access(0)
        assert policy.victim(range(4)) == 1

    def test_insert_counts_as_use(self):
        policy = LRUPolicy(2)
        policy.on_insert(0)
        policy.on_insert(1)
        assert policy.victim([0, 1]) == 0

    def test_invalidate_makes_way_preferred_victim(self):
        policy = LRUPolicy(2)
        policy.on_insert(0)
        policy.on_insert(1)
        policy.on_invalidate(1)
        assert policy.victim([0, 1]) == 1

    def test_out_of_range_way_rejected(self):
        policy = LRUPolicy(2)
        with pytest.raises(ValueError):
            policy.on_access(5)

    def test_empty_victim_rejected(self):
        policy = LRUPolicy(2)
        with pytest.raises(ValueError):
            policy.victim([])


class TestFIFOPolicy:
    def test_victim_is_oldest_insertion(self):
        policy = FIFOPolicy(3)
        policy.on_insert(2)
        policy.on_insert(0)
        policy.on_insert(1)
        policy.on_access(2)  # access must not change FIFO order
        assert policy.victim([0, 1, 2]) == 2


class TestRandomPolicy:
    def test_victim_among_candidates(self):
        policy = RandomPolicy(8, seed=3)
        for way in range(8):
            policy.on_insert(way)
        assert policy.victim([2, 5]) in (2, 5)

    def test_deterministic_with_seed(self):
        first = RandomPolicy(8, seed=9)
        second = RandomPolicy(8, seed=9)
        picks_a = [first.victim(range(8)) for _ in range(10)]
        picks_b = [second.victim(range(8)) for _ in range(10)]
        assert picks_a == picks_b


class TestFactory:
    def test_known_policies(self):
        assert isinstance(make_replacement_policy("lru", 4), LRUPolicy)
        assert isinstance(make_replacement_policy("fifo", 4), FIFOPolicy)
        assert isinstance(make_replacement_policy("random", 4), RandomPolicy)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_replacement_policy("plru", 4)


class TestAddressMapping:
    def test_round_robin_partitioning(self):
        mapping = AddressMapping(num_partitions=10, block_size=128)
        partitions = [mapping.partition_of(i * 128) for i in range(20)]
        assert partitions[:10] == list(range(10))
        assert partitions[10:] == list(range(10))

    def test_same_block_same_partition(self):
        mapping = AddressMapping(num_partitions=10, block_size=128)
        assert mapping.partition_of(1280) == mapping.partition_of(1280 + 127)

    def test_channels_default_to_partitions(self):
        mapping = AddressMapping(num_partitions=8)
        assert mapping.num_channels == 8

    def test_addresses_for_partition(self):
        mapping = AddressMapping(num_partitions=10, block_size=128)
        addresses = mapping.addresses_for_partition(3, count=5)
        assert len(addresses) == 5
        assert all(mapping.partition_of(address) == 3 for address in addresses)

    def test_invalid_partition_rejected(self):
        mapping = AddressMapping(num_partitions=4)
        with pytest.raises(ValueError):
            mapping.addresses_for_partition(7, count=1)

    def test_negative_address_rejected(self):
        mapping = AddressMapping()
        with pytest.raises(ValueError):
            mapping.partition_of(-1)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            AddressMapping(num_partitions=0)
        with pytest.raises(ValueError):
            AddressMapping(block_size=96)  # not a power of two
        with pytest.raises(ValueError):
            AddressMapping(num_channels=-1)

    def test_explicit_channel_count_interleaves_independently(self):
        mapping = AddressMapping(num_partitions=10, block_size=128, num_channels=4)
        address = 13 * 128
        assert mapping.partition_of(address) == 3
        assert mapping.channel_of(address) == 1
        channels = [mapping.channel_of(i * 128) for i in range(8)]
        assert channels == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_addresses_for_partition_from_start_block(self):
        mapping = AddressMapping(num_partitions=10, block_size=128)
        first = mapping.addresses_for_partition(2, count=3)
        later = mapping.addresses_for_partition(2, count=2, start_block=1)
        assert later == first[1:]
        assert len(set(mapping.block_number(a) for a in first)) == 3
        assert mapping.addresses_for_partition(2, count=0) == []
        with pytest.raises(ValueError):
            mapping.addresses_for_partition(2, count=-1)
