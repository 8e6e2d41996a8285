"""Property tests: the indexed cache set against a linear-scan oracle.

``CacheSet`` finds tags through a ``tag -> way`` index and ``LRUPolicy``
keeps its ways in recency order.  On random access/fill/invalidate
sequences both must behave exactly like the scanning model in
``cache_oracle.py``: same lookups, victims, writebacks and occupancy.
``ExtendedLLCSet``'s running byte count must equal the re-summed one.
"""

from hypothesis import given, settings, strategies as st

from repro.core.compression import CompressionLevel
from repro.core.store_base import ExtendedLLCSet
from repro.memory.cache import CacheSet, SetAssociativeCache
from repro.memory.replacement import LRUPolicy

from cache_oracle import LinearScanCacheSet

POLICIES = ("lru", "fifo", "random")

OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(("access", "fill", "invalidate")),
        st.integers(min_value=0, max_value=23),
        st.booleans(),
    ),
    min_size=1,
    max_size=200,
)


def _block(block):
    return None if block is None else (block.tag, block.dirty)


@given(
    policy=st.sampled_from(POLICIES),
    associativity=st.integers(min_value=1, max_value=8),
    operations=OPERATIONS,
)
@settings(max_examples=150, deadline=None)
def test_cache_set_matches_linear_scan(policy, associativity, operations):
    indexed = CacheSet(associativity, policy)
    oracle = LinearScanCacheSet(associativity, policy)
    for kind, tag, flag in operations:
        if kind == "access":
            assert indexed.access(tag, flag) == oracle.access(tag, flag)
        elif kind == "fill":
            assert _block(indexed.fill(tag, dirty=flag)) == oracle.fill(tag, dirty=flag)
        else:
            assert _block(indexed.invalidate(tag)) == oracle.invalidate(tag)
        assert indexed.occupancy() == oracle.occupancy()
        assert indexed.tags() == oracle.tags()
        for probe in range(24):
            assert indexed.lookup(probe) == oracle.lookup(probe)


@given(
    policy=st.sampled_from(POLICIES),
    write_allocate=st.booleans(),
    accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=63), st.booleans()),
        min_size=1,
        max_size=300,
    ),
)
@settings(max_examples=100, deadline=None)
def test_cache_writebacks_match_linear_scan(policy, write_allocate, accesses):
    block, ways, num_sets = 128, 4, 2
    cache = SetAssociativeCache(
        block * ways * num_sets, block, ways, policy=policy, write_allocate=write_allocate
    )
    oracles = [LinearScanCacheSet(ways, policy) for _ in range(num_sets)]
    for block_number, is_write in accesses:
        address = block_number * block + 5
        set_index = block_number % num_sets
        tag = block_number // num_sets
        expected_writeback = None
        hit = oracles[set_index].access(tag, is_write)
        if not hit and (not is_write or write_allocate):
            victim = oracles[set_index].fill(tag, dirty=is_write)
            if victim is not None and victim[1]:
                expected_writeback = (victim[0] * num_sets + set_index) * block
        assert cache.access(address, is_write=is_write) == (hit, expected_writeback)
        assert cache.occupancy() == sum(oracle.occupancy() for oracle in oracles)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_lru_victim_matches_timestamp_minimum(data):
    associativity = data.draw(st.integers(min_value=1, max_value=8))
    ways = st.integers(min_value=0, max_value=associativity - 1)
    events = data.draw(st.lists(st.tuples(st.sampled_from(("use", "use", "invalidate")), ways)))
    candidates = data.draw(st.lists(ways, min_size=1, unique=True))
    policy = LRUPolicy(associativity)
    stamps, clock = {}, 0
    for kind, way in events:
        if kind == "use":
            policy.on_access(way)
            clock += 1
            stamps[way] = clock
        else:
            policy.on_invalidate(way)
            stamps.pop(way, None)
    assert policy.victim(candidates) == min(candidates, key=lambda way: stamps.get(way, -1))
    every_way = range(associativity)
    assert policy.victim(every_way) == min(every_way, key=lambda way: stamps.get(way, -1))


@given(
    compression_enabled=st.booleans(),
    base_ways=st.integers(min_value=1, max_value=6),
    operations=st.lists(
        st.tuples(
            st.sampled_from(("access", "fill", "invalidate")),
            st.integers(min_value=0, max_value=30),
            st.sampled_from(list(CompressionLevel)),
            st.booleans(),
        ),
        min_size=1,
        max_size=200,
    ),
)
@settings(max_examples=150, deadline=None)
def test_extended_set_running_bytes_match_resum(compression_enabled, base_ways, operations):
    llc_set = ExtendedLLCSet(base_ways, compression_enabled=compression_enabled)
    for kind, tag, level, flag in operations:
        if kind == "access":
            llc_set.access(tag, is_write=flag)
        elif kind == "fill":
            llc_set.fill(tag, dirty=flag, compression=level)
        else:
            llc_set.invalidate(tag)
        resummed = sum(
            llc_set.metadata(resident).compression.compressed_size
            if compression_enabled
            else llc_set.block_size
            for resident in llc_set.tags()
        )
        assert llc_set.occupancy_bytes() == resummed


@given(
    compression_enabled=st.booleans(),
    base_ways=st.integers(min_value=1, max_value=6),
    operations=st.lists(
        st.tuples(
            st.sampled_from(("access", "fill", "fill", "invalidate")),
            st.integers(min_value=0, max_value=30),
            st.sampled_from(list(CompressionLevel)),
            st.booleans(),
        ),
        min_size=1,
        max_size=200,
    ),
)
@settings(max_examples=150, deadline=None)
def test_extended_set_evicts_lowest_lru_counters_first(compression_enabled, base_ways, operations):
    """The recency-ordered set evicts exactly as a minimum over LRU counters would."""
    llc_set = ExtendedLLCSet(base_ways, compression_enabled=compression_enabled)
    for kind, tag, level, flag in operations:
        by_counter = sorted(llc_set.tags(), key=lambda t: llc_set.metadata(t).lru_counter)
        if kind == "access":
            llc_set.access(tag, is_write=flag)
        elif kind == "fill":
            evicted = llc_set.fill(tag, dirty=flag, compression=level)
            assert [victim for victim, _ in evicted] == by_counter[: len(evicted)]
        else:
            llc_set.invalidate(tag)
        assert llc_set.tags() == sorted(
            llc_set.tags(), key=lambda t: llc_set.metadata(t).lru_counter
        )
