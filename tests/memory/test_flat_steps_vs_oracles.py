"""Property tests: the flat LLC-slice and DRAM steps against their request-object oracles.

``LLCPartition.access`` and ``DRAMModel.access`` take plain values and keep
their own set/channel state.  On random access sequences they must return
exactly (bit for bit) what the compositions in ``hierarchy_oracles.py``
return, and leave the same counters behind.
"""

from hypothesis import given, settings, strategies as st

from repro.memory.dram import DRAMConfig, DRAMModel
from repro.memory.llc import LLCConfig, LLCPartition
from repro.memory.request import AccessType, MemoryRequest

from hierarchy_oracles import ReferenceDRAM, ReferencePartition

ACCESSES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=47),            # block number
        st.booleans(),                                      # write
        st.sampled_from((32, 64, 128)),                     # size in bytes
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False),  # gap to the previous access
    ),
    min_size=1,
    max_size=250,
)


@given(
    associativity=st.integers(min_value=1, max_value=4),
    sets=st.sampled_from((1, 2, 4)),
    hit_latency=st.floats(min_value=1.0, max_value=300.0),
    accesses=ACCESSES,
)
@settings(max_examples=60, deadline=None)
def test_llc_partition_matches_set_associative_oracle(associativity, sets, hit_latency, accesses):
    config = LLCConfig(
        capacity_bytes=2 * sets * associativity * 128,
        num_partitions=2,
        associativity=associativity,
        hit_latency_cycles=hit_latency,
    )
    flat, oracle = LLCPartition(1, config), ReferencePartition(1, config)
    now = 0.0
    for block, is_write, size, gap in accesses:
        now += gap
        address = block * 128
        request = MemoryRequest(
            address, AccessType.STORE if is_write else AccessType.LOAD, size_bytes=size
        )
        assert flat.access(address, is_write, size, now) == oracle.access(request, now)
    assert flat.stats == oracle.cache.stats
    assert flat.occupancy() == oracle.cache.occupancy()
    assert (flat.bytes_served, flat.requests_served) == (
        oracle.bytes_served,
        oracle.requests_served,
    )


def test_llc_partition_oracle_covers_dirty_victims():
    config = LLCConfig(capacity_bytes=2 * 128, num_partitions=2, associativity=1)
    flat, oracle = LLCPartition(0, config), ReferencePartition(0, config)
    for address, is_write in ((0, True), (128, False), (0, False)):
        request = MemoryRequest(address, AccessType.STORE if is_write else AccessType.LOAD)
        assert flat.access(address, is_write, 128, 0.0) == oracle.access(request, 0.0)
    assert flat.stats.dirty_evictions == 1


@given(
    channels=st.integers(min_value=1, max_value=4),
    row_hit_rate=st.sampled_from((0.0, 0.37, 0.45, 1.0)),
    boost=st.sampled_from((1.0, 1.15)),
    accesses=ACCESSES,
)
@settings(max_examples=60, deadline=None)
def test_dram_matches_request_oracle(channels, row_hit_rate, boost, accesses):
    config = DRAMConfig(num_channels=channels, row_buffer_hit_rate=row_hit_rate).scaled(boost)
    flat, oracle = DRAMModel(config), ReferenceDRAM(config)
    now = 0.0
    for block, _, size, gap in accesses:
        now += gap
        address = block * 128
        assert flat.access(address, size, now) == oracle.access(
            MemoryRequest(address, size_bytes=size), now
        )
    assert flat.per_channel_accesses() == oracle.per_channel_accesses()
    assert (flat.total_accesses, flat.total_bytes) == (oracle.total_accesses, oracle.total_bytes)


def test_dram_row_buffer_toggle_alternates_latencies():
    config = DRAMConfig(num_channels=1)
    flat, oracle = DRAMModel(config), ReferenceDRAM(config)
    latencies = [flat.access(0, 128, 1e6 * i) for i in range(20)]
    assert latencies == [oracle.access(MemoryRequest(0), 1e6 * i) for i in range(20)]
    assert len(set(latencies)) == 2  # row hits and row misses both occur
