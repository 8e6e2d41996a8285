"""Property test: the flat network traversal against the per-link oracle.

``InterconnectNetwork.traverse`` keeps every port's link state in flat
lists and folds the congestion penalty in.  On random traversal sequences
it must return exactly (bit for bit) what the ``CrossbarLink`` composition
in ``network_oracle.py`` returns, including past the congestion knee.
"""

from hypothesis import given, settings, strategies as st

from repro.interconnect.network import InterconnectConfig, InterconnectNetwork

from network_oracle import ReferenceNetwork

TRAVERSALS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),              # port
        st.sampled_from((32, 128)),                         # request bytes
        st.sampled_from((32, 128)),                         # response bytes
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),  # gap to the previous one
        st.sampled_from((0.0, 0.5, 1.0, 10.0, 1e3)),        # extra elapsed time
    ),
    min_size=1,
    max_size=200,
)


@given(
    bytes_per_cycle=st.sampled_from((1.0, 6.0, 208.0)),
    knee=st.sampled_from((0.1, 0.7, 1.0)),
    max_penalty=st.sampled_from((0.0, 0.5, 2.0)),
    traversals=TRAVERSALS,
)
@settings(max_examples=80, deadline=None)
def test_traverse_matches_crossbar_oracle(bytes_per_cycle, knee, max_penalty, traversals):
    config = InterconnectConfig(
        num_partitions=4,
        bytes_per_cycle_per_port=bytes_per_cycle,
        congestion_knee=knee,
        max_congestion_penalty=max_penalty,
    )
    flat, oracle = InterconnectNetwork(config), ReferenceNetwork(config)
    now = 0.0
    for port, size, response, gap, extra in traversals:
        now += gap
        elapsed = now + extra
        assert flat.traverse(port, size, now, response, elapsed) == oracle.traverse(
            port, size, now, response, elapsed
        )
    assert flat.stats == oracle.stats
    assert flat.total_load_bytes() == oracle.total_load_bytes()


def test_oracle_comparison_reaches_the_congestion_branch():
    config = InterconnectConfig(num_partitions=1, bytes_per_cycle_per_port=1.0, congestion_knee=0.1)
    flat, oracle = InterconnectNetwork(config), ReferenceNetwork(config)
    latencies = [flat.traverse(0, 32, float(i), 32, 10.0 + i) for i in range(10)]
    assert latencies == [oracle.traverse(0, 32, float(i), 32, 10.0 + i) for i in range(10)]
    assert oracle._congestion_penalty(oracle.ports[0], 20.0) > 1.0
