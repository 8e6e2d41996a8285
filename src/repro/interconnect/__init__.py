"""On-chip interconnection network between SMs and LLC partitions."""

from repro.interconnect.network import InterconnectConfig, InterconnectNetwork, NetworkStats

__all__ = [
    "InterconnectConfig",
    "InterconnectNetwork",
    "NetworkStats",
]
