"""Memory-hierarchy substrate: requests, caches, the banked LLC and DRAM.

This subpackage provides the building blocks of the baseline GPU memory
hierarchy that Morpheus extends:

* :mod:`repro.memory.request` -- memory request/response records (the
  Morpheus controller's query logic buffers them).
* :mod:`repro.memory.replacement` -- replacement policies (LRU and friends).
* :mod:`repro.memory.cache` -- a generic set-associative cache model with
  pluggable replacement, and the ``CacheStats`` the LLC slices report.
* :mod:`repro.memory.address_mapping` -- static address interleaving across
  LLC partitions and DRAM channels.
* :mod:`repro.memory.llc` -- the banked conventional last level cache.
* :mod:`repro.memory.dram` -- a GDDR6X-style off-chip DRAM model.
"""

from repro.memory.address_mapping import AddressMapping
from repro.memory.cache import CacheBlock, CacheSet, CacheStats, SetAssociativeCache
from repro.memory.dram import DRAMConfig, DRAMModel
from repro.memory.llc import LLCPartition, BankedLLC
from repro.memory.replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_replacement_policy,
)
from repro.memory.request import AccessType, MemoryRequest, MemoryResponse, RequestOrigin

__all__ = [
    "AccessType",
    "AddressMapping",
    "BankedLLC",
    "CacheBlock",
    "CacheSet",
    "CacheStats",
    "DRAMConfig",
    "DRAMModel",
    "FIFOPolicy",
    "LLCPartition",
    "LRUPolicy",
    "MemoryRequest",
    "MemoryResponse",
    "RandomPolicy",
    "ReplacementPolicy",
    "RequestOrigin",
    "SetAssociativeCache",
    "make_replacement_policy",
]
