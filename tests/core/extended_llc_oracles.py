"""Per-call reference computations of the extended LLC's precomputed tables.

These are the original per-access algorithms, kept only as oracles: the
library resolves the same mappings once at construction time.  Not
collected by pytest.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.address_separation import PROPORTIONAL_SPLIT_PERIOD
from repro.core.controller import MorpheusController
from repro.core.extended_llc import ExtendedLLC, ExtendedLLCKernel


def walking_total_sets(llc: ExtendedLLC) -> int:
    """Total extended LLC sets, re-summed over every kernel."""
    return sum(kernel.num_sets for kernel in llc.kernels.values())


def walking_owner_of_set(llc: ExtendedLLC, global_set_index: int) -> Tuple[int, ExtendedLLCKernel, int]:
    """Walk the cache-mode SMs in order until the global set falls inside one."""
    ordered = [llc.kernels[sm_id] for sm_id in llc.cache_sm_ids]
    index = global_set_index % walking_total_sets(llc)
    for kernel in ordered:
        if index < kernel.num_sets:
            return kernel.sm_id, kernel, index
        index -= kernel.num_sets
    raise AssertionError("unreachable given the modulo above")


def walking_proportional_split(capacities: Sequence[Tuple[str, int]], address: int, block_size: int) -> str:
    """Walk the regions' proportional shares of the period until ``address``'s slot."""
    live = [(name, cap) for name, cap in capacities if cap > 0]
    total = sum(cap for _, cap in live)
    position = address // block_size % PROPORTIONAL_SPLIT_PERIOD
    cursor = 0
    for name, cap in live:
        cursor += max(1, round(cap / total * PROPORTIONAL_SPLIT_PERIOD))
        if position < cursor:
            return name
    return live[-1][0]


def routed_store(kernel: ExtendedLLCKernel, address: int) -> str:
    """The store ``address`` belongs to, re-deriving the capacity split per call."""
    capacities = [(name, store.data_capacity_bytes()) for name, store in kernel.stores.items()]
    return walking_proportional_split(capacities, address, kernel.config.block_size)


def walking_extended_sets_per_partition(controller: MorpheusController) -> int:
    """Extended sets per partition from the re-summed extended LLC total."""
    if not controller.extended_llc:
        return 1
    per_partition = walking_total_sets(controller.extended_llc) // controller.partition.config.num_partitions
    return min(controller.config.max_extended_sets_per_partition, max(1, per_partition))
