"""Static address separation between the conventional and extended LLC (§4.1.1).

A Morpheus-enabled GPU has two LLCs, so every cache block must belong to
exactly one of them.  Morpheus divides the (partition-local) address space
*statically* into two regions whose sizes are proportional to the capacities
of the conventional slice and of the extended LLC served by that partition.
The same principle is reused *inside* the extended LLC kernel to split blocks
between the register file, shared memory and L1 stores — proportionally to
each store's capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class SeparationDecision:
    """Outcome of routing one address."""

    target: str            # "conventional" or "extended"
    extended_set: int = -1  # extended LLC set index when target == "extended"
    cache_sm_slot: int = -1  # which cache-mode SM slot owns that set


class AddressSeparator:
    """Routes partition-local block addresses between the two LLCs.

    The decision is made on the block's *partition-local* index (the
    interleaving across partitions happened upstream), using a modulo split
    over a fixed period so both LLCs see a representative sample of the
    address space:

    * ``period = conventional_share + extended_share`` (in block units),
    * blocks whose ``local_index % period < conventional_share`` go to the
      conventional slice, the rest to the extended LLC.

    Args:
        conventional_capacity_bytes: Capacity of the partition's conventional
            LLC slice.
        extended_capacity_bytes: Extended LLC capacity served through this
            partition (0 disables the extended LLC).
        block_size: Cache block size in bytes.
        num_extended_sets: Extended LLC sets behind this partition; used to
            map an extended-bound block to its set and owning cache-SM slot.
        granularity_blocks: Size of one share unit, in blocks.  The default
            (64 blocks = 8 KiB) keeps the interleaving fine enough that both
            LLCs observe every access pattern.
    """

    def __init__(
        self,
        conventional_capacity_bytes: int,
        extended_capacity_bytes: int,
        block_size: int = 128,
        num_extended_sets: int = 256,
        granularity_blocks: int = 64,
    ) -> None:
        if conventional_capacity_bytes <= 0:
            raise ValueError("conventional_capacity_bytes must be positive")
        if extended_capacity_bytes < 0:
            raise ValueError("extended_capacity_bytes must be non-negative")
        if block_size <= 0 or block_size & (block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        if num_extended_sets <= 0:
            raise ValueError("num_extended_sets must be positive")
        if granularity_blocks <= 0:
            raise ValueError("granularity_blocks must be positive")

        self.conventional_capacity_bytes = conventional_capacity_bytes
        self.extended_capacity_bytes = extended_capacity_bytes
        self.block_size = block_size
        self.num_extended_sets = num_extended_sets
        self.granularity_blocks = granularity_blocks

        total = conventional_capacity_bytes + extended_capacity_bytes
        # Shares in granularity units, at least 1 unit for the conventional LLC.
        self._conventional_units = max(
            1, round(self.conventional_capacity_bytes / total * self._total_units(total))
        )
        self._extended_units = self._total_units(total) - self._conventional_units
        if extended_capacity_bytes == 0:
            self._conventional_units = 1
            self._extended_units = 0
        self._period = self._conventional_units + self._extended_units

    def _total_units(self, total_bytes: int) -> int:
        """Number of granularity units in the interleaving period (>= 2)."""
        # A period of 16 units gives ~6 % resolution on the capacity split.
        return 16

    # -- public API -----------------------------------------------------------

    @property
    def extended_fraction(self) -> float:
        """Fraction of the address space routed to the extended LLC."""
        return self._extended_units / self._period

    def extended_set(self, address: int) -> int:
        """The extended LLC set of ``address``'s block, or -1 when the conventional slice serves it."""
        if address < 0:
            raise ValueError("address must be non-negative")
        if self._extended_units == 0:
            return -1
        block_index = address // self.block_size
        if block_index // self.granularity_blocks % self._period < self._conventional_units:
            return -1
        return block_index % self.num_extended_sets

    def route(self, address: int) -> SeparationDecision:
        """Decide which LLC serves the block containing ``address``."""
        extended_set = self.extended_set(address)
        if extended_set < 0:
            return SeparationDecision(target="conventional")
        return SeparationDecision(
            target="extended",
            extended_set=extended_set,
            cache_sm_slot=extended_set,
        )

    def is_extended(self, address: int) -> bool:
        """Convenience wrapper: True when ``address`` belongs to the extended LLC."""
        return self.route(address).target == "extended"


#: Slots in the interleaving period of :func:`proportional_split`.
PROPORTIONAL_SPLIT_PERIOD = 64


def proportional_slots(capacities: Sequence[Tuple[str, int]]) -> List[str]:
    """The region owning each slot of the :func:`proportional_split` period.

    Each region with non-zero capacity gets a run of at least one slot,
    sized in proportion to its capacity; rounding leftovers go to the last
    region.  Callers with fixed capacities index this list instead of
    splitting every address.
    """
    live = [(name, cap) for name, cap in capacities if cap > 0]
    if not live:
        raise ValueError("at least one region must have non-zero capacity")
    total = sum(cap for _, cap in live)
    slots: List[str] = []
    for name, cap in live:
        slots.extend([name] * max(1, round(cap / total * PROPORTIONAL_SPLIT_PERIOD)))
    slots.extend([live[-1][0]] * (PROPORTIONAL_SPLIT_PERIOD - len(slots)))
    return slots[:PROPORTIONAL_SPLIT_PERIOD]


def proportional_split(
    capacities: Sequence[Tuple[str, int]], address: int, block_size: int = 128
) -> str:
    """Split an address across named regions proportionally to their capacities.

    This is the intra-SM analogue of :class:`AddressSeparator` used by the
    extended LLC kernel to pick the register file, shared memory or L1 store
    for a given block (§4.2, task 3).

    Args:
        capacities: ``(name, capacity_bytes)`` pairs; zero-capacity regions
            never receive blocks.
        address: Byte address of the block.
        block_size: Cache block size.

    Returns:
        The name of the region responsible for the block.
    """
    return proportional_slots(capacities)[address // block_size % PROPORTIONAL_SPLIT_PERIOD]
