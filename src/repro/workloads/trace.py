"""Memory trace containers.

A :class:`MemoryTrace` is an ordered sequence of LLC-level accesses (the
requests that miss in the per-SM L1 caches and travel to the LLC partitions),
each tagged with the issuing SM and the access type.  Traces are the bridge
between the workload models and the memory-hierarchy simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence


@dataclass(frozen=True)
class TraceEntry:
    """One LLC-level access in a trace."""

    address: int
    is_write: bool = False
    is_atomic: bool = False
    sm_id: int = 0

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError("address must be non-negative")
        if self.sm_id < 0:
            raise ValueError("sm_id must be non-negative")


class MemoryTrace:
    """An ordered collection of :class:`TraceEntry` objects."""

    def __init__(self, entries: Sequence[TraceEntry] | None = None, name: str = "trace") -> None:
        self._entries: List[TraceEntry] = list(entries) if entries else []
        self.name = name

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> TraceEntry:
        return self._entries[index]

    def append(self, entry: TraceEntry) -> None:
        """Append one access to the trace."""
        self._entries.append(entry)

    def extend(self, entries: Iterable[TraceEntry]) -> None:
        """Append many accesses to the trace."""
        self._entries.extend(entries)

    def addresses(self) -> List[int]:
        """Raw addresses in issue order."""
        return [entry.address for entry in self._entries]

    def unique_blocks(self, block_size: int = 128) -> int:
        """Number of distinct cache blocks touched by the trace (its footprint)."""
        return len({entry.address // block_size for entry in self._entries})

    def footprint_bytes(self, block_size: int = 128) -> int:
        """Footprint of the trace in bytes."""
        return self.unique_blocks(block_size) * block_size

    def write_fraction(self) -> float:
        """Fraction of accesses that are writes or atomics."""
        if not self._entries:
            return 0.0
        writes = sum(1 for entry in self._entries if entry.is_write or entry.is_atomic)
        return writes / len(self._entries)

    def atomic_fraction(self) -> float:
        """Fraction of accesses that are atomics."""
        if not self._entries:
            return 0.0
        return sum(1 for entry in self._entries if entry.is_atomic) / len(self._entries)

    def split_by_sm(self) -> dict:
        """Group entries by issuing SM."""
        groups: dict = {}
        for entry in self._entries:
            groups.setdefault(entry.sm_id, []).append(entry)
        return groups
