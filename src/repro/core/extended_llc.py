"""The extended LLC: software-managed cache capacity on cache-mode SMs (§4.2).

Two classes model the software half of Morpheus:

* :class:`ExtendedLLCKernel` — one instance of the helper kernel running on a
  single cache-mode SM.  It owns the SM's register-file, L1 and (optionally)
  shared-memory stores, routes blocks between them with the same static
  address-separation principle as the Morpheus controller (proportional to
  each store's capacity), performs tag lookups, LRU fills/evictions,
  Indirect-MOV data accesses and BDI compression.
* :class:`ExtendedLLC` — the aggregate extended LLC formed by all cache-mode
  SMs.  It maps a global extended LLC set index onto the owning SM and that
  SM's local warp/set, and exposes aggregate capacity to the address
  separator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

from repro.core.address_separation import PROPORTIONAL_SPLIT_PERIOD, proportional_slots
from repro.core.compression import CompressionLevel, effective_capacity_factor
from repro.core.config import MorpheusConfig
from repro.core.indirect_mov import IndirectMovImplementation, IndirectMovModel
from repro.core.l1_store import L1Store
from repro.core.register_file_store import RegisterFileStore
from repro.core.shared_memory_store import SharedMemoryStore
from repro.core.store_base import ExtendedLLCStore


@dataclass(frozen=True)
class Compressibility:
    """A workload's block compressibility mix (fractions of 4x / 2x blocks)."""

    high_fraction: float = 0.0
    low_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.high_fraction <= 1.0 or not 0.0 <= self.low_fraction <= 1.0:
            raise ValueError("fractions must be in [0, 1]")
        if self.high_fraction + self.low_fraction > 1.0 + 1e-9:
            raise ValueError("high_fraction + low_fraction must not exceed 1")

    def capacity_factor(self) -> float:
        """Effective extended-LLC capacity multiplier under BDI compression."""
        return effective_capacity_factor(self.high_fraction, self.low_fraction)

    def level_for_tag(self, tag: int) -> CompressionLevel:
        """Deterministic per-block compression level consistent with the mix."""
        digest = hashlib.blake2b(int(tag).to_bytes(16, "little"), digest_size=8).digest()
        draw = int.from_bytes(digest, "little") / 2 ** 64
        if draw < self.high_fraction:
            return CompressionLevel.HIGH
        if draw < self.high_fraction + self.low_fraction:
            return CompressionLevel.LOW
        return CompressionLevel.UNCOMPRESSED


class ExtendedAccessResult(NamedTuple):
    """Outcome of one extended LLC access on a cache-mode SM."""

    hit: bool
    store_kind: str
    service_latency_ns: float
    writebacks: Tuple[int, ...] = ()    # dirty victims' block addresses
    compression: CompressionLevel = CompressionLevel.UNCOMPRESSED


class ExtendedLLCKernel:
    """The extended LLC kernel instance running on one cache-mode SM.

    Args:
        sm_id: The cache-mode SM hosting this kernel instance.
        config: Morpheus configuration (warp split, compression, ISA option).
        register_file_bytes: Register file capacity of the SM.
        l1_shared_bytes: Unified L1/shared-memory capacity of the SM.
        compressibility: The running workload's block compressibility mix
            (drives BDI levels when compression is enabled).
    """

    def __init__(
        self,
        sm_id: int,
        config: MorpheusConfig,
        register_file_bytes: int = 256 * 1024,
        l1_shared_bytes: int = 128 * 1024,
        compressibility: Compressibility | None = None,
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.compressibility = compressibility or Compressibility()
        self.indirect_mov = IndirectMovModel(
            num_data_registers=config.extended_llc_associativity,
            software_latency_ns=config.timing.indirect_mov_software_ns,
            hardware_latency_ns=config.timing.indirect_mov_hardware_ns,
        )

        self.register_file_store = RegisterFileStore(
            num_warps=max(1, config.rf_warps),
            register_file_bytes=register_file_bytes,
            aux_registers_per_warp=config.registers_reserved_per_warp,
            compression_enabled=config.enable_compression,
            block_size=config.block_size,
        ) if config.rf_warps > 0 else None

        self.l1_store = L1Store(
            num_warps=max(1, config.l1_warps),
            l1_bytes=l1_shared_bytes,
            block_size=config.block_size,
        ) if config.l1_warps > 0 else None

        self.shared_memory_store = SharedMemoryStore(
            num_warps=max(1, config.shared_memory_warps),
            shared_memory_bytes=l1_shared_bytes,
            compression_enabled=config.enable_compression,
            block_size=config.block_size,
        ) if config.shared_memory_warps > 0 else None

        self.stores: Dict[str, ExtendedLLCStore] = {}
        if self.register_file_store is not None:
            self.stores["register_file"] = self.register_file_store
        if self.l1_store is not None:
            self.stores["l1"] = self.l1_store
        if self.shared_memory_store is not None:
            self.stores["shared_memory"] = self.shared_memory_store
        if not self.stores:
            raise ValueError("the extended LLC kernel needs at least one store")

        # Store capacities never change after construction, so the
        # proportional split's 64-slot period is resolved once here.
        capacities = [(name, store.data_capacity_bytes()) for name, store in self.stores.items()]
        self._block_size = config.block_size
        self._store_slots: List[Tuple[str, ExtendedLLCStore]] = [
            (name, self.stores[name]) for name in proportional_slots(capacities)
        ]
        # Service latency of one access by (store kind, compressed).
        self._latency_ns: Dict[Tuple[str, bool], float] = {
            (name, compressed): config.timing.access_latency_ns(
                name, indirect_mov_hardware=config.enable_indirect_mov_isa, compressed=compressed
            )
            for name in self.stores
            for compressed in (False, True)
        }

    # -- capacity ------------------------------------------------------------------

    @property
    def num_sets(self) -> int:
        """Extended LLC sets this SM contributes (one per kernel warp)."""
        return self.config.total_warps

    def physical_capacity_bytes(self) -> int:
        """Raw data capacity contributed by this SM (no compression)."""
        return sum(store.data_capacity_bytes() for store in self.stores.values())

    def effective_capacity_bytes(self) -> float:
        """Capacity including the compression gain on compressible stores."""
        total = 0.0
        factor = self.compressibility.capacity_factor()
        for store in self.stores.values():
            gain = factor if (self.config.enable_compression and store.supports_compression) else 1.0
            total += store.data_capacity_bytes() * gain
        return total

    # -- request servicing ------------------------------------------------------------

    def _store_for(self, address: int) -> Tuple[str, ExtendedLLCStore]:
        """Pick the store responsible for ``address`` (proportional split, §4.2 task 3)."""
        return self._store_slots[address // self._block_size % PROPORTIONAL_SPLIT_PERIOD]

    def access(self, set_index: int, address: int, is_write: bool = False) -> ExtendedAccessResult:
        """Serve one extended LLC request on this SM.

        Performs the tag lookup (Algorithm 1) in the responsible store's set;
        on a hit, the block is retrieved via Indirect-MOV (register file /
        shared memory) or an ordinary L1 access, with decompression if the
        block was stored compressed.  On a miss nothing is filled — the caller
        decides whether to fill after fetching the block from DRAM
        (:meth:`fill`).
        """
        store_kind, store = self._store_for(address)
        local_set = set_index % store.num_warps
        tag = address // self._block_size
        hit = store.access(local_set, tag, is_write=is_write)

        # Stores without compression only ever hold uncompressed blocks.
        compression = CompressionLevel.UNCOMPRESSED
        if hit and store.compression_enabled:
            compression = store.sets[local_set].metadata(tag).compression
        compressed = compression is not CompressionLevel.UNCOMPRESSED
        return ExtendedAccessResult(
            hit, store_kind, self._latency_ns[store_kind, compressed], (), compression
        )

    def fill(self, set_index: int, address: int, dirty: bool = False) -> ExtendedAccessResult:
        """Insert a block fetched from DRAM after an extended LLC miss.

        The block is compressed (when enabled and supported by the target
        store) and installed with LRU replacement; dirty victims are returned
        as writeback addresses.
        """
        store_kind, store = self._store_for(address)
        local_set = set_index % store.num_warps
        tag = address // self._block_size

        level = CompressionLevel.UNCOMPRESSED
        if self.config.enable_compression and store.supports_compression:
            level = self.compressibility.level_for_tag(tag)

        evicted = store.fill(local_set, tag, dirty=dirty, compression=level)
        writebacks = ()
        if evicted:
            writebacks = tuple(
                victim_tag * self._block_size for victim_tag, was_dirty in evicted if was_dirty
            )

        latency = self._latency_ns[store_kind, level is not CompressionLevel.UNCOMPRESSED]
        if self.config.enable_compression and store.supports_compression:
            latency += self.config.timing.compression_overhead_ns
        return ExtendedAccessResult(False, store_kind, latency, writebacks, level)

    def resident(self, set_index: int, address: int) -> bool:
        """Whether the block containing ``address`` currently resides on this SM."""
        _, store = self._store_for(address)
        return store.set_for(set_index % store.num_warps).lookup(address // self._block_size)

    def reset(self) -> None:
        """Drop all cached blocks."""
        for store in self.stores.values():
            store.reset()


class ExtendedLLC:
    """The aggregate extended LLC across every cache-mode SM.

    Args:
        cache_sm_ids: SMs operating in cache mode.
        config: Morpheus configuration.
        register_file_bytes: Per-SM register file capacity.
        l1_shared_bytes: Per-SM unified L1/shared capacity.
        compressibility: Workload compressibility mix.
    """

    def __init__(
        self,
        cache_sm_ids: List[int],
        config: MorpheusConfig,
        register_file_bytes: int = 256 * 1024,
        l1_shared_bytes: int = 128 * 1024,
        compressibility: Compressibility | None = None,
    ) -> None:
        self.config = config
        self.cache_sm_ids = list(cache_sm_ids)
        if len(set(self.cache_sm_ids)) != len(self.cache_sm_ids):
            raise ValueError("cache_sm_ids must not repeat an SM")
        self.kernels: Dict[int, ExtendedLLCKernel] = {
            sm_id: ExtendedLLCKernel(
                sm_id,
                config,
                register_file_bytes=register_file_bytes,
                l1_shared_bytes=l1_shared_bytes,
                compressibility=compressibility,
            )
            for sm_id in self.cache_sm_ids
        }
        # Global set g lives at slot g % total_sets: each cache-mode SM, in
        # ``cache_sm_ids`` order, owns a contiguous run of its kernel's sets.
        self._owners: List[Tuple[int, ExtendedLLCKernel, int]] = [
            (sm_id, self.kernels[sm_id], local_set)
            for sm_id in self.cache_sm_ids
            for local_set in range(self.kernels[sm_id].num_sets)
        ]

    @property
    def enabled(self) -> bool:
        """Whether any SM is lending capacity."""
        return bool(self.kernels)

    @property
    def total_sets(self) -> int:
        """Total extended LLC sets across all cache-mode SMs."""
        return len(self._owners)

    def physical_capacity_bytes(self) -> int:
        """Raw extended LLC capacity (no compression gain)."""
        return sum(kernel.physical_capacity_bytes() for kernel in self.kernels.values())

    def effective_capacity_bytes(self) -> float:
        """Extended LLC capacity including compression gains."""
        return sum(kernel.effective_capacity_bytes() for kernel in self.kernels.values())

    def owner_of_set(self, global_set_index: int) -> Tuple[int, ExtendedLLCKernel, int]:
        """Map a global extended set index to ``(sm_id, kernel, local_set_index)``."""
        if not self.kernels:
            raise RuntimeError("the extended LLC has no cache-mode SMs")
        if global_set_index < 0:
            raise ValueError("global_set_index must be non-negative")
        return self._owners[global_set_index % len(self._owners)]

    def access(self, global_set_index: int, address: int, is_write: bool = False) -> ExtendedAccessResult:
        """Serve an extended LLC request on the owning cache-mode SM."""
        _, kernel, local_set = self.owner_of_set(global_set_index)
        return kernel.access(local_set, address, is_write=is_write)

    def fill(self, global_set_index: int, address: int, dirty: bool = False) -> ExtendedAccessResult:
        """Fill a block into the owning SM after a DRAM fetch."""
        _, kernel, local_set = self.owner_of_set(global_set_index)
        return kernel.fill(local_set, address, dirty=dirty)

    def resident(self, global_set_index: int, address: int) -> bool:
        """Whether ``address`` is currently cached anywhere in the extended LLC."""
        _, kernel, local_set = self.owner_of_set(global_set_index)
        return kernel.resident(local_set, address)

    def per_sm_bandwidth_gbps(self) -> float:
        """Extended LLC bandwidth contributed by each cache-mode SM (GB/s)."""
        return self.config.timing.per_sm_extended_bandwidth_gbps

    def aggregate_bandwidth_gbps(self) -> float:
        """Total extended LLC bandwidth across cache-mode SMs (GB/s)."""
        return self.per_sm_bandwidth_gbps() * len(self.kernels)

    def reset(self) -> None:
        """Drop all cached blocks on every cache-mode SM."""
        for kernel in self.kernels.values():
            kernel.reset()
