"""The memory-hierarchy engine: drives an LLC-level trace through the model.

The engine owns the banked conventional LLC, the optional Morpheus
controllers (one per partition, sharing one aggregate extended LLC), the
interconnect and the DRAM model.  It replays a trace of LLC-level accesses
and collects the counts the performance model needs: hit rates per level,
average access latency, per-level bytes, interconnect load and DRAM traffic.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import MorpheusConfig
from repro.core.controller import MorpheusController
from repro.core.extended_llc import Compressibility, ExtendedLLC
from repro.gpu.config import GPUConfig
from repro.interconnect.network import InterconnectNetwork
from repro.memory.dram import DRAMModel
from repro.memory.llc import BankedLLC
from repro.workloads.trace import MemoryTrace


@dataclass
class HierarchyCounters:
    """Counts accumulated by one engine run over a trace."""

    llc_accesses: int = 0
    conventional_hits: int = 0
    extended_hits: int = 0
    extended_requests: int = 0
    dram_accesses: int = 0
    predicted_misses: int = 0
    false_positive_trips: int = 0
    writebacks: int = 0
    total_latency_cycles: float = 0.0
    conventional_bytes: float = 0.0
    extended_bytes: float = 0.0
    dram_bytes: float = 0.0
    noc_bytes: float = 0.0
    elapsed_cycles: float = 0.0

    @property
    def llc_hits(self) -> int:
        """Hits in either LLC."""
        return self.conventional_hits + self.extended_hits

    @property
    def llc_hit_rate(self) -> float:
        """Overall LLC hit rate."""
        return self.llc_hits / self.llc_accesses if self.llc_accesses else 0.0

    @property
    def conventional_hit_rate(self) -> float:
        """Conventional LLC hit rate over all LLC accesses."""
        return self.conventional_hits / self.llc_accesses if self.llc_accesses else 0.0

    @property
    def extended_hit_rate(self) -> float:
        """Extended LLC hit rate over extended-routed accesses."""
        return self.extended_hits / self.extended_requests if self.extended_requests else 0.0

    @property
    def extended_fraction(self) -> float:
        """Fraction of LLC accesses routed to the extended LLC."""
        return self.extended_requests / self.llc_accesses if self.llc_accesses else 0.0

    @property
    def dram_access_fraction(self) -> float:
        """Fraction of LLC accesses that ended in DRAM."""
        return self.dram_accesses / self.llc_accesses if self.llc_accesses else 0.0

    @property
    def average_latency_cycles(self) -> float:
        """Average LLC-level access latency observed over the trace."""
        return self.total_latency_cycles / self.llc_accesses if self.llc_accesses else 0.0

    def to_jsonable(self) -> Dict[str, float]:
        """Render the counters as a JSON-compatible field dict."""
        return dataclasses.asdict(self)

    @classmethod
    def from_jsonable(cls, payload: Dict[str, float]) -> "HierarchyCounters":
        """Rebuild counters from :meth:`to_jsonable` output (bit-identical)."""
        return cls(**payload)


class MemoryHierarchyEngine:
    """Replays LLC-level traces against the modelled memory hierarchy.

    Args:
        gpu: GPU configuration (provides LLC, DRAM and interconnect configs).
        morpheus: Morpheus configuration; ``None`` models a conventional GPU.
        cache_sm_ids: SMs in cache mode (ignored when ``morpheus`` is None).
        compressibility: Workload block-compressibility mix for the extended LLC.
        capacity_scale: Factor by which cache capacities are scaled down to
            match a downscaled trace footprint (keeps hit rates representative
            while traces stay short).
        request_interval_cycles: Modelled gap between consecutive trace
            entries entering the memory system; sets the offered load for the
            bandwidth/queueing models.
    """

    def __init__(
        self,
        gpu: GPUConfig,
        morpheus: Optional[MorpheusConfig] = None,
        cache_sm_ids: Optional[List[int]] = None,
        compressibility: Optional[Compressibility] = None,
        capacity_scale: float = 1.0,
        request_interval_cycles: float = 2.0,
    ) -> None:
        if not 0.0 < capacity_scale <= 1.0:
            raise ValueError("capacity_scale must be in (0, 1]")
        if request_interval_cycles <= 0:
            raise ValueError("request_interval_cycles must be positive")
        self.gpu = gpu
        self.morpheus_config = morpheus
        self.capacity_scale = capacity_scale
        self.request_interval_cycles = request_interval_cycles

        llc_config = gpu.llc
        if capacity_scale < 1.0:
            scaled = max(
                llc_config.num_partitions * llc_config.associativity * llc_config.block_size,
                int(llc_config.capacity_bytes * capacity_scale),
            )
            llc_config = llc_config.with_capacity(scaled)
        self.llc = BankedLLC(llc_config)
        self.dram = DRAMModel(gpu.dram)
        self.network = InterconnectNetwork(gpu.interconnect)

        self.extended_llc: Optional[ExtendedLLC] = None
        self.controllers: List[MorpheusController] = []
        if morpheus is not None and cache_sm_ids:
            rf_bytes = int(gpu.register_file_bytes_per_sm * capacity_scale)
            l1_bytes = int(gpu.l1_shared_bytes_per_sm * capacity_scale)
            self.extended_llc = ExtendedLLC(
                cache_sm_ids=list(cache_sm_ids),
                config=morpheus,
                register_file_bytes=max(morpheus.block_size * 4, rf_bytes),
                l1_shared_bytes=max(morpheus.block_size * 4, l1_bytes),
                compressibility=compressibility,
            )
            self.controllers = [
                MorpheusController(
                    partition,
                    self.extended_llc,
                    morpheus,
                    core_clock_ghz=gpu.core_clock_ghz,
                    dram_access=self._dram_access,
                    noc_round_trip=self._extended_noc_round_trip,
                )
                for partition in self.llc.partitions
            ]
        self.counters = HierarchyCounters()
        self._start_cycle = 0.0

    # -- callbacks injected into the Morpheus controllers --------------------------

    def _dram_access(self, address: int, size_bytes: int, at_cycle: float) -> float:
        latency = self.dram.access(address, size_bytes, at_cycle)
        self.counters.dram_accesses += 1
        self.counters.dram_bytes += size_bytes
        return latency

    def _extended_noc_round_trip(self, size_bytes: int, at_cycle: float) -> float:
        # The extra hop to the cache-mode SM uses the same network; pick the
        # port of the SM-side partition pseudo-randomly by size/time.
        partition_id = int(at_cycle) % self.gpu.interconnect.num_partitions
        latency = self.network.traverse(
            partition_id, size_bytes, at_cycle, elapsed_cycles=max(1.0, at_cycle)
        )
        self.counters.noc_bytes += size_bytes + self.gpu.block_size
        return latency

    # -- trace replay ------------------------------------------------------------------

    def run(self, trace: MemoryTrace) -> HierarchyCounters:
        """Replay ``trace`` and return the accumulated counters.

        Every access pays the SM -> LLC partition hop on the network and is
        then served by its partition: the conventional slice (and DRAM on a
        miss), or the partition's Morpheus controller when cache-mode SMs
        are present.  Time continues across ``run()`` calls so warm-up and
        measurement share one continuous timeline (queue occupancies stay
        valid).
        """
        if self.controllers:
            self._replay_morpheus(trace)
        else:
            self._replay_conventional(trace)
        counters = self.counters
        counters.llc_accesses += len(trace)
        self._start_cycle += len(trace) * self.request_interval_cycles
        counters.elapsed_cycles = max(
            1.0, counters.elapsed_cycles + len(trace) * self.request_interval_cycles
        )
        return counters

    def _replay_conventional(self, trace: MemoryTrace) -> None:
        counters = self.counters
        traverse = self.network.traverse
        partitions = self.llc.partitions
        dram_access = self.dram.access
        block = self.gpu.block_size
        llc_block = self.llc.config.block_size
        num_partitions = self.llc.config.num_partitions
        start = self._start_cycle
        interval = self.request_interval_cycles
        # Float counters accumulate in locals in their per-access order.
        noc_bytes = counters.noc_bytes
        conventional_bytes = counters.conventional_bytes
        dram_bytes = counters.dram_bytes
        total_latency = counters.total_latency_cycles
        hits = dram_accesses = writebacks = 0
        for index, entry in enumerate(trace):
            now = start + index * interval
            address = entry.address // block * block
            partition_id = address // llc_block % num_partitions
            latency = traverse(
                partition_id, 32, now, block, now if now > 1.0 else 1.0
            )
            noc_bytes += 32 + block
            hit, llc_latency, writeback = partitions[partition_id].access(
                address, entry.is_write or entry.is_atomic, block, now
            )
            latency += llc_latency
            conventional_bytes += block
            if hit:
                hits += 1
            else:
                latency += dram_access(address, block, now + llc_latency)
                dram_accesses += 1
                dram_bytes += block
            if writeback is not None:
                # An evicted dirty block always moves one full cache block
                # to DRAM, regardless of the triggering request's size.
                writebacks += 1
                dram_bytes += block
            total_latency += latency
        counters.noc_bytes = noc_bytes
        counters.conventional_bytes = conventional_bytes
        counters.dram_bytes = dram_bytes
        counters.total_latency_cycles = total_latency
        counters.conventional_hits += hits
        counters.dram_accesses += dram_accesses
        counters.writebacks += writebacks

    def _replay_morpheus(self, trace: MemoryTrace) -> None:
        # The controllers' DRAM and extended-NoC callbacks add to
        # ``dram_bytes`` and ``noc_bytes`` mid-access, so those two stay on
        # the counters; the others accumulate in locals.
        counters = self.counters
        traverse = self.network.traverse
        controllers = self.controllers
        block = self.gpu.block_size
        llc_block = self.llc.config.block_size
        num_partitions = self.llc.config.num_partitions
        start = self._start_cycle
        interval = self.request_interval_cycles
        conventional_bytes = counters.conventional_bytes
        extended_bytes = counters.extended_bytes
        total_latency = counters.total_latency_cycles
        conventional_hits = extended_hits = extended_requests = 0
        predicted_misses = false_positive_trips = writebacks = 0
        for index, entry in enumerate(trace):
            now = start + index * interval
            address = entry.address // block * block
            partition_id = address // llc_block % num_partitions
            noc_latency = traverse(
                partition_id, 32, now, block, now if now > 1.0 else 1.0
            )
            counters.noc_bytes += 32 + block
            hit_level, latency, victims, predicted_miss, false_positive, _ = controllers[
                partition_id
            ].access(address, entry.is_write or entry.is_atomic, block, now)
            if hit_level == "llc":
                conventional_hits += 1
                conventional_bytes += block
            elif hit_level == "extended_llc":
                extended_hits += 1
                extended_requests += 1
                extended_bytes += block
            else:  # served by DRAM
                if predicted_miss or false_positive:
                    extended_requests += 1
                else:
                    conventional_bytes += block
                if predicted_miss:
                    predicted_misses += 1
                if false_positive:
                    false_positive_trips += 1
            if victims:
                # Each evicted dirty block writes one full cache block back to DRAM.
                writebacks += len(victims)
                counters.dram_bytes += len(victims) * block
            total_latency += noc_latency + latency
        counters.conventional_bytes = conventional_bytes
        counters.extended_bytes = extended_bytes
        counters.total_latency_cycles = total_latency
        counters.conventional_hits += conventional_hits
        counters.extended_hits += extended_hits
        counters.extended_requests += extended_requests
        counters.predicted_misses += predicted_misses
        counters.false_positive_trips += false_positive_trips
        counters.writebacks += writebacks

    # -- derived metrics -----------------------------------------------------------------

    def predictor_stats(self):
        """Aggregate hit/miss predictor statistics across all controllers."""
        from repro.core.hit_miss_predictor import PredictorStats

        total = PredictorStats()
        for controller in self.controllers:
            stats = controller.predictor.stats
            total.predictions += stats.predictions
            total.predicted_hits += stats.predicted_hits
            total.predicted_misses += stats.predicted_misses
            total.false_positives += stats.false_positives
            total.false_negatives += stats.false_negatives
            total.swaps += stats.swaps
        return total

    def llc_throughput_gbps(self) -> float:
        """Achieved conventional LLC throughput over the replayed trace."""
        return self.llc.throughput_gbps(self.counters.elapsed_cycles)

    def reset_counters(self) -> None:
        """Zero all measurement counters while preserving cache contents.

        Used after a warm-up replay so that steady-state hit rates are
        measured without the cold-start transient.
        """
        from repro.interconnect.network import NetworkStats
        from repro.memory.cache import CacheStats

        self.counters = HierarchyCounters()
        self.network.stats = NetworkStats()
        self.dram.total_accesses = 0
        self.dram.total_bytes = 0
        for partition in self.llc.partitions:
            partition.stats = CacheStats()
            partition.bytes_served = 0
            partition.requests_served = 0
        for controller in self.controllers:
            controller.stats.__init__()

    def reset(self) -> None:
        """Reset all components and counters (configuration preserved)."""
        self.llc.reset()
        self.dram.reset()
        self.network.reset()
        if self.extended_llc is not None:
            self.extended_llc.reset()
        for controller in self.controllers:
            controller.reset()
        self.counters = HierarchyCounters()
        self._start_cycle = 0.0
