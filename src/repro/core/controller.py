"""The Morpheus controller (§4.1): one hardware unit per LLC partition.

The controller performs the three tasks the paper assigns it:

1. **Address separation** between the conventional LLC slice and the extended
   LLC (:class:`~repro.core.address_separation.AddressSeparator`).
2. **Communication** with the extended LLC: outstanding requests are tracked
   in the :class:`~repro.core.query_logic.ExtendedLLCQueryLogic` (request
   queue, warp status table, read/write data buffers), and extended-LLC
   traffic pays an extra interconnect round trip to reach the owning
   cache-mode SM.
3. **Hit/miss prediction** with the dual Bloom filter scheme
   (:class:`~repro.core.hit_miss_predictor.HitMissPredictor`), so that
   predicted extended-LLC misses go straight to DRAM and cost no more than a
   conventional LLC miss (Fig. 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

from repro.core.address_separation import AddressSeparator
from repro.core.config import MorpheusConfig
from repro.core.extended_llc import ExtendedLLC
from repro.core.hit_miss_predictor import HitMissPredictor
from repro.core.query_logic import ExtendedLLCQueryLogic
from repro.memory.llc import LLCPartition
from repro.memory.request import AccessType, MemoryRequest

DramAccessFn = Callable[[int, int, float], float]
NocRoundTripFn = Callable[[int, float], float]


class PredictorMode(enum.Enum):
    """Hit/miss predictor flavour used by the controller (Fig. 13 ablation)."""

    BLOOM = "bloom"
    NONE = "none"
    PERFECT = "perfect"


@dataclass
class ControllerStats:
    """Per-controller (per-partition) statistics."""

    requests: int = 0
    conventional_requests: int = 0
    extended_requests: int = 0
    conventional_hits: int = 0
    extended_hits: int = 0
    extended_misses: int = 0
    predicted_misses: int = 0
    false_positive_trips: int = 0
    dram_accesses: int = 0
    writebacks: int = 0

    @property
    def extended_hit_rate(self) -> float:
        """Hit rate of extended-LLC-bound requests."""
        if self.extended_requests == 0:
            return 0.0
        return self.extended_hits / self.extended_requests

    @property
    def llc_hits(self) -> int:
        """Hits in either LLC (conventional or extended)."""
        return self.conventional_hits + self.extended_hits

    @property
    def llc_hit_rate(self) -> float:
        """Overall LLC hit rate observed by this controller."""
        if self.requests == 0:
            return 0.0
        return self.llc_hits / self.requests


class AccessOutcome(NamedTuple):
    """Result of one LLC request processed by the Morpheus controller."""

    hit_level: str                      # "llc", "extended_llc" or "dram"
    latency_cycles: float
    writebacks: Tuple[int, ...] = ()    # dirty victims' block addresses
    predicted_miss: bool = False
    false_positive: bool = False
    store_kind: str = ""

    @property
    def served_by_extended_llc(self) -> bool:
        """Whether the extended LLC supplied the data."""
        return self.hit_level == "extended_llc"


class MorpheusController:
    """The per-partition Morpheus controller.

    Args:
        partition: The conventional LLC slice colocated with this controller.
        extended_llc: The aggregate extended LLC (``None`` or an empty one
            disables Morpheus and the controller degenerates to a plain LLC
            partition front-end).
        config: Morpheus configuration.
        core_clock_ghz: GPU core clock, used to convert the timing model's
            nanoseconds into cycles.
        dram_access: Callback ``(address, size_bytes, at_cycle) ->
            latency_cycles`` used to fetch blocks from DRAM.  A
            constant-latency default is used when the simulator does not
            inject one.
        noc_round_trip: Callback ``(size_bytes, at_cycle) -> latency_cycles``
            for the extra controller <-> cache-mode-SM round trip.  Defaults
            to twice the timing model's one-way latency.
    """

    def __init__(
        self,
        partition: LLCPartition,
        extended_llc: Optional[ExtendedLLC],
        config: MorpheusConfig | None = None,
        core_clock_ghz: float = 1.44,
        dram_access: Optional[DramAccessFn] = None,
        noc_round_trip: Optional[NocRoundTripFn] = None,
    ) -> None:
        self.partition = partition
        self.extended_llc = extended_llc if extended_llc is not None and extended_llc.enabled else None
        self.config = config or MorpheusConfig()
        self.core_clock_ghz = core_clock_ghz
        self.predictor_mode = PredictorMode(self.config.predictor)
        self._extended_sets = self._count_extended_sets()
        # This partition's first set in the global extended LLC: each
        # partition's controller owns a disjoint slice of the extended LLC
        # sets so that the full extended capacity is used across partitions.
        self._global_set_base = self.partition.partition_id * self._extended_sets

        extended_capacity = (
            int(self.extended_llc.effective_capacity_bytes()) if self.extended_llc else 0
        )
        num_partitions = self.partition.config.num_partitions
        per_partition_extended = extended_capacity // num_partitions if num_partitions else 0
        self.separator = AddressSeparator(
            conventional_capacity_bytes=self.partition.capacity_bytes,
            extended_capacity_bytes=per_partition_extended,
            block_size=self.config.block_size,
            num_extended_sets=max(1, self._extended_sets),
        )
        self.predictor = HitMissPredictor(
            num_sets=max(1, self._extended_sets),
            associativity=self.config.extended_llc_associativity,
            filter_bytes=self.config.bloom_filter_bytes,
        )
        self.query_logic = ExtendedLLCQueryLogic(
            num_sets=max(1, self._extended_sets),
            block_size=self.config.block_size,
        )
        self._dram_access = dram_access or self._default_dram_latency
        self._noc_round_trip = noc_round_trip or self._default_noc_round_trip
        # A predicted miss's latency before its DRAM fetch.
        self._predicted_miss_cycles = self.partition.config.hit_latency_cycles * 0.25
        self.stats = ControllerStats()

    # -- helpers --------------------------------------------------------------

    def extended_sets_per_partition(self) -> int:
        """Extended LLC sets this partition's controller is responsible for."""
        return self._extended_sets

    def _count_extended_sets(self) -> int:
        if not self.extended_llc:
            return 1
        total = self.extended_llc.total_sets
        per_partition = total // self.partition.config.num_partitions
        return min(self.config.max_extended_sets_per_partition, max(1, per_partition))

    def _default_dram_latency(self, address: int, size_bytes: int, at_cycle: float) -> float:
        # ~600 ns at the core clock; the simulator normally injects the real
        # DRAM model which adds queueing on top.
        return 600.0 * self.core_clock_ghz

    def _default_noc_round_trip(self, size_bytes: int, at_cycle: float) -> float:
        return 2.0 * self.config.timing.noc_one_way_ns * self.core_clock_ghz

    # -- the LLC lookup procedure (Figure 3 / Figure 6a) ------------------------------

    def access(
        self, address: int, is_write: bool = False, size_bytes: int = 128, now_cycle: float = 0.0
    ) -> AccessOutcome:
        """Process one LLC request for the block at ``address`` arriving at this partition."""
        self.stats.requests += 1
        extended_set = self.separator.extended_set(address)
        if extended_set < 0 or self.extended_llc is None:
            return self._access_conventional(address, is_write, size_bytes, now_cycle)
        return self._access_extended(address, is_write, size_bytes, now_cycle, extended_set)

    def _access_conventional(
        self, address: int, is_write: bool, size_bytes: int, now_cycle: float
    ) -> AccessOutcome:
        stats = self.stats
        stats.conventional_requests += 1
        hit, latency, writeback = self.partition.access(address, is_write, size_bytes, now_cycle)
        writebacks = ()
        if writeback is not None:
            writebacks = (writeback,)
            stats.writebacks += 1
        if hit:
            stats.conventional_hits += 1
            return AccessOutcome("llc", latency, writebacks)
        stats.dram_accesses += 1
        dram_latency = self._dram_access(address, size_bytes, now_cycle + latency)
        return AccessOutcome("dram", latency + dram_latency, writebacks)

    def _access_extended(
        self, address: int, is_write: bool, size_bytes: int, now_cycle: float, set_index: int
    ) -> AccessOutcome:
        extended_llc = self.extended_llc
        stats = self.stats
        stats.extended_requests += 1
        tag = address // self.config.block_size
        global_set = self._global_set_base + set_index
        mode = self.predictor_mode

        # The request is buffered by the query logic; the controller's own
        # pipeline latency is folded into the timing model's dispatch term.
        query_logic = self.query_logic
        query_logic.admit(MemoryRequest(
            address,
            AccessType.STORE if is_write else AccessType.LOAD,
            size_bytes=size_bytes,
        ))

        # Predict whether the extended LLC holds the block (True = hit).
        if mode is PredictorMode.BLOOM:
            predicted_hit = self.predictor.predict(set_index, tag)
        elif mode is PredictorMode.PERFECT:
            predicted_hit = extended_llc.resident(global_set, address)
        else:
            predicted_hit = True  # always forward: equivalent to predicting a hit

        if not predicted_hit:
            # Predicted miss: go straight to DRAM (as fast as a conventional miss),
            # then install the block in the extended LLC.
            if mode is PredictorMode.BLOOM:
                self.predictor.record_outcome(False, extended_llc.resident(global_set, address))
            stats.predicted_misses += 1
            stats.extended_misses += 1
            query_logic.request_queue.dequeue()
            stats.dram_accesses += 1
            dram_latency = self._dram_access(address, size_bytes, now_cycle)
            fill = extended_llc.fill(global_set, address, dirty=is_write)
            self.predictor.record_access(set_index, tag)
            writebacks = tuple(fill.writebacks)
            stats.writebacks += len(writebacks)
            return AccessOutcome(
                "dram",
                self._predicted_miss_cycles + dram_latency,
                writebacks,
                True,
                False,
                fill.store_kind,
            )

        # Predicted hit: pay the NoC round trip to the cache-mode SM and run
        # the extended LLC kernel's lookup there.  The lookup finds exactly
        # the blocks resident before it, so its outcome is the ground truth.
        row = set_index % query_logic.warp_status.num_rows
        dispatched = query_logic.dispatch(row)
        noc_latency = self._noc_round_trip(size_bytes, now_cycle)
        result = extended_llc.access(global_set, address, is_write=is_write)
        if mode is PredictorMode.BLOOM:
            self.predictor.record_outcome(True, result.hit)
        service_latency = result.service_latency_ns * self.core_clock_ghz
        if dispatched is not None:
            query_logic.complete(row, result.hit)

        if result.hit:
            stats.extended_hits += 1
            self.predictor.record_access(set_index, tag)
            return AccessOutcome(
                "extended_llc", noc_latency + service_latency, (), False, False, result.store_kind
            )

        # False positive (or no-prediction miss): the round trip was wasted;
        # fetch from DRAM and fill the extended LLC.
        stats.extended_misses += 1
        if mode is not PredictorMode.PERFECT:
            stats.false_positive_trips += 1
        stats.dram_accesses += 1
        dram_latency = self._dram_access(address, size_bytes, now_cycle + noc_latency + service_latency)
        fill = extended_llc.fill(global_set, address, dirty=is_write)
        self.predictor.record_access(set_index, tag)
        writebacks = tuple(fill.writebacks)
        stats.writebacks += len(writebacks)
        return AccessOutcome(
            "dram",
            noc_latency + service_latency + dram_latency,
            writebacks,
            False,
            True,
            fill.store_kind,
        )

    def reset(self) -> None:
        """Reset predictor, query logic and statistics (LLC contents preserved)."""
        self.predictor.reset()
        self.query_logic.reset()
        self.stats = ControllerStats()
