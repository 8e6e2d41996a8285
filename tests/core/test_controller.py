"""Tests for the Morpheus controller."""

import random

import pytest

from repro.analysis.overheads import compute_overheads
from repro.core.config import MorpheusConfig
from repro.core.controller import MorpheusController, PredictorMode
from repro.core.extended_llc import Compressibility, ExtendedLLC
from repro.memory.llc import LLCConfig, LLCPartition


def make_controller(predictor: str = "bloom", cache_sms: int = 8, **config_kwargs):
    config = MorpheusConfig(predictor=predictor, **config_kwargs)
    extended = ExtendedLLC(
        cache_sm_ids=list(range(cache_sms)),
        config=config,
        compressibility=Compressibility(0.3, 0.3),
    )
    partition = LLCPartition(0, LLCConfig())
    return MorpheusController(partition, extended, config)


class TestControllerRouting:
    def test_requests_split_between_llcs(self):
        controller = make_controller()
        rng = random.Random(5)
        for i in range(500):
            address = rng.randrange(0, 1 << 22) // 128 * 128
            controller.access(address, now_cycle=i * 4.0)
        assert controller.stats.conventional_requests > 0
        assert controller.stats.extended_requests > 0
        assert (
            controller.stats.conventional_requests + controller.stats.extended_requests
            == controller.stats.requests
        )

    def test_without_extended_llc_everything_is_conventional(self):
        partition = LLCPartition(0, LLCConfig())
        controller = MorpheusController(partition, None, MorpheusConfig())
        for i in range(100):
            controller.access(i * 128, now_cycle=float(i))
        assert controller.stats.extended_requests == 0
        assert controller.stats.conventional_requests == 100

    def test_repeated_extended_access_becomes_hit(self):
        controller = make_controller()
        # Find an address routed to the extended LLC.
        address = next(
            a for a in range(0, 1 << 22, 128) if controller.separator.is_extended(a)
        )
        first = controller.access(address, now_cycle=0.0)
        second = controller.access(address, now_cycle=100.0)
        assert first.hit_level == "dram"
        assert second.hit_level == "extended_llc"
        assert second.served_by_extended_llc

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            make_controller().access(-128)

    def test_conventional_hit_latency_below_miss_latency(self):
        controller = make_controller()
        address = next(
            a for a in range(0, 1 << 22, 128) if not controller.separator.is_extended(a)
        )
        miss = controller.access(address, now_cycle=0.0)
        hit = controller.access(address, now_cycle=100.0)
        assert hit.hit_level == "llc"
        assert hit.latency_cycles < miss.latency_cycles


class TestPredictorModes:
    def _run(self, controller, accesses=800, footprint_blocks=2048):
        rng = random.Random(17)
        for i in range(accesses):
            address = rng.randrange(footprint_blocks) * 128
            controller.access(address, now_cycle=i * 4.0)

    def test_bloom_predictor_never_false_negative(self):
        controller = make_controller("bloom")
        self._run(controller)
        assert controller.predictor.stats.false_negatives == 0

    def test_predicted_misses_skip_extended_roundtrip(self):
        controller = make_controller("bloom")
        self._run(controller)
        assert controller.stats.predicted_misses > 0

    def test_no_prediction_forwards_everything(self):
        controller = make_controller("none")
        self._run(controller)
        assert controller.stats.predicted_misses == 0
        assert controller.predictor_mode is PredictorMode.NONE

    def test_perfect_prediction_has_no_false_positive_trips(self):
        controller = make_controller("perfect")
        self._run(controller)
        assert controller.stats.false_positive_trips == 0

    def test_bloom_latency_not_worse_than_no_prediction(self):
        """Bloom prediction avoids wasted round trips, so average latency is lower."""
        def average_latency(predictor):
            controller = make_controller(predictor)
            rng = random.Random(23)
            total = 0.0
            count = 900
            for i in range(count):
                address = rng.randrange(4096) * 128
                outcome = controller.access(address, now_cycle=i * 4.0)
                total += outcome.latency_cycles
            return total / count

        assert average_latency("bloom") <= average_latency("none") * 1.02


class TestWritesAndOverheads:
    def test_write_requests_mark_dirty_and_cause_writebacks_eventually(self):
        controller = make_controller(cache_sms=1)
        rng = random.Random(3)
        writebacks = 0
        for i in range(2500):
            address = rng.randrange(16384) * 128
            outcome = controller.access(address, is_write=True, now_cycle=i * 4.0)
            writebacks += len(outcome.writebacks)
        assert writebacks > 0

    def test_storage_overhead_is_21_kib(self):
        # The §7.5 accounting of the controller's own configuration:
        # 16 KiB of Bloom filters plus 5 KiB of query logic per partition.
        controller = make_controller()
        overheads = compute_overheads(controller.config)
        assert overheads.bloom_filter_bytes_per_partition == 16 * 1024
        assert overheads.query_logic_bytes_per_partition == 5 * 1024
        assert overheads.total_bytes_per_partition == 21 * 1024

    def test_extended_sets_per_partition_capped_at_256(self):
        controller = make_controller(cache_sms=60)
        assert controller.extended_sets_per_partition() <= 256

    def test_reset_clears_stats(self):
        controller = make_controller()
        controller.access(0)
        controller.reset()
        assert controller.stats.requests == 0
