"""Bit-identity parity suite for the vectorized batch scorer.

The contract under test: for any grid of score-tier parameter variants
(power gating, peak warp IPC, MLP, system label, resource envelope) over one
replay measurement, :meth:`PerformanceModel.score_batch` — and every
:class:`~repro.sim.vector_model.MeasurementScorer` fast path — produces
``SimulationStats`` **bit-identical** to calling the scalar
:meth:`PerformanceModel.score` per point.  Equality is asserted on
``dataclasses.asdict``, i.e. exact float equality over every field including
the per-limit roofline dict and the energy breakdown.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.config import MorpheusConfig
from repro.energy.components import ComponentEnergies
from repro.energy.model import EnergyModel
from repro.gpu.config import RTX3080_CONFIG
from repro.sim.performance_model import PerformanceModel, ResourceEnvelope
from repro.sim.simulator import GPUSimulator, SCORE_FIELDS, SimulationConfig
from repro.sim.vector_model import MIN_VECTOR_BATCH, MeasurementScorer
from repro.workloads.applications import get_application

#: Replay-side baseline the variants are scored against (Morpheus carries
#: an extended-LLC limit row; the plain config drops it).
MORPHEUS_CONFIG = SimulationConfig(
    gpu=RTX3080_CONFIG,
    morpheus=MorpheusConfig(),
    num_compute_sms=20,
    num_cache_sms=8,
    power_gate_unused=True,
    capacity_scale=1.0 / 64.0,
    trace_accesses=800,
    warmup_accesses=200,
    system_name="batch-test",
    seed=1,
)

PLAIN_CONFIG = SimulationConfig(
    gpu=RTX3080_CONFIG,
    num_compute_sms=34,
    power_gate_unused=False,
    capacity_scale=1.0 / 64.0,
    trace_accesses=800,
    warmup_accesses=200,
    system_name="batch-test-plain",
    seed=1,
)


def _random_variants(config: SimulationConfig, count: int, seed: int = 1234):
    """``count`` configs perturbing every SCORE_FIELDS dimension at random."""
    rng = random.Random(seed)
    variants = []
    for index in range(count):
        envelope = ResourceEnvelope(
            dram_bandwidth_share=rng.uniform(0.1, 1.0),
            llc_bandwidth_share=rng.uniform(0.1, 1.0),
            noc_bandwidth_share=rng.uniform(0.1, 1.0),
        )
        variants.append(
            dataclasses.replace(
                config,
                power_gate_unused=rng.random() < 0.5,
                peak_warp_ipc_per_sm=rng.choice((2.0, 4.0, 6.0)),
                mlp_per_sm=rng.choice((80.0, 320.0, 480.0)),
                system_name=f"variant-{index % 3}",
                envelope=envelope if rng.random() < 0.8 else config.envelope,
            )
        )
    return variants


def _assert_identical(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


@pytest.fixture(scope="module")
def kmeans():
    return get_application("kmeans")


@pytest.fixture(scope="module")
def morpheus_measurement(kmeans):
    return GPUSimulator(MORPHEUS_CONFIG).replay(kmeans)


@pytest.fixture(scope="module")
def plain_measurement(kmeans):
    return GPUSimulator(PLAIN_CONFIG).replay(kmeans)


class TestBatchParity:
    def test_randomized_grid_matches_scalar_bit_for_bit(
        self, kmeans, morpheus_measurement
    ):
        model = PerformanceModel()
        variants = _random_variants(MORPHEUS_CONFIG, 96)
        expected = [
            model.score(kmeans, config, morpheus_measurement) for config in variants
        ]
        actual = model.score_batch(kmeans, variants, morpheus_measurement)
        _assert_identical(actual, expected)

    def test_plain_config_grid_has_no_extended_row_and_matches(
        self, kmeans, plain_measurement
    ):
        model = PerformanceModel()
        variants = _random_variants(PLAIN_CONFIG, 32, seed=99)
        expected = [
            model.score(kmeans, config, plain_measurement) for config in variants
        ]
        actual = model.score_batch(kmeans, variants, plain_measurement)
        _assert_identical(actual, expected)
        for stats in actual:
            assert "extended_llc_bandwidth" not in stats.limits

    def test_envelope_only_sweep_matches_scalar_bit_for_bit(
        self, kmeans, plain_measurement
    ):
        # The single-config sweep shape — constant system, constant
        # gating, no extended tier — takes the elided construction fast
        # path; it must stay bit-identical to the scalar loop too.
        model = PerformanceModel()
        rng = random.Random(7)
        variants = [
            dataclasses.replace(
                PLAIN_CONFIG,
                envelope=ResourceEnvelope(
                    dram_bandwidth_share=rng.uniform(0.1, 1.0),
                    llc_bandwidth_share=rng.uniform(0.1, 1.0),
                    noc_bandwidth_share=rng.uniform(0.1, 1.0),
                ),
            )
            for _ in range(64)
        ]
        expected = [
            model.score(kmeans, config, plain_measurement) for config in variants
        ]
        actual = model.score_batch(kmeans, variants, plain_measurement)
        _assert_identical(actual, expected)

    def test_every_score_field_varies_somewhere_in_the_grid(self):
        # Guard against the generator silently degenerating: each of the
        # five score-tier dimensions must actually take >1 value.
        variants = _random_variants(MORPHEUS_CONFIG, 96)
        for field in SCORE_FIELDS:
            values = {repr(getattr(config, field)) for config in variants}
            assert len(values) > 1, f"grid never varies score field {field!r}"

    def test_small_batch_uses_scalar_fallback_identically(
        self, kmeans, morpheus_measurement
    ):
        model = PerformanceModel()
        variants = _random_variants(MORPHEUS_CONFIG, MIN_VECTOR_BATCH - 1)
        expected = [
            model.score(kmeans, config, morpheus_measurement) for config in variants
        ]
        _assert_identical(
            model.score_batch(kmeans, variants, morpheus_measurement), expected
        )

    def test_empty_batch(self, kmeans, morpheus_measurement):
        assert PerformanceModel().score_batch(kmeans, [], morpheus_measurement) == []

    def test_validate_rejects_replay_mismatch(self, kmeans, morpheus_measurement):
        model = PerformanceModel()
        mismatched = dataclasses.replace(MORPHEUS_CONFIG, trace_accesses=801)
        with pytest.raises(ValueError, match="replay"):
            model.score_batch(
                kmeans, [MORPHEUS_CONFIG, mismatched], morpheus_measurement
            )


class TestScorerFastPaths:
    def test_score_envelope_matches_scalar_score(self, kmeans, morpheus_measurement):
        model = PerformanceModel()
        scorer = model.scorer(kmeans, MORPHEUS_CONFIG, morpheus_measurement)
        envelope = ResourceEnvelope(
            dram_bandwidth_share=0.375,
            llc_bandwidth_share=0.625,
            noc_bandwidth_share=0.5,
        )
        expected = model.score(
            kmeans,
            dataclasses.replace(MORPHEUS_CONFIG, envelope=envelope),
            morpheus_measurement,
        )
        actual = scorer.score_envelope(envelope)
        assert dataclasses.asdict(actual) == dataclasses.asdict(expected)

    def test_score_config_matches_scalar_score(self, kmeans, morpheus_measurement):
        model = PerformanceModel()
        scorer = model.scorer(kmeans, MORPHEUS_CONFIG, morpheus_measurement)
        variant = dataclasses.replace(
            MORPHEUS_CONFIG,
            power_gate_unused=False,
            mlp_per_sm=480.0,
            system_name="one-off",
        )
        expected = model.score(kmeans, variant, morpheus_measurement)
        assert dataclasses.asdict(scorer.score_config(variant)) == dataclasses.asdict(
            expected
        )

    def test_matches_replay_guard(self, kmeans, morpheus_measurement):
        scorer = MeasurementScorer(kmeans, MORPHEUS_CONFIG, morpheus_measurement)
        assert scorer.matches_replay(MORPHEUS_CONFIG)
        # Score-tier perturbations keep the replay parameters intact.
        assert scorer.matches_replay(
            dataclasses.replace(MORPHEUS_CONFIG, mlp_per_sm=80.0)
        )
        assert not scorer.matches_replay(
            dataclasses.replace(MORPHEUS_CONFIG, seed=2)
        )
        assert not scorer.matches_replay(
            dataclasses.replace(MORPHEUS_CONFIG, replay_mode="analytic")
        )

    def test_energy_batch_matches_per_model_scoring(
        self, kmeans, morpheus_measurement
    ):
        energies_grid = [
            ComponentEnergies(),
            ComponentEnergies(dram_pj_per_byte=25.0),
            ComponentEnergies(base_static_watts=40.0),
        ]
        scorer = MeasurementScorer(kmeans, MORPHEUS_CONFIG, morpheus_measurement)
        batched = scorer.score_energy_batch(
            MORPHEUS_CONFIG, [EnergyModel(energies) for energies in energies_grid]
        )
        expected = [
            PerformanceModel(EnergyModel(energies)).score(
                kmeans, MORPHEUS_CONFIG, morpheus_measurement
            )
            for energies in energies_grid
        ]
        _assert_identical(batched, expected)
