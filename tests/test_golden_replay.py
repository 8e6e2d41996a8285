"""Replay-tier golden tests: exact snapshots of one trace replay per system leaf.

Each case replays one fixed-seed ``spmv`` leaf through the memory
hierarchy (trace generation, warm-up, measured replay; no scoring) and
compares :meth:`ReplayMeasurement.to_jsonable` against a JSON fixture
committed under ``tests/fixtures/golden_replay/``.  The comparison is
**exact**: floats survive JSON via ``repr``, so any change to the order in
which the engine accumulates a counter shows up here.

The leaves cover every replayed system flavour of Figures 12 and 13 at one
fixed operating point, plus a Morpheus-ALL leaf whose narrow NoC ports run
past the congestion knee.  A mismatch means replay behaviour changed; that
must be deliberate: bump ``REPLAY_SCHEMA_VERSION`` in
``src/repro/runner/spec.py`` and regenerate the fixtures with::

    PYTHONPATH=src REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_replay.py
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.gpu.config import RTX3080_CONFIG
from repro.runner import REPLAY_SCHEMA_VERSION
from repro.sim.simulator import GPUSimulator, SimulationConfig
from repro.systems.baseline import FrequencyBoostSystem
from repro.systems.morpheus_system import MorpheusVariant
from repro.workloads.applications import get_application

GOLDEN_DIR = Path(__file__).parent / "fixtures" / "golden_replay"
REGEN_ENV = "REPRO_REGEN_GOLDEN"

_SIZING = dict(
    capacity_scale=1.0 / 64.0,
    trace_accesses=3_000,
    warmup_accesses=1_000,
    seed=7,
)

#: BL folds Morpheus's 21 KiB per partition of controller storage into its LLC.
_BL_GPU = RTX3080_CONFIG.with_llc_capacity(
    RTX3080_CONFIG.llc.capacity_bytes + 21 * 1024 * RTX3080_CONFIG.llc.num_partitions
)
#: Frequency-Boost at 34 compute SMs (34 gated SMs).
_BOOSTED_GPU = RTX3080_CONFIG.with_frequency_boost(FrequencyBoostSystem().boost_factor(34))
#: Unified-SM-Mem folds 60 % of the register file into the L1.
_UNIFIED_GPU = RTX3080_CONFIG.with_extra_l1(int(RTX3080_CONFIG.register_file_bytes_per_sm * 0.6))
#: Ports this narrow run past ``congestion_knee`` at the default request interval.
_CONGESTED_GPU = replace(
    RTX3080_CONFIG,
    interconnect=replace(RTX3080_CONFIG.interconnect, bytes_per_cycle_per_port=6.0),
)


def _baseline(gpu, compute_sms):
    return dict(gpu=gpu, num_compute_sms=compute_sms)


def _morpheus(variant, predictor="bloom", gpu=RTX3080_CONFIG):
    return dict(
        gpu=gpu,
        morpheus=variant.to_config(predictor),
        num_compute_sms=40,
        num_cache_sms=28,
    )


GOLDEN_CASES = {
    "BL": _baseline(_BL_GPU, 68),
    "IBL": _baseline(RTX3080_CONFIG, 34),
    "IBL-4X-LLC": _baseline(RTX3080_CONFIG.with_llc_scale(4.0), 34),
    "Frequency-Boost": _baseline(_BOOSTED_GPU, 34),
    "Unified-SM-Mem": _baseline(_UNIFIED_GPU, 34),
    "Morpheus-Basic": _morpheus(MorpheusVariant.BASIC),
    "Morpheus-Basic(none)": _morpheus(MorpheusVariant.BASIC, "none"),
    "Morpheus-Basic(perfect)": _morpheus(MorpheusVariant.BASIC, "perfect"),
    "Morpheus-Compression": _morpheus(MorpheusVariant.COMPRESSION),
    "Morpheus-ALL": _morpheus(MorpheusVariant.ALL),
    "Morpheus-ALL-congested": _morpheus(MorpheusVariant.ALL, gpu=_CONGESTED_GPU),
}


def _replay(case: str):
    config = SimulationConfig(system_name=case, **GOLDEN_CASES[case], **_SIZING)
    measurement = GPUSimulator(config).replay(get_application("spmv"))
    return json.loads(json.dumps({
        "replay_schema_version": REPLAY_SCHEMA_VERSION,
        "measurement": measurement.to_jsonable(),
    }))


def _fixture_path(case: str) -> Path:
    return GOLDEN_DIR / f"{case}.json"


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_replay(case):
    path = _fixture_path(case)
    actual = _replay(case)
    if os.environ.get(REGEN_ENV):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path}")
    assert path.exists(), f"missing golden fixture {path}; generate it with {REGEN_ENV}=1"
    expected = json.loads(path.read_text())
    assert actual == expected, (
        f"replay of {case!r} differs from {path}; if intended, bump "
        f"REPLAY_SCHEMA_VERSION and regenerate with {REGEN_ENV}=1"
    )


def test_congested_leaf_runs_past_the_knee():
    """Without the congestion penalty the congested leaf's NoC is faster."""
    measured = json.loads(_fixture_path("Morpheus-ALL-congested").read_text())
    noc = replace(_CONGESTED_GPU.interconnect, max_congestion_penalty=0.0)
    case = dict(GOLDEN_CASES["Morpheus-ALL-congested"], gpu=replace(_CONGESTED_GPU, interconnect=noc))
    config = SimulationConfig(system_name="no-penalty", **case, **_SIZING)
    unpenalised = GPUSimulator(config).replay(get_application("spmv"))
    assert (
        measured["measurement"]["noc_average_latency_cycles"]
        > unpenalised.noc_average_latency_cycles
    )


def test_fixtures_cover_every_case():
    committed = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert committed == set(GOLDEN_CASES)
