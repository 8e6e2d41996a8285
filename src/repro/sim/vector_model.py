"""Vectorized batch scoring of one replay measurement (numpy-backed).

The scalar :meth:`~repro.sim.performance_model.PerformanceModel.score` is
the hot loop of every analytic sweep and of the co-run contention fixed
point: it re-derives per-measurement invariants (hit rates, bytes per
kilo-instruction, channel capacities) on every call and then evaluates a
handful of float expressions that actually depend on the score-tier
parameters.  :class:`MeasurementScorer` splits those halves:

* ``__init__`` hoists everything that depends only on (profile, replay
  config, measurement, energy constants) — computed once per measurement;
* :meth:`score_config` / :meth:`score_envelope` are scalar fast paths over
  the hoisted state (used per-iteration by the contention solver);
* :meth:`score_batch` scores a whole grid of score-parameter variants in
  one numpy pass — every array expression preserves the scalar code's
  evaluation order, so results are **bit-identical** to calling
  ``PerformanceModel.score`` per point (IEEE-754 float64 elementwise ops
  match CPython float ops when the operation order is preserved);
* :meth:`score_energy_batch` shares one roofline evaluation across a grid
  of energy-constant variants.

numpy is a declared dependency (``setup.py``); batches smaller than
:data:`MIN_VECTOR_BATCH` take the scalar loop instead (same results).
"""

from __future__ import annotations

import gc as _gc
import operator
from itertools import repeat as _repeat
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.sim.stats import SimulationStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.performance_model import ReplayMeasurement, ResourceEnvelope
    from repro.sim.simulator import SimulationConfig
    from repro.workloads.applications import ApplicationProfile

#: Below this batch size the fixed numpy dispatch overhead outweighs the
#: per-point win; the scalar fast path is used instead (identical results).
MIN_VECTOR_BATCH = 8

_INF = float("inf")

#: String score-tier input gathered per config for the batch path.
_SYSTEM_NAME = operator.attrgetter("system_name")


class MeasurementScorer:
    """Scores one measurement under many score-tier parameter variants.

    All replay-side quantities are hoisted in ``__init__``; the per-call
    work touches only the :data:`~repro.sim.simulator.SCORE_FIELDS`
    parameters (power gating, peak IPC, MLP, system label, envelope) and —
    for :meth:`score_energy_batch` — the energy constants.

    Args:
        profile: Application the measurement belongs to.
        config: A config carrying the measurement's replay parameters; its
            score-tier fields serve as defaults for :meth:`score_envelope`.
        measurement: The replay measurement being (re-)scored.
        energy_model: Energy constants for the fixed-energy paths.
    """

    def __init__(
        self,
        profile: "ApplicationProfile",
        config: "SimulationConfig",
        measurement: "ReplayMeasurement",
        energy_model: Optional[EnergyModel] = None,
    ) -> None:
        from repro.sim.performance_model import shared_bandwidth_capacities

        self.profile = profile
        self.base_config = config
        self.measurement = measurement
        self.energy_model = energy_model or EnergyModel()

        gpu = config.gpu
        counters = measurement.counters
        self._gpu = gpu

        # -- replay-side invariants (the scalar score()'s preamble) -------------
        self._l1_hit = profile.l1_hit_rate_for_capacity(gpu.l1_shared_bytes_per_sm)
        self._apki_l1 = profile.l1_apki
        self._apki_llc = profile.llc_apki(self._l1_hit)
        block = gpu.block_size

        accesses = max(1, counters.llc_accesses)
        self._accesses = accesses
        self._llc_hit_rate = counters.llc_hit_rate
        self._llc_mpki = self._apki_llc * (1.0 - counters.llc_hit_rate)
        self._dram_apki = self._apki_llc * counters.dram_access_fraction

        self._conv_bpki = counters.conventional_bytes / accesses * self._apki_llc
        self._ext_bpki = counters.extended_bytes / accesses * self._apki_llc
        self._dram_bpki = counters.dram_bytes / accesses * self._apki_llc
        self._noc_bpki = counters.noc_bytes / accesses * self._apki_llc
        self._l1_bpki = self._apki_l1 * block

        capacities = shared_bandwidth_capacities(gpu)
        self._cap_dram = capacities["dram"]
        self._cap_llc = capacities["llc"]
        self._cap_noc = capacities["noc"]

        # bandwidth_limit() divides by (bytes_per_ki / 1000.0); hoist the
        # divisor, or None when the scalar guard forces an infinite limit.
        self._dram_div = self._bpki_divisor(self._dram_bpki)
        self._llc_div = self._bpki_divisor(self._conv_bpki)
        self._noc_div = self._bpki_divisor(self._noc_bpki)

        self._num_compute = config.num_compute_sms
        self._num_cache = config.num_cache_sms
        self._raw_extra = gpu.num_sms - config.num_compute_sms - config.num_cache_sms
        self._compute_eff = profile.compute_efficiency

        self._has_ext = config.num_cache_sms > 0 and config.morpheus is not None
        if self._has_ext:
            ext_bpc = (
                config.morpheus.timing.per_sm_extended_bandwidth_gbps
                / gpu.core_clock_ghz
                * config.num_cache_sms
            )
            div = self._bpki_divisor(self._ext_bpki)
            self._ext_limit = _INF if div is None else ext_bpc / div
        else:
            self._ext_limit = _INF

        self._avg_latency = max(1.0, counters.average_latency_cycles)
        self._inv_apki_k = (
            (1000.0 / self._apki_llc) if self._apki_llc > 1e-9 else None
        )

        self._instructions = float(profile.instructions)
        kilo_instructions = self._instructions / 1000.0
        self._dram_bytes_total = self._dram_bpki * kilo_instructions
        self._conv_bytes_total = self._conv_bpki * kilo_instructions
        self._ext_bytes_total = self._ext_bpki * kilo_instructions
        self._l1_bytes_total = self._l1_bpki * kilo_instructions
        self._noc_bytes_total = self._noc_bpki * kilo_instructions

        self._ghz9 = gpu.core_clock_ghz * 1e9
        self._dram_total_bw = max(1e-9, gpu.dram.total_bandwidth_gbps)
        self._convext_bpki = self._conv_bpki + self._ext_bpki
        self._noc_bpki_over_k = self._noc_bpki / 1000.0

        predictor = measurement.predictor
        self._pred_fpr = predictor.false_positive_rate if predictor is not None else 0.0
        self._pred_fn = predictor.false_negatives if predictor is not None else 0
        self._pred_miss_frac = (
            counters.predicted_misses / accesses if accesses else 0.0
        )
        self._noc_avg_lat = measurement.noc_average_latency_cycles

        # -- fixed-energy-model invariants (used by the vectorized path) --------
        e = self.energy_model.energies
        pj_to_j = 1e-12
        dram_j = self._dram_bytes_total * e.dram_pj_per_byte * pj_to_j
        llc_j = self._conv_bytes_total * e.llc_pj_per_byte * pj_to_j
        ext_j = self._ext_bytes_total * e.extended_llc_pj_per_byte * pj_to_j
        l1_j = self._l1_bytes_total * e.l1_pj_per_byte * pj_to_j
        noc_j = self._noc_bytes_total * e.noc_pj_per_byte * pj_to_j
        core_j = self._instructions * e.core_dynamic_pj_per_instruction * pj_to_j
        self._fixed_component_j = (dram_j, llc_j, ext_j, l1_j, noc_j, core_j)
        # EnergyBreakdown.total_j sums left-to-right; hoist the fixed prefix
        # with the same association so batch totals match bit-for-bit.
        self._bytes_core_j = ((((dram_j + llc_j) + ext_j) + l1_j) + noc_j) + core_j
        # static_watts has exactly two variants (power-gated or not);
        # replicate EnergyModel.compute()'s expression order for both.
        self._sw_gated = (
            e.base_static_watts
            + self._num_compute * e.sm_static_watts
            + self._num_cache * e.sm_cache_mode_watts
            + self._raw_extra * 0.02 * e.sm_static_watts
        )
        self._sw_plain = (
            e.base_static_watts
            + (self._num_compute + self._raw_extra) * e.sm_static_watts
            + self._num_cache * e.sm_cache_mode_watts
            + 0 * 0.02 * e.sm_static_watts
        )
        self._controller_watts = e.morpheus_controller_watts
        self._e_ghz9 = e.core_clock_ghz * 1e9

    @staticmethod
    def _bpki_divisor(bytes_per_ki: float) -> Optional[float]:
        if bytes_per_ki <= 1e-9:
            return None
        return bytes_per_ki / 1000.0

    # -- replay-compatibility guard ----------------------------------------------------

    def matches_replay(self, config: "SimulationConfig") -> bool:
        """Whether ``config`` shares this scorer's replay parameters."""
        from repro.sim.simulator import REPLAY_FIELDS

        base = self.base_config
        if config is base:
            return True
        for name in REPLAY_FIELDS:
            ours = getattr(base, name)
            theirs = getattr(config, name)
            # Identity-first: sweeps share the same gpu/morpheus objects,
            # so the nested dataclass comparison almost never runs.
            if theirs is not ours and theirs != ours:
                return False
        return True

    # -- scalar fast paths -------------------------------------------------------------

    def _roofline(self, peak: float, mlp: float, envelope: "ResourceEnvelope"):
        """The IPC limits for one score-parameter point (exact scalar order)."""
        limits: Dict[str, float] = {}
        limits["compute"] = self._num_compute * peak * self._compute_eff
        limits["dram_bandwidth"] = (
            _INF
            if self._dram_div is None
            else (self._cap_dram * envelope.dram_bandwidth_share) / self._dram_div
        )
        limits["llc_bandwidth"] = (
            _INF
            if self._llc_div is None
            else (self._cap_llc * envelope.llc_bandwidth_share) / self._llc_div
        )
        if self._has_ext:
            limits["extended_llc_bandwidth"] = self._ext_limit
        limits["noc_bandwidth"] = (
            _INF
            if self._noc_div is None
            else (self._cap_noc * envelope.noc_bandwidth_share) / self._noc_div
        )
        if self._inv_apki_k is not None:
            limits["latency"] = (
                self._num_compute * mlp / self._avg_latency * self._inv_apki_k
            )
        else:
            limits["latency"] = _INF
        return limits

    def _score_scalar(
        self,
        power_gate_unused: bool,
        peak: float,
        mlp: float,
        system_name: str,
        envelope: "ResourceEnvelope",
        energy_model: Optional[EnergyModel] = None,
        _limits: Optional[Dict[str, float]] = None,
    ) -> SimulationStats:
        """One point over the hoisted state — bit-identical to the scalar score."""
        energy_model = energy_model or self.energy_model
        limits = dict(_limits) if _limits is not None else self._roofline(peak, mlp, envelope)
        ipc = min(limits.values())
        bottleneck = min(limits, key=limits.get)
        execution_cycles = self._instructions / max(ipc, 1e-9)

        num_gated = 0
        num_active_extra = self._raw_extra
        if power_gate_unused:
            num_gated = num_active_extra
            num_active_extra = 0
        breakdown = energy_model.compute(
            execution_cycles=execution_cycles,
            instructions=self._instructions,
            dram_bytes=self._dram_bytes_total,
            llc_bytes=self._conv_bytes_total,
            extended_llc_bytes=self._ext_bytes_total,
            l1_bytes=self._l1_bytes_total,
            noc_bytes=self._noc_bytes_total,
            num_compute_sms=self._num_compute + num_active_extra,
            num_cache_sms=self._num_cache,
            num_gated_sms=num_gated,
            morpheus_enabled=self._has_ext,
        )
        perf_per_watt = energy_model.performance_per_watt(ipc, breakdown, execution_cycles)
        avg_power = energy_model.average_power_watts(breakdown, execution_cycles)

        seconds_per_ki = (1000.0 / max(ipc, 1e-9)) / self._ghz9

        def throughput_gbps(bytes_per_ki: float) -> float:
            if seconds_per_ki <= 0:
                return 0.0
            return bytes_per_ki / seconds_per_ki / 1e9

        return SimulationStats(
            application=self.profile.name,
            system=system_name,
            num_compute_sms=self._num_compute,
            num_cache_sms=self._num_cache,
            num_gated_sms=num_gated,
            ipc=ipc,
            execution_cycles=execution_cycles,
            instructions=self._instructions,
            l1_hit_rate=self._l1_hit,
            llc_hit_rate=self._llc_hit_rate,
            conventional_llc_hit_rate=self.measurement.counters.conventional_hit_rate,
            extended_llc_hit_rate=self.measurement.counters.extended_hit_rate,
            extended_fraction=self.measurement.counters.extended_fraction,
            llc_mpki=self._llc_mpki,
            llc_apki=self._apki_llc,
            dram_accesses_per_ki=self._dram_apki,
            dram_bytes=self._dram_bytes_total,
            dram_bandwidth_utilization=min(
                1.0, throughput_gbps(self._dram_bpki) / self._dram_total_bw
            ),
            llc_throughput_gbps=throughput_gbps(self._convext_bpki),
            extended_llc_throughput_gbps=throughput_gbps(self._ext_bpki),
            noc_bytes=self._noc_bytes_total,
            noc_injection_bytes_per_cycle=self._noc_bpki_over_k * ipc,
            noc_average_latency_cycles=self._noc_avg_lat,
            average_memory_latency_cycles=self._avg_latency,
            bottleneck=bottleneck,
            limits=limits,
            predictor_false_positive_rate=self._pred_fpr,
            predictor_false_negatives=self._pred_fn,
            predicted_miss_fraction=self._pred_miss_frac,
            energy=breakdown,
            average_power_watts=avg_power,
            performance_per_watt=perf_per_watt,
        )

    def score_config(self, config: "SimulationConfig") -> SimulationStats:
        """Score one config variant (scalar; shares the hoisted invariants)."""
        return self._score_scalar(
            config.power_gate_unused,
            config.peak_warp_ipc_per_sm,
            config.mlp_per_sm,
            config.system_name,
            config.envelope,
        )

    def score_envelope(self, envelope: "ResourceEnvelope") -> SimulationStats:
        """Score the base config under ``envelope`` (the contention hot path).

        Equivalent to ``score_config(replace(base_config, envelope=...))``
        without constructing (and re-validating) a config per iteration.
        """
        base = self.base_config
        return self._score_scalar(
            base.power_gate_unused,
            base.peak_warp_ipc_per_sm,
            base.mlp_per_sm,
            base.system_name,
            envelope,
        )

    def score_energy_batch(
        self,
        config: "SimulationConfig",
        energy_models: Sequence[EnergyModel],
    ) -> List[SimulationStats]:
        """Score ``config`` under each energy model, sharing one roofline pass.

        The roofline (limits, IPC, bottleneck) is independent of the energy
        constants, so it is evaluated once; each grid point then runs only
        the energy arithmetic — through the real :class:`EnergyModel`, so
        results are bit-identical to scoring each point from scratch.
        """
        limits = self._roofline(
            config.peak_warp_ipc_per_sm, config.mlp_per_sm, config.envelope
        )
        return [
            self._score_scalar(
                config.power_gate_unused,
                config.peak_warp_ipc_per_sm,
                config.mlp_per_sm,
                config.system_name,
                config.envelope,
                energy_model=energy_model,
                _limits=limits,
            )
            for energy_model in energy_models
        ]

    # -- the vectorized batch ----------------------------------------------------------

    def score_batch(self, configs: Sequence["SimulationConfig"]) -> List[SimulationStats]:
        """Score every config variant in one vectorized pass.

        Configs must share this scorer's replay parameters (the caller
        guards that; see ``PerformanceModel.score_batch``).  Tiny batches
        take the scalar loop instead — results are identical either way.
        """
        count = len(configs)
        if count == 0:
            return []
        if count < MIN_VECTOR_BATCH:
            return [self.score_config(config) for config in configs]

        # The batch allocates a bounded burst of result containers (a few
        # per point, most of them live on return), so generational GC runs
        # triggered mid-loop only rescan the growing result set.  Pause
        # collection for the duration; allocations stay tracked and are
        # swept by the next collection after re-enable.
        gc_was_enabled = _gc.isenabled()
        if gc_was_enabled:
            _gc.disable()
        try:
            return self._score_batch_vectorized(configs, count)
        finally:
            if gc_was_enabled:
                _gc.enable()

    def _score_batch_vectorized(
        self, configs: Sequence["SimulationConfig"], count: int
    ) -> List[SimulationStats]:
        peak = np.array([c.peak_warp_ipc_per_sm for c in configs], dtype=np.float64)
        mlp = np.array([c.mlp_per_sm for c in configs], dtype=np.float64)
        power_gate = np.array([c.power_gate_unused for c in configs], dtype=bool)
        envs = [c.envelope for c in configs]
        d_share = np.array(
            [e.dram_bandwidth_share for e in envs], dtype=np.float64
        )
        l_share = np.array(
            [e.llc_bandwidth_share for e in envs], dtype=np.float64
        )
        n_share = np.array(
            [e.noc_bandwidth_share for e in envs], dtype=np.float64
        )

        # --- IPC limits (expression order mirrors the scalar path) -------------
        rows: List[tuple] = []
        rows.append(("compute", (self._num_compute * peak) * self._compute_eff))
        rows.append(
            (
                "dram_bandwidth",
                _INF
                if self._dram_div is None
                else (self._cap_dram * d_share) / self._dram_div,
            )
        )
        rows.append(
            (
                "llc_bandwidth",
                _INF
                if self._llc_div is None
                else (self._cap_llc * l_share) / self._llc_div,
            )
        )
        if self._has_ext:
            rows.append(("extended_llc_bandwidth", self._ext_limit))
        rows.append(
            (
                "noc_bandwidth",
                _INF
                if self._noc_div is None
                else (self._cap_noc * n_share) / self._noc_div,
            )
        )
        rows.append(
            (
                "latency",
                _INF
                if self._inv_apki_k is None
                else ((self._num_compute * mlp) / self._avg_latency) * self._inv_apki_k,
            )
        )
        limit_names = tuple(name for name, _ in rows)
        matrix = np.empty((len(rows), count), dtype=np.float64)
        for row_index, (_, values) in enumerate(rows):
            matrix[row_index] = values
        ipc = matrix.min(axis=0)
        # First row achieving the minimum — same tie-break as the scalar
        # ``min(limits, key=limits.get)`` over the insertion-ordered dict.
        bottleneck_idx = matrix.argmin(axis=0)
        execution_cycles = self._instructions / np.maximum(ipc, 1e-9)

        # --- energy (fixed model; only the static/controller terms vary) -------
        num_gated = np.where(power_gate, self._raw_extra, 0)
        static_watts = np.where(power_gate, self._sw_gated, self._sw_plain)
        seconds = execution_cycles / self._e_ghz9
        static_j = static_watts * seconds
        if self._has_ext:
            controller_j = self._controller_watts * seconds
        else:
            controller_j = np.zeros(count)
        total_j = (self._bytes_core_j + static_j) + controller_j

        with np.errstate(divide="ignore", invalid="ignore"):
            watts = total_j / seconds
            ppw_raw = ipc / watts
        live = (execution_cycles > 0) & (seconds > 0)
        avg_power = np.where(live, watts, 0.0)
        perf_per_watt = np.where(live & (watts > 0), ppw_raw, 0.0)

        # --- throughputs at the modelled IPC ------------------------------------
        seconds_per_ki = (1000.0 / np.maximum(ipc, 1e-9)) / self._ghz9
        with np.errstate(divide="ignore", invalid="ignore"):
            tp_dram = (self._dram_bpki / seconds_per_ki) / 1e9
            tp_llc = (self._convext_bpki / seconds_per_ki) / 1e9
            tp_ext = (self._ext_bpki / seconds_per_ki) / 1e9
        positive = seconds_per_ki > 0
        tp_dram = np.where(positive, tp_dram, 0.0)
        tp_llc = np.where(positive, tp_llc, 0.0)
        tp_ext = np.where(positive, tp_ext, 0.0)
        dram_util = np.minimum(1.0, tp_dram / self._dram_total_bw)
        noc_injection = self._noc_bpki_over_k * ipc

        # --- per-point construction (exact Python floats via tolist) ------------
        ipc_l = ipc.tolist()
        cycles_l = execution_cycles.tolist()
        static_l = static_j.tolist()
        controller_l = controller_j.tolist()
        power_l = avg_power.tolist()
        ppw_l = perf_per_watt.tolist()
        util_l = dram_util.tolist()
        tp_llc_l = tp_llc.tolist()
        noc_inj_l = noc_injection.tolist()
        system_l = list(map(_SYSTEM_NAME, configs))
        # Fancy-indexing an object array gathers the per-point bottleneck
        # labels ~6x faster than a Python-level map over the indices.
        bottleneck_l = np.array(limit_names, dtype=object)[bottleneck_idx].tolist()
        # Per-limit value columns (contiguous matrix rows).  The extended
        # row only exists for Morpheus configs; a repeat() placeholder
        # keeps the loop's zip shape fixed without a per-point cost.
        has_ext = self._has_ext
        if has_ext:
            (row_compute_l, row_dram_l, row_llc_l, row_ext_l, row_noc_l,
             row_latency_l) = (matrix[i].tolist() for i in range(6))
        else:
            row_compute_l, row_dram_l, row_llc_l, row_noc_l, row_latency_l = (
                matrix[i].tolist() for i in range(5)
            )
            row_ext_l = _repeat(0.0)

        dram_j, llc_j, ext_j, l1_j, noc_j, core_j = self._fixed_component_j
        template = vars(
            self._score_scalar(
                configs[0].power_gate_unused,
                configs[0].peak_warp_ipc_per_sm,
                configs[0].mlp_per_sm,
                configs[0].system_name,
                configs[0].envelope,
            )
        )
        # The loops below are the batch's per-point floor, so they stick to
        # C-level dict plumbing: both dataclasses are plain (mutable,
        # slot-less), so `__new__` plus a `__dict__` assignment skips their
        # constructors; `template.copy()` plus one subscript store per
        # varying field beats rebuilding the 32-key dict from a display;
        # and the per-point limits dict is a literal-key display (5 or 6
        # keys, decided once per batch) rather than a `dict(zip(...))`.
        results: List[SimulationStats] = []
        append = results.append
        new_energy = EnergyBreakdown.__new__
        new_stats = SimulationStats.__new__
        # Sweep fast path: the dominant caller shape is a single-config
        # sweep (one system, one gating choice, no extended tier) where the
        # ``system``, ``num_gated_sms`` and ``extended_llc_throughput_gbps``
        # columns are batch-constant.  Bit-identity pins the template — the
        # scalar score of configs[0] — to exactly those constant values, so
        # their zip columns and per-point stores can be elided outright.
        if (
            not has_ext
            and len(set(system_l)) == 1
            and bool((num_gated == num_gated[0]).all())
            and bool((tp_ext == tp_ext[0]).all())
        ):
            # No extended tier also means the controller draws nothing, so
            # the energy dict varies in ``static_j`` alone: copy a template
            # and store one key instead of rebuilding the 8-key display.
            # (A C-level ``dict(template, **varying)`` merge measures
            # slower here — the interpreter specializes these stores.)
            # The limits dicts come from a dedicated listcomp first: the
            # narrow comprehension plus a 10-column main loop measures
            # ~10% faster than fusing the display into one 14-column loop.
            energy_template = vars(template["energy"]).copy()
            limits_l = [
                {
                    "compute": limit_compute,
                    "dram_bandwidth": limit_dram,
                    "llc_bandwidth": limit_llc,
                    "noc_bandwidth": limit_noc,
                    "latency": limit_latency,
                }
                for limit_compute, limit_dram, limit_llc, limit_noc,
                limit_latency in zip(
                    row_compute_l, row_dram_l, row_llc_l, row_noc_l,
                    row_latency_l,
                )
            ]
            # Allocation happens at C speed up front — `map(cls.__new__,
            # repeat(cls))` builds the bare objects and `map(dict.copy,
            # repeat(template))` their field dicts without touching the
            # interpreter loop, which then only stores the varying values.
            results = list(map(new_stats, _repeat(SimulationStats, count)))
            energies = map(new_energy, _repeat(EnergyBreakdown, count))
            fields_it = map(dict.copy, _repeat(template, count))
            edicts_it = map(dict.copy, _repeat(energy_template, count))
            for (
                stats, energy, fields, fields_energy, point_ipc, cycles,
                util, point_tp_llc, noc_inj, bottleneck, power, ppw,
                static_joules, limits,
            ) in zip(
                results, energies, fields_it, edicts_it, ipc_l, cycles_l,
                util_l, tp_llc_l, noc_inj_l, bottleneck_l, power_l, ppw_l,
                static_l, limits_l,
            ):
                fields_energy["static_j"] = static_joules
                energy.__dict__ = fields_energy
                fields["ipc"] = point_ipc
                fields["execution_cycles"] = cycles
                fields["dram_bandwidth_utilization"] = util
                fields["llc_throughput_gbps"] = point_tp_llc
                fields["noc_injection_bytes_per_cycle"] = noc_inj
                fields["bottleneck"] = bottleneck
                fields["limits"] = limits
                fields["energy"] = energy
                fields["average_power_watts"] = power
                fields["performance_per_watt"] = ppw
                stats.__dict__ = fields
            return results

        gated_l = num_gated.tolist()
        tp_ext_l = tp_ext.tolist()
        for (
            system_name, gated, point_ipc, cycles, util, point_tp_llc,
            point_tp_ext, noc_inj, bottleneck, power, ppw, static_joules,
            controller_joules, limit_compute, limit_dram, limit_llc,
            limit_ext, limit_noc, limit_latency,
        ) in zip(
            system_l, gated_l, ipc_l, cycles_l, util_l, tp_llc_l, tp_ext_l,
            noc_inj_l, bottleneck_l, power_l, ppw_l, static_l, controller_l,
            row_compute_l, row_dram_l, row_llc_l, row_ext_l, row_noc_l,
            row_latency_l,
        ):
            energy = new_energy(EnergyBreakdown)
            energy.__dict__ = {
                "dram_j": dram_j,
                "llc_j": llc_j,
                "extended_llc_j": ext_j,
                "l1_j": l1_j,
                "noc_j": noc_j,
                "core_dynamic_j": core_j,
                "static_j": static_joules,
                "morpheus_controller_j": controller_joules,
            }
            if has_ext:
                limits = {
                    "compute": limit_compute,
                    "dram_bandwidth": limit_dram,
                    "llc_bandwidth": limit_llc,
                    "extended_llc_bandwidth": limit_ext,
                    "noc_bandwidth": limit_noc,
                    "latency": limit_latency,
                }
            else:
                limits = {
                    "compute": limit_compute,
                    "dram_bandwidth": limit_dram,
                    "llc_bandwidth": limit_llc,
                    "noc_bandwidth": limit_noc,
                    "latency": limit_latency,
                }
            fields = template.copy()
            fields["system"] = system_name
            fields["num_gated_sms"] = gated
            fields["ipc"] = point_ipc
            fields["execution_cycles"] = cycles
            fields["dram_bandwidth_utilization"] = util
            fields["llc_throughput_gbps"] = point_tp_llc
            fields["extended_llc_throughput_gbps"] = point_tp_ext
            fields["noc_injection_bytes_per_cycle"] = noc_inj
            fields["bottleneck"] = bottleneck
            fields["limits"] = limits
            fields["energy"] = energy
            fields["average_power_watts"] = power
            fields["performance_per_watt"] = ppw
            stats = new_stats(SimulationStats)
            stats.__dict__ = fields
            append(stats)
        return results
