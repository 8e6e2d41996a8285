"""Analysis utilities: metrics, sweeps, re-scoring, scenarios, reports and overheads."""

from repro.analysis.latency_breakdown import LatencyBreakdown, llc_latency_timelines
from repro.analysis.metrics import (
    geometric_mean,
    normalize,
    normalized_series,
    speedup,
)
from repro.analysis.overheads import MorpheusOverheads, compute_overheads
from repro.analysis.report import format_series, format_table
from repro.analysis.rescoring import (
    analytic_grid,
    energy_sweep,
    mlp_sweep,
    peak_ipc_sweep,
)
from repro.analysis.scenarios import (
    ScenarioAccumulator,
    ScenarioAggregates,
    SlowdownStats,
    TransitionOverheads,
    compare_runs,
    phase_table,
    scenario_energy_j,
    slowdown_stats,
    time_weighted_ipc,
    transition_overheads,
    weighted_percentile,
)
from repro.analysis.sweep import llc_scaling_sweep, sm_count_sweep

__all__ = [
    "LatencyBreakdown",
    "MorpheusOverheads",
    "ScenarioAccumulator",
    "ScenarioAggregates",
    "SlowdownStats",
    "TransitionOverheads",
    "analytic_grid",
    "compare_runs",
    "compute_overheads",
    "energy_sweep",
    "format_series",
    "format_table",
    "geometric_mean",
    "llc_latency_timelines",
    "llc_scaling_sweep",
    "mlp_sweep",
    "normalize",
    "normalized_series",
    "peak_ipc_sweep",
    "phase_table",
    "scenario_energy_j",
    "slowdown_stats",
    "sm_count_sweep",
    "speedup",
    "time_weighted_ipc",
    "transition_overheads",
    "weighted_percentile",
]
