"""Outside-in layer tracer for the traced benchmark mode.

The tracer wraps, from outside the program, the public functions, methods
and properties of every module in :data:`LAYERS` and keeps a span stack.
A span opens when control enters a layer from another layer (or from the
benchmark itself); calls that stay inside the layer open no new span, so
``calls`` counts entries into the layer.  A layer's self time is the
duration of its spans minus the time covered by their child spans.

Names bound elsewhere by ``from module import name`` are rebound in every
loaded ``repro`` module that holds the same object (the scenario engine,
for example, binds ``content_hash`` and ``solve_scenario_contention``).
Methods are patched on their class, so every instance is covered.

Spans are aggregated per layer as they close (a Fig-12 replay opens
millions of them), and the aggregates are read once the run ends.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Traced layers: module names relative to the ``repro`` package.
LAYERS: Tuple[str, ...] = (
    "workloads.generator",
    "sim.engine",
    "memory.llc",
    "memory.dram",
    "interconnect.network",
    "core.controller",
    "core.extended_llc",
    "core.hit_miss_predictor",
    "sim.analytic",
    "sim.performance_model",
    "runner.spec",
    "runner.cache",
    "runner.runner",
    "scenarios.spec",
    "scenarios.engine",
    "scenarios.policy",
    "scenarios.contention",
    "analysis.scenarios",
)

#: Layers whose span count is reported as ``<layer>.calls``.
_COUNTED = {
    "workloads.generator",
    "memory.llc",
    "memory.dram",
    "interconnect.network",
    "core.controller",
    "core.extended_llc",
    "core.hit_miss_predictor",
    "sim.analytic",
    "sim.performance_model",
    "runner.spec",
    "scenarios.contention",
    "analysis.scenarios",
}

#: Layers whose self time is not reported (``runner.cache`` reports its
#: read and write time instead).
_NO_SELF_TIME = {"runner.cache"}

#: Outcome hooks: (layer, qualified name) -> observer of (args, result, seconds).
Hook = Callable[[tuple, object, float], None]


class LayerTracer:
    """Installs span wrappers on the traced layers and aggregates them."""

    def __init__(self) -> None:
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.root_s = [0.0]
        self.excluded_s = 0.0
        self.counts: Dict[str, float] = {
            "llc_hits": 0,
            "extended_hits": 0,
            "false_positives": 0,
            "reads": 0,
            "read_hits": 0,
            "read_s": 0.0,
            "writes": 0,
            "write_s": 0.0,
        }
        self._stack: List[list] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- outcome hooks ---------------------------------------------------------------

    def _hooks(self) -> Dict[Tuple[str, str], Hook]:
        counts = self.counts

        def llc_access(args, result, seconds):
            if result[0]:
                counts["llc_hits"] += 1

        def extended_access(args, result, seconds):
            if result.hit:
                counts["extended_hits"] += 1

        def predictor_outcome(args, result, seconds):
            # record_outcome(self, predicted_hit, actual_hit)
            if args[1] and not args[2]:
                counts["false_positives"] += 1

        def cache_read(args, result, seconds):
            counts["reads"] += 1
            counts["read_s"] += seconds
            if result is not None:
                counts["read_hits"] += 1

        def cache_write(args, result, seconds):
            counts["writes"] += 1
            counts["write_s"] += seconds

        hooks = {
            ("memory.llc", "LLCPartition.access"): llc_access,
            ("core.extended_llc", "ExtendedLLC.access"): extended_access,
            ("core.hit_miss_predictor", "HitMissPredictor.record_outcome"): predictor_outcome,
        }
        for name in ("load", "load_measurement", "load_scenario"):
            hooks[("runner.cache", f"ResultCache.{name}")] = cache_read
        for name in ("store", "store_measurement", "store_scenario"):
            hooks[("runner.cache", f"ResultCache.{name}")] = cache_write
        return hooks

    # -- wrapping --------------------------------------------------------------------

    def _wrap(self, fn: Callable, index: int, hook: Optional[Hook]) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        root_s = self.root_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == index:
                # Still inside this layer: no new span.
                if hook is None:
                    return fn(*args, **kwargs)
                result = fn(*args, **kwargs)
                hook(args, result, 0.0)
                return result
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[index] += elapsed - frame[1]
                calls[index] += 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    root_s[0] += elapsed
            if hook is not None:
                hook(args, result, elapsed)
            return result

        return traced

    def _set(self, owner: object, name: str, value: object) -> None:
        # vars() keeps a class's raw staticmethod/classmethod descriptors.
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every traced layer (call after the workload's imports)."""
        hooks = self._hooks()
        rebind: Dict[int, Callable] = {}
        for index, layer in enumerate(LAYERS):
            module = importlib.import_module(f"repro.{layer}")
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped = self._wrap(value, index, hooks.get((layer, name)))
                    self._set(module, name, wrapped)
                    rebind[id(value)] = wrapped
                elif inspect.isclass(value) and not issubclass(value, enum.Enum):
                    self._wrap_class(value, index, layer, hooks)
        # Rebind names imported elsewhere with ``from module import name``.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                wrapped = rebind.get(id(value))
                if wrapped is not None and value is not wrapped:
                    self._set(module, name, wrapped)

    def _wrap_class(self, cls: type, index: int, layer: str, hooks) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            hook = hooks.get((layer, f"{cls.__name__}.{name}"))
            if inspect.isfunction(attr):
                self._set(cls, name, self._wrap(attr, index, hook))
            elif isinstance(attr, staticmethod):
                self._set(cls, name, staticmethod(self._wrap(attr.__func__, index, hook)))
            elif isinstance(attr, classmethod):
                self._set(cls, name, classmethod(self._wrap(attr.__func__, index, hook)))
            elif isinstance(attr, property) and attr.fget is not None:
                self._set(
                    cls,
                    name,
                    property(
                        self._wrap(attr.fget, index, None), attr.fset, attr.fdel, attr.__doc__
                    ),
                )

    def exclude(self, seconds: float) -> None:
        """Charge ``seconds`` of non-program work (a clock probe) to no layer."""
        if self._stack:
            self._stack[-1][1] += seconds
            self.excluded_s += seconds

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    # -- report ----------------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """``{name: (value, unit)}`` for every traced layer's generic metrics."""
        metrics: Dict[str, Tuple[float, str]] = {}
        for index, layer in enumerate(LAYERS):
            if layer not in _NO_SELF_TIME:
                metrics[f"{layer}.self_s"] = (self.self_s[index], "s")
            if layer in _COUNTED:
                metrics[f"{layer}.calls"] = (self.calls[index], "count")
        counts = self.counts
        metrics["memory.llc.sim_hits"] = (counts["llc_hits"], "count")
        metrics["core.extended_llc.sim_hits"] = (counts["extended_hits"], "count")
        metrics["core.hit_miss_predictor.sim_false_positives"] = (
            counts["false_positives"],
            "count",
        )
        metrics["runner.cache.write_s"] = (counts["write_s"], "s")
        metrics["runner.cache.writes"] = (counts["writes"], "count")
        metrics["runner.cache.read_s"] = (counts["read_s"], "s")
        metrics["runner.cache.reads"] = (counts["reads"], "count")
        metrics["runner.cache.hit_ratio"] = (
            counts["read_hits"] / counts["reads"] if counts["reads"] else 0.0,
            "ratio",
        )
        return metrics

    @property
    def attributed_s(self) -> float:
        """Wall time covered by top-level spans (probes excluded)."""
        return self.root_s[0] - self.excluded_s

