"""Timing and counting shims around the public functions of each uavps layer.

A traced run swaps every public function of each module (and every name
another module imported it under) for a shim that records one span per
call, then puts the originals back. Each span knows how long its child
spans took, so a function's self time is its span minus its children.
Work counts are computed from the call arguments (and, for the planners,
from the chosen plan), so they repeat exactly for the same ops.

Generator functions (``compositions``, ``schedule_csv_rows``) are left
unwrapped: their work runs inside the caller's span.
"""

from __future__ import annotations

import inspect
import math
import time
from collections import Counter, defaultdict

LAYERS = ("valuations", "pricing", "benchmark", "allocation", "deployment",
          "simulator", "cli")

# Methods of the valuation model, the valuation layer's public surface.
VALUATION_METHODS = ("cdf", "pdf", "virtual_value", "inverse_virtual_value",
                     "sample", "expected_excess", "support", "mean")

SERIES = ("capacity_series_sum", "log_capacity_series")
TABLES = ("build_pricing", "evaluate_schedule")
PLANNERS = ("optimal_deployment", "optimal_deployment_continuous")

_FLOOR_EPS = 1e-12  # as in uavps.allocation: floor(B / c) of exact multiples


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _ode_steps(args, kwargs) -> int:
    """RK4 steps of continuous_profit_numeric: a pass at the step and one at half."""
    horizon = _arg(args, kwargs, 3, "horizon")
    step = args[4] if len(args) > 4 else kwargs.get("step", 1e-3)
    if horizon <= 0:
        return 0
    return sum(max(1, math.ceil(horizon / h)) for h in (step, step / 2.0))


def _plan_counts(counts: Counter, args, kwargs, plan) -> None:
    hotspots, fleet = _arg(args, kwargs, 0, "hotspots"), _arg(args, kwargs, 1, "fleet")
    reachable = sum(1 for h in hotspots if h.distance < fleet.initial_budget)
    counts["deployment.plans"] += 1
    counts["deployment.profiles"] += math.comb(fleet.count + reachable - 1, reachable - 1)
    counts["deployment.hotspot_evals"] += reachable * fleet.count
    if plan is not None:
        counts["deployment.evals_used"] += plan.profile.served()


def _cli_counts(counts: Counter, args, kwargs, code) -> None:
    counts["cli.calls"] += 1
    argv = list(_arg(args, kwargs, 0, "argv"))
    if code == 0 and "--out" in argv:
        path = argv[argv.index("--out") + 1]
        with open(path, "rb") as fh:
            data = fh.read()
        counts["cli.csv_bytes"] += len(data)
        lines = [ln for ln in data.splitlines() if ln and not ln.startswith(b"#")]
        counts["cli.csv_rows"] += max(0, len(lines) - 1)


def _table_cells(args, kwargs, k_index: int = 2) -> int:
    return int(_arg(args, kwargs, k_index, "capacity")) * int(_arg(args, kwargs, k_index + 1,
                                                                   "horizon"))


def _counter(name: str):
    """Work counter of one public function: (counts, args, kwargs, result)."""
    if name == "build_pricing":
        def count(c, a, kw, res):
            c["pricing.tables"] += 1
            c["pricing.cells"] += _table_cells(a, kw)
        return count
    if name == "evaluate_schedule":
        def count(c, a, kw, res):
            c["pricing.tables"] += 1
            c["pricing.cells"] += _table_cells(a, kw, 3)
        return count
    if name in SERIES:
        def count(c, a, kw, res):
            c["pricing.series_calls"] += 1
            c["pricing.series_terms"] += int(_arg(a, kw, 1, "k")) + 1
        return count
    if name == "continuous_profit_numeric":
        return lambda c, a, kw, res: c.update({"pricing.ode_steps": _ode_steps(a, kw)})
    if name == "complete_info_profit":
        return lambda c, a, kw, res: c.update({"benchmark.cells": _table_cells(a, kw)})
    if name == "allocate_discrete":
        return lambda c, a, kw, res: c.update({"allocation.candidates": int(
            _arg(a, kw, 2, "budget")) // (1 + int(_arg(a, kw, 3, "service_cost")))})
    if name == "allocate_continuous":
        return lambda c, a, kw, res: c.update({"allocation.candidates": math.floor(
            _arg(a, kw, 2, "budget") / _arg(a, kw, 3, "service_cost") + _FLOOR_EPS)})
    if name == "capacity_argmax":
        return lambda c, a, kw, res: c.update({"allocation.candidates": math.floor(
            _arg(a, kw, 1, "budget") / _arg(a, kw, 2, "service_cost") + _FLOOR_EPS)})
    if name in PLANNERS:
        return _plan_counts
    if name == "simulate_discrete":
        def count(c, a, kw, res):
            trials = int(_arg(a, kw, 5, "trials"))
            c["simulator.trials"] += trials
            c["simulator.slot_steps"] += trials * int(_arg(a, kw, 4, "horizon"))
        return count
    if name == "simulate_policy_regret":
        def count(c, a, kw, res):  # two policies replay the same trials
            trials = int(_arg(a, kw, 4, "trials"))
            c["simulator.trials"] += 2 * trials
            c["simulator.slot_steps"] += 2 * trials * int(_arg(a, kw, 3, "horizon"))
        return count
    if name == "simulate_continuous":
        # arrivals per trial are random, so only trials are a count of the args
        return lambda c, a, kw, res: c.update({"simulator.trials": int(
            _arg(a, kw, 4, "trials"))})
    if name == "main":
        return _cli_counts
    return None


class Tracer:
    """Span and count collector; ``install`` and ``remove`` swap the shims."""

    def __init__(self, lib):
        self.lib = lib
        self.calls = Counter()        # (layer, function) -> calls
        self.raised = Counter()       # (layer, function) -> calls that raised
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._children: list[float] = []   # child time of each open span
        self._saved: list[tuple[object, str, object]] = []

    # -- shims ----------------------------------------------------------------

    def _shim(self, layer: str, name: str, fn):
        key = (layer, name)
        counter = _counter(name) if layer != "valuations" else None
        children = self._children
        clock = time.perf_counter

        def shim(*args, **kwargs):
            result = None
            start = clock()
            children.append(0.0)
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                self.raised[key] += 1
                raise
            finally:
                span = clock() - start
                child = children.pop()
                if children:
                    children[-1] += span
                self.calls[key] += 1
                self.total_s[key] += span
                self.self_s[key] += span - child
                if counter is not None:
                    counter(self.counts, args, kwargs, result)

        shim.__wrapped__ = fn
        return shim

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        lib = self.lib
        shims = {}
        for layer in LAYERS:
            module = getattr(lib, layer)
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(fn)):
                    shims[fn] = self._shim(layer, attr, fn)
        model_cls = lib.valuations.ValuationModel
        for attr in VALUATION_METHODS:
            self._set(model_cls, attr, self._shim("valuations", attr,
                                                  vars(model_cls)[attr]))
        # Rebind every name a function is reachable under: its own module,
        # modules that imported it, and the package namespace.
        for module in [lib.package] + [getattr(lib, layer) for layer in LAYERS]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in shims:
                    self._set(module, attr, shims[value])

    def remove(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- metrics ----------------------------------------------------------------

    def _sum(self, table, layer: str, names=None) -> float:
        return sum(v for (lay, fn), v in table.items()
                   if lay == layer and (names is None or fn in names))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; rates are work over the time that did it."""
        c = self.counts
        rate = lambda work, secs: work / secs if secs > 0 else 0.0
        layer_self = {layer: self._sum(self.self_s, layer) for layer in LAYERS}
        table_s = self._sum(self.total_s, "pricing", TABLES)
        bench_s = self._sum(self.total_s, "benchmark", ("complete_info_profit",))
        ode_s = self._sum(self.total_s, "pricing", ("continuous_profit_numeric",))
        planner_self = self._sum(self.self_s, "deployment", PLANNERS)
        evals = c["deployment.hotspot_evals"]
        out = {
            "valuations.calls": self._sum(self.calls, "valuations"),
            "valuations.self_s": layer_self["valuations"],
            "pricing.tables": c["pricing.tables"],
            "pricing.cells": c["pricing.cells"],
            "pricing.self_s": layer_self["pricing"],
            "pricing.cells_per_s": rate(c["pricing.cells"], table_s),
            "pricing.failed": self._sum(self.raised, "pricing", TABLES),
            "pricing.series_calls": c["pricing.series_calls"],
            "pricing.series_terms": c["pricing.series_terms"],
            "pricing.series_self_s": self._sum(self.self_s, "pricing", SERIES),
            "pricing.ode_steps": c["pricing.ode_steps"],
            "pricing.ode_self_s": self._sum(self.self_s, "pricing",
                                            ("continuous_profit_numeric",)),
            "pricing.ode_steps_per_s": rate(c["pricing.ode_steps"], ode_s),
            "benchmark.cells": c["benchmark.cells"],
            "benchmark.self_s": layer_self["benchmark"],
            "benchmark.cells_per_s": rate(c["benchmark.cells"], bench_s),
            "allocation.calls": self._sum(self.calls, "allocation"),
            "allocation.candidates": c["allocation.candidates"],
            "allocation.self_s": layer_self["allocation"],
            "deployment.plans": c["deployment.plans"],
            "deployment.profiles": c["deployment.profiles"],
            "deployment.hotspot_evals": evals,
            "deployment.eval_use_ratio": c["deployment.evals_used"] / evals if evals else 0.0,
            "deployment.self_s": layer_self["deployment"],
            "deployment.profiles_per_s": rate(c["deployment.profiles"], planner_self),
            "simulator.trials": c["simulator.trials"],
            "simulator.slot_steps": c["simulator.slot_steps"],
            "simulator.self_s": layer_self["simulator"],
            "simulator.trials_per_s": rate(c["simulator.trials"], layer_self["simulator"]),
            "cli.calls": c["cli.calls"],
            "cli.csv_rows": c["cli.csv_rows"],
            "cli.csv_bytes": c["cli.csv_bytes"],
            "cli.self_s": layer_self["cli"],
        }
        return out
