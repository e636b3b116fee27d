"""ParameterError: the one error the package raises for an argument outside a
function's domain, which the CLI maps to exit code 2."""

import ast
import json
import math
import pathlib

import numpy as np
import pytest

import uavps
from uavps import (FleetConfig, Hotspot, ParameterError, ValuationModel,
                   allocate_continuous, allocate_discrete, best_single_hotspot, build_pricing,
                   capacity_argmax, complete_info_profit,
                   continuous_profit_numeric, evaluate_schedule,
                   expected_profit_closed_form, forking_condition,
                   high_regime_threshold, log_capacity_series, low_regime_threshold,
                   optimal_deployment, optimal_deployment_continuous,
                   price_closed_form, profit_ratio_curve, simulate_continuous,
                   simulate_discrete, simulate_policy_regret, solve_stage_price,
                   variance_sweep)

EXP1 = ValuationModel.exponential(1.0)
FLEET = FleetConfig(count=2, initial_budget=20.0, service_cost=2.0, valuation=EXP1)
SCHEDULE, _ = build_pricing(EXP1, 0.5, 2, 5)

# The two failures a valid call can still meet at run time.
RUNTIME_FAILURES = {("pricing.py", "solve_stage_price"),
                    ("pricing.py", "continuous_profit_numeric")}


@pytest.mark.parametrize("call", [
    lambda: ValuationModel.exponential(0.0),
    lambda: ValuationModel.uniform(5.0, math.nan),
    lambda: build_pricing(EXP1, 1.5, 3, 5),
    lambda: allocate_discrete(EXP1, 0.5, math.inf, 3),
    lambda: allocate_discrete(EXP1, 0.5, 15, math.nan),
    lambda: allocate_continuous(1.0, 1.0, math.inf, 3.0),
    # capacity_argmax raised ZeroDivisionError and OverflowError here
    lambda: capacity_argmax(1.0, 10.0, 0.0),
    lambda: capacity_argmax(1.0, math.inf, 2.0),
    # B / c past int64: the capacity bound's cast wrapped and the search
    # quietly returned k = 1.
    lambda: capacity_argmax(1.0, 1e30, 1.0),
    lambda: allocate_continuous(1.0, 1.0, 1e30, 1.0),
    # The first raised RuntimeWarning in log1p, the second returned k = 1.
    lambda: capacity_argmax(-1.0, 10.0, 2.0),
    lambda: capacity_argmax(math.nan, 10.0, 2.0),
    # Series argument about 3.7e14, past the kernel's domain: returned k = 96.
    lambda: allocate_continuous(1.0, 1e13, 100.0, 1.0),
    # An infinite rate where B / c is whole: RuntimeWarning from inf * 0.
    lambda: allocate_continuous(1.0, math.inf, 10.0, 2.0),
    lambda: optimal_deployment_continuous([Hotspot(math.inf, 0.0)], FLEET, 1.0),
    lambda: expected_profit_closed_form(1.0, math.nan, 3, 5.0),
    lambda: simulate_continuous(1.0, 1.0, 3, math.nan, 10, 0),
    lambda: simulate_continuous(1.0, 2.0, 3, math.inf, 10, 1),
    lambda: simulate_continuous(1.0, 1e30, 3, 1.0, 10, 1),
    lambda: simulate_policy_regret(EXP1, 0.5, 2, 5, 0, 1, constant_price=1.0),
    lambda: simulate_policy_regret(EXP1, 0.5, 2, 5, 100, 1, constant_price=math.nan),
    lambda: FleetConfig(count=2, initial_budget=math.nan, service_cost=2.0, valuation=EXP1),
    lambda: FleetConfig(count=2, initial_budget=math.inf, service_cost=2.0, valuation=EXP1),
    lambda: Hotspot(math.nan, 5.0),
    lambda: forking_condition(Hotspot(0.8, 5.0), Hotspot(0.5, 50.0), FLEET, 1.0),
    lambda: forking_condition(Hotspot(0.2, 5.0), Hotspot(0.8, 5.0), FLEET, 1.0),
    lambda: variance_sweep(10.0, [-1.0], 0.5, 1, 3),
    lambda: profit_ratio_curve(EXP1, 0.5, 3, []),
    # Horizons that are not finite whole numbers: the first returned the
    # T = 5 curve, the second raised a bare ValueError from int(nan).
    lambda: profit_ratio_curve(EXP1, 0.5, 1, [5.7, 6]),
    lambda: profit_ratio_curve(EXP1, 0.5, 1, [math.nan, 6]),
    # Table sizes that are not finite whole numbers, through each table
    # function. Before the shape check took only whole numbers, the first
    # three built a k = 2, T = 6 table, raised IndexError and OverflowError.
    lambda: build_pricing(EXP1, 0.5, 2.5, 6.7),
    lambda: profit_ratio_curve(EXP1, 0.5, 2.5, [5, 6]),
    lambda: build_pricing(EXP1, 0.5, 3, math.inf),
    lambda: complete_info_profit(EXP1, 0.5, 3, math.nan),
    lambda: evaluate_schedule(EXP1, 0.5, np.zeros((4, 7)), 3.0, 5.5),
    # Capacities and fleet sizes that are not whole numbers: the closed forms
    # and the ODE oracle priced k = 2, the simulator and both planners raised
    # TypeError from range or bincount.
    lambda: expected_profit_closed_form(1.0, 1.0, 2.5, 3.0),
    lambda: price_closed_form(1.0, 1.0, 2.5, 3.0),
    lambda: continuous_profit_numeric(EXP1, 1.0, 2.5, 1.0),
    lambda: simulate_continuous(1.0, 1.0, 2.5, 3.0, 10, 0),
    lambda: FleetConfig(count=2.5, initial_budget=20.0, service_cost=2.0, valuation=EXP1),
    lambda: FleetConfig(count=math.inf, initial_budget=20.0, service_cost=2.0, valuation=EXP1),
    # A bool is not a count. The last two built a one-vehicle fleet and
    # allocated with c = 1.
    lambda: build_pricing(EXP1, 0.5, True, 5),
    lambda: FleetConfig(count=True, initial_budget=20.0, service_cost=2.0, valuation=EXP1),
    lambda: allocate_discrete(EXP1, 0.5, 10, True),
    # Series lengths that are not whole numbers: int() gave log S_0 = 0 for
    # k = -1, where an empty sum's log is -inf, log S_2 for 2.5 and log S_1
    # for True.
    lambda: log_capacity_series(2.0, -1),
    lambda: log_capacity_series(2.0, 2.5),
    lambda: log_capacity_series(2.0, True),
    # Model fields that are not JSON numbers: the first two loaded as rates
    # 2.0 and 1.0, the last raised TypeError.
    lambda: ValuationModel.from_dict({"kind": "exponential", "rate": "2"}),
    lambda: ValuationModel.from_dict({"kind": "exponential", "rate": True}),
    lambda: ValuationModel.from_dict({"kind": "exponential", "rate": [2]}),
    # Not a JSON object: AttributeError from data.get.
    lambda: ValuationModel.from_dict([1]),
    lambda: ValuationModel.from_dict(None),
    # Infinite parameters: every table turned to NaN with a RuntimeWarning.
    lambda: ValuationModel.exponential(math.inf),
    lambda: ValuationModel.uniform(0.0, math.inf),
    lambda: ValuationModel.uniform(math.inf, math.inf),
    lambda: ValuationModel.from_dict(json.loads('{"kind": "exponential", "rate": 1e400}')),
    lambda: ValuationModel.from_dict(json.loads('{"kind": "uniform", "lower": 0, "upper": 1e400}')),
    # Text is not a number, though float() would parse it.
    lambda: ValuationModel.exponential("1.5"),
    lambda: ValuationModel.uniform("5", 15.0),
    lambda: Hotspot(alpha="0.5", distance=1.0),
    lambda: FleetConfig(count=2, initial_budget=b"20", service_cost=2.0, valuation=EXP1),
    lambda: capacity_argmax(1.0, "8", 1.0),
    lambda: simulate_policy_regret(EXP1, 0.5, 2, 5, 10, 1, "1.0"),
    # Text and None compared before conversion: each raised TypeError, the
    # text mean numpy's UFuncTypeError, and the text alpha of allocate_discrete
    # was parsed into a decision.
    lambda: expected_profit_closed_form("1.0", 1.0, 2, 1.0),
    lambda: expected_profit_closed_form(1.0, 1.0, 2, "1.0"),
    lambda: price_closed_form(None, 1.0, 2, 1.0),
    lambda: allocate_continuous(1.0, "1", 10.0, 2.0),
    lambda: allocate_continuous(1.0, 1.0, "10", 2.0),
    lambda: continuous_profit_numeric(EXP1, "1.0", 2, 1.0),
    lambda: continuous_profit_numeric(EXP1, 1.0, 2, 1.0, step="0.1"),
    lambda: simulate_continuous("1", 1.0, 2, 1.0, 10, 1),
    lambda: forking_condition(Hotspot(0.8, 5.0), Hotspot(0.5, 5.0), FLEET, "1"),
    lambda: optimal_deployment_continuous([Hotspot(0.8, 5.0)], FLEET, "1"),
    lambda: variance_sweep(10.0, ["1"], 0.5, 1, 3),
    lambda: variance_sweep("10", [1.0], 0.5, 1, 3),
    lambda: build_pricing(EXP1, "0.5", 2, 5),
    lambda: build_pricing(EXP1, None, 2, 5),
    lambda: simulate_discrete(EXP1, "0.5", SCHEDULE, 2, 5, 10, 1),
    lambda: profit_ratio_curve(EXP1, "0.5", 1, [5]),
    lambda: log_capacity_series("2", 3),
    lambda: allocate_discrete(EXP1, "0.5", 15, 3),
    # The regime thresholds take a positive cost: at c = 0 the high one raised
    # ZeroDivisionError and the low one returned 0.0; text raised TypeError.
    lambda: high_regime_threshold(10.0, 0.0),
    lambda: low_regime_threshold(10.0, 0.0),
    lambda: low_regime_threshold("10", 1.0),
    lambda: high_regime_threshold("10", 1.0),
    # OverflowError from math.ceil or math.floor of an infinite count.
    lambda: continuous_profit_numeric(EXP1, 1, 1, 1.0, 5e-324),
    lambda: continuous_profit_numeric(EXP1, 1, 1, 1e308, 1e-3),
    lambda: high_regime_threshold(10.0, 5e-324),
])
def test_preconditions_raise_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


# Energy past 2^63: the discrete search's int casts wrapped with a
# RuntimeWarning and returned k = 0 with profit 0, a zero-profit plan. The
# refusal names what the caller passed: a budget, or a fleet's energy left at
# a hotspot (allocate_discrete named a hotspot it was never given).
@pytest.mark.parametrize("call, name", [
    (lambda: allocate_discrete(EXP1, 0.5, 10**20, 1), "budget"),
    (lambda: optimal_deployment([Hotspot(0.5, 1.0)], FleetConfig(1, 1e20, 1.0, EXP1)),
     "energy left at a hotspot"),
    (lambda: best_single_hotspot([Hotspot(0.5, 1.0)], FleetConfig(1, 1e20, 1.0, EXP1)),
     "energy left at a hotspot"),
])
def test_huge_energy_is_refused_under_its_own_name(call, name):
    with pytest.raises(ParameterError, match=rf"^{name} must lie in \[0, 4.61169e\+18\)"):
        call()


# Work past a cap: each asked numpy for 7.45 GiB (the searches) or 2.18 TiB
# (the replay's draws) and raised MemoryError.
@pytest.mark.parametrize("call, name", [
    (lambda: capacity_argmax(1.0, 1e9, 1.0), "capacity bound n B / c"),
    (lambda: high_regime_threshold(1e9 + 0.5, 1.0), "capacity bound B / c"),
    (lambda: simulate_continuous(1.0, 3e11, 2, 1.0, 10, 1), "mean arrival count a' T"),
])
def test_work_past_a_cap_is_refused(call, name):
    with pytest.raises(ParameterError, match=rf"^{name} must lie in \[0, "):
        call()


# Integers past the largest float, where float() raises OverflowError: each
# of these leaked it.
HUGE = 10**400


@pytest.mark.parametrize("call", [
    lambda: build_pricing(EXP1, 0.5, 2, HUGE),
    lambda: build_pricing(EXP1, 0.5, -HUGE, 5),
    lambda: ValuationModel.from_dict({"kind": "exponential", "rate": HUGE}),
    lambda: ValuationModel.from_dict({"kind": "uniform", "lower": -HUGE, "upper": 1}),
    lambda: simulate_discrete(EXP1, 0.5, SCHEDULE, 2, 5, HUGE, 1),
    lambda: simulate_discrete(EXP1, 0.5, SCHEDULE, 2, 5, 10, HUGE),
    lambda: FleetConfig(count=HUGE, initial_budget=20.0, service_cost=2.0, valuation=EXP1),
    lambda: ValuationModel.exponential(HUGE),
    lambda: ValuationModel.uniform(0, HUGE),
    lambda: simulate_policy_regret(EXP1, 0.5, 2, 5, 10, 1, HUGE),
    lambda: expected_profit_closed_form(1.0, 1.0, 2, HUGE),
    lambda: price_closed_form(1.0, 1.0, 2, HUGE),
    lambda: expected_profit_closed_form(HUGE, 1.0, 2, 1.0),
    lambda: continuous_profit_numeric(EXP1, 1.0, 2, HUGE),
    lambda: simulate_continuous(1.0, 1.0, 2, HUGE, 10, 1),
    lambda: allocate_continuous(1.0, 1.0, HUGE, 1.0),
    lambda: capacity_argmax(1.0, HUGE, 1.0),
    lambda: FleetConfig(count=2, initial_budget=HUGE, service_cost=2.0, valuation=EXP1),
    lambda: FleetConfig(count=2, initial_budget=20.0, service_cost=HUGE, valuation=EXP1),
    lambda: Hotspot(alpha=HUGE, distance=5.0),
    lambda: variance_sweep(10.0, [HUGE], 0.5, 1, 3),
], ids=["horizon", "capacity", "rate", "lower", "trials", "seed", "fleet", "exponential",
        "uniform", "constant-price", "profit-closed-form", "price-closed-form",
        "closed-form-lambda", "profit-numeric", "simulate-continuous", "allocate-continuous",
        "capacity-argmax", "fleet-budget", "fleet-cost", "hotspot-alpha", "variance"])
def test_integers_past_the_largest_float_raise_parameter_error(call):
    with pytest.raises(ParameterError, match="within float range"):
        call()


def test_whole_float_and_numpy_int_sizes_still_build_tables():
    _, table = build_pricing(EXP1, 0.5, 2, 6)
    for k, T in ((np.int64(2), np.int64(6)), (2.0, 6.0), (np.float64(2.0), 6)):
        _, same = build_pricing(EXP1, 0.5, k, T)
        assert (same.capacity, same.horizon) == (2, 6)
        assert np.array_equal(same.values, table.values)


def test_whole_float_and_numpy_int_capacities_and_fleet_sizes():
    hotspots = [Hotspot(0.8, 5.0), Hotspot(0.5, 9.0)]
    schedule, _ = build_pricing(EXP1, 0.5, 2, 5)
    for k in (2, 2.0, np.int64(2), np.float64(2.0)):
        assert expected_profit_closed_form(1.0, 1.5, k, 3.0) == \
            expected_profit_closed_form(1.0, 1.5, 2, 3.0)
        assert price_closed_form(1.0, 1.5, k, 3.0) == price_closed_form(1.0, 1.5, 2, 3.0)
        assert continuous_profit_numeric(EXP1, 1.0, k, 1.0, step=0.01) == \
            continuous_profit_numeric(EXP1, 1.0, 2, 1.0, step=0.01)
        assert simulate_continuous(1.0, 1.0, k, 3.0, 50, 4) == \
            simulate_continuous(1.0, 1.0, 2, 3.0, 50, 4)
        assert simulate_discrete(EXP1, 0.5, schedule, k, 5, 50, 4) == \
            simulate_discrete(EXP1, 0.5, schedule, 2, 5, 50, 4)
        assert simulate_policy_regret(EXP1, 0.5, k, 5, 50, 4, 1.0) == \
            simulate_policy_regret(EXP1, 0.5, 2, 5, 50, 4, 1.0)

        fleet = FleetConfig(count=k, initial_budget=20.0, service_cost=2.0, valuation=EXP1)
        assert fleet.count == 2 and type(fleet.count) is int
        assert optimal_deployment(hotspots, fleet) == optimal_deployment(hotspots, FLEET)
        assert optimal_deployment_continuous(hotspots, fleet, 1.0) == \
            optimal_deployment_continuous(hotspots, FLEET, 1.0)


# Trial counts and seeds that are not whole numbers, or below their least
# value: through each simulator, each raised TypeError or numpy's ValueError.
@pytest.mark.parametrize("trials, seed", [(100.5, 1), (True, 1), (math.inf, 1), (10, 1.5),
                                          (10, -1), (10, math.nan)])
def test_simulators_reject_trials_and_seeds_that_are_not_counts(trials, seed):
    for call in (lambda: simulate_continuous(1.0, 1.0, 2, 1.0, trials, seed),
                 lambda: simulate_discrete(EXP1, 0.5, SCHEDULE, 2, 5, trials, seed),
                 lambda: simulate_policy_regret(EXP1, 0.5, 2, 5, trials, seed, 1.0)):
        with pytest.raises(ParameterError):
            call()


def test_whole_float_and_numpy_int_trials_and_seeds():
    for trials, seed in ((50.0, 4), (np.int64(50), np.float64(4.0)), (50, 4.0)):
        assert simulate_continuous(1.0, 1.0, 2, 3.0, trials, seed) == \
            simulate_continuous(1.0, 1.0, 2, 3.0, 50, 4)
        assert simulate_discrete(EXP1, 0.5, SCHEDULE, 2, 5, trials, seed) == \
            simulate_discrete(EXP1, 0.5, SCHEDULE, 2, 5, 50, 4)
        assert simulate_policy_regret(EXP1, 0.5, 2, 5, trials, seed, 1.0) == \
            simulate_policy_regret(EXP1, 0.5, 2, 5, 50, 4, 1.0)


def test_runtime_failures_are_plain_value_errors():
    for call in (lambda: solve_stage_price(EXP1, -1.0),
                 lambda: continuous_profit_numeric(EXP1, 8.0, 1, 40.0, step=40.0)):
        with pytest.raises(ValueError) as info:
            call()
        assert not isinstance(info.value, ParameterError)


class _BareValueErrors(ast.NodeVisitor):
    """(file, innermost function) of every ``raise ValueError`` in a module."""

    def __init__(self, name: str):
        self.name, self.scope, self.sites = name, [None], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id == "ValueError":
            self.sites.append((self.name, self.scope[-1]))


def test_only_runtime_failures_raise_a_bare_value_error():
    # A precondition raising plain ValueError would make the CLI exit 1, not 2.
    sites = []
    for path in sorted(pathlib.Path(uavps.__file__).parent.glob("*.py")):
        visitor = _BareValueErrors(path.name)
        visitor.visit(ast.parse(path.read_text()))
        sites += visitor.sites
    assert sorted(sites) == sorted(RUNTIME_FAILURES)
