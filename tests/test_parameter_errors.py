"""ParameterError: the one error the package raises for an argument outside a
function's domain, which the CLI maps to exit code 2."""

import ast
import math
import pathlib

import pytest

import uavps
from uavps import (FleetConfig, Hotspot, ParameterError, ValuationModel,
                   allocate_continuous, allocate_discrete, build_pricing,
                   continuous_profit_numeric, expected_profit_closed_form,
                   forking_condition, profit_ratio_curve, simulate_continuous,
                   simulate_policy_regret, solve_stage_price, variance_sweep)

EXP1 = ValuationModel.exponential(1.0)
FLEET = FleetConfig(count=2, initial_budget=20.0, service_cost=2.0, valuation=EXP1)

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
])
def test_preconditions_raise_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


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
