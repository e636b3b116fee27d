"""Every public entry point at the edges of its accepted values.

The values come from ``valuations._DOMAIN``. For each argument's kind they
are each end of its interval and the floats next to it on either side, and
for an int kind the whole numbers one either side of its least. Junk that no
kind takes rides along: text, bytes, None, bools, ints past the largest
float, NaN and the infinities. With RuntimeWarning an error, each call
returns finite outputs or raises ParameterError. Three outputs are exempt
by design: +inf from ``high_regime_threshold`` where the high regime does not
exist, a forking check's phi of +inf where the fleet cannot fork, and the
NaN that marks a price matrix cell where no price exists. So is the one run-time
failure a valid call can meet here, the RK4 oracle's "step too coarse"
(``test_parameter_errors.RUNTIME_FAILURES``).

An argument that sets a call's work (a table size, a trial count, a capacity
bound B / c, an RK4 step count) takes an accepted value only within a small
range: past it, the call asks for work that no kind bounds yet, such as a
table of 10^308 columns. Values the kind refuses are always tried.
"""

import dataclasses
import math
import pathlib
from operator import le

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavps import (FleetConfig, Hotspot, ParameterError, PriceSchedule, ValuationModel,
                   allocate_continuous, allocate_discrete, best_single_hotspot,
                   build_pricing, capacity_argmax, complete_info_profit,
                   continuous_profit_numeric, evaluate_schedule,
                   expected_profit_closed_form, forking_condition, high_regime_threshold,
                   log_capacity_series, low_regime_threshold, optimal_deployment,
                   optimal_deployment_continuous, price_closed_form, profit_ratio_curve,
                   simulate_continuous, simulate_discrete, simulate_policy_regret,
                   variance_sweep)
from uavps.valuations import _DOMAIN, _check

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EXP1 = ValuationModel.exponential(1.0)
SCHEDULE, _ = build_pricing(EXP1, 0.5, 2, 5)
PRICES = np.ones((9, 9))
JUNK = ["1", b"1", None, True, np.bool_(False), 10**400, -10**400, math.nan, math.inf,
        -math.inf]
BATCH_JUNK = [[0.0, 1.0], [0.5, math.nextafter(1.0, 2.0)], [[0.5]], ["0.5"], [True]]


def small(v):  # a table size or trial count that keeps a call cheap
    return v <= 8


def _exp(rate):
    return ValuationModel.exponential(rate)


def _uni(upper):
    return ValuationModel.uniform(0.0, upper)


def _spots(a, d):
    return [Hotspot(a, d), Hotspot(0.5, 3.0)]


def _fleet(n, b, c):
    return FleetConfig(n, b, c, EXP1)


# name: (call, [(kind, base value, work range of accepted values or None)], exemption)
HOTSPOT = [("positive finite", 0.8, None), ("nonnegative finite", 5.0, None)]
FLEET = [("count", 2, small), ("positive finite", 20.0, lambda v: v <= 64),
         ("positive finite", 2.0, None)]
TABLE = [("probabilities", 0.5, None), ("count", 2, small), ("size", 5, small)]
CLOSED = [("valuation rate", 1.0, None), ("positive", 1.0, None), ("count", 2, small),
          ("nonnegative", 1.0, None)]
REPLAY = [("count", 50, lambda v: v <= 64), ("size", 1, None)]
ENTRY_POINTS = {
    "exponential": (_exp, [("valuation rate", 1.0, None)], None),
    "uniform": (ValuationModel.uniform, [("valuation bound", 5.0, None),
                                         ("valuation bound", 15.0, None)], None),
    "from_dict": (lambda rate: ValuationModel.from_dict({"kind": "exponential", "rate": rate}),
                  [("valuation rate", 1.0, None)], None),
    "build_pricing": (lambda rate, *args: build_pricing(_exp(rate), *args),
                      [("valuation rate", 1.0, None)] + TABLE, None),
    "build_pricing_uniform": (lambda upper, *args: build_pricing(_uni(upper), *args),
                              [("valuation bound", 10.0, None)] + TABLE, None),
    "evaluate_schedule": (lambda *args: evaluate_schedule(EXP1, args[0], PRICES, *args[1:]),
                          TABLE, None),
    "complete_info_profit": (lambda rate, *args: complete_info_profit(_exp(rate), *args),
                             [("valuation rate", 1.0, None)] + TABLE, None),
    "complete_info_profit_uniform": (
        lambda upper, *args: complete_info_profit(_uni(upper), *args),
        [("valuation bound", 10.0, None)] + TABLE, None),
    "profit_ratio_curve": (lambda a, k, t: profit_ratio_curve(EXP1, a, k, [t]),
                           [("probability", 0.5, None), ("count", 1, small),
                            ("size", 5, small)], None),
    "variance_sweep": (lambda mean, var, *args: variance_sweep(mean, [var], *args),
                       [("nonnegative finite", 10.0, None), ("nonnegative", 1.0, None),
                        ("probability", 0.5, None), ("count", 1, small), ("size", 3, small)],
                       None),
    "log_capacity_series": (log_capacity_series, [("series argument", 2.0, None),
                                                  ("size", 3, small)], None),
    "expected_profit_closed_form": (expected_profit_closed_form, CLOSED, None),
    "price_closed_form": (price_closed_form, CLOSED, None),
    "continuous_profit_numeric": (
        lambda *args: continuous_profit_numeric(EXP1, *args),
        [("positive finite", 1.0, None), ("count", 2, small),
         ("nonnegative finite", 1.0, lambda v: v <= 2), ("positive", 0.05, lambda v: v >= 0.01)],
        "too coarse"),
    "allocate_discrete": (lambda rate, *args: allocate_discrete(_exp(rate), *args),
                          [("valuation rate", 1.0, None), ("probabilities", 0.5, None),
                           ("size", 15, lambda v: v <= 40), ("count", 3, small)], None),
    "allocate_continuous": (allocate_continuous,
                            [("valuation rate", 1.0, None), ("positive", 1.0, None),
                             ("positive finite", 10.0, None), ("positive finite", 2.0, None)],
                            None),
    "capacity_argmax": (capacity_argmax, [("nonnegative", 1.0, None),
                                          ("positive finite", 10.0, None),
                                          ("positive finite", 2.0, None)], None),
    "low_regime_threshold": (low_regime_threshold, [("positive finite", 15.0, None),
                                                    ("positive finite", 3.0, None)], None),
    "high_regime_threshold": (high_regime_threshold,
                              [("positive finite", 15.5, lambda v: v <= 64),
                               ("positive finite", 3.0, lambda v: v >= 0.5)], "inf"),
    "Hotspot": (Hotspot, HOTSPOT, None),
    "FleetConfig": (_fleet, [("count", 2, None), ("positive finite", 20.0, None),
                             ("positive finite", 2.0, None)], None),
    "optimal_deployment": (lambda a, d, *fleet: optimal_deployment(_spots(a, d), _fleet(*fleet)),
                           HOTSPOT + FLEET, None),
    "best_single_hotspot": (
        lambda a, d, *fleet: best_single_hotspot(_spots(a, d), _fleet(*fleet)),
        HOTSPOT + FLEET, None),
    "optimal_deployment_continuous": (
        lambda a, d, n, b, c, lam: optimal_deployment_continuous(_spots(a, d), _fleet(n, b, c),
                                                                 lam),
        HOTSPOT + FLEET + [("valuation rate", 1.0, None)], None),
    "forking_condition": (
        lambda a, d, n, b, c, lam: forking_condition(Hotspot(a, d), Hotspot(0.5, 5.0),
                                                     _fleet(n, b, c), lam),
        HOTSPOT + FLEET + [("valuation rate", 1.0, None)], "phi"),
    "simulate_discrete": (
        lambda rate, a, k, t, *replay: simulate_discrete(_exp(rate), a, SCHEDULE, k, t, *replay),
        [("valuation rate", 1.0, None), ("probability", 0.5, None), ("count", 2, None),
         ("size", 5, None)] + REPLAY, None),
    "simulate_policy_regret": (
        lambda rate, *args: simulate_policy_regret(_exp(rate), *args),
        [("valuation rate", 1.0, None), ("probability", 0.5, None), ("count", 2, small),
         ("size", 5, small)] + REPLAY + [("nonnegative", 1.0, None)], None),
    "simulate_policy_regret_uniform": (
        lambda upper, *args: simulate_policy_regret(_uni(upper), *args),
        [("valuation bound", 10.0, None), ("probability", 0.5, None), ("count", 2, small),
         ("size", 5, small)] + REPLAY + [("nonnegative", 1.0, None)], None),
    "simulate_continuous": (simulate_continuous, CLOSED + REPLAY, None),
}


def _edges(kind: str) -> list:
    cast, low, _, _, high = _DOMAIN[kind]
    near = {v for end in (low, high)
            for v in (end, math.nextafter(end, -math.inf), math.nextafter(end, math.inf))}
    if cast is int:
        near |= {low - 1, low + 1}
    return sorted(near)


def _values(kind: str, work) -> list:
    """The kind's edges and the junk, less accepted values outside ``work``."""
    candidates = _edges(kind) + JUNK + (BATCH_JUNK if kind == "probabilities" else [])
    kept = []
    for v in candidates:
        try:
            converted = _check(kind, v, kind)
        except ParameterError:
            kept.append(v)
            continue
        if work is None or np.all(work(converted)):
            kept.append(v)
    return kept


def _finite(out) -> bool:
    if isinstance(out, PriceSchedule):  # prices exist at 1 <= j <= t
        j, t = np.arange(out.capacity + 1)[:, None], np.arange(out.horizon + 1)
        return bool(np.isfinite(out.prices[(j >= 1) & (t >= j)]).all())
    if isinstance(out, np.ndarray):
        return bool(np.isfinite(out).all())
    if isinstance(out, (float, np.floating)):
        return math.isfinite(out)
    if dataclasses.is_dataclass(out):
        return all(_finite(getattr(out, f.name)) for f in dataclasses.fields(out))
    if isinstance(out, (tuple, list)):
        return all(map(_finite, out))
    return True  # ints, enums, None


def _run(name: str, args: list) -> None:
    call, _, exempt = ENTRY_POINTS[name]
    try:
        out = call(*args)
    except ParameterError:
        return
    except ValueError as exc:
        if exempt == "too coarse" and "too coarse" in str(exc):
            return
        raise
    if exempt == "inf" and out == math.inf:
        return
    if exempt == "phi" and out.phi == math.inf and not out.holds:
        out = out._replace(phi=0.0)
    assert _finite(out), (name, args, out)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_each_edge_alone_gives_finite_outputs_or_parameter_error(name):
    slots = ENTRY_POINTS[name][1]
    base = [value for _, value, _ in slots]
    _run(name, base)
    for i, (kind, _, work) in enumerate(slots):
        for value in _values(kind, work):
            _run(name, base[:i] + [value] + base[i + 1:])


@pytest.mark.parametrize("name", ENTRY_POINTS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_edges_together_give_finite_outputs_or_parameter_error(name, data):
    args = [data.draw(st.sampled_from([value] + _values(kind, work)))
            for kind, value, work in ENTRY_POINTS[name][1]]
    _run(name, args)


def test_readme_table_equals_the_domain():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Accepted values\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:4] for line in section.splitlines() if line.startswith("| `")]
    table = {kind.strip(" `"): (cast.strip(), interval.strip()) for kind, cast, interval in rows}
    casts = {int: "int", float: "float", np.ndarray: "float or 1-d array"}
    assert table == {kind: (casts[cast], f"{'[' if above is le else '('}{low:g}, {high:g}"
                                         f"{']' if below is le else ')'}")
                     for kind, (cast, low, above, below, high) in _DOMAIN.items()}


@pytest.mark.parametrize("prices", [[["1"] * 6] * 4, np.ones((4, 6), dtype=bool)],
                         ids=["text", "bool"])
def test_price_matrix_of_text_or_bools_raises_parameter_error(prices):
    # float() parsed the text, and both scored as a matrix of ones.
    with pytest.raises(ParameterError, match="price matrix"):
        evaluate_schedule(EXP1, 0.5, prices, 3, 5)
