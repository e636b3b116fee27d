"""Brute-force oracles that the tests check the library against.

Each one enumerates what the library computes by closed form or by a pruned
search, so it is slow and takes only the small inputs the tests give it, with
no validation of its own.
"""

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial

import numpy as np

from uavps.allocation import _pooled_decisions
from uavps.pricing import profit_step, solve_stage_price


def compositions(total, caps):
    """Yield tuples of nonnegative parts summing to ``total`` with per-slot caps,
    in lexicographic order."""
    m = len(caps)

    def rec(pos, remaining, prefix):
        if pos == m - 1:
            if remaining <= caps[pos]:
                yield prefix + (remaining,)
            return
        for n in range(0, min(caps[pos], remaining) + 1):
            yield from rec(pos + 1, remaining - n, prefix + (n,))

    yield from rec(0, total, ())


def route_oracle(hotspots, pairwise, fleet):
    """(route, budgets, profit) of the best multi-hotspot route for one vehicle.

    Enumerates every ordered subset of ``hotspots`` and every split into whole
    energy units of the budget left after flying the route, ``pairwise[a, b]``
    being the flight from hotspot a to b. A fractional remainder of that budget
    goes to each stop in turn, so the full budget is always spent.
    """
    cache = {}

    def spot_profit(idx, budget):
        key = (idx, round(budget, 9))
        if key not in cache:  # no budget funds no unit: a zero-profit decision
            cache[key] = _pooled_decisions(fleet.valuation, (hotspots[idx].alpha,), (budget,),
                                           fleet.service_cost, (1,))[0][0].profit
        return cache[key]

    best = ((), (), 0.0)
    for size in range(1, len(hotspots) + 1):
        for route in itertools.permutations(range(len(hotspots)), size):
            dist = hotspots[route[0]].distance
            for a, b in zip(route, route[1:]):
                dist += pairwise[a, b]
            residual = fleet.initial_budget - dist
            if residual < 0:
                continue
            units = int(residual)
            remainder = residual - units
            for parts in compositions(units, [units] * size):
                variants = ([parts[:q] + (parts[q] + remainder,) + parts[q + 1:]
                             for q in range(size)] if remainder > 1e-9 else [parts])
                for budgets in variants:
                    profit = sum(spot_profit(i, b) for i, b in zip(route, budgets))
                    if profit > best[2]:
                        best = (route, budgets, profit)
    return best


def check_regularity(model):
    """Whether the virtual value is nondecreasing on 100 even points of the
    support, an unbounded upper end cut at the 0.9999 quantile.

    Any object with ``support``, ``sample`` and ``virtual_value`` can be
    checked, so tests can probe deliberately irregular constructions.
    """
    lo, hi = model.support()
    if math.isinf(hi):
        hi = model.sample(0.9999)
    phi = np.array([model.virtual_value(x) for x in np.linspace(lo, hi, 100)])
    return bool(np.all(np.diff(phi) >= -1e-12))


def exact_log_series(x: float, k: int) -> Decimal:
    """log S_k(x) at the float x, from the exact rational sum, to 60 digits."""
    x, term, total = Fraction(x), Fraction(1), Fraction(1)
    for i in range(1, k + 1):
        term *= x / i
        total += term
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(total.numerator) / Decimal(total.denominator)).ln()


def column_sweep(alpha, k, T, rule, prices):
    """The table sweep as a plain loop over t = 1..T, one rule call per column:
    ``rule(price, r_same, r_less, out)`` fills values[1..m][t], m = min(t, k),
    from the rows 1..m of ``prices``' column t, and rows past t copy R[t][t]."""
    values = np.zeros((T + 1, k + 1) + np.shape(alpha)).swapaxes(0, 1)
    for t in range(1, T + 1):
        m = min(t, k)
        rule(prices[1:m + 1, t], values[1:m + 1, t - 1], values[:m, t - 1], values[1:m + 1, t])
        if m < k:
            values[m + 1:, t] = values[m, t]
    return values


def posted_pricing_oracle(model, alpha, k, T):
    """build_pricing with its round-off test in every column: (prices, values).

    Each column's option values are tested for a negative entry; an entry in
    [-1e-12 * R[j][t-1], 0) is clamped to zero, and ``solve_stage_price``
    raises on a lower one. The family's stage rule then prices the column.
    """
    alpha = np.asarray(alpha, dtype=float) if np.ndim(alpha) else float(alpha)
    stage = model._posted_stage(alpha)

    def posted(price, r_same, r_less, out):
        delta = np.subtract(r_same, r_less, out=price)
        if delta.min(initial=0.0) < 0.0:
            delta = np.where((delta < 0.0) & (delta >= -1e-12 * r_same), 0.0, delta)
            solve_stage_price(model, delta)
        stage(delta, price, r_same, r_less, out)

    prices = np.full((k + 1, T + 1) + np.shape(alpha), np.nan)
    return prices, column_sweep(alpha, k, T, posted, prices)


def scored_schedule_oracle(model, alpha, prices, k, T):
    """evaluate_schedule as one ``profit_step`` call per column: the sale
    probabilities and the masks of a column are made in that column."""
    alpha = np.asarray(alpha, dtype=float) if np.ndim(alpha) else float(alpha)
    return column_sweep(alpha, k, T, partial(profit_step, model, alpha),
                        np.asarray(prices, dtype=float))
