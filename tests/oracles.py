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
                                           fleet.service_cost, (1,))[0][0][2]
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


def dominance_planner(rows, count):
    """(counts, total) of the best fleet profile from the dominance-list pass
    of Nemhauser & Ullmann (1969) that keeps every prefix's counts.

    ``rows[i][n - 1]`` is hotspot i's profit with n vehicles; None pins
    hotspot i to zero. One forward pass keeps, per count of vehicles placed, a
    short list of (counts, prefix sum) entries in decreasing counts order with
    strictly rising sums, and drops an entry too far below its list's top sum
    to ever tie it: the left-to-right float sum and the tie rule (the
    lexicographically greatest profile) of scoring every composition.
    """
    cap = 0.0
    for row in rows:
        if row is not None:
            cap += max(abs(p) for p in row)
    # Adding one profit to two prefix sums a gap g apart leaves them at least
    # g - ulp(cap) apart, so with `left` hotspots to come an entry more than
    # left * ulp(cap) below its list's top can neither win nor tie.
    ulp = math.ulp(cap)
    lists = [[((), 0.0)]] + [[] for _ in range(count)]
    for i, row in enumerate(rows):
        left = len(rows) - 1 - i
        margin = left * ulp if left else 0.0
        grown = [[(counts + (0,), s) for counts, s in entries] for entries in lists]
        if row is not None:
            for u, entries in enumerate(lists):
                for n, profit in enumerate(row[:count - u], start=1):
                    grown[u + n] += [(counts + (n,), s + profit) for counts, s in entries]
        lists = []
        for entries in grown:
            entries.sort(reverse=True)
            kept = []
            for entry in entries:
                if not kept or entry[1] > kept[-1][1]:
                    kept.append(entry)
            lists.append([e for e in kept if not kept[-1][1] - e[1] > margin])
    return lists[count][-1]


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


def scalar_stage_gain(model, delta):
    """(p - delta) * (1 - F(p)) at p = inverse_virtual_value(delta), for one
    float: the former ``ValuationModel._stage_gain``, clamps through max() and
    min() and every constant read off the model per call."""
    if model.kind == "exponential":
        p = max(delta + 1.0 / model.rate, 0.0)
        return (p - delta) * (1.0 + math.expm1(-model.rate * p))
    a, b = model.lower, model.upper
    p = min(max(0.5 * (delta + b), a), b)
    return (p - delta) * (1.0 - (p - a) / (b - a))


def scalar_rk4_oracle(model, arrival_rate, capacity, horizon, step=1e-3):
    """continuous_profit_numeric as it was before its per-family gain closure:
    one ``scalar_stage_gain`` call per unit and stage, each scaled by the
    arrival rate, and a new stack list per step; the same steps, Richardson
    check and error text."""
    if horizon == 0:
        return 0.0

    def integrate(h):
        n = max(1, math.ceil(horizon / h))
        dt = horizon / n
        half, sixth = 0.5 * dt, dt / 6.0
        r = [0.0] * capacity
        for _ in range(n):
            p1 = p2 = p3 = p4 = 0.0
            nxt = []
            for x in r:
                d1 = arrival_rate * scalar_stage_gain(model, x - p1)
                s2 = x + half * d1
                d2 = arrival_rate * scalar_stage_gain(model, s2 - p2)
                s3 = x + half * d2
                d3 = arrival_rate * scalar_stage_gain(model, s3 - p3)
                s4 = x + dt * d3
                d4 = arrival_rate * scalar_stage_gain(model, s4 - p4)
                nxt.append(x + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4))
                p1, p2, p3, p4 = x, s2, s3, s4
            r = nxt
        return r[-1]

    coarse = integrate(step)
    fine = integrate(step / 2.0)
    if not abs(coarse - fine) < 1e-6 * max(1.0, abs(fine)):
        raise ValueError(
            f"step {step} too coarse: halving moved the result by {abs(coarse - fine):.3g}"
        )
    return fine
