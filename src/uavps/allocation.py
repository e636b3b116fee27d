"""Splitting one vehicle's on-site energy between hovering time and capacity.

With budget B and per-user service cost c, choosing capacity k leaves T = B - ck
hovering slots, so the planner solves max_k R_k(B - ck). The discrete search
simply evaluates every feasible k (at most floor(B / (1 + c)) of them, since
capacity beyond the hovering time is wasted). The same search, with the
capacity cost shared by a group of pooled vehicles, prices every group size
of fleet deployment from one table per hotspot. The continuous relaxation with
exponential valuations admits a threshold policy in the arrival rate a':

* low regime, a' <= 2ce / (B - 2c)^2: a single unit (k* = 1) and maximum
  hovering time beat everything;
* high regime, a' >= the root of ``high_regime_threshold``: saturate capacity
  at floor(B / c);
* in between, k* is the argmax of the capacity series S_k(a' (B - ck) / e).

The argmax is evaluated over every feasible k regardless of regime, so the
regime label is a classification layer on top of an exhaustive search. That
search, ``_best_series_capacity``, also serves ``capacity_argmax`` and the
continuous fleet planner, and scores every k with one log-space series call.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import bisect
from scipy.special import gammaln, logsumexp

from .pricing import _log_series, build_pricing
from .valuations import ValuationModel

# Absorbs float noise in floor(B / c) when B is an exact multiple of c.
_FLOOR_EPS = 1e-12


class Regime(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"
    NOT_APPLICABLE = "n/a"


@dataclass(frozen=True)
class AllocationDecision:
    """An energy split: capacity k_star, hovering time t_star, and its profit."""

    k_star: int
    t_star: float
    profit: float
    regime: Regime = Regime.NOT_APPLICABLE


def allocate_discrete(model: ValuationModel, alpha: float, budget: int,
                      service_cost: int) -> AllocationDecision:
    """Exhaustive discrete search over k in 1..floor(B / (1 + c)).

    Budget and service cost must be integers (slot-quantized energy); the
    chosen split always uses the whole budget, T = B - ck. Ties go to the
    smallest capacity, preserving hovering flexibility.
    """
    if budget != int(budget) or service_cost != int(service_cost):
        raise ValueError("discrete allocation needs integer budget and service cost")
    budget, service_cost = int(budget), int(service_cost)
    if service_cost <= 0:
        raise ValueError(f"service cost must be positive, got {service_cost}")
    if budget < 1 + service_cost:
        raise ValueError(
            f"budget {budget} cannot cover one user plus one hovering slot"
        )

    # A group of one reads every R[k][B - ck] from one table at
    # (B // (1 + c), B - c).
    return _pooled_decisions(model, alpha, budget, service_cost, (1,))[0]


# -- "best capacity for a budget": one discrete and one continuous search -----

# Absorbs float noise in the pooled floors when a group's share c * k / n or
# the bound avail / (1 + c / n) lands on a whole number.
_POOL_EPS = 1e-9


def _pooled_decisions(model: ValuationModel, alpha: float, available: float,
                      service_cost: float,
                      groups: Sequence[int]) -> list[AllocationDecision]:
    """Best (k, T) for each group size in ``groups``, all read from one table.

    A group of n vehicles sharing ``available`` energy each can fund capacity
    k in 1..floor(avail / (1 + c / n)) with T = floor(avail - c k / n)
    hovering slots. Both bounds grow with n, and R[j][t] depends only on rows
    <= j and columns <= t, so the table built for the largest group holds the
    table of every smaller group bit for bit. Ties go to the smallest k.
    A group that cannot fund one user gets a zero-profit decision with k = 0.
    """
    k_max = lambda n: math.floor(available / (1.0 + service_cost / n) + _POOL_EPS)
    hover = lambda n, k: math.floor(available - service_cost * k / n + _POOL_EPS)
    top = max(groups)
    if k_max(top) >= 1:
        _, table = build_pricing(model, alpha, k_max(top), hover(top, 1))
        values = table.values
    decisions = []
    for n in groups:
        if k_max(n) < 1:
            decisions.append(AllocationDecision(k_star=0, t_star=0, profit=0.0,
                                                regime=Regime.NOT_APPLICABLE))
            continue
        best_k, best_profit = 1, -math.inf
        for k in range(1, k_max(n) + 1):
            profit = float(values[k, hover(n, k)])
            if profit > best_profit:
                best_k, best_profit = k, profit
        decisions.append(AllocationDecision(
            k_star=best_k, t_star=hover(n, best_k),
            profit=best_profit, regime=Regime.NOT_APPLICABLE))
    return decisions


def _best_series_capacity(arrival_rate: float, available: float, service_cost: float,
                          group: int, k_top: int) -> tuple[int, float]:
    """(k, log S_k(x_k)) maximizing log S_k(a' max(avail - c k / group, 0) / e)
    over k in 1..max(k_top, 1), ties to the smallest k."""
    k = np.arange(1, max(k_top, 1) + 1)
    hover = np.maximum(available - service_cost * k / group, 0.0)
    logs = _log_series(arrival_rate * hover / math.e, k)
    best = int(np.argmax(logs))
    return best + 1, float(logs[best])


def low_regime_threshold(budget: float, service_cost: float) -> float:
    """Arrival rate below which a single service unit is optimal: 2ce/(B-2c)^2."""
    if budget <= 2 * service_cost:
        raise ValueError("low-regime threshold needs budget > 2 * service cost")
    return 2.0 * service_cost * math.e / (budget - 2.0 * service_cost) ** 2


def _saturation_gap(arrival_rate: float, budget: float, service_cost: float,
                    k_top: int) -> float:
    """Signed gap whose root marks where capacity saturation starts to pay.

    Positive once the profit at k_top (capacity floor(B/c)) overtakes the
    profit at k_top - 1. Increasing in the arrival rate, so a sign change
    brackets a unique root. Taken as log(lead) - log(tail) to never overflow.
    """
    t_top = budget - service_cost * k_top
    t_next = budget - service_cost * (k_top - 1)
    log_a = math.log(arrival_rate)
    log_lead = log_a - 1.0 - math.lgamma(k_top + 1) + k_top * math.log(t_top)
    i = np.arange(1, k_top)
    # t_next^i - t_top^i = t_next^i * (1 - (t_top / t_next)^i)
    log_tail = logsumexp((k_top - i - 1) * (1.0 - log_a) - gammaln(i + 1)
                         + i * math.log(t_next)
                         + np.log(-np.expm1(i * math.log(t_top / t_next))))
    return log_lead - float(log_tail)


def high_regime_threshold(budget: float, service_cost: float) -> float:
    """Arrival rate above which saturating capacity at floor(B / c) is optimal.

    Returns +inf when B / c is an integer: saturation then leaves zero
    hovering time and can never pay, so the high regime does not exist.
    """
    if budget <= service_cost:
        raise ValueError("need budget > service cost")
    k_top = math.floor(budget / service_cost + _FLOOR_EPS)
    if budget - service_cost * k_top <= _FLOOR_EPS * budget:
        return math.inf
    if k_top == 1:
        # Single feasible capacity; saturation holds for every arrival rate.
        return 0.0

    gap = lambda a: _saturation_gap(a, budget, service_cost, k_top)
    lo, hi = 1e-9, 1e6
    if gap(lo) >= 0.0:
        return lo
    while gap(hi) < 0.0:
        hi *= 10.0
        if hi > 1e12:
            return math.inf
    return float(bisect(gap, lo, hi, xtol=1e-10, maxiter=500))


def allocate_continuous(lam: float, arrival_rate: float, budget: float,
                        service_cost: float) -> AllocationDecision:
    """Threshold-classified energy split in the continuous-time relaxation.

    k_star always comes from the exhaustive argmax of the closed-form profit
    over k in 1..floor(B / c) (ties to the smallest k); the regime label adds
    the threshold classification where its formulas apply (budget > 2c).
    """
    if lam <= 0 or arrival_rate <= 0:
        raise ValueError("rate parameters must be positive")
    if service_cost <= 0:
        raise ValueError(f"service cost must be positive, got {service_cost}")
    if budget <= service_cost:
        raise ValueError(f"budget {budget} cannot cover a single user")

    k_top = math.floor(budget / service_cost + _FLOOR_EPS)
    best_k, log_series = _best_series_capacity(arrival_rate, budget,
                                               service_cost, 1, k_top)

    if budget <= 2 * service_cost:
        regime = Regime.NOT_APPLICABLE
    elif arrival_rate <= low_regime_threshold(budget, service_cost):
        regime = Regime.LOW
    elif arrival_rate >= high_regime_threshold(budget, service_cost):
        regime = Regime.HIGH
    else:
        regime = Regime.MEDIUM

    return AllocationDecision(k_star=best_k,
                              t_star=budget - service_cost * best_k,
                              profit=log_series / lam, regime=regime)


def capacity_argmax(arrival_rate: float, budget: float,
                    service_cost: float) -> int:
    """Argmax of S_k(a' (B - ck) / e) over feasible k, ties to the smallest.

    The capacity series is a monotone transform of the closed-form profit, so
    this matches ``allocate_continuous`` and is the raw search the regime
    labels classify.
    """
    k_top = math.floor(budget / service_cost + _FLOOR_EPS)
    return _best_series_capacity(arrival_rate, budget, service_cost, 1, k_top)[0]
