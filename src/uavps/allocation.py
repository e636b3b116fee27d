"""Splitting one vehicle's on-site energy between hovering time and capacity.

With budget B and per-user service cost c, choosing capacity k leaves T = B - ck
hovering slots, so the planner solves max_k R_k(B - ck). The discrete search
simply evaluates every feasible k (at most floor(B / (1 + c)) of them, since
capacity beyond the hovering time is wasted), for a whole alpha sweep from one
table sweep. The same search, with the capacity cost shared by a group of
pooled vehicles, prices every group size at every hotspot from one batched
table sweep. The continuous relaxation with exponential valuations admits a
threshold policy in the arrival rate a':

* low regime, a' <= 2ce / (B - 2c)^2: a single unit (k* = 1) and maximum
  hovering time beat everything;
* high regime, a' >= the root of ``high_regime_threshold``: saturate capacity
  at floor(B / c);
* in between, k* is the argmax of the capacity series S_k(a' (B - ck) / e).

Each threshold is the rate where two capacities tie: 2ce / (B - 2c)^2 is
where S_1(x_1) = S_2(x_2), and the high root is where S_{k_top}(x_top) =
S_{k_top - 1}(x_next). So the regime is read off the k* of the search over
every feasible k, with no threshold evaluated: k* = 1 is low and k* =
floor(B / c) is high. The thresholds stay public as the paper's closed
forms. The search, ``_best_series_capacity``, also serves ``capacity_argmax``,
the continuous fleet planner and the forking check; it bounds each search's
capacity itself and scores the k of many searches in one call. It skips,
exactly, every k that cannot win: the largest term of any feasible k's series
bounds the maximum from below, and log S_k(x) is at most x, at most log T +
log(k + 1) for its largest term T, and, for k < x, at most log T - log(1 -
k / x). So it sums the series only near the winning k.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammaln, logsumexp

from .pricing import _log_series, build_pricing
from .valuations import ParameterError, ValuationModel, _check

# Absorbs float noise in the saturating capacity floor(B / c) at exact
# multiples, for the high regime's label and its threshold alike.
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


def allocate_discrete(model: ValuationModel, alpha, budget: int,
                      service_cost: int) -> AllocationDecision | list[AllocationDecision]:
    """Exhaustive discrete search over k in 1..floor(B / (1 + c)).

    Budget and service cost must be integers (slot-quantized energy); the
    chosen split always uses the whole budget, T = B - ck. Ties go to the
    smallest capacity, preserving hovering flexibility. A 1-d alpha returns
    one decision per entry, each the one its scalar alpha gives, from one
    table sweep (a one-entry batch gets a scalar table).
    """
    budget, service_cost = _check("size", budget, "budget"), _check("count", service_cost,
                                                                      "service cost")
    _check("search index", budget, "budget")  # before _pooled_decisions' int casts
    if budget < 1 + service_cost:
        raise ParameterError(f"budget {budget} cannot cover one user plus one hovering slot")
    alpha = _check("probabilities", alpha, "occurrence probability")

    # Each alpha is a hotspot with the whole budget and a group of one, which
    # reads every R[k][B - ck] from one table at (B // (1 + c), B - c).
    alphas = np.ravel(alpha)
    decisions = [row[0] for row in _pooled_decisions(
        model, alphas, [budget] * alphas.size, service_cost, (1,))]
    return decisions if np.ndim(alpha) else decisions[0]


# -- "best capacity for a budget": one discrete and one continuous search -----

# Absorbs float noise where c * k / n, avail / (1 + c / n) or n * avail / c
# lands on a whole number before a floor.
_POOL_EPS = 1e-9


def _pooled_decisions(model: ValuationModel, alphas: Sequence[float],
                      availables: Sequence[float], service_cost: float,
                      groups: Sequence[int]) -> list[list[AllocationDecision]]:
    """Best (k, T) per hotspot (alpha, avail) and group size, from one sweep.

    A group of n vehicles with ``avail`` energy each funds k in 1..floor(avail
    / (1 + c / n)) with T = floor(avail - c k / n) slots. R[j][t] depends only
    on rows <= j and columns <= t, so a table sized for the largest hotspot
    and group holds every group's table in its top-left corner, bit for bit.
    Ties go to the smallest k; a group that cannot fund one user gets a
    zero-profit decision with k = 0.
    """
    avail = np.array(availables, dtype=float).reshape(-1, 1, 1)
    _check("search index", avail.max(initial=0.0), "energy left at a hotspot")  # int casts
    n = np.array(groups).reshape(-1, 1)
    k_top = np.floor(avail / (1.0 + service_cost / n) + _POOL_EPS).astype(int)
    k = np.arange(1, k_top.max(initial=0) + 1)
    if not k.size:
        return [[AllocationDecision(k_star=0, t_star=0, profit=0.0)] * n.size] * avail.size
    # Both bounds grow with n and avail, so the largest ones size the table;
    # hover falls as k grows, so no hover index passes the table either.
    hover = np.floor(avail - service_cost * k / n + _POOL_EPS).astype(int)
    live = k <= k_top
    funded = live[..., 0].any(axis=1)
    batch = np.array(alphas, dtype=float)[funded]
    # A lone hotspot gets a scalar table: per column it costs less than a batch of one.
    _, table = build_pricing(model, batch if batch.size > 1 else batch[0], k[-1],
                             hover[..., 0].max())
    values = table.values.reshape(table.values.shape[:2] + (-1,))
    column = np.cumsum(funded).reshape(-1, 1, 1) - 1
    profits = np.where(live, values[k, np.maximum(hover, 0), column], -np.inf)
    return [[AllocationDecision(k_star=b + 1, t_star=h[b], profit=p[b]) if p[b] > -math.inf
             else AllocationDecision(k_star=0, t_star=0, profit=0.0)
             for b, h, p in zip(*row)]  # argmax takes the first maximum: the smallest k
            for row in zip(profits.argmax(axis=2).tolist(), hover.tolist(), profits.tolist())]


def _series_bounds(x, k):
    """The log of the largest term of S_k(x), at i = min(k, floor(x)), and
    three upper bounds on log S_k(x), elementwise for k >= 1: x; the largest
    plus log(k + 1), as S_k has k + 1 terms; and, for k < x (+inf elsewhere),
    the largest minus log(1 - k / x), as the terms then rise to the last, T_k
    (i = k), each at most k / x times the next."""
    i = np.minimum(k, np.floor(x))
    largest = i * np.log(np.maximum(x, 1.0)) - gammaln(i + 1)
    rise = k < x  # x > 1 wherever it holds
    ramp = np.where(rise, largest - np.log1p(-np.where(rise, k, 0) / np.maximum(x, 1.0)), np.inf)
    return largest, (x, largest + np.log(k + 1.0), ramp)


def _candidate_count(group, available, service_cost: float):
    """max(floor(group * avail / c), 1), elementwise, floored with _POOL_EPS:
    the k a continuous search scores, the count its work cap checks. An
    overflowing count is inf, which the cap refuses."""
    with np.errstate(over="ignore"):
        return np.maximum(np.floor(np.multiply(group, available) / service_cost + _POOL_EPS), 1)


def _best_series_capacity(rate, available, service_cost: float, group):
    """(k, log S_k(x_k)) maximizing log S_k(x_k), x_k = a' max(avail - c k /
    group, 0) / e, over k in 1..max(floor(group * avail / c), 1), ties to the
    smallest k, for the searches the arguments broadcast over on leading axes.

    The series kernel sees only the entries ``_series_cut`` keeps; the others
    score -inf. Kept entries keep their bits: the kernel is elementwise, and
    an entry at x = 0 is handed k = 0, as every term past the first is 0 and
    log1p(0) = 0 either way. At rate 0 the cut keeps every entry, and so
    needs no term at all.
    """
    x, k, keep = _series_cut(rate, available, service_cost, group)
    logs = np.full(keep.shape, -np.inf)
    logs[keep] = _log_series(np.broadcast_to(x, keep.shape)[keep],
                             np.broadcast_to(np.where(x > 0.0, k, 0), keep.shape)[keep])
    return logs.argmax(axis=-1) + 1, logs.max(axis=-1)  # argmax: the first maximum


def _series_cut(rate, available, service_cost: float, group):
    """The grid of ``_best_series_capacity``, checked: its series arguments
    x, the k axis, and the mask of the entries that can win or tie.

    Exact cut: the largest term of any feasible k's series bounds a search's
    maximum from below by L, and x, log T + log(k + 1) and, for k < x, log T
    - log(1 - k / x) bound each log S_k(x) from above (``_series_bounds``).
    An entry whose smallest upper bound is below L can neither win nor tie.
    """
    bound = _candidate_count(group, available, service_cost)
    k = np.arange(1, int(_check("search candidates", np.max(bound),
                                "capacity bound n B / c")) + 1)
    # An overflowing argument, or an infinite rate times 0 hovering (NaN), is
    # refused, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        x = rate * np.maximum(available - service_cost * k / group, 0.0) / math.e
    _check("series argument", np.max(x), "the search's largest series argument")
    live = k <= bound
    largest, uppers = _series_bounds(x, k)
    lower = np.where(live, largest, 0.0).max(axis=-1, keepdims=True)
    # Round-off, to first order in u = 2^-53: a term step rounds the term
    # twice and the sum once, and a move to the offset (at most one per 16
    # terms) rounds the term and the offset once each, so a computed
    # log S_k(x) is within a relative (3.3 k + 5) u of the exact one, and
    # the computed L within a few hundred u. The upper bounds add little:
    # log(k + 1), k / x and log1p round once each, and the rounding of k / x
    # moves log1p(-k / x) by at most u k / (x - k), or log 2 within a few ulp
    # of x = k. The third bound can be the smallest only for x > k + 1 (below
    # it, 1 / (1 - k / x) >= k + 1), where log T_k >= k / 2 makes that a
    # relative 2u; below x = k + 1 it tops the second bound by
    # log(x / ((k + 1)(x - k))), which outgrows its rounding as x nears k.
    # So the computed smallest bound is within a few hundred u of an exact
    # one, as L is. The margin exceeds all of these, so a cut entry's
    # computed log stays below the computed maximum. At rate 0, L = 0 and
    # nothing is cut.
    margin = 1e-9 + 2.0 ** -51 * k[-1]
    return x, k, live & (np.minimum.reduce(uppers) * (1.0 + margin) >= lower * (1.0 - margin))


def _budget_and_cost(budget: float, service_cost: float) -> tuple[float, float]:
    """A vehicle's energy budget and per-user cost, checked and converted."""
    return (_check("positive finite", budget, "budget"),
            _check("positive finite", service_cost, "service cost"))


def low_regime_threshold(budget: float, service_cost: float) -> float:
    """Arrival rate below which a single service unit is optimal: 2ce/(B-2c)^2."""
    budget, service_cost = _budget_and_cost(budget, service_cost)
    if not budget > 2 * service_cost:
        raise ParameterError("low-regime threshold needs budget > 2 * service cost")
    gap = budget - 2.0 * service_cost
    try:
        return 2.0 * service_cost * math.e / gap ** 2
    except OverflowError:  # a gap past 1e154: the same ratio, with no square formed
        return 2.0 * service_cost * math.e / gap / gap


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


def _saturating_capacity(budget: float, service_cost: float) -> int:
    """floor(B / c), or 0 when B / c is a whole number: saturation then
    leaves zero hovering time and can never pay."""
    k_top = math.floor(budget / service_cost + _FLOOR_EPS)
    return k_top if budget - service_cost * k_top > _FLOOR_EPS * budget else 0


def high_regime_threshold(budget: float, service_cost: float) -> float:
    """Arrival rate above which saturating capacity at floor(B / c) is optimal.

    Returns +inf where no rate up to 1e12, where the root's bracket stops,
    makes saturation pay: whenever B / c is an integer, as saturation then
    leaves no hovering time, and at some other ratios, such as 40.3 and
    2^22 - 0.5. Rates past 1e12 lie outside ``allocate_continuous``'s domain
    once B - c >= e, as its largest series argument a' (B - c) / e then
    passes 1e12. The candidate count floor(B / c) is capped as in the
    capacity search.
    """
    budget, service_cost = _budget_and_cost(budget, service_cost)
    if not budget > service_cost:
        raise ParameterError("need budget > service cost")
    _check("search candidates", _candidate_count(1, budget, service_cost), "capacity bound B / c")
    k_top = _saturating_capacity(budget, service_cost)
    if not k_top:
        return math.inf
    if k_top == 1:
        # Single feasible capacity; saturation holds for every arrival rate.
        return 0.0
    # Imported on use: scipy.optimize is most of a cold `import uavps`.
    from scipy.optimize import bisect

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
    """Energy split in the continuous-time relaxation, with its regime.

    k_star comes from the argmax of the closed-form profit over k in
    1..floor(B / c) (ties to the smallest k), which skips only the k whose
    upper bounds on log S_k(x) fall below the log of another k's largest
    series term. Where the thresholds apply (budget > 2c), the regime is
    read off k_star, since each threshold is a rate where two capacities
    tie: k_star = 1 is low, k_star = floor(B / c) with hovering time left is
    high. Exactly at the high root the tie goes to the smaller capacity, so
    the label there is medium. The largest series argument, a' (B - c) / e,
    must be at most 1e12.
    """
    lam, arrival_rate = _check("valuation rate", lam, "lambda"), _check(
        "positive", arrival_rate, "arrival rate")
    budget, service_cost = _budget_and_cost(budget, service_cost)
    if not service_cost < budget:
        raise ParameterError(f"budget {budget} must cover a single user")

    best_k, log_series = (v.item() for v in _best_series_capacity(
        arrival_rate, budget, service_cost, 1))

    if budget <= 2 * service_cost:
        regime = Regime.NOT_APPLICABLE
    elif best_k == 1:
        regime = Regime.LOW
    elif best_k == _saturating_capacity(budget, service_cost):
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
    this matches ``allocate_continuous``, whose regime label is read off the
    same k.
    """
    arrival_rate = _check("nonnegative", arrival_rate, "arrival rate")
    budget, service_cost = _budget_and_cost(budget, service_cost)
    return _best_series_capacity(arrival_rate, budget, service_cost, 1)[0].item()

