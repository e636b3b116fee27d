"""Dynamic pricing of a capacity-limited service over a finite hovering window.

Discrete model: a seller hovers for T unit slots with k service units left.
In each slot one buyer shows up with probability alpha and accepts the posted
price p when their private valuation reaches it. Backward recursion over
leftover capacity j and leftover time t:

    R[j][t] = alpha * (p + R[j-1][t-1]) * (1 - F(p))
              + R[j][t-1] * (1 - alpha * (1 - F(p)))

with R[0][t] = R[j][0] = 0. The profit-maximizing stage price solves
phi(p) = delta where delta = R[j][t-1] - R[j-1][t-1] is the option value of
keeping a unit. Column t needs only column t-1, so one kernel sweeps t and
runs a stage rule once per column, over all j: posted prices, a given price
matrix, or the full-information threshold of ``uavps.benchmark``. When t < j
the extra capacity is dead weight: R[j][t] = R[t][t] and no price is defined.

Continuous relaxation: buyers arrive as a Poisson stream with rate a'. For
exponential valuations the expected profit and price have closed forms built
from the truncated series S_k(x) = sum_{i<=k} x^i / i! at x = a' * t / e
(Gallego & van Ryzin, Management Science 40(8), 1994):

    R_k(t) = log(S_k(x)) / lam
    p_k(t) = 1/lam + (log S_k(x) - log S_{k-1}(x)) / lam

S_k overflows a double at large budgets, so every caller gets log S_k from
one overflow-free kernel, ``_log_series``. For any regular valuation family
the profit solves an ODE system integrated here with fixed-step RK4, which
serves as the general-distribution oracle for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .valuations import ValuationModel


@dataclass(frozen=True)
class ProfitTable:
    """Expected-profit table R[j][t], j in 0..capacity, t in 0..horizon."""

    alpha: float
    capacity: int
    horizon: int
    values: np.ndarray

    def final(self) -> float:
        """R at full capacity and full horizon."""
        return float(self.values[self.capacity, self.horizon])


@dataclass(frozen=True)
class PriceSchedule:
    """Posted prices p[j][t]; NaN marks (j, t) pairs where no price exists.

    A price is defined for j in 1..capacity and t in j..horizon; with fewer
    slots than units the surplus capacity can never sell.
    """

    capacity: int
    horizon: int
    prices: np.ndarray

    def price(self, j: int, t: int) -> float | None:
        if not (1 <= j <= self.capacity and j <= t <= self.horizon):
            return None
        return float(self.prices[j, t])


def solve_stage_price(model: ValuationModel, delta):
    """Price maximizing (p - delta) * (1 - F(p)) for a one-unit stage sale.

    Regularity makes the maximizer the unique root of phi(p) = delta
    (clamped to the support when the root falls outside it). Elementwise.
    """
    if (np.asarray(delta) < 0).any():
        raise ValueError(f"stage option value must be nonnegative, got {np.min(delta)}")
    return model.inverse_virtual_value(delta)


def profit_step(model: ValuationModel, alpha: float, price, r_same, r_less):
    """One application of the profit recursion at a posted price, elementwise.

    r_same and r_less are the continuation profits with the same and with one
    fewer service unit. A price with zero sale probability (bounded support
    saturation) leaves the continuation value untouched.
    """
    sell = 1.0 - np.asarray(model.cdf(price))
    price = np.where(sell <= 0.0, 0.0, price)  # an unsellable price may be inf
    out = np.where(sell <= 0.0, r_same,
                   alpha * (price + r_less) * sell + r_same * (1.0 - alpha * sell))
    return out if out.ndim else float(out)


def _fill(alpha: float, capacity: int, horizon: int, rule,
          prices: np.ndarray | None = None) -> tuple[PriceSchedule, ProfitTable]:
    """The one (j, t) sweep behind every discrete profit table.

    Column t needs only column t-1: with m = min(t, capacity), ``rule(price,
    r_same, r_less)`` maps the slices prices[1..m][t], R[1..m][t-1] and
    R[0..m-1][t-1] to R[1..m][t], and rows past t copy R[t][t]. Without a
    price matrix the rule may post into a NaN one.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"occurrence probability must lie in [0, 1], got {alpha}")
    if capacity < 1:
        raise ValueError(f"capacity must be a positive integer, got {capacity}")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    k, T = int(capacity), int(horizon)
    if prices is None:
        prices = np.full((k + 1, T + 1), np.nan)
    elif prices.ndim != 2 or prices.shape[0] <= k or prices.shape[1] <= T:
        raise ValueError(f"price matrix of shape {prices.shape} has no entry ({k}, {T})")

    values = np.zeros((k + 1, T + 1))
    for t in range(1, T + 1):
        m = min(t, k)
        values[1:m + 1, t] = rule(prices[1:m + 1, t], values[1:m + 1, t - 1],
                                  values[:m, t - 1])
        values[m + 1:, t] = values[m, t]
    return (PriceSchedule(capacity=k, horizon=T, prices=prices),
            ProfitTable(alpha=alpha, capacity=k, horizon=T, values=values))


def build_pricing(model: ValuationModel, alpha: float, capacity: int,
                  horizon: int) -> tuple[PriceSchedule, ProfitTable]:
    """Fill the optimal price schedule and profit table for (alpha, k, T).

    One column sweep, each column's stage prices solved at once. Cells with
    t < j copy R[t][t] and leave the price undefined. An option value in
    [-1e-12 * R[j][t-1], 0) is round-off and counts as zero; a lower one raises.
    """
    def posted(price, r_same, r_less):
        delta = r_same - r_less
        delta = np.where((delta < 0.0) & (delta >= -1e-12 * r_same), 0.0, delta)
        price[:] = solve_stage_price(model, delta)
        return profit_step(model, alpha, price, r_same, r_less)

    return _fill(alpha, capacity, horizon, posted)


def evaluate_schedule(model: ValuationModel, alpha: float, prices: np.ndarray,
                      capacity: int, horizon: int) -> ProfitTable:
    """Propagate the profit recursion under an arbitrary price matrix.

    Used to score non-optimal policies (perturbed or constant prices) against
    the optimal table. ``prices[j, t]`` is read for j in 1..capacity and
    t in j..horizon; the matrix must cover them, other entries are ignored.
    """
    return _fill(alpha, capacity, horizon, partial(profit_step, model, alpha),
                 np.asarray(prices, dtype=float))[1]


# -- continuous-time closed forms (exponential valuations) ------------------


# Every _SERIES_STRIDE terms, a partial sum past _SERIES_BOUND moves into its
# log offset. A sum grows at most (1 + x)-fold per term, so for x <= 1e12 it
# stays under 1e300 between checks.
_SERIES_BOUND, _SERIES_STRIDE = 1e100, 16


def _log_series(x, k) -> np.ndarray:
    """log S_k(x) elementwise over broadcast arrays x in [0, 1e12], k >= 0.

    Sums the terms x^i / i! by their ratios x / i in linear space, over the
    entries sorted by decreasing k, so those still running are a prefix. The
    i = 0 term enters through log1p unless the sum has moved to its offset.
    Each entry's arithmetic is its own, so a vector call equals scalar calls.
    """
    x, k = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(k, dtype=np.int64))
    order = np.argsort(-k, axis=None)
    xs, ks = x.ravel()[order], k.ravel()[order]
    running = np.searchsorted(-ks, -np.arange(1, ks.max(initial=0) + 1), side="right")
    tail, offset, term = np.zeros(xs.size), np.zeros(xs.size), np.ones(xs.size)
    for i, m in enumerate(running, start=1):
        _add_series_term(xs, term, tail, offset, m, i)
    out = np.empty(xs.size)
    out[order] = _series_log(tail, offset)
    return out.reshape(x.shape)


def _log_series_levels(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log S_k(x) and log S_{k-1}(x) for non-empty 1-d x in [0, 1e12], k >= 1.

    One pass of ``_log_series``'s arithmetic. An entry's state after i terms
    depends only on (x, i), so its state one term before its end is the
    level-(k-1) state, and both logs equal what ``_log_series`` returns at k
    and at k - 1, bit for bit.
    """
    order = np.argsort(-k)
    xs, ks = x[order], k[order]
    # bounds[i] counts the entries with k > i, so those with k == i sit at
    # bounds[i]:bounds[i - 1] and the first bounds[i - 1] still add term i.
    bounds = np.searchsorted(-ks, -np.arange(1, ks[0] + 2), side="right")
    tail, offset, term = np.zeros(xs.size), np.zeros(xs.size), np.ones(xs.size)
    prev_tail, prev_offset = np.empty(xs.size), np.empty(xs.size)
    for i in range(1, ks[0] + 1):
        lo, m = bounds[i], bounds[i - 1]
        if lo < m:
            prev_tail[lo:m] = tail[lo:m]
            prev_offset[lo:m] = offset[lo:m]
        _add_series_term(xs, term, tail, offset, m, i)
    logs, prev = np.empty(xs.size), np.empty(xs.size)
    logs[order] = _series_log(tail, offset)
    prev[order] = _series_log(prev_tail, prev_offset)
    return logs, prev


def _add_series_term(x, term, tail, offset, m: int, i: int) -> None:
    """Add term i, x^i / i!, to the first m running sums in place; every
    stride, move a sum past the bound into its log offset."""
    t, s = term[:m], tail[:m]
    t *= x[:m] / i
    s += t
    if i % _SERIES_STRIDE == 0:
        scale = np.where(s > _SERIES_BOUND, s, 1.0)
        offset[:m] += np.log(scale)
        t /= scale
        s /= scale


def _series_log(tail: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """The log of a running sum: offset + log(tail) once moved, else log1p(tail)."""
    # A moved sum restarts at exactly 1 and only grows.
    return np.where(offset > 0.0, offset + np.log(np.maximum(tail, 1.0)), np.log1p(tail))


def log_capacity_series(x: float, k: int) -> float:
    """log S_k(x) for one argument and one series length."""
    if x < 0:
        raise ValueError(f"series argument must be nonnegative, got {x}")
    return float(_log_series(x, int(k)))


def expected_profit_closed_form(lam: float, arrival_rate: float, capacity: int,
                                horizon: float) -> float:
    """Expected profit under Poisson arrivals and exponential valuations.

    Equals log(S_k(a' * T / e)) / lam. Horizon zero gives zero profit.
    """
    if lam <= 0 or arrival_rate <= 0:
        raise ValueError("rate parameters must be positive")
    if capacity < 1:
        raise ValueError(f"capacity must be a positive integer, got {capacity}")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    x = arrival_rate * horizon / math.e
    return log_capacity_series(x, int(capacity)) / lam


def price_closed_form(lam: float, arrival_rate: float, capacity: int,
                      time_left: float) -> float:
    """Posted price with k units and continuous time t left.

    Equals 1/lam + R_k(t) - R_{k-1}(t): the mean valuation marked up by the
    marginal option value of the unit on offer.
    """
    if lam <= 0 or arrival_rate <= 0:
        raise ValueError("rate parameters must be positive")
    if capacity < 1:
        raise ValueError(f"capacity must be a positive integer, got {capacity}")
    if time_left < 0:
        raise ValueError(f"time left must be nonnegative, got {time_left}")
    k = int(capacity)
    x = arrival_rate * time_left / math.e
    return (1.0 + log_capacity_series(x, k) - log_capacity_series(x, k - 1)) / lam


def continuous_profit_numeric(model: ValuationModel, arrival_rate: float,
                              capacity: int, horizon: float,
                              step: float = 1e-3) -> float:
    """Integrate the continuous-time profit ODEs for any valuation family.

    The stack of profits (R_1, ..., R_k) evolves by

        dR_j/dt = a' * (p_j - (R_j - R_{j-1})) * (1 - F(p_j)),
        p_j = inverse virtual value at R_j - R_{j-1},

    from R_j(0) = 0. Fixed-step RK4 with a Richardson step-halving check:
    the result at step/2 is returned and must agree with the full-step result
    to 1e-6, otherwise the step is too coarse for the requested horizon.

    The stack is a list of Python floats, each stage gain one scalar libm
    call (``ValuationModel._stage_gain``), and one sweep up j runs all four
    RK4 stages. At the small k the oracles use, numpy's per-call overhead on
    length-k arrays costs more than the arithmetic; past k of about 35 the
    scalar sweep is the slower one.
    """
    if arrival_rate <= 0:
        raise ValueError("arrival rate must be positive")
    if capacity < 1:
        raise ValueError(f"capacity must be a positive integer, got {capacity}")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if horizon == 0:
        return 0.0

    k, rate, gain = int(capacity), float(arrival_rate), model._stage_gain

    def integrate(h: float) -> float:
        n = max(1, math.ceil(horizon / h))
        dt = float(horizon) / n
        half, sixth = 0.5 * dt, dt / 6.0
        r = [0.0] * k  # (R_1, ..., R_k); R_0 = 0 never moves
        for _ in range(n):
            # Stage s of R_j reads stage s - 1 of R_j and R_{j-1} only, so one
            # sweep up j runs all four stages; p1..p4 hold R_{j-1}'s inputs.
            p1 = p2 = p3 = p4 = 0.0
            nxt = []
            for x in r:
                d1 = rate * gain(x - p1)
                s2 = x + half * d1
                d2 = rate * gain(s2 - p2)
                s3 = x + half * d2
                d3 = rate * gain(s3 - p3)
                s4 = x + dt * d3
                d4 = rate * gain(s4 - p4)
                nxt.append(x + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4))
                p1, p2, p3, p4 = x, s2, s3, s4
            r = nxt
        return r[-1]

    coarse = integrate(step)
    fine = integrate(step / 2.0)
    if abs(coarse - fine) >= 1e-6 * max(1.0, abs(fine)):
        raise ValueError(
            f"step {step} too coarse: halving moved the result by {abs(coarse - fine):.3g}"
        )
    return fine


# -- CSV export --------------------------------------------------------------


def schedule_csv_rows(schedule: PriceSchedule, table: ProfitTable):
    """Yield (j, t, price-or-None, profit) rows ordered by (j, t)."""
    for j in range(table.capacity + 1):
        for t in range(table.horizon + 1):
            yield j, t, schedule.price(j, t), float(table.values[j, t])
