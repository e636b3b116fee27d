"""Dynamic pricing of a capacity-limited service over a finite hovering window.

Discrete model: a seller hovers for T unit slots with k service units left.
In each slot one buyer shows up with probability alpha and accepts the posted
price p when their private valuation reaches it. Backward recursion over
leftover capacity j and leftover time t:

    R[j][t] = alpha * (p + R[j-1][t-1]) * (1 - F(p))
              + R[j][t-1] * (1 - alpha * (1 - F(p)))

with R[0][t] = R[j][0] = 0. The profit-maximizing stage price solves
phi(p) = delta where delta = R[j][t-1] - R[j-1][t-1] is the option value of
keeping a unit, so the whole table fills in O(k*T) closed-form price solves.
When t < j the extra capacity is dead weight: R[j][t] = R[t][t] and no price
is defined.

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

    def defined(self, j: int, t: int) -> bool:
        return 1 <= j <= self.capacity and j <= t <= self.horizon

    def price(self, j: int, t: int) -> float | None:
        if not self.defined(j, t):
            return None
        return float(self.prices[j, t])


def solve_stage_price(model: ValuationModel, delta: float) -> float:
    """Price maximizing (p - delta) * (1 - F(p)) for a one-unit stage sale.

    Regularity makes the maximizer the unique root of phi(p) = delta
    (clamped to the support when the root falls outside it).
    """
    if delta < 0:
        raise ValueError(f"stage option value must be nonnegative, got {delta}")
    return model.inverse_virtual_value(delta)


def profit_step(model: ValuationModel, alpha: float, price: float,
                r_same: float, r_less: float) -> float:
    """One application of the profit recursion at a posted price.

    r_same and r_less are the continuation profits with the same and with one
    fewer service unit. A price with zero sale probability (bounded support
    saturation) leaves the continuation value untouched.
    """
    sell = 1.0 - model.cdf(price)
    if sell <= 0.0:
        return r_same
    return alpha * (price + r_less) * sell + r_same * (1.0 - alpha * sell)


def build_pricing(model: ValuationModel, alpha: float, capacity: int,
                  horizon: int) -> tuple[PriceSchedule, ProfitTable]:
    """Fill the optimal price schedule and profit table for (alpha, k, T).

    Runs in O(capacity * horizon) stage-price solves. Cells with t < j copy
    R[t][t] and leave the price undefined. An option value in
    [-1e-12 * R[j][t-1], 0) counts as zero; a lower one raises.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"occurrence probability must lie in [0, 1], got {alpha}")
    if capacity < 1:
        raise ValueError(f"capacity must be a positive integer, got {capacity}")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    k, T = int(capacity), int(horizon)

    values = np.zeros((k + 1, T + 1))
    prices = np.full((k + 1, T + 1), np.nan)
    for j in range(1, k + 1):
        for t in range(1, T + 1):
            if t <= j - 1:
                values[j, t] = values[t, t]
            else:
                r_same = values[j, t - 1]
                r_less = values[j - 1, t - 1]
                delta = r_same - r_less
                if delta < 0.0 and delta >= -1e-12 * r_same:
                    delta = 0.0  # round-off once the marginal unit is worth ~0
                p = solve_stage_price(model, delta)
                prices[j, t] = p
                values[j, t] = profit_step(model, alpha, p, r_same, r_less)
    return (PriceSchedule(capacity=k, horizon=T, prices=prices),
            ProfitTable(alpha=alpha, capacity=k, horizon=T, values=values))


def evaluate_schedule(model: ValuationModel, alpha: float, prices: np.ndarray,
                      capacity: int, horizon: int) -> ProfitTable:
    """Propagate the profit recursion under an arbitrary price matrix.

    Used to score non-optimal policies (perturbed or constant prices) against
    the optimal table. ``prices[j, t]`` is read for j in 1..capacity and
    t in j..horizon; other entries are ignored.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"occurrence probability must lie in [0, 1], got {alpha}")
    k, T = int(capacity), int(horizon)
    values = np.zeros((k + 1, T + 1))
    for j in range(1, k + 1):
        for t in range(1, T + 1):
            if t <= j - 1:
                values[j, t] = values[t, t]
            else:
                values[j, t] = profit_step(model, alpha, float(prices[j, t]),
                                           values[j, t - 1], values[j - 1, t - 1])
    return ProfitTable(alpha=alpha, capacity=k, horizon=T, values=values)


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
        t, s = term[:m], tail[:m]
        t *= xs[:m] / i
        s += t
        if i % _SERIES_STRIDE == 0:
            scale = np.where(s > _SERIES_BOUND, s, 1.0)
            offset[:m] += np.log(scale)
            t /= scale
            s /= scale
    # A moved sum restarts at exactly 1 and only grows.
    logs = np.where(offset > 0.0, offset + np.log(np.maximum(tail, 1.0)), np.log1p(tail))
    out = np.empty_like(logs)
    out[order] = logs
    return out.reshape(x.shape)


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

    k = int(capacity)

    def deriv(r: np.ndarray) -> np.ndarray:
        # r holds (R_0=0, R_1, ..., R_k); only the top k entries move.
        delta = r[1:] - r[:-1]
        p = np.asarray(model.inverse_virtual_value(delta))
        gain = (p - delta) * (1.0 - np.asarray(model.cdf(p)))
        out = np.zeros_like(r)
        out[1:] = arrival_rate * gain
        return out

    def integrate(h: float) -> float:
        n = max(1, math.ceil(horizon / h))
        dt = horizon / n
        r = np.zeros(k + 1)
        for _ in range(n):
            k1 = deriv(r)
            k2 = deriv(r + 0.5 * dt * k1)
            k3 = deriv(r + 0.5 * dt * k2)
            k4 = deriv(r + dt * k3)
            r = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return float(r[k])

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
            price = schedule.price(j, t) if j >= 1 else None
            yield j, t, price, float(table.values[j, t])
