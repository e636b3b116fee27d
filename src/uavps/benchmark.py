"""Full-information profit benchmark and comparison studies.

The posted-price seller never sees a buyer's valuation. The benchmark seller
here observes each arriving valuation v and applies a threshold rule: serve
iff v covers the opportunity cost of a unit, collecting v itself. That gives
the one-step recursion

    Rhat[j][t] = Rhat[j][t-1] + alpha * E[(v - theta)^+],
    theta = Rhat[j][t-1] - Rhat[j-1][t-1],

which upper-bounds the posted-price table cell by cell: more information
never hurts. Two studies are built on top: the profit ratio as the hovering
horizon grows, and profits as a function of valuation variance at fixed mean.
"""

from __future__ import annotations

import numpy as np

from .pricing import ProfitTable, build_pricing
from .valuations import ValuationModel

# Half-width standing in for a point mass when a zero-variance sweep entry is
# requested (an exactly degenerate uniform is invalid).
DEGENERATE_HALF_WIDTH = 5e-7


def complete_info_profit(model: ValuationModel, alpha: float, capacity: int,
                         horizon: int) -> ProfitTable:
    """Fill the benchmark table for a seller who observes each valuation.

    E[(v - theta)^+] is evaluated in closed form per family, so the fill is
    O(capacity * horizon) like the posted-price table.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"occurrence probability must lie in [0, 1], got {alpha}")
    if capacity < 1:
        raise ValueError(f"capacity must be a positive integer, got {capacity}")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    k, T = int(capacity), int(horizon)

    values = np.zeros((k + 1, T + 1))
    for j in range(1, k + 1):
        for t in range(1, T + 1):
            theta = values[j, t - 1] - values[j - 1, t - 1]
            values[j, t] = values[j, t - 1] + alpha * model.expected_excess(theta)
    return ProfitTable(alpha=alpha, capacity=k, horizon=T, values=values)


def profit_ratio_curve(model: ValuationModel, alpha: float, capacity: int,
                       horizons: list[int]) -> list[tuple[int, float]]:
    """Posted-price profit over benchmark profit at each horizon.

    The ratio lies in (0, 1]; a zero benchmark (alpha or horizon zero) is
    reported as ratio 1 by convention.
    """
    if not horizons:
        raise ValueError("need at least one horizon")
    horizons = [int(t) for t in horizons]
    for t in horizons:
        if t < capacity:
            raise ValueError(f"horizon {t} shorter than capacity {capacity}")

    t_max = max(horizons)
    _, table = build_pricing(model, alpha, capacity, t_max)
    bench = complete_info_profit(model, alpha, capacity, t_max)
    out = []
    for t in horizons:
        top = float(table.values[capacity, t])
        bottom = float(bench.values[capacity, t])
        out.append((t, top / bottom if bottom > 0.0 else 1.0))
    return out


def variance_sweep(mean: float, variances: list[float], alpha: float,
                   capacity: int, horizon: int) -> list[tuple[float, float, float]]:
    """Profits under both information regimes for uniform valuations of fixed mean.

    Each variance var maps to the uniform law on
    [mean - sqrt(3 var), mean + sqrt(3 var)]; variance zero is approximated by
    a sliver of width 1e-6 around the mean. Entries whose lower bound would
    dip below zero are rejected.

    Returns:
        List of (variance, posted-price profit, benchmark profit).
    """
    if not variances:
        raise ValueError("need at least one variance")
    out = []
    for var in variances:
        if var < 0:
            raise ValueError(f"variance must be nonnegative, got {var}")
        half = np.sqrt(3.0 * var) if var > 0 else DEGENERATE_HALF_WIDTH
        lower = mean - half
        if lower < 0:
            raise ValueError(
                f"variance {var} drives the lower support bound below zero"
            )
        model = ValuationModel.uniform(lower, mean + half)
        _, table = build_pricing(model, alpha, capacity, horizon)
        bench = complete_info_profit(model, alpha, capacity, horizon)
        out.append((float(var), table.final(), bench.final()))
    return out
