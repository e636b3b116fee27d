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
The ratio study reads the curves of a whole list of capacities from one
posted-price and one benchmark table, sized for the largest capacity.
"""

from __future__ import annotations

import numpy as np

from .pricing import ProfitTable, _fill, _table_args, build_pricing
from .valuations import ParameterError, ValuationModel, _check

# Half-width standing in for a point mass when a zero-variance sweep entry is
# requested (an exactly degenerate uniform is invalid).
DEGENERATE_HALF_WIDTH = 5e-7


def complete_info_profit(model: ValuationModel, alpha, capacity: int,
                         horizon: int) -> ProfitTable:
    """Fill the benchmark table for a seller who observes each valuation.

    E[(v - theta)^+] is evaluated in closed form per family, so the fill is
    the same column sweep as the posted-price table, and a 1-d alpha fills
    one table per entry on a trailing axis.
    """
    alpha, k, T = _table_args(alpha, capacity, horizon)
    return _fill(alpha, k, T, lambda _, r_same, r_less, out: np.add(
        r_same, alpha * model.expected_excess(r_same - r_less), out=out))[1]


def profit_ratio_curve(model: ValuationModel, alpha: float, capacity: int | list[int],
                       horizons: list[int]
                       ) -> list[tuple[int, float]] | list[list[tuple[int, float]]]:
    """Posted-price profit over benchmark profit at each horizon.

    Returns a list of (T, ratio). The ratio lies in (0, 1]; a zero benchmark
    (alpha or horizon zero) is reported as ratio 1 by convention. A 1-d
    ``capacity`` gives one such list per entry, in order, duplicates included.

    Both tables are filled once, at the largest capacity: R[j][t] depends only
    on rows <= j, so row k of that table is the capacity-k table's row k, bit
    for bit. Every capacity is checked against every horizon before a row is read.
    """
    if not horizons:
        raise ParameterError("need at least one horizon")
    capacities = [_check("count", k, "capacity") for k in np.ravel(capacity).tolist()]
    if not capacities:
        raise ParameterError("need at least one capacity")
    alpha = _check("probability", alpha, "occurrence probability")
    horizons = [_check("size", t, "horizon") for t in horizons]
    t_max = max(horizons)
    if min(horizons) < max(capacities):
        raise ParameterError(f"horizon {min(horizons)} shorter than capacity {max(capacities)}")

    _, table = build_pricing(model, alpha, max(capacities), t_max)
    bench = complete_info_profit(model, alpha, max(capacities), t_max)
    curves = []
    for k in capacities:
        tops = table.values[k, horizons].tolist()
        bottoms = bench.values[k, horizons].tolist()
        curves.append([(t, top / bottom if bottom > 0.0 else 1.0)
                       for t, top, bottom in zip(horizons, tops, bottoms)])
    return curves if np.ndim(capacity) else curves[0]


def variance_sweep(mean: float, variances: list[float], alpha: float,
                   capacity: int, horizon: int) -> list[tuple[float, float, float]]:
    """Profits under both information regimes for uniform valuations of fixed mean.

    Each variance var maps to the uniform law on
    [mean - sqrt(3 var), mean + sqrt(3 var)]; variance zero is approximated by
    a sliver of width 1e-6 around the mean. Entries whose lower bound would
    dip below zero are rejected: ``ValuationModel.uniform`` refuses them.

    Returns:
        List of (variance, posted-price profit, benchmark profit).
    """
    if not variances:
        raise ParameterError("need at least one variance")
    mean = _check("nonnegative finite", mean, "mean")
    out = []
    for var in variances:
        var = _check("nonnegative", var, "variance")
        half = np.sqrt(3.0 * var) if var > 0 else DEGENERATE_HALF_WIDTH
        model = ValuationModel.uniform(mean - half, mean + half)
        _, table = build_pricing(model, alpha, capacity, horizon)
        bench = complete_info_profit(model, alpha, capacity, horizon)
        out.append((var, table.final(), bench.final()))
    return out
