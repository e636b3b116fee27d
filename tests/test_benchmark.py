"""Full-information benchmark against grid-search threshold oracles."""

import math

import numpy as np
import pytest

from uavps.benchmark import (complete_info_profit, profit_ratio_curve,
                             variance_sweep)
from uavps.pricing import ProfitTable, build_pricing
from uavps.valuations import ValuationModel

EXP1 = ValuationModel.exponential(1.0)
UNI = ValuationModel.uniform(5.0, 15.0)


def test_benchmark_table_is_a_profit_table():
    table = complete_info_profit(EXP1, 0.5, 2, 5)
    assert isinstance(table, ProfitTable)
    assert table.final() == table.values[2, 5]


def test_trivial_cases():
    table = complete_info_profit(EXP1, 0.0, 2, 5)
    assert np.all(table.values == 0.0)
    with pytest.raises(ValueError):
        complete_info_profit(EXP1, 0.5, 0, 5)


def test_hand_values_single_unit():
    # T=1: every arrival accepted at zero cutoff, collecting the mean.
    table = complete_info_profit(EXP1, 0.5, 1, 2)
    assert table.values[1, 1] == pytest.approx(0.5, abs=1e-12)
    # T=2: cutoff is the continuation value 0.5.
    expected = 0.5 + 0.5 * math.exp(-0.5)
    assert table.values[1, 2] == pytest.approx(expected, abs=1e-12)
    assert table.values[1, 2] == pytest.approx(0.803265, abs=1e-6)


@pytest.mark.parametrize("model", [EXP1, UNI], ids=["exp", "uniform"])
def test_threshold_grid_search_oracle(model):
    """Each cell equals a brute-force maximization over acceptance cutoffs.

    E[(v - c)^+] comes from a tail integral of the survival function, tabled
    once on a fine grid; cutoffs below the support behave like the support
    bottom (accept everything), so the grid starts there.
    """
    alpha, k, T = 0.6, 2, 4
    table = complete_info_profit(model, alpha, k, T)
    lo, hi = model.support()
    if math.isinf(hi):
        hi = model.sample(1.0 - 1e-14)

    xs = np.linspace(lo, hi, 1_000_001)
    surv = 1.0 - np.asarray(model.cdf(xs))
    segments = 0.5 * (surv[1:] + surv[:-1]) * np.diff(xs)
    tail = np.concatenate([np.cumsum(segments[::-1])[::-1], [0.0]])

    cutoffs = np.linspace(lo, hi, 20_001)
    excess = np.interp(cutoffs, xs, tail)
    survival = 1.0 - np.asarray(model.cdf(cutoffs))

    values = np.zeros((k + 1, T + 1))
    for j in range(1, k + 1):
        for t in range(1, T + 1):
            r_same, r_less = values[j, t - 1], values[j - 1, t - 1]
            # cutoff c collects E[v; v >= c] + r_less on acceptance, r_same else:
            # value(c) = r_same + alpha * (E[(v-c)^+] + (c + r_less - r_same) * S(c))
            candidates = r_same + alpha * (excess
                                           + (cutoffs + r_less - r_same) * survival)
            values[j, t] = candidates.max()
    assert np.allclose(values, table.values, atol=1e-6)


@pytest.mark.parametrize("model,alpha", [(EXP1, 0.5), (UNI, 0.8)])
def test_benchmark_dominates_posted_prices(model, alpha):
    k, T = 3, 12
    _, posted = build_pricing(model, alpha, k, T)
    bench = complete_info_profit(model, alpha, k, T)
    assert np.all(bench.values >= posted.values - 1e-12)
    diffs_t = np.diff(bench.values[1:, :], axis=1)
    diffs_j = np.diff(bench.values[:, 1:], axis=0)
    assert np.all(diffs_t >= -1e-12) and np.all(diffs_j >= -1e-12)


def test_ratio_curve_trivial_and_trends():
    assert profit_ratio_curve(EXP1, 0.0, 1, [5, 10]) == [(5, 1.0), (10, 1.0)]
    curve = profit_ratio_curve(EXP1, 0.5, 1, [5, 10, 20, 50])
    ratios = [r for _, r in curve]
    assert all(0.0 < r <= 1.0 for r in ratios)
    assert all(np.diff(ratios) > 0)
    at_t = {k: dict(profit_ratio_curve(EXP1, 0.5, k, [60]))[60] for k in (1, 2, 3)}
    assert at_t[1] >= at_t[2] >= at_t[3]
    with pytest.raises(ValueError):
        profit_ratio_curve(EXP1, 0.5, 3, [2])
    with pytest.raises(ValueError):
        profit_ratio_curve(EXP1, 0.5, 1, [])


def test_variance_sweep_degenerate_limit():
    # Near-zero variance behaves like a sure valuation at the mean.
    alpha, T = 0.8, 3
    (var, inc, comp), = variance_sweep(10.0, [0.0], alpha, 1, T)
    sure = 10.0 * (1.0 - (1.0 - alpha) ** T)
    assert var == 0.0
    assert inc == pytest.approx(sure, abs=1e-3)
    assert comp == pytest.approx(sure, abs=1e-3)


def test_variance_sweep_validation():
    with pytest.raises(ValueError):
        variance_sweep(10.0, [], 0.8, 1, 3)
    with pytest.raises(ValueError):
        variance_sweep(10.0, [-1.0], 0.8, 1, 3)
    with pytest.raises(ValueError):
        variance_sweep(10.0, [40.0], 0.8, 1, 3)  # lower bound dips below zero
