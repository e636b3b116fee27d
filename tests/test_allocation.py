"""Energy-split search and its regime thresholds against brute-force argmax."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavps.allocation import (Regime, allocate_continuous, allocate_discrete,
                              capacity_argmax, high_regime_threshold,
                              low_regime_threshold)
from uavps.deployment import pooled_series_max
from uavps.pricing import build_pricing, expected_profit_closed_form
from uavps.valuations import ValuationModel

EXP1 = ValuationModel.exponential(1.0)
UNI = ValuationModel.uniform(5.0, 15.0)


def _brute_argmax(rate, budget, cost):
    """Independent argmax of sum_{i<=k} (rate (B - ck) / e)^i / i! over k."""
    k_top = math.floor(budget / cost + 1e-12)
    best_k, best = 1, -math.inf
    for k in range(1, k_top + 1):
        x = rate * max(budget - cost * k, 0.0) / math.e
        val = sum(x**i / math.factorial(i) for i in range(k + 1))
        if val > best:
            best_k, best = k, val
    return best_k


# -- discrete ------------------------------------------------------------------


def test_discrete_candidate_bound_and_budget_identity():
    decision = allocate_discrete(UNI, 0.5, 15, 3)
    assert 1 <= decision.k_star <= 15 // 4  # three candidate capacities
    assert decision.t_star + 3 * decision.k_star == 15
    assert decision.regime is Regime.NOT_APPLICABLE


def test_discrete_matches_exhaustive_rebuild():
    for alpha in (0.15, 0.5, 0.9):
        decision = allocate_discrete(UNI, alpha, 15, 3)
        per_k = []
        for k in range(1, 15 // 4 + 1):
            _, table = build_pricing(UNI, alpha, k, 15 - 3 * k)
            per_k.append((k, table.final()))
        best_k = max(per_k, key=lambda kv: (kv[1], -kv[0]))[0]
        assert decision.k_star == best_k
        assert decision.profit == pytest.approx(dict(per_k)[best_k], abs=1e-12)
        assert all(decision.profit >= v - 1e-12 for _, v in per_k)


def test_discrete_regime_extremes():
    assert allocate_discrete(UNI, 0.02, 15, 3).k_star == 1
    assert allocate_discrete(UNI, 0.98, 15, 3).k_star == 3


def test_discrete_validation():
    with pytest.raises(ValueError):
        allocate_discrete(UNI, 0.5, 3, 3)
    with pytest.raises(ValueError):
        allocate_discrete(UNI, 0.5, 15.5, 3)


# -- continuous -----------------------------------------------------------------


def test_low_threshold_closed_form():
    assert low_regime_threshold(15, 3) == pytest.approx(6 * math.e / 81, abs=1e-15)
    with pytest.raises(ValueError):
        low_regime_threshold(6, 3)


def test_high_threshold_infinite_when_budget_divides():
    assert high_regime_threshold(15, 3) == math.inf
    assert high_regime_threshold(12, 3) == math.inf


def test_high_threshold_root_and_flip():
    root = high_regime_threshold(15.5, 3)
    assert math.isfinite(root)

    # residual of the defining balance at the root
    k_top = 5
    t_top, t_next = 15.5 - 3 * k_top, 15.5 - 3 * (k_top - 1)
    lead = (root / (math.e * math.factorial(k_top))) * t_top**k_top
    tail = sum((math.e / root) ** (k_top - i - 1) / math.factorial(i)
               * (t_next**i - t_top**i) for i in range(1, k_top))
    assert abs(lead - tail) < 1e-8

    # crossing the root flips which capacity wins
    below = expected_profit_closed_form(1.0, root * 0.999, 5, t_top)
    below_next = expected_profit_closed_form(1.0, root * 0.999, 4, t_next)
    above = expected_profit_closed_form(1.0, root * 1.001, 5, t_top)
    above_next = expected_profit_closed_form(1.0, root * 1.001, 4, t_next)
    assert below < below_next
    assert above >= above_next


def test_high_threshold_does_not_overflow():
    # The gap's factorials and powers overflowed a float at k_top = 40.
    assert high_regime_threshold(40.3, 1.0) == math.inf


@pytest.mark.parametrize("budget, cost, root", [
    (15.5, 3.0, 65241.862685838576), (9.0, 2.5, 34.184131528059645),
    (20.5, 2.0, 106182839.34433931)])
def test_high_threshold_roots_unchanged(budget, cost, root):
    # Roots of the linear-space gap, which is exact at these small k_top.
    assert high_regime_threshold(budget, cost) == pytest.approx(root, rel=1e-12)


def test_argmax_matches_split_at_large_budget():
    # The linear-space series overflowed here and capacity_argmax said 154.
    decision = allocate_continuous(1.0, 50.0, 400.0, 0.5)
    assert capacity_argmax(50.0, 400.0, 0.5) == decision.k_star == 503
    assert math.isfinite(decision.profit)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 200.0), st.integers(5, 800), st.integers(2, 32))
def test_continuous_searches_agree_at_large_sizes(rate, quarter_budget, eighth_cost):
    # Quarter and eighth steps keep B / c off the floors' epsilons.
    budget, cost = quarter_budget / 4.0, eighth_cost / 8.0
    if budget <= cost:
        return
    decision = allocate_continuous(1.0, rate, budget, cost)
    k_pooled, log_series = pooled_series_max(rate, budget, cost, 1)
    assert math.isfinite(decision.profit) and math.isfinite(decision.t_star)
    assert capacity_argmax(rate, budget, cost) == decision.k_star == k_pooled
    assert decision.profit == log_series


def test_continuous_low_regime_example():
    boundary = low_regime_threshold(15, 3)
    assert boundary == pytest.approx(0.2013542, abs=1e-6)
    decision = allocate_continuous(1.0, 0.05, 15, 3)
    assert decision.k_star == 1 and decision.t_star == 12
    assert decision.regime is Regime.LOW
    assert _brute_argmax(0.05, 15, 3) == 1


def test_continuous_saturation_above_root():
    root = high_regime_threshold(15.5, 3)
    decision = allocate_continuous(1.0, root * 1.01, 15.5, 3)
    assert decision.k_star == 5
    assert decision.t_star == pytest.approx(0.5, abs=1e-12)
    assert decision.regime is Regime.HIGH
    assert _brute_argmax(root * 1.01, 15.5, 3) == 5


def test_continuous_regime_consistency_grid():
    for budget, cost in ((15.0, 3.0), (15.5, 3.0), (20.0, 2.0), (9.0, 2.5)):
        prev_k = 0
        for i in range(1, 61):
            rate = i * 0.05
            decision = allocate_continuous(1.0, rate, budget, cost)
            assert decision.k_star == _brute_argmax(rate, budget, cost)
            assert decision.k_star == capacity_argmax(rate, budget, cost)
            assert decision.k_star >= prev_k  # nondecreasing in the rate
            prev_k = decision.k_star
            k_top = math.floor(budget / cost + 1e-12)
            if decision.regime is Regime.LOW:
                assert decision.k_star == 1
            elif decision.regime is Regime.HIGH:
                assert decision.k_star == k_top
            elif decision.regime is Regime.MEDIUM:
                assert 2 <= decision.k_star <= k_top - 1


def test_continuous_monotone_in_budget():
    for rate in (0.3, 0.8, 1.5):
        ks = [allocate_continuous(1.0, rate, b, 3.0).k_star
              for b in (7.0, 10.0, 13.0, 16.0, 19.0, 22.0)]
        assert all(a <= b for a, b in zip(ks, ks[1:]))


def test_discrete_matches_continuous_away_from_ties():
    """A fine slot discretization picks the same capacity as the closed form,
    wherever the continuous argmax is not a near-tie (within 2%)."""
    eps = 0.01
    for budget, cost in ((12.0, 3.0), (15.0, 3.0)):
        for rate in (0.1, 0.5, 1.0, 2.0):
            k_top = math.floor(budget / cost + 1e-12)
            profits = [expected_profit_closed_form(1.0, rate, k,
                                                   max(budget - cost * k, 0.0))
                       for k in range(1, k_top + 1)]
            ranked = sorted(profits, reverse=True)
            if len(ranked) > 1 and ranked[1] > 0.98 * ranked[0]:
                continue
            continuous_k = allocate_continuous(1.0, rate, budget, cost).k_star

            best_k, best = 1, -math.inf
            for k in range(1, k_top + 1):
                slots = round(max(budget - cost * k, 0.0) / eps)
                _, table = build_pricing(EXP1, rate * eps, k, slots)
                if table.final() > best:
                    best_k, best = k, table.final()
            assert best_k == continuous_k, (budget, cost, rate)


def test_continuous_small_budget_skips_regime_labels():
    decision = allocate_continuous(1.0, 0.7, 5.0, 3.0)
    assert decision.regime is Regime.NOT_APPLICABLE
    assert decision.k_star == _brute_argmax(0.7, 5.0, 3.0)
    with pytest.raises(ValueError):
        allocate_continuous(1.0, 0.7, 3.0, 3.0)
