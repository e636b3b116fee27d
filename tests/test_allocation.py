"""Energy-split search and its regime thresholds against brute-force argmax."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavps import allocation, pricing
from uavps.allocation import (Regime, allocate_continuous, allocate_discrete,
                              capacity_argmax, high_regime_threshold,
                              low_regime_threshold)
from uavps.deployment import FleetConfig, Hotspot, optimal_deployment_continuous
from uavps.pricing import _log_series, build_pricing, expected_profit_closed_form
from uavps.valuations import ParameterError, ValuationModel

from oracles import exact_log_series

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
    for alpha in (0.0, 0.15, 0.5, 0.9):  # alpha 0: every k ties at zero profit
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


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([EXP1, UNI]),
       st.lists(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
                min_size=1, max_size=6),
       st.integers(2, 40), st.integers(1, 4))
@example(UNI, [0.0], 15, 3)  # every k ties at zero profit: k* = 1
@example(EXP1, [0.9, 0.0, 1.0, 0.0], 30, 2)
@example(UNI, [0.5], 4, 3)  # one candidate capacity
def test_batched_discrete_equals_one_call_per_alpha(model, alphas, budget, cost):
    budget = max(budget, 1 + cost)
    batched = allocate_discrete(model, alphas, budget, cost)
    assert batched == [allocate_discrete(model, a, budget, cost) for a in alphas]
    assert all(d.k_star == 1 for a, d in zip(alphas, batched) if a == 0.0)


def test_discrete_sweep_is_one_table_and_a_lone_alpha_a_scalar_one(monkeypatch):
    shapes = []

    def recorded(model, alpha, capacity, horizon):
        shapes.append(np.shape(alpha))
        return build_pricing(model, alpha, capacity, horizon)

    monkeypatch.setattr(allocation, "build_pricing", recorded)
    allocate_discrete(UNI, [0.1, 0.5, 0.9], 15, 3)
    allocate_discrete(UNI, [0.4], 15, 3)
    allocate_discrete(UNI, 0.4, 15, 3)
    assert shapes == [(3,), (), ()]
    assert allocate_discrete(UNI, [], 15, 3) == []


def test_discrete_batch_keeps_the_checks():
    with pytest.raises(ParameterError):
        allocate_discrete(UNI, [0.5, 1.5], 15, 3)
    with pytest.raises(ParameterError):
        allocate_discrete(UNI, [0.5, math.nan], 15, 3)
    with pytest.raises(ParameterError):
        allocate_discrete(UNI, [0.5], 3, 3)
    with pytest.raises(ParameterError):
        allocate_discrete(UNI, [[0.5]], 15, 3)


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


def test_high_threshold_infinite_past_its_bracket():
    # floor(B / c) leaves 0.5 of hovering time, yet no rate up to 1e12, where
    # the bracket stops, makes saturation pay; the split refuses such rates.
    budget = 2**22 - 0.5
    assert high_regime_threshold(budget, 1.0) == math.inf
    with pytest.raises(ParameterError, match="series argument"):
        allocate_continuous(1.0, 1e12, budget, 1.0)


class _Accepted(Exception):
    """Raised in place of a search's work once its caps accepted the call."""


@pytest.mark.parametrize("ratio, accepted", [(2**22 - 0.5, True), (2**22 + 0.5, True),
                                             (2**22 + 1.0, False)])
def test_continuous_searches_share_one_candidate_cap(monkeypatch, ratio, accepted):
    # Both cap the candidate count floor(B / c + 1e-9) at 2^22; the threshold
    # used to cap the unfloored B / c and refused 2^22 + 0.5.
    def work(*args):
        raise _Accepted

    monkeypatch.setattr(allocation, "_series_bounds", work)
    monkeypatch.setattr(allocation, "_saturating_capacity", work)
    for call in (lambda: capacity_argmax(1.0, ratio, 1.0),
                 lambda: high_regime_threshold(ratio, 1.0)):
        with pytest.raises(_Accepted if accepted else ParameterError):
            call()


def test_high_threshold_at_its_bracket_ends():
    # k_top = 1: the one feasible capacity saturates at every rate.
    assert high_regime_threshold(3.0, 2.0) == 0.0
    # k_top = 2 with B / c = 2.9: the gap is already >= 0 at the bracket's low end.
    assert high_regime_threshold(2.9e10, 1e10) == 1e-9


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
    pooled = _lone_hotspot_plan(rate, budget, cost, 1)
    assert math.isfinite(decision.profit) and math.isfinite(decision.t_star)
    assert capacity_argmax(rate, budget, cost) == decision.k_star == pooled.k_star
    assert decision.profit == pooled.profit


def _lone_hotspot_plan(rate, budget, cost, group):
    """The continuous planner's decision for ``group`` vehicles on one hotspot
    at the station; its profit at lam = 1 is the log of the series maximum."""
    fleet = FleetConfig(count=group, initial_budget=budget, service_cost=cost, valuation=EXP1)
    return optimal_deployment_continuous([Hotspot(rate, 0.0)], fleet, 1.0).per_hotspot[0]


def _oracle_search(rate, available, cost, group, k_top):
    """(k, log S_k) of the full continuous search: the kernel scores every k
    in 1..max(k_top, 1), with no cut."""
    k_top = np.maximum(k_top, 1)
    k = np.arange(1, np.max(k_top) + 1)
    live = k <= k_top
    x = rate * np.maximum(available - cost * k / group, 0.0) / math.e
    logs = np.where(live, _log_series(x, np.where(live, k, 0)), -np.inf)
    return int(logs.argmax()) + 1, float(logs.max())


# Offsets of B / c from a whole number, in units of c: on it, within float
# noise of it on either side, within the pooled floor's 1e-9 below it, and
# clear of it.
_WHOLE_OFFSETS = (0.0, 1e-13, -1e-13, 5e-11, -5e-11, 1e-10, -5e-10, -1e-9, 0.25, -0.25, 0.5)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_WHOLE_OFFSETS), st.one_of(st.integers(2, 6), st.integers(7, 300)),
       st.sampled_from((0.1, 0.5, 2.0, 3.0, 7.3)), st.sampled_from((0.0, 0.05, 0.8, 5.0, 60.0)))
@example(0.25, 2, 7.3, 60.0)  # the saturating capacity floor(B / c) wins
@example(0.5, 3, 3.0, 60.0)
@example(-1e-9, 3000, 0.5, 50.0)
@example(-5e-10, 3000, 0.1, 0.0)
@example(-1e-9, 2, 3.0, 0.8)  # B just above c: one capacity after the floor
def test_continuous_searches_equal_caller_bound_oracle(offset, whole, cost, rate):
    # The search now works out its own bound, floor(group * B / c + 1e-9); the
    # single-vehicle callers used floor(B / c + 1e-12). The extra capacity the
    # wider floor admits below a whole number hovers for no time, so it never wins.
    budget = cost * whole + offset * cost
    want = _oracle_search(rate, budget, cost, 1, math.floor(budget / cost + 1e-12))
    assert capacity_argmax(rate, budget, cost) == want[0]
    for group in (1, 2):
        bound = math.floor(group * budget / cost + 1e-9)
        k, log_s = (v.item() for v in allocation._best_series_capacity(rate, budget, cost, group))
        assert (k, log_s) == _oracle_search(rate, budget, cost, group, bound)
        if rate > 0:
            pooled = _lone_hotspot_plan(rate, budget, cost, group)
            assert (pooled.k_star, pooled.profit) == (k, log_s)
    if rate > 0:
        decision = allocate_continuous(1.0, rate, budget, cost)
        assert (decision.k_star, decision.profit) == want
        assert decision.t_star == budget - cost * want[0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_WHOLE_OFFSETS), st.one_of(st.integers(1, 40), st.integers(41, 3000)),
       st.sampled_from((0.1, 0.5, 2.0, 7.3)), st.one_of(st.just(0.0), st.floats(0.01, 200.0)))
@example(-1e-9, 3000, 0.5, 50.0)
@example(0.0, 3000, 2.0, 0.0)
@example(1e-13, 2000, 0.1, 0.01)
@example(0.5, 1, 7.3, 200.0)
@example(0.25, 3000, 7.3, 200.0)  # the highest rate at the largest whole: k* near 0.8 B / c
@example(0.0, 40, 0.5, 1.359140914230882)  # k* = 8 with x_8 - 8 = 8e-12, so 1 - k / x ~ 1e-12
@example(0.0, 3000, 0.1, 1.643075972665117)  # k* = 171 with x_171 just above 171
def test_cut_search_equals_full_search(offset, whole, cost, rate):
    # Groups 1-3 one call each and in one batched call, against the full search.
    budget = cost * whole + offset * cost
    groups = np.arange(1, 4)
    bounds = [math.floor(n * budget / cost + 1e-9) for n in groups]
    want = [_oracle_search(rate, budget, cost, n, b) for n, b in zip(groups, bounds)]
    for n, w in zip(groups, want):
        k, log_s = allocation._best_series_capacity(rate, budget, cost, n)
        assert (k.item(), log_s.item()) == w
    ks, logs = allocation._best_series_capacity(rate, budget, cost, groups[:, None])
    assert list(zip(ks.tolist(), logs.tolist())) == want


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.05, 120.0), min_size=1, max_size=4), st.integers(1, 7),
       st.sampled_from((20.0, 60.0, 200.0)), st.sampled_from((0.5, 2.0, 3.0)))
@example([80.0, 65.0, 50.0], 6, 200.0, 2.0)  # fleet's largest continuous rung
def test_compacted_search_equals_the_uncompacted_form(rates, count, budget, cost):
    # The planner's (hotspot, group size) grid and the forking check's four
    # searches: the kernel sees only the kept entries, and every other one
    # scores -inf, as the form that runs the kernel over the whole grid gives.
    avail = budget - 0.4 * budget * np.arange(len(rates)) / len(rates)
    grids = [(np.array(rates)[:, None, None], avail[:, None, None],
              np.arange(1, count + 1)[:, None]),
             (np.array(rates[-1:] + rates[:1] * 3)[:, None],
              np.array([avail[-1]] + [avail[0]] * 3)[:, None],
              np.array([1, 1, count + 1, count])[:, None])]
    for rate, available, group in grids:
        x, k, keep = allocation._series_cut(rate, available, cost, group)
        full = np.where(keep, _log_series(x, np.where(keep, k, 0)), -np.inf)
        ks, logs = allocation._best_series_capacity(rate, available, cost, group)
        assert np.array_equal(ks, full.argmax(axis=-1) + 1)
        assert logs.tobytes() == full.max(axis=-1).tobytes()


# The cut's premises, against exact arithmetic: the computed log of the
# largest term never exceeds the exact log S_k(x), and each computed upper
# bound, times (1 + margin) at the smallest margin a search with this k uses,
# is at least the exact log S_k(x).
@settings(max_examples=100, deadline=None)
@given(st.floats(math.log(1e-6), math.log(2000.0)).map(math.exp), st.integers(1, 120))
@example(7.0, 7)  # k = floor(x)
@example(7.5, 7)
@example(119.9, 119)
@example(math.nextafter(50.0, math.inf), 50)  # k one ulp below x: 1 - k / x ~ 2^-52
@example(math.nextafter(1.0, math.inf), 1)
@example(20.000001, 20)
@example(31.0, 30)  # x = k + 1, where the second and third bounds meet
@example(30.5, 30)
@example(0.3, 1)  # x < 1: the largest term is the first, 1
@example(0.999, 120)
@example(1e-6, 1)
@example(2000.0, 1)  # k far below x
@example(2000.0, 120)
def test_cut_bounds_hold_in_exact_arithmetic(x, k):
    exact = exact_log_series(x, k)
    largest, uppers = allocation._series_bounds(np.float64(x), np.int64(k))
    assert Decimal(float(largest)) <= exact
    margin = 1e-9 + 2.0 ** -51 * k
    for which, upper in enumerate(uppers):
        assert Decimal(float(upper * (1.0 + margin))) >= exact, (which, x, k)


def _term_work(monkeypatch, search):
    """``search()`` and the entries the series kernel advanced in it: each
    entry runs one pass per term, so the sum of the ``k`` handed to
    ``_log_series``, broadcast against ``x``, wherever the search and
    ``_oracle_search`` look the kernel up."""
    work = [0]

    def counted(x, k, below=False):
        work[0] += int(np.broadcast_arrays(x, k)[1].sum())
        return pricing._log_series(x, k, below)

    with monkeypatch.context() as patch:
        patch.setattr(allocation, "_log_series", counted)
        patch.setitem(globals(), "_log_series", counted)
        return search(), work[0]


def _uncut_work(group, available, cost):
    """Entries the kernel advances in uncut searches: K (K + 1) / 2 each, K =
    floor(group * avail / c)."""
    bound = np.floor(np.multiply(group, available) / cost + 1e-9)
    return float((bound * (bound + 1) / 2).sum())


def test_cut_keeps_under_half_the_term_work(monkeypatch):
    # Without the cut the two counts would be equal.
    k, cut = _term_work(monkeypatch, lambda: capacity_argmax(1.0, 8000.0, 1.0))
    (want, _), full = _term_work(monkeypatch, lambda: _oracle_search(1.0, 8000.0, 1.0, 1, 8000))
    assert k == want
    assert full == _uncut_work(1, 8000.0, 1.0)
    assert 0 < cut < full / 2


def test_cut_keeps_under_two_percent_of_a_high_rate_search(monkeypatch):
    # Bounding log S_k(x) by x alone kept 78 % of this search's term work.
    decision, cut = _term_work(monkeypatch, lambda: allocate_continuous(1.0, 50.0, 2000.0, 1.0))
    assert (decision.k_star, decision.profit) == _oracle_search(50.0, 2000.0, 1.0, 1, 2000)
    assert 0 < cut < 0.02 * _uncut_work(1, 2000.0, 1.0)


def test_cut_keeps_under_five_percent_of_a_fleet_search(monkeypatch):
    # The largest continuous fleet plan of the benchmark: 3 hotspots at rates
    # 50 to 80, groups 1-6, B0 = 200, c = 2. Bounding by x alone kept 68 %.
    rate = np.array([80.0, 65.0, 50.0])[:, None, None]
    avail = 200.0 - 0.4 * 200.0 * np.arange(3)[:, None, None] / 3
    groups = np.arange(1, 7)[:, None]
    (ks, logs), cut = _term_work(monkeypatch, lambda: allocation._best_series_capacity(
        rate, avail, 2.0, groups))
    want = [_oracle_search(r, a, 2.0, n, math.floor(n * a / 2.0 + 1e-9))
            for r, a in zip(rate.ravel(), avail.ravel()) for n in groups.ravel()]
    assert list(zip(ks.ravel().tolist(), logs.ravel().tolist())) == want
    assert 0 < cut < 0.05 * _uncut_work(groups.T, avail[:, 0], 2.0)


def test_rate_zero_search_sums_no_series_terms(monkeypatch):
    # Every series argument is 0, so the cut keeps all K entries and each log
    # is log1p(0) = 0 with no term summed; K (K + 1) / 2 entry-terms took
    # 0.46 s at K = 20 000, and a search at the 2^22 cap would run for hours.
    k, work = _term_work(monkeypatch, lambda: capacity_argmax(0.0, 20000.0, 1.0))
    assert (k, work) == (1, 0)
    (ks, logs), work = _term_work(monkeypatch, lambda: allocation._best_series_capacity(
        0.0, np.array([3.0, 20000.0])[:, None], 1.0, 1))
    assert (ks.tolist(), logs.tolist(), work) == ([1, 1], [0.0, 0.0], 0)


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


def _threshold_regime(rate, budget, cost):
    """The regime from the paper's two closed-form thresholds, as
    ``allocate_continuous`` once classified it: the oracle for the label it
    now reads off k*."""
    if budget <= 2 * cost:
        return Regime.NOT_APPLICABLE
    if rate <= low_regime_threshold(budget, cost):
        return Regime.LOW
    if rate >= high_regime_threshold(budget, cost):
        return Regime.HIGH
    return Regime.MEDIUM


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(-4.0, 6.0).map(lambda e: 10.0 ** e), st.floats(1e-4, 1e6)),
       st.sampled_from(_WHOLE_OFFSETS), st.one_of(st.integers(1, 6), st.integers(7, 300)),
       st.sampled_from((0.1, 0.5, 2.0, 3.0, 7.3)))
@example(1e-4, 0.0, 5, 3.0)
@example(1e6, 0.5, 300, 7.3)
@example(66000.0, 1.0 / 6.0, 5, 3.0)  # B = 15.5, c = 3, just above the high root
@example(34.2, 0.6, 3, 2.5)  # B = 9, c = 2.5: k_top = 3, just above the high root
@example(1e5, 1e-13, 3, 2.0)  # B / c a hair above 3: saturation hovers ~0
@example(70.5, -5e-10, 6, 3.0)  # B / c just under 6: k_top = 5 saturates above rate 69.6
def test_regime_read_off_k_star_equals_threshold_oracle(rate, offset, whole, cost):
    budget = cost * whole + offset * cost
    if not budget > cost:
        return
    decision = allocate_continuous(1.0, rate, budget, cost)
    assert decision.regime is _threshold_regime(rate, budget, cost)


def test_regime_equals_threshold_oracle_on_the_rate_grids():
    # Criterion 6's grid, then the four budgets of the consistency grid.
    grids = [(15.0, 3.0, [i / 100 for i in range(1, 301)])]
    grids += [(budget, cost, [i * 0.05 for i in range(1, 61)])
              for budget, cost in ((15.0, 3.0), (15.5, 3.0), (20.0, 2.0), (9.0, 2.5))]
    for budget, cost, rates in grids:
        for rate in rates:
            decision = allocate_continuous(1.0, rate, budget, cost)
            assert decision.regime is _threshold_regime(rate, budget, cost), (rate, budget)


def test_continuous_split_evaluates_no_threshold(monkeypatch):
    cases = [(rate, budget, cost) for rate in (0.05, 0.5, 3.0, 1e5)
             for budget, cost in ((15.0, 3.0), (15.5, 3.0), (9.0, 2.5), (5.0, 3.0))]
    want = [allocate_continuous(1.0, *case) for case in cases]
    assert {d.regime for d in want} == set(Regime)

    def refuse(*args):
        raise AssertionError("a regime threshold was evaluated")

    monkeypatch.setattr(allocation, "low_regime_threshold", refuse)
    monkeypatch.setattr(allocation, "high_regime_threshold", refuse)
    assert [allocate_continuous(1.0, *case) for case in cases] == want


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
