"""Fleet planning: pooling, enumeration, routing oracle, forking condition."""

import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

import uavps.allocation
import uavps.deployment
from uavps.allocation import (AllocationDecision, _best_series_capacity,
                              _pooled_decisions, allocate_discrete)
from uavps.deployment import (DeploymentPlan, DeploymentProfile, FleetConfig,
                              Hotspot, _plan_fleet, best_single_hotspot,
                              forking_condition, load_hotspots,
                              optimal_deployment,
                              optimal_deployment_continuous)
from uavps.pricing import _log_series, build_pricing
from uavps.valuations import ValuationModel

from oracles import compositions, dominance_planner, route_oracle

EXP1 = ValuationModel.exponential(1.0)


def _fleet(count=1, budget=20.0, cost=2.0, model=EXP1):
    return FleetConfig(count=count, initial_budget=budget, service_cost=cost,
                       valuation=model)


def _triangle_instance(rng, m, budget_range=(14, 22)):
    """Random integer instance whose pairwise hops never undercut the direct
    distances (a route can only lengthen the way to a hotspot)."""
    alphas = rng.uniform(0.2, 0.95, m)
    dists = rng.integers(1, 10, m).astype(float)
    pair = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            lo, hi = abs(dists[i] - dists[j]), dists[i] + dists[j]
            pair[i, j] = pair[j, i] = float(rng.integers(int(lo), int(hi) + 1))
    spots = [Hotspot(float(a), d) for a, d in zip(alphas, dists)]
    fleet = _fleet(budget=float(rng.integers(*budget_range)))
    return pair, spots, fleet


# -- one pooled group on one hotspot --------------------------------------------


def _pooled(hotspot, n, fleet):
    """The discrete decision of n pooled vehicles at one hotspot: a plan for
    that hotspot alone seats a fleet of n there."""
    return optimal_deployment([hotspot], replace(fleet, count=n)).per_hotspot[0]


def _series_max(rate, avail, cost, group):
    """(best k, log of the series maximum) of one continuous pooled search."""
    return tuple(v.item() for v in _best_series_capacity(rate, avail, cost, group))


def test_unreachable_hotspot_rejected():
    with pytest.raises(ValueError):
        _pooled(Hotspot(0.5, 20.0), 1, _fleet(budget=20.0))


def test_single_vehicle_reduces_to_discrete_allocation():
    spot = Hotspot(0.7, 5.0)
    pooled = _pooled(spot, 1, _fleet(budget=20.0, cost=2.0))
    direct = allocate_discrete(EXP1, 0.7, 15, 2)
    assert pooled.k_star == direct.k_star
    assert pooled.t_star == direct.t_star
    assert pooled.profit == pytest.approx(direct.profit, abs=1e-12)


def test_pooled_capacity_range_and_exhaustiveness():
    from uavps.pricing import build_pricing

    spot = Hotspot(0.8, 5.0)
    decision = _pooled(spot, 2, _fleet(count=2))
    # two pooled vehicles at 15 residual each: k up to floor(15 / 2) = 7
    per_k = {}
    for k in range(1, 8):
        t = math.floor(15.0 - 2.0 * k / 2.0)
        _, table = build_pricing(EXP1, 0.8, k, t)
        per_k[k] = table.final()
    best_k = min((k for k, v in per_k.items()
                  if v == max(per_k.values())))
    assert decision.k_star == best_k
    assert decision.profit == pytest.approx(max(per_k.values()), abs=1e-12)


def test_pooling_never_hurts():
    spot = Hotspot(0.9, 8.0)
    profits = [_pooled(spot, n, _fleet(count=n)).profit
               for n in range(1, 7)]
    assert all(a <= b + 1e-12 for a, b in zip(profits, profits[1:]))


def test_zero_capacity_when_budget_too_tight():
    decision = _pooled(Hotspot(0.5, 19.5), 1, _fleet())
    assert decision.k_star == 0 and decision.profit == 0.0


# -- optimal_deployment ----------------------------------------------------------


def test_compositions_enumeration_count():
    caps = [4] * 3
    combos = list(compositions(4, caps))
    assert len(combos) == math.comb(4 + 3 - 1, 3 - 1)
    assert combos == sorted(combos)
    assert all(sum(c) == 4 for c in combos)


def test_trivial_profiles():
    plan = optimal_deployment([Hotspot(0.5, 5.0)], _fleet(count=1))
    assert plan.profile.counts == (1,)
    twin = Hotspot(0.6, 4.0)
    plan = optimal_deployment([twin, twin], _fleet(count=1))
    assert plan.profile.counts == (1, 0)  # tie broken to the lower index


def test_unreachable_pinned_to_zero():
    spots = [Hotspot(0.6, 4.0), Hotspot(0.9, 25.0)]
    plan = optimal_deployment(spots, _fleet(count=3))
    assert plan.profile.counts == (3, 0)
    with pytest.raises(ValueError):
        optimal_deployment([Hotspot(0.9, 25.0)], _fleet())


def test_memoized_plan_matches_direct_recomputation():
    rng = np.random.default_rng(5)
    for n in range(1, 5):
        for m in range(1, 5):
            spots = [Hotspot(float(rng.uniform(0.1, 0.95)),
                             float(rng.integers(1, 12)))
                     for _ in range(m)]
            fleet = _fleet(count=n)
            plan = optimal_deployment(spots, fleet)
            best_total, best_counts = -math.inf, None
            for counts in compositions(n, [n] * m):
                if any(c > 0 and spots[i].distance >= fleet.initial_budget
                       for i, c in enumerate(counts)):
                    continue
                total = sum(_pooled(spots[i], c, fleet).profit
                            for i, c in enumerate(counts) if c > 0)
                if total >= best_total:  # same tie rule as the planner
                    best_total, best_counts = total, counts
            assert plan.profile.counts == best_counts
            assert plan.total_profit == pytest.approx(best_total, abs=1e-12)


# -- planner vs composition enumeration -------------------------------------------


def _enumerated(options, count):
    """Reference planner: score every composition in lexicographic order.

    The total is an explicit left fold from the int 0, the order the old
    ``sum()`` used; from Python 3.12 on, ``sum()`` of floats compensates its
    rounding and would no longer be that fold.
    """
    caps = [count if opt is not None else 0 for opt in options]
    best_counts, best_total = None, -math.inf
    for counts in compositions(count, caps):
        total = 0
        for i, n in enumerate(counts):
            if n > 0:
                total = total + options[i][n - 1].profit
        if total >= best_total:
            best_counts, best_total = counts, total
    return best_counts, best_total


def _planned(options, count):
    """The plan ``_plan_fleet`` makes of per-group decisions, from their profit rows."""
    counts, total = _plan_fleet([None if row is None else [d.profit for d in row]
                                 for row in options], count)
    return DeploymentPlan(profile=DeploymentProfile(counts),
                          per_hotspot=tuple(options[i][n - 1] if n else None
                                            for i, n in enumerate(counts)),
                          total_profit=total)


def _assert_matches_enumeration(plan, options, count):
    counts, total = _enumerated(options, count)
    assert plan.profile.counts == counts
    # dataclass == compares k_star, t_star and profit exactly, field by field
    assert plan.per_hotspot == tuple(options[i][n - 1] if n else None
                                     for i, n in enumerate(counts))
    assert plan.total_profit == total


def _continuous_options(spots, fleet, lam):
    options = []
    for h in spots:
        avail = fleet.initial_budget - h.distance
        if avail <= 0:
            options.append(None)
            continue
        row = []
        for n in range(1, fleet.count + 1):
            k, log_val = _series_max(h.alpha, avail, fleet.service_cost, n)
            row.append(AllocationDecision(
                k_star=k, t_star=avail - fleet.service_cost * k / n,
                profit=log_val / lam))
        options.append(row)
    return options


# Budget 20: distance 19.5 leaves too little energy for one user (k = 0,
# zero profit), 20 and 25 are unreachable.
_DISTANCES = (1.0, 4.0, 6.0, 9.5, 14.0, 19.5, 20.0, 25.0)


@st.composite
def _hotspot_sets(draw):
    """Up to five hotspots drawn with repeats from up to three distinct ones."""
    pool = draw(st.lists(st.builds(Hotspot,
                                   st.sampled_from((0.15, 0.3, 0.55, 0.8, 0.95)),
                                   st.sampled_from(_DISTANCES)),
                         min_size=1, max_size=3))
    spots = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    if all(h.distance >= 20.0 for h in spots):
        spots[0] = Hotspot(0.5, 4.0)
    return spots


@settings(max_examples=100, deadline=None)
@given(_hotspot_sets(), st.integers(1, 6), st.sampled_from((1.0, 2.0, 3.0)),
       st.sampled_from((EXP1, ValuationModel.uniform(5.0, 15.0))))
def test_discrete_plan_matches_enumeration(spots, count, cost, model):
    fleet = _fleet(count=count, budget=20.0, cost=cost, model=model)
    options = [[_pooled(h, n, fleet) for n in range(1, count + 1)]
               if h.distance < 20.0 else None for h in spots]
    _assert_matches_enumeration(optimal_deployment(spots, fleet), options, count)


@settings(max_examples=100, deadline=None)
@given(_hotspot_sets(), st.integers(1, 6), st.sampled_from((1.0, 2.0, 3.0)),
       st.sampled_from((0.5, 1.0, 2.0)))
def test_continuous_plan_matches_enumeration(spots, count, cost, lam):
    fleet = _fleet(count=count, budget=20.0, cost=cost)
    _assert_matches_enumeration(optimal_deployment_continuous(spots, fleet, lam),
                                _continuous_options(spots, fleet, lam), count)


def test_continuous_tie_rule_with_prefixes_an_ulp_apart():
    # The prefixes of (2, 2, 1, 1, 0) and (2, 1, 2, 1, 0) differ by an ulp and
    # reach the same total: the greater profile must win, as under enumeration.
    spots = [Hotspot(0.3, 6.0)] * 4 + [Hotspot(0.3, 14.0)]
    fleet = FleetConfig(6, 15.0, 3.0, ValuationModel.exponential(math.e))
    plan = optimal_deployment_continuous(spots, fleet, lam=1.0)
    assert plan.profile.counts == (2, 2, 1, 1, 0)
    _assert_matches_enumeration(plan, _continuous_options(spots, fleet, 1.0), 6)


# Profits an ulp apart, ones a larger sum absorbs, and the infinite totals of
# the overflowing capacity series.
_PROFITS = (0.0, 0.1, 0.2, 0.3, math.nextafter(0.3, 1.0), 1.0,
            math.nextafter(1.0, 0.0), 1e-17, 1e16, 1e16 + 2.0, math.inf)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda count: st.tuples(
    st.just(count),
    st.lists(st.one_of(st.none(), st.lists(st.sampled_from(_PROFITS),
                                           min_size=count, max_size=count)),
             min_size=1, max_size=5))))
def test_planner_exact_ties_and_infinite_totals(case):
    count, rows = case
    if all(r is None for r in rows):
        rows[0] = [0.0] * count
    options = [None if r is None else
               [AllocationDecision(k_star=n, t_star=float(n), profit=p)
                for n, p in enumerate(r, start=1)] for r in rows]
    _assert_matches_enumeration(_planned(options, count), options, count)


# -- planner vs the three-pass planner it replaced ---------------------------------
#
# Past a few hotspots enumeration is too slow, so the planner is checked
# against its predecessor: a forward pass for the best prefix sums, a backward
# pass for the least prefix sum from which the best total stays reachable
# (inverting rounded addition over the ordered bit patterns of doubles), and a
# forward walk taking each hotspot's largest viable count.

# Doubles in numeric order map to consecutive integers: nonnegative doubles
# to their bit patterns, negative ones to minus the pattern of their
# magnitude (-0.0 shares 0.0's key). The keys run from -inf to +inf.
_DOUBLE = struct.Struct("<d")
_BITS = struct.Struct("<Q")
_SIGN = 1 << 63


def _double_key(x):
    bits = _BITS.unpack(_DOUBLE.pack(x))[0]
    return bits if bits < _SIGN else _SIGN - bits


def _key_double(key):
    return _DOUBLE.unpack(_BITS.pack(key if key >= 0 else _SIGN - key))[0]


_KEY_INF = _double_key(math.inf)


def _least_prefix(addend, goal):
    """Least double s with fl(s + addend) >= goal: gallop out from the key of
    goal - addend to a bracket, then bisect."""
    reaches = lambda key: _key_double(key) + addend >= goal
    lo, hi = -_KEY_INF - 1, _KEY_INF  # reaches(hi); lo is below the up-set
    guess = goal - addend
    if math.isfinite(guess):
        start, step = _double_key(guess), 1
        if reaches(start):
            hi = start
            while hi - step > lo and reaches(hi - step):
                hi, step = hi - step, 2 * step
            lo = max(lo, hi - step)
        else:
            lo = start
            while lo + step < hi and not reaches(lo + step):
                lo, step = lo + step, 2 * step
            hi = min(hi, lo + step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return _key_double(hi)


def _plan_fleet_oracle(options, count):
    m = len(options)
    plus = lambda s, i, n: s + options[i][n - 1].profit if n else s
    room = lambda i, u: range(count - u + 1) if options[i] is not None else range(1)

    # best[i][u]: greatest prefix sum over hotspots < i holding u vehicles
    best = [[None] * (count + 1) for _ in range(m + 1)]
    best[0][0] = 0.0
    for i in range(m):
        for u, s in enumerate(best[i]):
            if s is None:
                continue
            for n in room(i, u):
                v, cur = plus(s, i, n), best[i + 1][u + n]
                if cur is None or v > cur:
                    best[i + 1][u + n] = v
    total = best[m][count]

    # need[i][u]: least prefix sum at (i, u) from which a completion sums to
    # the best total; None where no reachable completion seats the fleet
    need = [[None] * (count + 1) for _ in range(m + 1)]
    need[m][count] = total
    for i in reversed(range(m)):
        for u in range(count + 1):
            if best[i][u] is None:
                continue
            lows = [_least_prefix(options[i][n - 1].profit, need[i + 1][u + n])
                    if n else need[i + 1][u + n]
                    for n in room(i, u) if need[i + 1][u + n] is not None]
            need[i][u] = min(lows, default=None)

    counts, s, u = [], 0.0, 0
    for i in range(m):
        for n in reversed(room(i, u)):
            goal = need[i + 1][u + n]
            if goal is not None and plus(s, i, n) >= goal:
                break
        counts.append(n)
        s, u = plus(s, i, n), u + n

    per = tuple(options[i][n - 1] if n else None for i, n in enumerate(counts))
    return DeploymentPlan(profile=DeploymentProfile(tuple(counts)),
                          per_hotspot=per, total_profit=s)


def _ulps_from(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# Sums near 1.0 and 2^52 round in ulp steps that differ across the binade.
_NEAR_ULPS = tuple(_ulps_from(x, d) for x in (1.0, 2.0 ** 52)
                   for d in (-3, -2, -1, 1, 2, 3)) + (2.0 ** 52,)

# Prefixes 2^52 for (1, 0) and 2^52 + 5 for (0, 1) hold one vehicle after
# hotspot 1, 5 ulps apart and more than ulp(cap) = 4 apart. Adding 2^52 + 2^50
# closes the gap to 4, adding 2^53 + 2^51 + 6 closes it to 0, so the greater
# profile (1, 0, 1, 1) wins the tie: a margin of ulp(cap) that ignores the
# two hotspots still to come would drop its prefix.
_GAP_CLOSES_OVER_TWO_ADDITIONS = (3, [[2.0 ** 52, 0.0, 0.0], [2.0 ** 52 + 5.0, 0.0, 0.0],
                                      [2.0 ** 52 + 2.0 ** 50, 0.0, 0.0],
                                      [2.0 ** 53 + 2.0 ** 51 + 6.0, 0.0, 0.0]])


@st.composite
def _profit_rows(draw):
    """Up to 10 hotspots and 14 vehicles, profits from a few pool values."""
    count = draw(st.integers(1, 14))
    pool = draw(st.lists(st.sampled_from(_PROFITS + _NEAR_ULPS), min_size=1, max_size=4))
    row = st.lists(st.sampled_from(pool), min_size=count, max_size=count)
    return count, draw(st.lists(st.one_of(st.none(), row), min_size=1, max_size=10))


@settings(max_examples=200, deadline=None)
@given(_profit_rows())
@example(_GAP_CLOSES_OVER_TWO_ADDITIONS)
def test_planner_equals_three_pass_oracle(case):
    count, rows = case
    if all(r is None for r in rows):
        rows[0] = [0.0] * count
    options = [None if r is None else
               [AllocationDecision(k_star=n, t_star=float(n), profit=p)
                for n, p in enumerate(r, start=1)] for r in rows]
    plan, oracle = _planned(options, count), _plan_fleet_oracle(options, count)
    assert plan.profile == oracle.profile
    assert plan.per_hotspot == oracle.per_hotspot
    assert plan.total_profit == oracle.total_profit


@st.composite
def _saturating_rows(draw):
    """Up to 10 hotspots and 40 vehicles, profits from a few pool values. A
    row may rise to some group size and hold its profit past it, as pooled
    profits do once extra vehicles fund no more capacity."""
    count = draw(st.integers(1, 40))
    pool = draw(st.lists(st.sampled_from(_PROFITS + _NEAR_ULPS), min_size=1, max_size=4))
    plain = st.lists(st.sampled_from(pool), min_size=count, max_size=count)
    saturated = st.builds(lambda row, top: row[:top] + [row[top - 1]] * (count - top),
                          plain.map(sorted), st.integers(1, count))
    rows = draw(st.lists(st.one_of(st.none(), plain, saturated), min_size=1, max_size=10))
    if all(r is None for r in rows):
        rows[0] = [0.0] * count
    return count, rows


@settings(max_examples=200, deadline=None)
@given(_saturating_rows())
@example(_GAP_CLOSES_OVER_TWO_ADDITIONS)
def test_planner_equals_dominance_list_oracle(case):
    count, rows = case
    counts, total = _plan_fleet(rows, count)
    oracle_counts, oracle_total = dominance_planner(rows, count)
    assert counts == oracle_counts
    assert _DOUBLE.pack(total) == _DOUBLE.pack(oracle_total)


def _own_table_decision(model, alpha, avail, cost, n):
    """Group n's best split read from a table built at its own size."""
    k_max = math.floor(avail / (1.0 + cost / n) + 1e-9)
    hover = lambda k: math.floor(avail - cost * k / n + 1e-9)
    _, table = build_pricing(model, alpha, k_max, hover(1))
    profits = [float(table.values[k, hover(k)]) for k in range(1, k_max + 1)]
    k = 1 + profits.index(max(profits))
    return AllocationDecision(k_star=k, t_star=hover(k), profit=profits[k - 1])


def test_one_pricing_table_per_fleet_plan(monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return build_pricing(*args, **kwargs)

    monkeypatch.setattr(uavps.allocation, "build_pricing", counting)
    model = ValuationModel.uniform(5.0, 15.0)
    spots = [Hotspot(0.8, 5.0), Hotspot(0.4, 25.0), Hotspot(0.6, 9.5),
             Hotspot(0.8, 5.0)]
    fleet = _fleet(count=5, budget=20.0, cost=3.0, model=model)
    plan = optimal_deployment(spots, fleet)
    assert len(built) == 1
    single = best_single_hotspot(spots, fleet)
    assert len(built) == 2
    assert single.decision == _own_table_decision(model, 0.8, 15.0, 3.0, 1)

    for h, n, dec in zip(spots, plan.profile.counts, plan.per_hotspot):
        if n:
            assert dec == _own_table_decision(model, h.alpha, 20.0 - h.distance,
                                              3.0, n)
    reach = (spots[0], spots[2])
    rows = [[AllocationDecision(*d) for d in row]
            for row in _pooled_decisions(model, [h.alpha for h in reach],
                                         [20.0 - h.distance for h in reach], 3.0, range(1, 6))]
    for h, row in zip(reach, rows):
        avail = 20.0 - h.distance
        assert row == [_own_table_decision(model, h.alpha, avail, 3.0, n)
                       for n in range(1, 6)]


def test_plans_build_a_decision_per_served_hotspot_only(monkeypatch):
    # fleet's largest rung: 10 hotspots and 14 vehicles, 140 (hotspot, group)
    # entries per plan, of which at most 10 are returned.
    built = []
    init = AllocationDecision.__init__
    monkeypatch.setattr(AllocationDecision, "__init__",
                        lambda self, *args, **kwargs: built.append(args or kwargs)
                        or init(self, *args, **kwargs))
    spots = [Hotspot(round(0.9 - 0.05 * i, 2), 0.75 * i) for i in range(10)]
    fleet = FleetConfig(14, 15.0, 1.0, EXP1)
    for plan in (lambda: optimal_deployment(spots, fleet),
                 lambda: optimal_deployment_continuous(spots, fleet, 1.0)):
        built.clear()
        assert plan().profile.served() == len(built) <= len(spots)
    built.clear()
    best_single_hotspot(spots, fleet)
    assert len(built) == 1


def test_plan_serialization():
    spots = [Hotspot(0.8, 5.0), Hotspot(0.3, 18.0)]
    plan = optimal_deployment(spots, _fleet(count=2))
    rows = list(plan.csv_rows())
    assert len(rows) == 2
    assert sum(r[1] for r in rows) == 2


# -- best_single_hotspot -----------------------------------------------------------


def test_best_single_trivia():
    spots = [Hotspot(0.5, 6.0)]
    best = best_single_hotspot(spots, _fleet())
    assert best.index == 0
    spots = [Hotspot(0.5, 4.0), Hotspot(0.5, 9.0)]
    best = best_single_hotspot(spots, _fleet())
    assert best.index == 0  # equal rates: closer one wins on residual energy
    assert best.ranking == [0, 1]


# -- route oracle -----------------------------------------------------------------


def test_route_oracle_degenerate():
    fleet = _fleet(budget=20.0)
    route, budgets, profit = route_oracle((Hotspot(0.6, 5.0),), np.zeros((1, 1)), fleet)
    assert route == (0,)
    assert budgets == (15.0,)
    assert profit == pytest.approx(
        best_single_hotspot([Hotspot(0.6, 5.0)], fleet).decision.profit)


def test_route_oracle_single_hotspot_dominance_sample():
    rng = np.random.default_rng(77)
    for trial in range(8):
        m = 2 if trial % 2 == 0 else 3
        pair, spots, fleet = _triangle_instance(rng, m)
        profit = route_oracle(spots, pair, fleet)[2]
        single = best_single_hotspot(spots, fleet)
        assert profit == pytest.approx(single.decision.profit, abs=1e-9)


def test_continuous_single_vehicle_dominance():
    """Splitting the budget across two hotspots never beats the best one
    under the closed-form profits.

    Instances where the closed form misbehaves against the working
    assumptions (hovering time growing with energy, capacity growing with the
    occurrence rate) would be reported rather than asserted; none arise here.
    """
    import warnings

    def best_single(rate, avail):
        return _series_max(rate, avail, 2.0, 1)[1]

    rng = np.random.default_rng(313)
    for _ in range(12):
        a1, a2 = rng.uniform(0.2, 2.0, 2)
        d1, d2 = np.sort(rng.uniform(1.0, 10.0, 2))
        hop = float(rng.uniform(d2 - d1, d2 + d1))
        budget = 20.0

        # working assumptions, in the form integer capacities allow: the
        # chosen capacity grows with energy and with the occurrence rate,
        # and hovering time grows with energy wherever capacity is flat
        grid = np.arange(2.0, 19.0, 0.5)
        k_by_energy = [_series_max(a2, avail, 2.0, 1)[0] for avail in grid]
        k_by_rate = [_series_max(rate, 15.0, 2.0, 1)[0]
                     for rate in np.arange(0.2, 2.0, 0.1)]
        if np.any(np.diff(k_by_energy) < 0) or np.any(np.diff(k_by_rate) < 0):
            warnings.warn("closed-form split violates the working assumptions")
            continue

        single = max(best_single(a1, budget - d1), best_single(a2, budget - d2))
        residual = budget - d1 - hop
        split_best = -math.inf
        for share in np.arange(0.0, max(residual, 0.0) + 1e-9, 0.25):
            split_best = max(split_best,
                             best_single(a1, share)
                             + best_single(a2, residual - share))
        assert split_best <= single + 1e-9


def test_route_oracle_bypass_allocates_nothing_to_waypoint():
    # Collinear: the way to the far, busy hotspot passes a sleepy one.
    spots = (Hotspot(0.05, 4.0), Hotspot(0.95, 8.0))
    pair = np.array([[0.0, 4.0], [4.0, 0.0]])
    fleet = _fleet(budget=20.0)
    route, budgets, profit = route_oracle(spots, pair, fleet)
    single = best_single_hotspot(list(spots), fleet)
    assert single.index == 1
    assert profit == pytest.approx(single.decision.profit, abs=1e-9)
    if len(route) == 2:
        assert budgets[route.index(0)] == 0.0


# -- forking -----------------------------------------------------------------------


def test_forking_symmetric_pair_holds_and_plan_agrees():
    spot = Hotspot(0.8, 5.0)
    fleet = _fleet(count=2)
    check = forking_condition(spot, spot, fleet, 1.0)
    assert check.holds
    assert check.phi < 1.0
    plan = optimal_deployment_continuous([spot, spot], fleet, 1.0)
    assert plan.profile.counts == (1, 1)


def test_forking_fails_when_second_hotspot_empties():
    busy = Hotspot(0.8, 5.0)
    dead = Hotspot(1e-9, 5.0)
    check = forking_condition(busy, dead, _fleet(count=3), 1.0)
    assert not check.holds
    # Pooling gains so much more than the nearly empty second hotspot that
    # phi overflows a float: inf, through the OverflowError branch.
    check = forking_condition(Hotspot(1e3, 0.0), Hotspot(1e-6, 0.0),
                              FleetConfig(3, 1e4, 1.0, EXP1), 1.0)
    assert check.phi == math.inf and not check.holds


def test_forking_distance_window_is_downward_closed():
    busy = Hotspot(0.9, 4.0)
    fleet = _fleet(count=2)
    holds = [forking_condition(busy, Hotspot(0.7, d), fleet, 1.0).holds
             for d in np.arange(4.0, 19.0, 0.5)]
    # once it stops holding it never resumes as the distance grows
    assert all(a or not b for a, b in zip(holds, holds[1:]))
    assert holds[0] and not holds[-1]


def test_forking_validation():
    spot = Hotspot(0.8, 5.0)
    with pytest.raises(ValueError):
        forking_condition(spot, spot, _fleet(count=1), 1.0)
    with pytest.raises(ValueError):
        forking_condition(Hotspot(0.1, 15.0), Hotspot(0.9, 1.0),
                          _fleet(count=2), 1.0)


def test_forking_phi_matches_linear_series_formula():
    fleet = _fleet(count=3)
    check = forking_condition(Hotspot(0.9, 4.0), Hotspot(0.7, 6.0), fleet, 1.0)

    def series(x, k):
        return sum(x**i / math.factorial(i) for i in range(k + 1))

    def pooled(avail, n):
        k_top = math.floor(n * avail / 2.0 + 1e-9)
        return max(series(0.9 * max(avail - 2.0 * k / n, 0.0) / math.e, k)
                   for k in range(1, k_top + 1))

    x2 = 0.9 * max(14.0 - 2.0 * check.k2_star, 0.0) / math.e
    s_n, s_n1 = pooled(16.0, 3), pooled(16.0, 2)
    phi = (s_n - s_n1) / (s_n1 * (series(x2, check.k2_star) - 1.0))
    assert check.phi == pytest.approx(phi, rel=1e-9)


def test_pooled_series_ties_go_to_smallest_capacity():
    # No arrivals: every capacity earns log S_k(0) = 0.
    assert _series_max(0.0, 15.0, 2.0, 2) == (1, 0.0)


def test_pooled_series_finite_at_large_group():
    # The linear-space series returned (182, inf) here.
    pooled = optimal_deployment_continuous([Hotspot(50.0, 0.0)],
                                           _fleet(count=6, budget=199.0, cost=0.5),
                                           1.0).per_hotspot[0]
    assert pooled.k_star == 1012 and math.isfinite(pooled.profit)


def _own_series_search(rate, avail, cost, group):
    """One pooled capacity search scored by a kernel call of its own."""
    k = np.arange(1, max(math.floor(group * avail / cost + 1e-9), 1) + 1)
    logs = _log_series(rate * np.maximum(avail - cost * k / group, 0.0) / math.e, k)
    best = int(np.argmax(logs))
    return best + 1, float(logs[best])


def _busy_fleet(budget):
    spots = [Hotspot(80.0, 0.0), Hotspot(65.0, budget * 0.4 / 3),
             Hotspot(50.0, budget * 0.8 / 3)]
    return spots, FleetConfig(count=6, initial_budget=budget, service_cost=2.0,
                              valuation=EXP1)


_SEARCH_FLEETS = [
    # unreachable (25) and barely reachable (19.5: no capacity fits) hotspots
    ([Hotspot(2.0, 1.0), Hotspot(1.0, 25.0), Hotspot(0.5, 19.5), Hotspot(3.0, 6.0)],
     _fleet(count=5)),
    _busy_fleet(200.0),
    _busy_fleet(600.0),
]


@pytest.mark.parametrize("spots, fleet", _SEARCH_FLEETS,
                         ids=["unreachable", "busy-200", "busy-600"])
def test_continuous_options_equal_one_search_per_group(monkeypatch, spots, fleet):
    profits, searches = [], []
    plan_fleet, search = uavps.deployment._plan_fleet, uavps.deployment._best_series_capacity
    monkeypatch.setattr(uavps.deployment, "_plan_fleet", lambda rows, count:
                        profits.append(rows) or plan_fleet(rows, count))
    monkeypatch.setattr(uavps.deployment, "_best_series_capacity", lambda *args:
                        searches.append(search(*args)) or searches[-1])
    optimal_deployment_continuous(spots, fleet, 0.7)
    # Each reachable hotspot's decisions: the planner's profit row, with the
    # capacities of the one search call.
    ks = iter(searches[0][0].tolist())
    seen = [[None if row is None else
             [AllocationDecision(k_star=k, t_star=fleet.initial_budget - h.distance
                                 - fleet.service_cost * k / n, profit=p)
              for n, k, p in zip(range(1, fleet.count + 1), next(ks), row)]
             for h, row in zip(spots, profits[0])]]
    assert seen[0] == _continuous_options(spots, fleet, 0.7)
    for h, row in zip(spots, seen[0]):
        avail = fleet.initial_budget - h.distance
        for n, dec in enumerate(row or [], start=1):
            k, log_val = _own_series_search(h.alpha, avail, fleet.service_cost, n)
            assert (dec.k_star, dec.profit) == (k, log_val / 0.7)


def _forking_oracle(h1, h2, fleet):
    """forking_condition from five separate kernel calls."""
    avail1 = fleet.initial_budget - h1.distance
    avail2 = fleet.initial_budget - h2.distance
    a1, a2, cost, n = h1.alpha, h2.alpha, fleet.service_cost, fleet.count
    k2_star, _ = _own_series_search(a2, avail2, cost, 1)
    gain = (_own_series_search(a1, avail1, cost, n)[1]
            - _own_series_search(a1, avail1, cost, n - 1)[1])
    log_s2 = float(_log_series(a1 * max(avail2 - cost * k2_star, 0.0) / math.e, k2_star))
    if log_s2 <= 0.0:
        return False, math.inf, k2_star
    try:
        phi = math.exp(gain - log_s2) * math.expm1(-gain) / math.expm1(-log_s2)
    except OverflowError:
        phi = math.inf
    return a2 / a1 > max(phi ** (1.0 / k2_star), phi), phi, k2_star


@pytest.mark.parametrize("spots, fleet", [
    ([Hotspot(0.9, 4.0), Hotspot(0.7, 6.0)], _fleet(count=3)),
    ([Hotspot(2.0, 1.0), Hotspot(1.0, 19.5)], _fleet(count=2)),  # hotspot 2 fits no unit
    _busy_fleet(200.0),
    _busy_fleet(600.0),
], ids=["small", "empty-second", "busy-200", "busy-600"])
def test_forking_equals_separate_searches(spots, fleet):
    check = forking_condition(spots[0], spots[1], fleet, 1.0)
    assert tuple(check) == _forking_oracle(spots[0], spots[1], fleet)


@pytest.mark.parametrize("spots, fleet", [
    ([Hotspot(5.0, 0.0), Hotspot(100.0, 15.0)], _fleet(count=2, cost=1.0)),
    ([Hotspot(2.0, 0.0), Hotspot(20.0, 15.0)], _fleet(count=2)),
], ids=["fails", "holds"])
def test_forking_reads_denominator_past_the_search_cut(spots, fleet):
    # At rate a'_1, hotspot 2's series argument at k2* is below the largest
    # term of another capacity's series: a search would cut k2*, but the
    # denominator is read there, not searched.
    avail2, cost, a1 = fleet.initial_budget - spots[1].distance, fleet.service_cost, spots[0].alpha
    check = forking_condition(spots[0], spots[1], fleet, 1.0)
    k = np.arange(1, math.floor(avail2 / cost) + 1)
    x = a1 * np.maximum(avail2 - cost * k, 0.0) / math.e
    i = np.minimum(k, np.floor(x))
    largest_term = np.max(i * np.log(np.maximum(x, 1.0)) - gammaln(i + 1))
    assert x[check.k2_star - 1] < largest_term
    assert tuple(check) == _forking_oracle(spots[0], spots[1], fleet)


@pytest.mark.parametrize("budget", [200.0, 600.0])
def test_continuous_plan_and_forking_finite_on_busy_fleet(budget):
    # Rates high enough for the linear-space series to overflow: the plan
    # total came out inf and phi inf or NaN. At budget 600 the logs of the
    # series in phi also pass the range of exp.
    spots, fleet = _busy_fleet(budget)
    plan = optimal_deployment_continuous(spots, fleet, 1.0)
    assert math.isfinite(plan.total_profit)
    assert all(math.isfinite(d.profit) for d in plan.per_hotspot if d is not None)
    check = forking_condition(spots[0], spots[1], fleet, 1.0)
    assert math.isfinite(check.phi) and check.phi > 0.0 and check.holds


def test_pooled_series_is_exhaustive():
    pooled = optimal_deployment_continuous([Hotspot(0.8, 0.0)],
                                           _fleet(count=2, budget=15.0), 1.0).per_hotspot[0]
    k, log_val = pooled.k_star, pooled.profit
    xs = [(kk, sum((0.8 * max(15.0 - 2.0 * kk / 2, 0.0) / math.e) ** i
                   / math.factorial(i) for i in range(kk + 1)))
          for kk in range(1, 16)]
    best = max(xs, key=lambda kv: kv[1])
    assert math.exp(log_val) == pytest.approx(best[1], rel=1e-12)
    assert k == min(kk for kk, v in xs if v == best[1])


# -- ingestion ----------------------------------------------------------------------


def test_load_hotspots(tmp_path):
    path = tmp_path / "spots.json"
    path.write_text(json.dumps([{"alpha": 0.4, "distance": 3.0},
                                {"alpha": 0.9, "distance": 7.5}]))
    spots = load_hotspots(str(path))
    assert spots == [Hotspot(0.4, 3.0), Hotspot(0.9, 7.5)]

    path.write_text(json.dumps([{"alpha": 0.4, "distance": 3.0, "junk": 1}]))
    with pytest.raises(ValueError):
        load_hotspots(str(path))
    path.write_text(json.dumps([]))
    with pytest.raises(ValueError):
        load_hotspots(str(path))
