"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines alongside pytest's own report.

Criterion 4 is split in two: the trend and ordering clauses hold, but the
absolute level clause (profit ratio >= 0.97 by horizon 200) is not attainable
for exponential valuations, where the posted-price gap shrinks only
logarithmically; that sub-test states the requirement faithfully and fails.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np

from uavps import cli
from uavps.allocation import (allocate_continuous, allocate_discrete,
                              high_regime_threshold, low_regime_threshold)
from uavps.benchmark import complete_info_profit, variance_sweep
from uavps.deployment import (FleetConfig, Hotspot, best_single_hotspot,
                              forking_condition, optimal_deployment)
from uavps.pricing import (build_pricing, continuous_profit_numeric,
                           expected_profit_closed_form, price_closed_form)
from uavps.simulator import simulate_continuous, simulate_discrete
from uavps.valuations import ValuationModel

from oracles import compositions, route_oracle

EXP1 = ValuationModel.exponential(1.0)
UNI = ValuationModel.uniform(5.0, 15.0)
TOL = 1e-9


def _verdict(tag: str, ok: bool, detail: str = "") -> bool:
    print(f"\n[acceptance {tag}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def test_criterion_01_dp_versus_simulation():
    """Monte-Carlo mean within 3 SE of the table on a 72-cell grid."""
    start = time.perf_counter()
    failures = []
    cells = list(itertools.product((EXP1, UNI), (0.2, 0.5, 0.8),
                                   (1, 2, 3, 5), (5, 10, 20)))
    assert len(cells) >= 40
    for idx, (model, alpha, k, T) in enumerate(cells):
        schedule, table = build_pricing(model, alpha, k, T)
        report = simulate_discrete(model, alpha, schedule, k, T, 10**5,
                                   seed=1000 + idx)
        if abs(report.mean_profit - table.final()) > 3 * report.std_error:
            report = simulate_discrete(model, alpha, schedule, k, T, 10**6,
                                       seed=500_000 + idx)  # one escalation
            if abs(report.mean_profit - table.final()) > 3 * report.std_error:
                failures.append((model.kind, alpha, k, T,
                                 report.mean_profit, table.final()))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300
    assert _verdict("1", ok,
                    f"{len(cells)} cells, {len(failures)} outside 3 SE, "
                    f"{elapsed:.1f}s"), failures


def test_criterion_02_closed_form_equivalence():
    """Closed form vs ODE integration (1e-5) and vs simulation (3 SE, 1e6)."""
    start = time.perf_counter()
    failures = []
    combos = list(itertools.product((0.5, 1.0, 2.0), (1, 2, 3),
                                    (1.0, math.e, 5.0)))
    for idx, (rate, k, T) in enumerate(combos):
        exact = expected_profit_closed_form(1.0, rate, k, T)
        numeric = continuous_profit_numeric(EXP1, rate, k, T, step=1e-3)
        if abs(exact - numeric) > 1e-5:
            failures.append(("ode", rate, k, T, exact, numeric))
        report = simulate_continuous(1.0, rate, k, T, 10**6, seed=2000 + idx)
        if abs(report.mean_profit - exact) > 3 * report.std_error:
            failures.append(("sim", rate, k, T, exact, report.mean_profit))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120
    assert _verdict("2", ok,
                    f"{len(combos)} combos, {len(failures)} mismatches, "
                    f"{elapsed:.1f}s"), failures


def _shape_violations(model, alpha, k, T):
    """Shape clauses of the discrete table and the single-unit price path."""
    bad = []
    schedule, table = build_pricing(model, alpha, k, T)
    r, p = table.values, schedule.prices
    for j in range(1, k + 1):
        for t in range(1, T + 1):
            if r[j, t] < r[j, t - 1] - TOL:
                bad.append(f"profit fell in t ({j},{t})")
            if t < j and abs(r[j, t] - r[t, t]) > TOL:
                bad.append(f"dead capacity not copied ({j},{t})")
            if t >= j and j * r[1, t // j] > r[j, t] + TOL:
                bad.append(f"split pricing beat joint pricing ({j},{t})")
    row = [p[1, t] for t in range(1, T + 1)]
    if np.any(np.diff(row) < -TOL):
        bad.append("single-unit price fell in t")
    bumped, _ = build_pricing(model, min(alpha + 0.05, 1.0), 1, T)
    if np.any(bumped.prices[1, 1:] < p[1, 1:] - TOL):
        bad.append("single-unit price fell in alpha")
    return bad


def _closed_form_violations(lam, rate, k_max, T):
    bad = []
    profits = [expected_profit_closed_form(lam, rate, k, T)
               for k in range(1, k_max + 2)]
    if np.any(np.diff(profits, 2) > TOL):
        bad.append("profit not concave in capacity")
    h = 1e-3
    for t in (T / 3, T):
        vals = [expected_profit_closed_form(lam, rate, k_max, t + d)
                for d in (-h, 0.0, h)]
        if (vals[0] - 2 * vals[1] + vals[2]) / h**2 > TOL:
            bad.append("profit not concave in horizon")
    times = np.linspace(T / 10, T, 7)
    for k in range(1, k_max + 1):
        prices = [price_closed_form(lam, rate, k, t) for t in times]
        if np.any(np.diff(prices) < -TOL):
            bad.append(f"price fell in time at k={k}")
    ladder = [price_closed_form(lam, rate, k, T) for k in range(1, k_max + 2)]
    if np.any(np.diff(ladder) > TOL):
        bad.append("price rose in capacity")
    if np.any(np.diff(ladder, 2) < -TOL):
        bad.append("price not convex in capacity")
    return bad


def test_criterion_03_shape_property_sweep():
    """Zero violations across a 500-configuration randomized sweep."""
    start = time.perf_counter()
    rng = np.random.default_rng(31415)
    violations = []
    for i in range(500):
        if i % 2 == 0:
            model = ValuationModel.exponential(float(rng.uniform(0.4, 2.5)))
        else:
            lo = float(rng.uniform(0.0, 8.0))
            model = ValuationModel.uniform(lo, lo + float(rng.uniform(2.0, 12.0)))
        alpha = float(rng.uniform(0.1, 0.9))
        k = int(rng.integers(1, 7))
        T = int(rng.integers(k, 31))
        violations += _shape_violations(model, alpha, k, T)
        violations += _closed_form_violations(float(rng.uniform(0.5, 2.0)),
                                              float(rng.uniform(0.3, 3.0)),
                                              int(rng.integers(1, 7)),
                                              float(rng.uniform(0.5, 8.0)))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 60
    assert _verdict("3", ok,
                    f"500 configs, {len(violations)} violations, "
                    f"{elapsed:.1f}s"), violations[:5]


def _ratio(k: int, horizons: list[int]) -> list[float]:
    _, table = build_pricing(EXP1, 0.5, k, max(horizons))
    bench = complete_info_profit(EXP1, 0.5, k, max(horizons))
    return [float(table.values[k, t] / bench.values[k, t]) for t in horizons]


def test_criterion_04a_information_ratio_trend_and_ordering():
    """Ratio nondecreasing in the horizon; lower capacity converges first."""
    start = time.perf_counter()
    horizons = [25, 50, 100, 200]
    curves = {k: _ratio(k, horizons) for k in (1, 2, 3)}
    trend_ok = all(np.all(np.diff(curves[k]) >= -TOL) for k in (1, 2, 3))
    order_ok = all(curves[1][i] >= curves[2][i] >= curves[3][i]
                   for i in range(len(horizons)))
    elapsed = time.perf_counter() - start
    ok = trend_ok and order_ok and elapsed < 60
    assert _verdict("4a", ok,
                    f"trend={trend_ok} ordering={order_ok} {elapsed:.1f}s")


def test_criterion_04b_information_ratio_level():
    """Ratio at least 0.97 by horizon 200 (stated requirement).

    Not attainable for exponential valuations: both profits grow like the log
    of the horizon while the posted-price handicap stays near the mean
    valuation, so the ratio at horizon 200 sits near 0.79 and only crawls
    toward 1. The requirement is asserted as written.
    """
    at_200 = {k: _ratio(k, [200])[0] for k in (1, 2, 3)}
    ok = all(v >= 0.97 for v in at_200.values())
    detail = " ".join(f"k={k}:{v:.4f}" for k, v in at_200.items())
    assert _verdict("4b", ok, detail), f"ratios at horizon 200: {at_200}"


def test_criterion_05_variance_shape():
    """Fixed-mean uniform sweep: long horizon loves variance, short one dips."""
    start = time.perf_counter()
    grid = [0.5 * i for i in range(1, 61)]
    long_run = variance_sweep(10.0, grid, 0.8, 1, 12)
    inc12 = [row[1] for row in long_run]
    comp12 = [row[2] for row in long_run]
    long_ok = (np.all(np.diff(inc12) >= -TOL)
               and np.all(np.diff(comp12) >= -TOL))

    short_run = variance_sweep(10.0, grid, 0.8, 1, 3)
    inc3 = [row[1] for row in short_run]
    dip = int(np.argmin(inc3))
    short_ok = (0 < dip < len(inc3) - 1
                and inc3[dip] < inc3[0] - TOL
                and inc3[dip] < inc3[-1] - TOL)
    elapsed = time.perf_counter() - start
    ok = long_ok and short_ok and elapsed < 60
    assert _verdict("5", ok,
                    f"long-horizon monotone={long_ok} "
                    f"short-horizon interior dip at var={grid[dip]} "
                    f"{elapsed:.1f}s")


def _series_argmax(rate, budget, cost):
    k_top = math.floor(budget / cost + 1e-12)
    best_k, best = 1, -math.inf
    for k in range(1, k_top + 1):
        x = rate * max(budget - cost * k, 0.0) / math.e
        val = sum(x**i / math.factorial(i) for i in range(k + 1))
        if val > best:
            best_k, best = k, val
    return best_k


def test_criterion_06_capacity_regime_map():
    """Regime thresholds and exhaustive argmax agree over the rate sweep."""
    start = time.perf_counter()
    boundary_ok = abs(low_regime_threshold(15, 3) - 6 * math.e / 81) < 1e-9
    infinite_ok = high_regime_threshold(12, 3) == math.inf
    mismatches, previous = [], 0
    for i in range(1, 301):
        rate = i / 100
        decision = allocate_continuous(1.0, rate, 15, 3)
        if decision.k_star != _series_argmax(rate, 15, 3):
            mismatches.append(("argmax", rate))
        if decision.k_star < previous:
            mismatches.append(("monotonicity", rate))
        previous = decision.k_star
    elapsed = time.perf_counter() - start
    ok = boundary_ok and infinite_ok and not mismatches and elapsed < 60
    assert _verdict("6", ok,
                    f"boundary={boundary_ok} infinite={infinite_ok} "
                    f"mismatches={len(mismatches)} {elapsed:.1f}s"), mismatches[:5]


def test_criterion_07_discrete_regime_sweep():
    """Discrete split for uniform valuations walks capacity 1 up to 3."""
    start = time.perf_counter()
    ks = [allocate_discrete(UNI, round(0.05 * i, 2), 15, 3).k_star
          for i in range(1, 21)]
    elapsed = time.perf_counter() - start
    ok = (ks[0] == 1 and ks[-1] == 3
          and all(a <= b for a, b in zip(ks, ks[1:])) and elapsed < 60)
    assert _verdict("7", ok, f"k* path {ks} {elapsed:.1f}s")


def test_criterion_08_single_vehicle_routing_oracle():
    """Exhaustive routing never beats serving the single best hotspot."""
    start = time.perf_counter()
    rng = np.random.default_rng(271828)
    failures = []

    def run_instance(m):
        alphas = rng.uniform(0.15, 0.95, m)
        dists = rng.integers(1, 10, m).astype(float)
        pair = np.zeros((m, m))
        for i in range(m):
            for j in range(i + 1, m):
                lo, hi = abs(dists[i] - dists[j]), dists[i] + dists[j]
                pair[i, j] = pair[j, i] = float(rng.integers(int(lo), int(hi) + 1))
        fleet = FleetConfig(count=1,
                            initial_budget=float(rng.integers(14, 24)),
                            service_cost=float(rng.integers(1, 4)),
                            valuation=EXP1)
        spots = [Hotspot(float(a), d) for a, d in zip(alphas, dists)]
        oracle = route_oracle(spots, pair, fleet)
        single = best_single_hotspot(spots, fleet)
        if abs(oracle[2] - single.decision.profit) > 1e-9:
            failures.append((m, oracle, single))

    for _ in range(20):
        run_instance(2)
    for _ in range(10):
        run_instance(3)

    # bypass layout: the route to the busy far hotspot passes a sleepy one
    spots = [Hotspot(0.05, 4.0), Hotspot(0.95, 8.0)]
    pair = np.array([[0.0, 4.0], [4.0, 0.0]])
    fleet = FleetConfig(count=1, initial_budget=20.0, service_cost=2.0,
                        valuation=EXP1)
    oracle = route_oracle(spots, pair, fleet)
    single = best_single_hotspot(spots, fleet)
    if abs(oracle[2] - single.decision.profit) > 1e-9:
        failures.append(("bypass", oracle, single))

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600
    assert _verdict("8", ok,
                    f"31 instances, {len(failures)} mismatches, "
                    f"{elapsed:.1f}s"), failures[:3]


def _pooled_log_profit(alpha, avail, cost, group, lam):
    """Test-local pooled profit from raw factorial sums."""
    if group == 0 or avail <= 0:
        return 0.0
    best = 1.0
    for k in range(1, math.floor(group * avail / cost + 1e-12) + 1):
        t = max(avail - cost * k / group, 0.0)
        x = alpha * t / math.e
        best = max(best, sum(x**i / math.factorial(i) for i in range(k + 1)))
    return math.log(best) / lam


def test_criterion_09_forking():
    """Forking condition is sufficient; fleets spread as they grow."""
    start = time.perf_counter()
    rng = np.random.default_rng(161803)
    failures = []

    # sufficiency on random two-hotspot instances
    held = 0
    for trial in range(30):
        n = (2, 3, 5)[trial % 3]
        fleet = FleetConfig(count=n, initial_budget=20.0, service_cost=2.0,
                            valuation=EXP1)
        spots = [Hotspot(float(rng.uniform(0.2, 2.0)),
                         float(rng.uniform(1.0, 12.0))) for _ in range(2)]
        spots.sort(key=lambda h: -_pooled_log_profit(
            h.alpha, 20.0 - h.distance, 2.0, 1, 1.0))
        check = forking_condition(spots[0], spots[1], fleet, 1.0)
        if not check.holds:
            continue
        held += 1
        split_best, best_val = None, -math.inf
        for n1 in range(n + 1):
            value = (_pooled_log_profit(spots[0].alpha, 20.0 - spots[0].distance,
                                        2.0, n1, 1.0)
                     + _pooled_log_profit(spots[1].alpha, 20.0 - spots[1].distance,
                                          2.0, n - n1, 1.0))
            if value > best_val:
                split_best, best_val = n1, value
        if split_best in (0, n):
            failures.append(("sufficiency", trial, spots, check))

    # fixed hotspots, growing fleet: served count never shrinks
    growth_spots = [Hotspot(a, d) for a, d in
                    zip((0.9, 0.8, 0.35, 0.3, 0.25),
                        (5.0, 5.0, 9.0, 10.0, 11.0))]
    served = []
    for n in range(2, 10):
        fleet = FleetConfig(count=n, initial_budget=20.0, service_cost=2.0,
                            valuation=EXP1)
        served.append(optimal_deployment(growth_spots, fleet).profile.served())
    if not all(a <= b for a, b in zip(served, served[1:])):
        failures.append(("growth", served))

    # pushing the runner-up hotspot away flips forking into concentration
    def flip_profile(d2):
        spots = [Hotspot(a, d) for a, d in
                 zip((0.95, 0.30, 0.05, 0.04, 0.03),
                     (4.0, d2, 14.0, 15.0, 16.0))]
        fleet = FleetConfig(count=5, initial_budget=20.0, service_cost=2.0,
                            valuation=EXP1)
        return optimal_deployment(spots, fleet).profile.counts

    near, far = flip_profile(5.0), flip_profile(17.0)
    if not (near[0] > 0 and near[1] > 0):
        failures.append(("flip-near", near))
    if far != (5, 0, 0, 0, 0):
        failures.append(("flip-far", far))

    elapsed = time.perf_counter() - start
    ok = not failures and held >= 5 and elapsed < 300
    assert _verdict("9", ok,
                    f"{held}/30 instances forked, growth={served}, "
                    f"near={near} far={far}, {elapsed:.1f}s"), failures[:3]


def test_criterion_10_determinism_and_memoization(tmp_path):
    """Byte-identical reruns; memoized planner equals direct recomputation."""
    start = time.perf_counter()
    failures = []

    args = ["simulate", "--model", "exp", "--lambda", "1", "--alpha", "0.5",
            "--k", "2", "--T", "8", "--trials", "50000", "--seed", "424242"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    if a.read_bytes() != b.read_bytes():
        failures.append("simulate reruns differ")

    p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    price_args = ["price", "--model", "uniform", "--a", "5", "--b", "15",
                  "--alpha", "0.7", "--k", "3", "--T", "9"]
    assert cli.main(price_args + ["--out", str(p1)]) == 0
    assert cli.main(price_args + ["--out", str(p2)]) == 0
    if p1.read_bytes() != p2.read_bytes():
        failures.append("price reruns differ")

    rng = np.random.default_rng(55)
    for n in range(1, 5):
        for m in range(1, 5):
            spots = [Hotspot(float(rng.uniform(0.1, 0.95)),
                             float(rng.integers(1, 14)))
                     for _ in range(m)]
            fleet = FleetConfig(count=n, initial_budget=20.0, service_cost=2.0,
                                valuation=EXP1)
            plan = optimal_deployment(spots, fleet)
            best_total, best_counts = -math.inf, None
            for counts in compositions(n, [n] * m):
                if any(c > 0 and spots[i].distance >= 20.0
                       for i, c in enumerate(counts)):
                    continue
                # a plan for hotspot i alone seats c vehicles there
                total = sum(optimal_deployment([spots[i]], replace(fleet, count=c))
                            .per_hotspot[0].profit
                            for i, c in enumerate(counts) if c > 0)
                if total >= best_total:
                    best_total, best_counts = total, counts
            if (plan.profile.counts != best_counts
                    or abs(plan.total_profit - best_total) > 1e-12):
                failures.append((n, m, plan.profile.counts, best_counts))

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60
    assert _verdict("10", ok, f"{len(failures)} failures, {elapsed:.1f}s"), failures
