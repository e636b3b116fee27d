"""Monte-Carlo harness: determinism, capacity bookkeeping, oracle agreement."""

import math
import tracemalloc

import numpy as np
import pytest

from uavps import simulator
from uavps.pricing import _log_series, build_pricing, expected_profit_closed_form
from uavps.simulator import (RegretReport, simulate_continuous, simulate_discrete,
                             simulate_policy_regret)
from uavps.valuations import ValuationModel

EXP1 = ValuationModel.exponential(1.0)
UNI = ValuationModel.uniform(5.0, 15.0)


def test_no_demand_gives_zero():
    schedule, _ = build_pricing(EXP1, 0.0, 2, 5)
    report = simulate_discrete(EXP1, 0.0, schedule, 2, 5, 1000, seed=1)
    assert report.mean_profit == 0.0
    assert report.std_error == 0.0
    assert report.served_histogram == (1000, 0, 0)


def test_dimension_mismatch_rejected():
    schedule, _ = build_pricing(EXP1, 0.5, 2, 5)
    with pytest.raises(ValueError):
        simulate_discrete(EXP1, 0.5, schedule, 3, 5, 100, seed=1)
    with pytest.raises(ValueError):
        simulate_discrete(EXP1, 0.5, schedule, 2, 5, 0, seed=1)


def test_determinism_bit_for_bit():
    schedule, _ = build_pricing(UNI, 0.6, 2, 8)
    a = simulate_discrete(UNI, 0.6, schedule, 2, 8, 40_000, seed=123)
    b = simulate_discrete(UNI, 0.6, schedule, 2, 8, 40_000, seed=123)
    assert a == b
    c = simulate_discrete(UNI, 0.6, schedule, 2, 8, 40_000, seed=124)
    assert c.mean_profit != a.mean_profit

    x = simulate_continuous(1.0, 1.0, 2, 3.0, 40_000, seed=5)
    y = simulate_continuous(1.0, 1.0, 2, 3.0, 40_000, seed=5)
    assert x == y


def test_chunking_is_transparent():
    # crossing the chunk boundary must not disturb earlier trials' draws
    from uavps import simulator

    schedule, _ = build_pricing(EXP1, 0.5, 1, 4)
    small = simulate_discrete(EXP1, 0.5, schedule, 1, 4,
                              simulator.CHUNK_TRIALS // 100, seed=9)
    assert small.trials == simulator.CHUNK_TRIALS // 100


def test_discrete_agrees_with_table():
    for model, alpha, k, T, target in [
        (EXP1, 0.5, 1, 2, None),
        (EXP1, 0.8, 3, 10, None),
        (UNI, 0.4, 2, 6, None),
    ]:
        schedule, table = build_pricing(model, alpha, k, T)
        report = simulate_discrete(model, alpha, schedule, k, T, 10**5, seed=42)
        assert abs(report.mean_profit - table.final()) <= 3 * report.std_error
        assert sum(report.served_histogram) == report.trials
        assert len(report.served_histogram) == k + 1


def test_discrete_handles_capacity_beyond_horizon():
    # spare units beyond the time left can never sell
    schedule, table = build_pricing(EXP1, 0.7, 3, 2)
    report = simulate_discrete(EXP1, 0.7, schedule, 3, 2, 2 * 10**5, seed=8)
    assert report.served_histogram[3] == 0
    assert abs(report.mean_profit - table.final()) <= 3 * report.std_error


def test_continuous_agrees_with_closed_form():
    for rate, k, T in [(1.0, 1, math.e), (1.0, 2, math.e), (0.5, 3, 5.0)]:
        exact = expected_profit_closed_form(1.0, rate, k, T)
        report = simulate_continuous(1.0, rate, k, T, 2 * 10**5, seed=11)
        assert abs(report.mean_profit - exact) <= 3 * report.std_error
        assert max(i for i, c in enumerate(report.served_histogram) if c) <= k


def test_continuous_zero_horizon():
    report = simulate_continuous(1.0, 1.0, 2, 0.0, 1000, seed=3)
    assert report.mean_profit == 0.0


def test_regret_collapses_when_prices_coincide():
    # single slot, single unit: the optimal price is flat by construction
    schedule, _ = build_pricing(EXP1, 0.5, 1, 1)
    flat = schedule.price(1, 1)
    rr = simulate_policy_regret(EXP1, 0.5, 1, 1, 20_000, 17, constant_price=flat)
    assert rr.optimal_mean == rr.fixed_price_mean
    assert rr.paired_std_error == 0.0


@pytest.mark.parametrize("model,alpha,k,T,flat", [
    (EXP1, 0.8, 2, 10, 1.0),
    (UNI, 0.5, 1, 5, 7.5),
])
def test_flat_pricing_never_beats_schedule(model, alpha, k, T, flat):
    rr = simulate_policy_regret(model, alpha, k, T, 10**5, 23, constant_price=flat)
    assert rr.fixed_price_mean <= rr.optimal_mean + 3 * rr.paired_std_error


def _discrete_oracle(model, alpha, price_lookup, capacity, horizon, trials, seed):
    """The former single-policy slot loop: one replay of the seed per policy."""
    profits = np.empty(trials)
    served = np.empty(trials, dtype=np.int64)
    lookup = price_lookup.copy()
    lookup[0, :] = np.inf
    lookup[np.isnan(lookup)] = np.inf

    pos = 0
    for idx, size in enumerate(simulator._chunk_sizes(trials)):
        rng = simulator._chunk_rng(seed, idx)
        j = np.full(size, capacity, dtype=np.int64)
        gain = np.zeros(size)
        for t in range(horizon, 0, -1):
            arrive = rng.random(size) < alpha
            v = model.sample(rng.random(size))
            jj = np.minimum(j, t)
            price = lookup[jj, t]
            sale = arrive & (jj > 0) & (v >= price)
            gain = np.where(sale, gain + price, gain)
            j = j - sale
        profits[pos:pos + size] = gain
        served[pos:pos + size] = capacity - j
        pos += size
    return profits, served


@pytest.mark.parametrize("model, alpha, k, T, trials, seed, flat", [
    (EXP1, 0.8, 2, 10, 30_000, 23, 1.0),
    (UNI, 0.5, 1, 5, 20_000, 23, 7.5),
    (EXP1, 0.7, 3, 2, 5_000, 8, 0.5),  # capacity beyond the horizon
    (UNI, 0.9, 4, 12, 2, 3, math.inf),  # the flat policy never sells
    (EXP1, 0.3, 2, 7, 1, 3, 0.0),
    (EXP1, 0.5, 1, 3, simulator.CHUNK_TRIALS + 17, 5, 1.2),
])
def test_discrete_replays_match_slot_oracle(model, alpha, k, T, trials, seed, flat):
    schedule, _ = build_pricing(model, alpha, k, T)
    opt, served = _discrete_oracle(model, alpha, schedule.prices, k, T, trials, seed)
    assert simulate_discrete(model, alpha, schedule, k, T, trials, seed) == simulator._report(
        opt, served, k, seed)

    fixed, _ = _discrete_oracle(model, alpha, np.full_like(schedule.prices, flat), k, T,
                                trials, seed)
    diff = opt - fixed
    assert simulate_policy_regret(model, alpha, k, T, trials, seed, flat) == RegretReport(
        optimal_mean=float(opt.mean()), fixed_price_mean=float(fixed.mean()),
        paired_std_error=float(diff.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0,
        trials=trials, seed=seed)


def _continuous_oracle(lam, arrival_rate, capacity, horizon, trials, seed):
    """The former column loop: every row scanned in every column, the draws
    transformed up front, and a separate series call for each level."""
    profits = np.empty(trials)
    served = np.empty(trials, dtype=np.int64)
    pos = 0
    for idx, size in enumerate(simulator._chunk_sizes(trials)):
        rng = simulator._chunk_rng(seed, idx)
        counts = rng.poisson(arrival_rate * horizon, size)
        top = int(counts.max())
        gain = np.zeros(size)
        j = np.full(size, capacity, dtype=np.int64)
        live = np.arange(top) < counts[:, None]
        t_rem = np.where(live, rng.random((size, top)) * horizon, -np.inf)
        t_rem = -np.sort(-t_rem, axis=1)
        v = -np.log1p(-rng.random((size, top))) / lam
        for r in range(top):
            t = t_rem[:, r]
            rows = np.flatnonzero((t > 0.0) & (j > 0))
            if rows.size == 0:
                break
            left = j[rows]
            logs = _log_series(arrival_rate * t[rows] / math.e,
                               np.stack((left, left - 1)))
            price = (1.0 + logs[0] - logs[1]) / lam
            sale = v[rows, r] >= price
            sold = rows[sale]
            gain[sold] += price[sale]
            j[sold] -= 1
        profits[pos:pos + size] = gain
        served[pos:pos + size] = capacity - j
        pos += size
    return simulator._report(profits, served, capacity, seed)


@pytest.mark.parametrize("lam, rate, k, T, trials, seed", [
    (1.0, 1.0, 1, math.e, 50_000, 1),
    (2.0, 0.5, 1, 5.0, 20_000, 2),
    (1.0, 2.0, 20, 5.0, 100_000, 3),
    (1.0, 40.0, 40, 3.0, 5_000, 4),  # series past the 16- and 32-term rescale checks
    (1.0, 200.0, 120, 5.0, 50, 8),  # sums past 1e100 move into the log offset
    (0.5, 3.0, 4, 0.0, 1_000, 5),
    (1.0, 0.5, 2, 1.0, simulator.CHUNK_TRIALS + 1_000, 6),
    (1.0, 1.0, 3, 2.0, 1, 7),
    (1.0, 2.0, 20, 5.0, 2 * simulator.BLOCK_ROWS + 17, 9),
    # the last block of each chunk is partial
    (1.0, 0.5, 3, 1.0, simulator.CHUNK_TRIALS + simulator.BLOCK_ROWS + 3, 10),
])
def test_continuous_matches_column_oracle(lam, rate, k, T, trials, seed):
    assert simulate_continuous(lam, rate, k, T, trials, seed) == _continuous_oracle(
        lam, rate, k, T, trials, seed)


@pytest.mark.parametrize("lam, rate, k, T, trials, seed", [
    (1.0, 1.0, 1, math.e, 1_000, 1),
    (1.0, 2.0, 20, 5.0, 703, 3),
    (1.0, 40.0, 40, 3.0, 60, 4),
    (0.5, 3.0, 4, 0.0, 100, 5),
    (1.0, 1.0, 3, 2.0, 1, 7),
])
def test_continuous_block_height_is_invisible(monkeypatch, lam, rate, k, T, trials, seed):
    monkeypatch.setattr(simulator, "BLOCK_ROWS", 7)
    assert simulate_continuous(lam, rate, k, T, trials, seed) == _continuous_oracle(
        lam, rate, k, T, trials, seed)


def test_continuous_replay_memory_is_bounded():
    # rate * T = 100 over one full chunk: the whole (trials, top) draw
    # matrices took about 628 MiB, one block of them takes a few tens.
    tracemalloc.start()
    try:
        simulate_continuous(1.0, 20.0, 1, 5.0, 250_000, seed=31)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
