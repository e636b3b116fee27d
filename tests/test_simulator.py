"""Monte-Carlo harness: determinism, capacity bookkeeping, oracle agreement."""

import functools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from uavps import simulator
from uavps.pricing import (PriceSchedule, _log_series, build_pricing,
                           expected_profit_closed_form)
from uavps.simulator import (RegretReport, simulate_continuous, simulate_discrete,
                             simulate_policy_regret)
from uavps.valuations import ParameterError, ValuationModel

EXP1 = ValuationModel.exponential(1.0)
UNI = ValuationModel.uniform(5.0, 15.0)


@pytest.fixture(params=[1, 2, 3])
def workers(request, monkeypatch):
    """Chunks tiled into 1, 2 or 3 trial ranges, each as small as one trial."""
    monkeypatch.setattr(simulator, "WORKERS", request.param)
    monkeypatch.setattr(simulator, "SHARE_TRIALS", 1)
    return request.param


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


@pytest.mark.parametrize("alphas", [3, 10])
def test_discrete_replay_rejects_a_batched_schedule(alphas):
    # A 1-d alpha's (k + 1, T + 1, alphas) prices passed the k/T check, then
    # raised IndexError at 3 alphas and reported mean_profit 0.0 at 10.
    schedule, _ = build_pricing(EXP1, np.linspace(0.1, 0.9, alphas), 2, 5)
    with pytest.raises(ParameterError, match="shape"):
        simulate_discrete(EXP1, 0.5, schedule, 2, 5, 100, seed=1)


@pytest.mark.parametrize("alpha", [[0.5], np.array([0.4, 0.6])])
def test_discrete_replay_rejects_a_batched_alpha(alpha):
    # A list raised TypeError, an array numpy's ambiguous-truth ValueError.
    schedule, _ = build_pricing(EXP1, 0.5, 2, 5)
    with pytest.raises(ParameterError, match="one occurrence probability"):
        simulate_discrete(EXP1, alpha, schedule, 2, 5, 100, seed=1)


@pytest.mark.parametrize("alpha", [[0.5], np.array([0.4, 0.6])])
def test_regret_replay_rejects_a_batched_alpha(alpha):
    # Raised IndexError or numpy's broadcast ValueError deep in the replay.
    with pytest.raises(ParameterError, match="one occurrence probability"):
        simulate_policy_regret(EXP1, alpha, 2, 5, 100, 1, 1.0)


@pytest.mark.parametrize("rate, horizon", [(1e13, 1.0), (1.0, math.inf), (math.inf, 0.0)])
def test_continuous_replay_rejects_series_arguments_past_1e12(rate, horizon):
    # Rate 1e13 used to ask numpy for 728 TiB of draws and raise MemoryError.
    with pytest.raises(ParameterError, match="series argument"):
        simulate_continuous(1.0, rate, 2, horizon, 10, 1)


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


def test_chunking_is_transparent(monkeypatch):
    # crossing the chunk boundary must not disturb earlier trials' draws
    monkeypatch.setattr(simulator, "CHUNK_TRIALS", 1_000)
    schedule, _ = build_pricing(EXP1, 0.5, 1, 4)
    two = simulator._run_discrete(EXP1, 0.5, [schedule.prices], 1, 4, 2_000, 9)
    more = simulator._run_discrete(EXP1, 0.5, [schedule.prices], 1, 4, 2_345, 9)
    for whole, longer in zip(two, more):
        assert longer.shape == (1, 2_345)
        assert np.array_equal(whole, longer[:, :2_000])
    assert 0 < np.count_nonzero(two[1]) < 2_000
    assert simulate_discrete(EXP1, 0.5, schedule, 1, 4, 2_345, seed=9).trials == 2_345


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


@pytest.mark.parametrize("cells", [[(1, 3)], [(2, 2), (1, 5), (3, 6)], "all"])
def test_discrete_replay_reads_a_nan_price_as_one_that_never_sells(workers, cells):
    # v >= NaN never holds, and the sum skips a price it does not sell at.
    schedule, _ = build_pricing(EXP1, 0.6, 3, 6)
    nan, inf = schedule.prices.copy(), schedule.prices.copy()
    for j, t in (np.argwhere(np.isfinite(nan)) if cells == "all" else cells):
        nan[j, t], inf[j, t] = math.nan, math.inf
    reports = [simulate_discrete(EXP1, 0.6, PriceSchedule(3, 6, prices), 3, 6, 3_000, seed=5)
               for prices in (nan, inf)]
    assert reports[0] == reports[1]


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

    for pos in range(0, trials, simulator.CHUNK_TRIALS):
        size = min(simulator.CHUNK_TRIALS, trials - pos)
        rng = simulator._chunk_rng(seed, pos // simulator.CHUNK_TRIALS)
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
    return profits, served


@functools.cache
def _discrete_reports(model, alpha, k, T, trials, seed, flat):
    """The slot oracle's simulate_discrete and simulate_policy_regret reports."""
    schedule, _ = build_pricing(model, alpha, k, T)
    opt, served = _discrete_oracle(model, alpha, schedule.prices, k, T, trials, seed)
    fixed, _ = _discrete_oracle(model, alpha, np.full_like(schedule.prices, flat), k, T,
                                trials, seed)
    diff = opt - fixed
    return schedule, simulator._report(opt, served, k, seed), RegretReport(
        optimal_mean=float(opt.mean()), fixed_price_mean=float(fixed.mean()),
        paired_std_error=float(diff.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0,
        trials=trials, seed=seed)


@pytest.mark.parametrize("model, alpha, k, T, trials, seed, flat", [
    (EXP1, 0.8, 2, 10, 30_000, 23, 1.0),
    (UNI, 0.5, 1, 5, 20_000, 23, 7.5),
    (EXP1, 0.7, 3, 2, 5_000, 8, 0.5),  # capacity beyond the horizon
    (UNI, 0.9, 4, 12, 2, 3, math.inf),  # the flat policy never sells
    (EXP1, 0.3, 2, 7, 1, 3, 0.0),
    (EXP1, 0.5, 1, 3, simulator.CHUNK_TRIALS + 17, 5, 1.2),
])
def test_discrete_replays_match_slot_oracle(workers, model, alpha, k, T, trials, seed, flat):
    # With 2 or 3 shares, 20 000, 5 000 and the 17-trial last chunk split
    # unevenly, and 2 trials make fewer shares than 3 workers.
    schedule, report, regret = _discrete_reports(model, alpha, k, T, trials, seed, flat)
    assert simulate_discrete(model, alpha, schedule, k, T, trials, seed) == report
    assert simulate_policy_regret(model, alpha, k, T, trials, seed, flat) == regret


@functools.cache
def _continuous_oracle(lam, arrival_rate, capacity, horizon, trials, seed):
    """The former column loop: every row scanned in every column, the draws
    transformed up front, and a separate series call for each level."""
    profits = np.empty(trials)
    served = np.empty(trials, dtype=np.int64)
    for pos in range(0, trials, simulator.CHUNK_TRIALS):
        size = min(simulator.CHUNK_TRIALS, trials - pos)
        rng = simulator._chunk_rng(seed, pos // simulator.CHUNK_TRIALS)
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
    # At top 25, three blocks per range, the last partial; then two blocks
    # per range in the first chunk and one in the second, each range ending
    # in a partial block (checked by the next test).
    (1.0, 2.0, 20, 5.0, 100_017, 9),
    (1.0, 0.5, 3, 1.0, simulator.CHUNK_TRIALS + 16_387, 10),
])
def test_continuous_matches_column_oracle(workers, lam, rate, k, T, trials, seed):
    assert simulate_continuous(lam, rate, k, T, trials, seed) == _continuous_oracle(
        lam, rate, k, T, trials, seed)


@pytest.mark.parametrize("shares", [1, 2, 3])
@pytest.mark.parametrize("rate, T, trials, seed, cells", [
    (2.0, 5.0, 100_017, 9, simulator.BLOCK_CELLS),
    (0.5, 1.0, simulator.CHUNK_TRIALS + 16_387, 10, simulator.BLOCK_CELLS),
    (1.0, math.e, 1_000, 1, 2**12),
    (2.0, 5.0, 703, 3, 2**12),
    (40.0, 3.0, 60, 4, 2**12),
])
def test_block_cases_end_in_partial_blocks(shares, rate, T, trials, seed, cells):
    # The block cases above, cut as the replay cuts them: each range ends in
    # a partial block, and in the first chunk spans several blocks.
    for i, pos in enumerate(range(0, trials, simulator.CHUNK_TRIALS)):
        size = min(simulator.CHUNK_TRIALS, trials - pos)
        top = simulator._chunk_rng(seed, i).poisson(rate * T, size).max()
        rows = cells // (shares * top)
        cuts = [size * n // shares for n in range(shares + 1)]
        for a, b in zip(cuts, cuts[1:]):
            assert (b - a) % rows and (i or b - a > rows)


@pytest.mark.parametrize("lam, rate, k, T, trials, seed", [
    (1.0, 1.0, 1, math.e, 1_000, 1),
    (1.0, 2.0, 20, 5.0, 703, 3),
    (1.0, 40.0, 40, 3.0, 60, 4),
    (0.5, 3.0, 4, 0.0, 100, 5),
    (1.0, 1.0, 3, 2.0, 1, 7),
])
def test_continuous_block_height_is_invisible(monkeypatch, workers, lam, rate, k, T, trials,
                                              seed):
    # At 2^12 cells, ranges of 333 or 334 and 234 or 235 trials play three
    # or four blocks of 9 to 409 rows, the last partial (test above).
    monkeypatch.setattr(simulator, "BLOCK_CELLS", 2**12)
    assert simulate_continuous(lam, rate, k, T, trials, seed) == _continuous_oracle(
        lam, rate, k, T, trials, seed)


def _quote_every_block_row(lam, rate, capacity, horizon, counts, neg_t, u):
    """One row block played with every live row quoted, whatever its valuation."""
    top = neg_t.shape[1]
    t_rem = -np.sort(-np.where(np.arange(top) < counts[:, None], neg_t * horizon, -np.inf), axis=1)
    gain, j = np.zeros(counts.size), np.full(counts.size, capacity, dtype=np.int64)
    for r in range(top):
        rows = np.flatnonzero((t_rem[:, r] > 0.0) & (j > 0))
        log_k, log_less = _log_series(rate * t_rem[rows, r] / math.e, j[rows], below=True)
        price = (1.0 + log_k - log_less) / lam
        sale = -np.log1p(-u[rows, r]) / lam >= price
        gain[rows[sale]] += price[sale]
        j[rows[sale]] -= 1
    return gain, j


def _nearest_draws(lam, value):
    """The valuation draws whose valuations are nearest below and nearest at
    or above ``value``."""
    u0 = -math.expm1(-value * lam)
    u = u0 + np.arange(-300, 300) * np.spacing(u0)
    v = -np.log1p(-u) / lam
    return u[v < value].max(), u[v >= value].min()


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_continuous_sales_unchanged_at_the_quote_floor(lam):
    # Valuations next to the quote floor (1 - m) / lam and next to 1/lam. At
    # capacity 30 and x = a' t / e < 0.2, x^j / j! vanishes against 1 and the
    # price is 1/lam exactly, so a buyer valued 1/lam buys and the one below
    # does not.
    rate, capacity, horizon = 0.5, 30, 1.0
    quote_floor = (1.0 - 1e-9 - 1e-12 * rate * horizon / math.e) / lam
    draws = _nearest_draws(lam, quote_floor) + _nearest_draws(lam, 1.0 / lam)
    below, above = (-np.log1p(-np.array(draws[:2])) / lam).tolist()
    assert below < quote_floor <= above and above - below <= 4 * np.spacing(quote_floor)
    rng = np.random.default_rng(3)
    u = rng.choice(draws, (64, 6))
    counts = rng.integers(0, 7, 64)
    neg_t = rng.random((64, 6))
    want = _quote_every_block_row(lam, rate, capacity, horizon, counts, neg_t, u)
    got = simulator._play_block(lam, rate, capacity, horizon, counts, neg_t.copy(), u)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert 0 < np.count_nonzero(want[0]) < np.count_nonzero(counts)


def test_continuous_replay_memory_is_bounded(monkeypatch):
    # rate * T = 100 over one full chunk, played as two ranges at once: the
    # whole (trials, top) draw matrices took about 628 MiB, and the blocks
    # in flight take at most 2 * BLOCK_CELLS draws, 16 MiB. At rate * T =
    # 0.5 (top 6) a block holds about 87 000 rows, and the play's per-row
    # arrays grow with them.
    monkeypatch.setattr(simulator, "WORKERS", 2)
    for rate, k, T in ((20.0, 1, 5.0), (0.5, 3, 1.0)):
        tracemalloc.start()
        try:
            simulate_continuous(1.0, rate, k, T, 250_000, seed=31)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def test_more_shares_than_cpus_switching_often_give_the_serial_reports(monkeypatch):
    # A lost or misplaced write of one share's results would change a report.
    schedule, _ = build_pricing(UNI, 0.6, 3, 8)

    def run():
        return (simulate_continuous(1.0, 2.0, 3, 5.0, 5_000, seed=12),
                simulate_discrete(UNI, 0.6, schedule, 3, 8, 5_000, seed=12),
                simulate_policy_regret(UNI, 0.6, 3, 8, 5_000, 12, 10.0))

    monkeypatch.setattr(simulator, "WORKERS", 1)
    serial = run()
    monkeypatch.setattr(simulator, "WORKERS", 8)
    monkeypatch.setattr(simulator, "SHARE_TRIALS", 1)
    monkeypatch.setattr(simulator, "BLOCK_CELLS", 2**13)  # 14 blocks of 46 rows per range
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run() == serial
    finally:
        sys.setswitchinterval(interval)


class _BlockFailed(Exception):
    pass


@pytest.mark.parametrize("on_caller", [True, False])
def test_failing_block_raises_and_leaves_no_thread(monkeypatch, on_caller):
    # One block fails, on the calling thread's range or on a worker's.
    monkeypatch.setattr(simulator, "WORKERS", 3)
    monkeypatch.setattr(simulator, "SHARE_TRIALS", 1)
    monkeypatch.setattr(simulator, "BLOCK_CELLS", 2**9)  # 15 blocks of 7 rows per range
    play, lock, failed = simulator._play_block, threading.Lock(), []

    def play_block(*args):
        with lock:
            if not failed and (threading.current_thread() is threading.main_thread()) == on_caller:
                failed.append(threading.current_thread().name)
                raise _BlockFailed
        return play(*args)

    monkeypatch.setattr(simulator, "_play_block", play_block)
    before = threading.active_count()
    with pytest.raises(_BlockFailed):
        simulate_continuous(1.0, 2.0, 3, 5.0, 300, seed=1)
    assert threading.active_count() == before
    assert len(failed) == 1
