"""Monte-Carlo harness validating every expected-profit table in the package.

Trials replay the arrival-and-purchase process under a given price policy and
report the realized mean profit with its standard error; the dynamic-program
and closed-form values must sit within a few standard errors of it. The
discrete replay plays every price policy it is given on one set of draws, so
policies compared on one seed face identical buyers. The continuous replay
quotes closed-form prices only to trials that can still sell, both series
levels of a price coming from one pass of the log-space series kernel.

Randomness comes from numpy's PCG64 bit generator, recorded in each report.
Trials run in fixed-size chunks of ``CHUNK_TRIALS``; chunk i derives its own
child stream from (seed, i), so results are reproducible bit for bit and a
harness may farm chunks out to workers without changing the outcome.

Within a chunk, the continuous replay draws the Poisson counts first, then a
(size, top) matrix of arrival times and one of valuations, where top is the
chunk's largest count. It plays them in row blocks of ``BLOCK_ROWS`` trials:
the time matrix is the stream's next size * top doubles, read block by block
in order, and a copy of the generator advanced past it (PCG's jump-ahead)
reads the valuation matrix the same way. Each block gets the bits the whole
matrices would give it, so reports do not depend on the block height, and a
replay holds O(``BLOCK_ROWS`` * top) draws at a time however many trials run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pricing import PriceSchedule, _check_closed_form, _log_series_levels, build_pricing
from .valuations import ParameterError, ValuationModel

GENERATOR_ID = "numpy-pcg64"
CHUNK_TRIALS = 250_000
BLOCK_ROWS = 16_384


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    mean_profit: float
    std_error: float
    served_histogram: tuple[int, ...]
    seed: int
    generator: str = GENERATOR_ID


@dataclass(frozen=True)
class RegretReport:
    """Optimal-policy and fixed-price means on common random numbers."""

    optimal_mean: float
    fixed_price_mean: float
    paired_std_error: float
    trials: int
    seed: int


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


def _chunk_sizes(trials: int):
    full, rest = divmod(trials, CHUNK_TRIALS)
    sizes = [CHUNK_TRIALS] * full
    if rest:
        sizes.append(rest)
    return sizes


def _report(profits: np.ndarray, served: np.ndarray, capacity: int,
            seed: int) -> SimulationReport:
    n = profits.size
    mean = float(profits.mean())
    se = float(profits.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    hist = np.bincount(served, minlength=capacity + 1)
    return SimulationReport(trials=n, mean_profit=mean, std_error=se,
                            served_histogram=tuple(int(c) for c in hist),
                            seed=seed)


# -- discrete-time simulation --------------------------------------------------


def _run_discrete(model: ValuationModel, alpha: float, price_lookups: list[np.ndarray],
                  capacity: int, horizon: int, trials: int, seed: int):
    """Play the slot-by-slot process under each price policy on one draw stream.

    Returns (policies, trials) arrays of profits and served counts.
    ``price_lookups[i][j, t]`` must be finite wherever a sale is possible; row
    0 is forced unsellable. Arrival and valuation draws are consumed for every
    trial in every slot, whatever the policies sell, so the draws, and each
    policy's result, do not depend on which other policies are played
    alongside (common random numbers).
    """
    lookups = []
    for prices in price_lookups:
        lookup = prices.copy()
        lookup[0, :] = np.inf  # exhausted capacity never sells
        lookup[np.isnan(lookup)] = np.inf
        lookups.append(lookup)

    profits = np.empty((len(lookups), trials))
    served = np.empty((len(lookups), trials), dtype=np.int64)
    pos = 0
    for idx, size in enumerate(_chunk_sizes(trials)):
        rng = _chunk_rng(seed, idx)
        j = [np.full(size, capacity, dtype=np.int64) for _ in lookups]
        gain = [np.zeros(size) for _ in lookups]
        for t in range(horizon, 0, -1):
            arrive = rng.random(size) < alpha
            v = model.sample(rng.random(size))
            for i, lookup in enumerate(lookups):
                jj = np.minimum(j[i], t)  # spare units beyond the time left are dead
                price = lookup[jj, t]
                sale = arrive & (jj > 0) & (v >= price)
                gain[i] = np.where(sale, gain[i] + price, gain[i])
                j[i] = j[i] - sale
        profits[:, pos:pos + size] = gain
        served[:, pos:pos + size] = capacity - np.array(j)
        pos += size
    return profits, served


def simulate_discrete(model: ValuationModel, alpha: float, schedule: PriceSchedule,
                      capacity: int, horizon: int, trials: int,
                      seed: int) -> SimulationReport:
    """Estimate realized profit under a posted-price schedule.

    Per trial, time counts down from the horizon; each slot holds a buyer with
    probability alpha whose valuation is drawn by inverse CDF, and a sale
    happens when it reaches the scheduled price for the current leftover
    capacity. Deterministic given the seed.
    """
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"occurrence probability must lie in [0, 1], got {alpha}")
    if schedule.capacity != capacity or schedule.horizon != horizon:
        raise ParameterError(
            f"schedule built for (k={schedule.capacity}, T={schedule.horizon}), "
            f"asked to simulate (k={capacity}, T={horizon})"
        )
    (profits,), (served,) = _run_discrete(model, alpha, [schedule.prices],
                                          capacity, horizon, trials, seed)
    return _report(profits, served, capacity, seed)


def simulate_policy_regret(model: ValuationModel, alpha: float, capacity: int,
                           horizon: int, trials: int, seed: int,
                           constant_price: float) -> RegretReport:
    """Optimal schedule versus one flat price on common random numbers.

    Both policies are played on the same arrival and valuation draws, so the
    paired standard error reflects only the policy difference.
    """
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    if math.isnan(constant_price):
        raise ParameterError("constant price must be a number, got nan")
    schedule, _ = build_pricing(model, alpha, capacity, horizon)
    flat = np.full_like(schedule.prices, float(constant_price))
    (opt, fixed), _ = _run_discrete(model, alpha, [schedule.prices, flat],
                                    capacity, horizon, trials, seed)
    diff = opt - fixed
    paired_se = float(diff.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return RegretReport(optimal_mean=float(opt.mean()),
                        fixed_price_mean=float(fixed.mean()),
                        paired_std_error=paired_se, trials=trials, seed=seed)


# -- continuous-time simulation -------------------------------------------------


def _play_block(lam: float, arrival_rate: float, capacity: int, horizon: float,
                counts: np.ndarray, neg_t: np.ndarray, u: np.ndarray):
    """Play one row block of a chunk; returns its profits and units left.

    ``neg_t`` holds the block's uniform time draws and ``u`` its valuation
    draws, row i for a trial with ``counts[i]`` arrivals; ``neg_t`` is
    overwritten.
    """
    # Arrival instants of a Poisson stream on [0, T] are uniform, so
    # remaining times are too; sorting their negations plays them in
    # order, with the +inf padding past each row's count last.
    # Valuations are i.i.d. and independent of the times, so pairing
    # column r of the draws with the r-th sorted time is sound.
    top = neg_t.shape[1]
    neg_t *= -horizon
    neg_t[np.arange(top) >= counts[:, None]] = np.inf
    neg_t.sort(axis=1)
    gain = np.zeros(counts.size)
    j = np.full(counts.size, capacity, dtype=np.int64)
    rows = np.arange(counts.size)
    for r in range(top):
        # Times fall along a row and capacity never grows, so a row that
        # cannot sell in this column cannot in a later one either.
        t = -neg_t[rows, r]
        keep = (t > 0.0) & (j[rows] > 0)
        rows, t = rows[keep], t[keep]
        if rows.size == 0:
            break
        log_k, log_less = _log_series_levels(arrival_rate * t / math.e, j[rows])
        price = (1.0 + log_k - log_less) / lam
        # Inverse-CDF valuations, drawn up front but transformed only
        # when quoted: log1p is elementwise, so each quoted entry gets
        # the bits a whole-array transform would give it.
        sale = -np.log1p(-u[rows, r]) / lam >= price
        sold = rows[sale]
        gain[sold] += price[sale]
        j[sold] -= 1
    return gain, j


def simulate_continuous(lam: float, arrival_rate: float, capacity: int,
                        horizon: float, trials: int, seed: int) -> SimulationReport:
    """Estimate realized profit under the continuous closed-form prices.

    Per trial, a Poisson number of buyers arrive at uniform times; they are
    served in arrival order (decreasing time remaining), each quoted the
    closed-form price at their remaining time and the current leftover
    capacity. An arrival with exactly zero time left is discarded: nothing
    can be priced in zero remaining time, and the event has measure zero.

    All draws are made before a block is played, so skipping trials changes
    no sale: each arrival column quotes only the trials that can still sell,
    with log S_j and log S_{j-1} from one series pass, and play stops once
    none can. The mean arrival count ``arrival_rate * horizon`` must be finite
    and within numpy's Poisson range (about 9.2e18).
    """
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    _check_closed_form(lam, arrival_rate, capacity, horizon)
    mean_count = arrival_rate * horizon
    int64_max = np.iinfo(np.int64).max
    if not mean_count <= int64_max - 10 * math.sqrt(int64_max):
        raise ParameterError(
            f"mean arrival count arrival_rate * horizon must be finite and at "
            f"most about 9.2e18, got {mean_count}")

    profits = np.empty(trials)
    served = np.empty(trials, dtype=np.int64)
    pos = 0
    for idx, size in enumerate(_chunk_sizes(trials)):
        rng = _chunk_rng(seed, idx)
        counts = rng.poisson(mean_count, size)
        top = int(counts.max())
        # One double per 64-bit output: the time matrix is the stream's next
        # size * top doubles in row order, and the valuation matrix the
        # size * top after those.
        jumped = np.random.PCG64()
        jumped.state = rng.bit_generator.state
        val_rng = np.random.Generator(jumped.advance(size * top))
        height = min(BLOCK_ROWS, size)
        time_buf, val_buf = np.empty((height, top)), np.empty((height, top))
        for a in range(0, size, BLOCK_ROWS):
            b = min(a + BLOCK_ROWS, size)
            neg_t, u = time_buf[:b - a], val_buf[:b - a]
            rng.random(out=neg_t)
            val_rng.random(out=u)
            gain, j = _play_block(lam, arrival_rate, capacity, horizon,
                                  counts[a:b], neg_t, u)
            profits[pos + a:pos + b] = gain
            served[pos + a:pos + b] = capacity - j
        pos += size
    return _report(profits, served, capacity, seed)
