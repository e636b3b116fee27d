"""Monte-Carlo harness validating every expected-profit table in the package.

Trials replay the arrival-and-purchase process under a given price policy and
report the realized mean profit with its standard error; the dynamic-program
and closed-form values must sit within a few standard errors of it. The
discrete replay plays every price policy it is given on one set of draws, so
policies compared on one seed face identical buyers. The continuous replay
quotes ``pricing._closed_form_price`` only to trials that can still sell.

Randomness comes from numpy's PCG64 bit generator, recorded in each report.
Trials run in fixed-size chunks of ``CHUNK_TRIALS``; chunk i derives its own
child stream from (seed, i), so results are reproducible bit for bit and a
harness may farm chunks out to workers without changing the outcome.

``_replay`` alone owns chunks, shares and threads; each replay gives it a
chunk's up-front draws and the play of a trial range. It splits each chunk
into ``WORKERS`` near-equal trial ranges, its shares, one per CPU in the
process's affinity mask, and plays them at once: the calling thread plays
the first and one thread each the others, all joined before the call
returns. A share reads exactly the doubles a serial replay gives its trials,
through a copy of the chunk's generator advanced to them (PCG's jump-ahead),
so reports do not depend on the CPU count; ``taskset -c 0`` plays the whole
chunk on one CPU, with no thread. A chunk of fewer than 2 * ``SHARE_TRIALS``
trials is one share: numpy holds the interpreter lock between its calls, and
on smaller shares the threads would spend more waiting for it than they save.

A valuation draw, a double in [0, 1), becomes a valuation through the model's
unchecked inverse CDF, ``ValuationModel._quantile``. In the discrete replay,
each slot reads the chunk's arrival draws and then its valuation draws, one
double per trial; a share [a, b) reads its b - a of each and jumps over the
rest. The continuous replay draws the Poisson counts first, then a (size, top)
matrix of arrival times and one of valuations, where top is the chunk's
largest count: the time matrix is the stream's next size * top doubles and the
valuation matrix the size * top after those. A share plays its rows in blocks
of ``BLOCK_CELLS`` / (shares * top) rows, the one block budget, reading each
block's draws in order into buffers it allocates once. Each block gets the
bits the whole matrices would give it, so reports do not depend on the block
height either. A replay holds at most 2 * ``BLOCK_CELLS`` draws at a time,
however many trials and CPUs run, unless a single row is past that share of
the cap; then each share holds one row. At low load a block holds more rows,
and the play's per-row arrays grow with them: a 250 000-trial chunk on two
CPUs peaks at about 28 MiB under ``tracemalloc`` at rate * T = 0.5, against
23 MiB at rate * T = 100.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .pricing import PriceSchedule, _closed_form_args, _closed_form_price, _quoted, build_pricing
from .valuations import ParameterError, ValuationModel, _check

GENERATOR_ID = "numpy-pcg64"
CHUNK_TRIALS = 250_000
BLOCK_CELLS = 2**20
SHARE_TRIALS = 8_192
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


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


def _jumped(state: dict, steps: int) -> np.random.Generator:
    """A generator reading the stream ``steps`` 64-bit outputs past ``state``."""
    bits = np.random.PCG64()
    bits.state = state
    return np.random.Generator(bits.advance(steps))


def _std_error(x: np.ndarray) -> float:
    return float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0


def _report(profits: np.ndarray, served: np.ndarray, capacity: int,
            seed: int) -> SimulationReport:
    hist = tuple(np.bincount(served, minlength=capacity + 1).tolist())
    return SimulationReport(trials=profits.size, mean_profit=float(profits.mean()),
                            std_error=_std_error(profits), served_histogram=hist, seed=seed)


def _replay(trials: int, seed: int, policies: int, chunk):
    """Play ``trials`` trials chunk by chunk, each chunk's shares at once;
    returns (policies, trials) arrays of profits and served counts.

    ``chunk(rng, size, shares)`` makes a chunk's up-front draws and returns
    ``play(a, b, profits, served)``, which plays the chunk's trials [a, b) into
    its (policies, size) output views. Once every share is done, raises the
    exception of the first share in order that failed.
    """
    profits = np.empty((policies, trials))
    served = np.empty((policies, trials), dtype=np.int64)
    for pos in range(0, trials, CHUNK_TRIALS):
        size = min(CHUNK_TRIALS, trials - pos)
        count = max(1, min(WORKERS, size // SHARE_TRIALS))
        cuts = [size * i // count for i in range(count + 1)]
        play = chunk(_chunk_rng(seed, pos // CHUNK_TRIALS), size, count)
        views = profits[:, pos:pos + size], served[:, pos:pos + size]
        with ThreadPoolExecutor(max(1, count - 1)) as pool:  # threads start on submit
            futures = [pool.submit(play, a, b, *views) for a, b in zip(cuts[1:], cuts[2:])]
            play(cuts[0], cuts[1], *views)
            for future in futures:
                future.result()
    return profits, served


# -- discrete-time simulation --------------------------------------------------


def _run_discrete(model: ValuationModel, alpha: float, price_lookups: list[np.ndarray],
                  capacity: int, horizon: int, trials: int, seed: int):
    """Play the slot-by-slot process under each price policy on one draw stream.

    Returns (policies, trials) arrays of profits and served counts.
    ``price_lookups[i][j, t]`` must be finite wherever a sale is possible. A
    state with j > t is quoted p[t][t], its surplus units dead; row 0 is forced
    unsellable, and a NaN price never sells, as v >= NaN never holds. Arrival
    and valuation draws are consumed for every trial in every slot, whatever
    the policies sell, so the draws, and each policy's result, do not depend
    on which other policies are played alongside (common random numbers).
    """
    # lookup[t] holds every policy's quoted prices for slot t, contiguous, so
    # one take reads them all; policy i's entries start at offset[i].
    lookup = np.stack([_quoted(prices, capacity, horizon) for prices in price_lookups], axis=1)
    lookup[..., 0] = np.inf  # exhausted capacity never sells
    policies = len(price_lookups)
    offset = np.arange(policies)[:, None] * (capacity + 1)

    def chunk(rng, size, shares):
        state = rng.bit_generator.state

        def play(a: int, b: int, profits: np.ndarray, served: np.ndarray) -> None:
            # Each slot reads size arrival draws, then size valuation draws.
            n = b - a
            rng = _jumped(state, a)
            skip = rng.bit_generator.advance
            # Units left plus each policy's offset: indices into lookup[t].
            left = np.repeat(offset + capacity, n, axis=1)
            gain = np.zeros((policies, n))
            for t in range(horizon, 0, -1):
                arrive = rng.random(n) < alpha
                skip(size - n)
                v = model._quantile(rng.random(n))
                skip(size - n)
                price = lookup[t].take(left)
                sale = arrive & (v >= price)  # no finite v meets row 0's +inf
                np.add(gain, price, out=gain, where=sale)
                left -= sale
            profits[:, a:b] = gain
            served[:, a:b] = offset + capacity - left

        return play

    return _replay(trials, seed, policies, chunk)


def simulate_discrete(model: ValuationModel, alpha: float, schedule: PriceSchedule,
                      capacity: int, horizon: int, trials: int,
                      seed: int) -> SimulationReport:
    """Estimate realized profit under a posted-price schedule.

    Per trial, time counts down from the horizon; each slot holds a buyer with
    probability alpha whose valuation is drawn by inverse CDF, and a sale
    happens when it reaches the scheduled price for the current leftover
    capacity. Deterministic given the seed.
    """
    trials, seed = _check("count", trials, "trials"), _check("size", seed, "seed")
    alpha = _check("probability", alpha, "a replay's one occurrence probability")
    if ((schedule.capacity, schedule.horizon) != (capacity, horizon)
            or schedule.prices.shape != (capacity + 1, horizon + 1)):
        raise ParameterError(f"schedule with prices of shape {schedule.prices.shape}, built "
                             f"for (k={schedule.capacity}, T={schedule.horizon}), asked to "
                             f"simulate one policy at (k={capacity}, T={horizon})")
    (profits,), (served,) = _run_discrete(model, alpha, [schedule.prices], schedule.capacity,
                                          schedule.horizon, trials, seed)
    return _report(profits, served, schedule.capacity, seed)


def simulate_policy_regret(model: ValuationModel, alpha: float, capacity: int,
                           horizon: int, trials: int, seed: int,
                           constant_price: float) -> RegretReport:
    """Optimal schedule versus one flat price on common random numbers.

    Both policies are played on the same arrival and valuation draws, so the
    paired standard error reflects only the policy difference.
    """
    trials, seed = _check("count", trials, "trials"), _check("size", seed, "seed")
    alpha = _check("probability", alpha, "a replay's one occurrence probability")
    constant_price = _check("nonnegative", constant_price, "constant price")
    schedule, _ = build_pricing(model, alpha, capacity, horizon)
    flat = np.full_like(schedule.prices, constant_price)
    (opt, fixed), _ = _run_discrete(model, alpha, [schedule.prices, flat],
                                    schedule.capacity, schedule.horizon, trials, seed)
    return RegretReport(optimal_mean=float(opt.mean()),
                        fixed_price_mean=float(fixed.mean()),
                        paired_std_error=_std_error(opt - fixed), trials=trials, seed=seed)


# -- continuous-time simulation -------------------------------------------------


def _play_block(lam: float, arrival_rate: float, capacity: int, horizon: float,
                counts: np.ndarray, neg_t: np.ndarray, u: np.ndarray):
    """Play one row block of a chunk; returns its profits and units left.

    ``neg_t`` holds the block's uniform time draws and ``u`` its valuation
    draws, row i for a trial with ``counts[i]`` arrivals; ``neg_t`` is
    overwritten. No buyer valued below ``_closed_form_price``'s floor is quoted.
    """
    # Arrival instants of a Poisson stream on [0, T] are uniform, so
    # remaining times are too; sorting their negations plays them in
    # order, with the +inf padding past each row's count last.
    # Valuations are i.i.d. and independent of the times, so pairing
    # column r of the draws with the r-th sorted time is sound.
    top, quantile = neg_t.shape[1], ValuationModel.exponential(lam)._quantile
    neg_t *= -horizon
    neg_t[np.arange(top) >= counts[:, None]] = np.inf
    neg_t.sort(axis=1)
    gain = np.zeros(counts.size)
    j = np.full(counts.size, capacity, dtype=np.int64)
    rows = np.arange(counts.size)
    price_floor = (1.0 - 1e-9 - 1e-12 * arrival_rate * horizon / math.e) / lam
    for r in range(top):
        # Times fall along a row and capacity never grows, so a row that
        # cannot sell in this column cannot in a later one either.
        t = -neg_t[rows, r]
        keep = (t > 0.0) & (j[rows] > 0)
        rows, t = rows[keep], t[keep]
        if rows.size == 0:
            break
        # Valuations drawn up front, transformed only for live rows: the
        # transform is elementwise, so each gets a whole-array call's bits.
        v = quantile(u[rows, r])
        ask = v >= price_floor
        asked = rows[ask]
        price = _closed_form_price(lam, arrival_rate, j[asked], t[ask])
        sale = v[ask] >= price
        sold = asked[sale]
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
    and play stops once none can. The series argument ``arrival_rate *
    horizon / e`` must be at most 1e12, and the mean arrival count
    ``arrival_rate * horizon``, which sizes the draws, at most 2^19.
    """
    trials, seed = _check("count", trials, "trials"), _check("size", seed, "seed")
    lam, arrival_rate, capacity, horizon = _closed_form_args(lam, arrival_rate, capacity,
                                                             horizon)
    _check("arrival count", arrival_rate * horizon, "mean arrival count a' T")

    def chunk(rng, size, shares):
        counts = rng.poisson(arrival_rate * horizon, size)
        top = int(counts.max())
        state = rng.bit_generator.state
        rows = max(1, BLOCK_CELLS // (shares * max(top, 1)))

        def play(a: int, b: int, profits: np.ndarray, served: np.ndarray) -> None:
            # One double per 64-bit output: the time matrix is the stream's
            # next size * top doubles in row order, and the valuation matrix
            # the size * top after those.
            time_rng, val_rng = _jumped(state, a * top), _jumped(state, (size + a) * top)
            height = min(rows, b - a)
            time_buf, val_buf = np.empty((height, top)), np.empty((height, top))
            for c in range(a, b, rows):
                d = min(c + rows, b)
                neg_t, u = time_buf[:d - c], val_buf[:d - c]
                time_rng.random(out=neg_t)
                val_rng.random(out=u)
                profits[0, c:d], j = _play_block(lam, arrival_rate, capacity, horizon,
                                                 counts[c:d], neg_t, u)
                served[0, c:d] = capacity - j

        return play

    (profits,), (served,) = _replay(trials, seed, 1, chunk)
    return _report(profits, served, capacity, seed)
