"""Dynamic pricing of a capacity-limited service over a finite hovering window.

Discrete model: a seller hovers for T unit slots with k service units left.
In each slot one buyer shows up with probability alpha and accepts the posted
price p when their private valuation reaches it. Backward recursion over
leftover capacity j and leftover time t:

    R[j][t] = alpha * (p + R[j-1][t-1]) * (1 - F(p))
              + R[j][t-1] * (1 - alpha * (1 - F(p)))

with R[0][t] = R[j][0] = 0. The profit-maximizing stage price solves
phi(p) = delta where delta = R[j][t-1] - R[j-1][t-1] is the option value of
keeping a unit. Column t needs only column t-1, so one kernel sweeps t and
runs a stage rule once per column, over all j: posted prices, a given price
matrix, or the full-information threshold of ``uavps.benchmark``. When t < j
the surplus is dead weight: R[j][t] = R[t][t], and the state is quoted p[t][t].

Continuous relaxation: buyers arrive as a Poisson stream with rate a'. For
exponential valuations the expected profit and price have closed forms built
from the truncated series S_k(x) = sum_{i<=k} x^i / i! at x = a' * t / e
(Gallego & van Ryzin, Management Science 40(8), 1994):

    R_k(t) = log(S_k(x)) / lam
    p_k(t) = 1/lam + (log S_k(x) - log S_{k-1}(x)) / lam

S_k overflows a double at large budgets, so every caller gets log S_k from
one overflow-free kernel, ``_log_series``, and p_k from ``_closed_form_price``.
For any regular valuation family the profit solves an ODE system, integrated
here with fixed-step RK4: the general-distribution oracle for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np

from .valuations import ParameterError, ValuationModel, _check, _sale


@dataclass(frozen=True)
class ProfitTable:
    """Expected-profit table R[j][t], j in 0..capacity, t in 0..horizon."""

    alpha: float
    capacity: int
    horizon: int
    values: np.ndarray

    def final(self) -> float | list[float]:
        """R at full capacity and full horizon; one value per alpha of a batch."""
        return self.values[self.capacity, self.horizon].tolist()


@dataclass(frozen=True)
class PriceSchedule:
    """Posted prices p[j][t]; NaN marks (j, t) pairs where no price exists.

    A price is defined for j in 1..capacity and t in j..horizon; with fewer
    slots than units the surplus capacity can never sell.
    """

    capacity: int
    horizon: int
    prices: np.ndarray

    def price(self, j: int, t: int) -> float | list[float] | None:
        """p[j][t], one per alpha of a batch, or None where no price exists."""
        if not (1 <= j <= self.capacity and j <= t <= self.horizon):
            return None
        return self.prices[j, t, ...].tolist()  # a 0-d array lists faster than a scalar


def solve_stage_price(model: ValuationModel, delta):
    """Price maximizing (p - delta) * (1 - F(p)) for a one-unit stage sale.

    Regularity makes the maximizer the unique root of phi(p) = delta
    (clamped to the support when the root falls outside it). Elementwise.
    """
    if (np.asarray(delta) < 0).any():
        raise ValueError(f"stage option value must be nonnegative, got {np.min(delta)}")
    return model.inverse_virtual_value(delta)


def profit_step(model: ValuationModel, alpha: float, price, r_same, r_less, out=None):
    """One application of the profit recursion at a posted price, elementwise.

    r_same and r_less are the continuation profits with the same and with one
    fewer service unit. A price with zero sale probability (at or past a
    bounded support's top, or where F rounds to 1) leaves the continuation
    value untouched: it is zeroed, then r_same is copied into its cell. With
    ``out``, an array of the broadcast shape, the final addition writes the
    result there, as a ufunc's ``out`` does, and returns it. The scoring
    oracle of ``evaluate_schedule``.
    """
    sell = 1.0 - np.asarray(model.cdf(price))
    unsold = sell <= 0.0
    price = np.where(unsold, 0.0, price)  # an unsellable price may be inf
    out = np.asarray(np.add(alpha * (price + r_less) * sell, r_same * (1.0 - alpha * sell),
                            out=out))  # a scalar call's sum is a numpy scalar
    np.copyto(out, r_same, where=unsold)
    return out if out.ndim else float(out)


def _table_args(alpha, capacity: int, horizon: int):
    """(alpha, k, T) of a discrete table, checked and converted: alpha a float
    or a 1-d float array, k and T ints."""
    return (_check("probabilities", alpha, "occurrence probability"),
            _check("count", capacity, "capacity"), _check("size", horizon, "horizon"))


def _fill(alpha, k: int, T: int, rule, given: tuple = ()) -> ProfitTable:
    """The one (j, t) sweep behind every discrete profit table.

    Column t needs only column t-1: ``rule(*cols, r_same, r_less, out)`` maps
    ``cols``, rows 1..k of column t of each ``given`` array, and R[1..k][t-1]
    and R[0..k-1][t-1] to R[1..k][t], written into ``out``, the view
    values[1..k][t]. The rules are elementwise, so dead capacity needs no case:
    by induction over t, a row j > t reads R[j][t-1] = R[j-1][t-1] =
    R[t-1][t-1], row t's inputs, and gets R[t][t] if the ``given`` arrays
    repeat row t's entry past it (``_quoted``). A 1-d alpha adds a trailing
    batch axis, which ``given`` has too; each table is the one its scalar alpha
    gives, bit for bit.

    A column holds at most k cells, so its cost is the count of numpy calls,
    not the arithmetic: the sweep tests nothing and each rule's last ufunc
    writes the column in place. The arguments come checked from
    ``_table_args``. ``values`` is a C-ordered time-major (T + 1, k + 1[, B])
    buffer seen through ``swapaxes(0, 1)``, and ``given`` arrays are such
    buffers too: each column is a row, one contiguous block.
    """
    values = np.zeros((T + 1, k + 1) + np.shape(alpha))
    for cols in zip(*[g[1:, 1:] for g in given], values[:-1, 1:], values[:-1, :k],
                    values[1:, 1:]):
        rule(*cols)
    return ProfitTable(alpha=alpha, capacity=k, horizon=T, values=values.swapaxes(0, 1))


def _quoted(prices: np.ndarray, k: int, T: int) -> np.ndarray:
    """The price quoted in state (j, t), prices[min(j, t), t], in a time-major copy."""
    t = np.arange(T + 1)[:, None]
    return prices[np.minimum(np.arange(k + 1), t), t]


def build_pricing(model: ValuationModel, alpha, capacity: int,
                  horizon: int) -> tuple[PriceSchedule, ProfitTable]:
    """Fill the optimal price schedule and profit table for (alpha, k, T).

    One column sweep, each column's stage prices solved at once by the
    family's stage rule, chosen once per call (``ValuationModel._posted_stage``):
    ``solve_stage_price`` then ``profit_step``, fused, with the same bits.
    Cells with t < j get R[t][t] from the sweep and a NaN price. An option
    value in [-1e-12 * R[j][t-1], 0) is round-off and counts as zero; a lower
    one raises. The rule prices every option value at max(delta, 0), so no
    column is tested; one compare over the finished table finds the negative
    ones, and only then does the first column below the allowance reach
    ``solve_stage_price``, which raises as a sweep testing every column would.
    About 6.6 µs per column at exp(1), alpha 0.5, (k, T) = (20, 1000) on a
    2-CPU x86 host, against 8.7 µs with a test in every column (best of 30
    calls). A 1-d alpha fills one table per entry in the same sweep, on a
    trailing axis. The prices are stored time-major as ``_fill`` stores R,
    each column contiguous; ``np.ascontiguousarray`` gives a C-ordered copy.
    """
    alpha, k, T = _table_args(alpha, capacity, horizon)
    stage = model._posted_stage(alpha)
    prices = np.full((T + 1, k + 1) + np.shape(alpha), np.nan)
    table = _fill(alpha, k, T, lambda price, r_same, r_less, out: stage(
        np.subtract(r_same, r_less, out=price), price, r_same, r_less, out), (prices,))
    prices[np.arange(k + 1) > np.arange(T + 1)[:, None]] = np.nan
    # Column t reads r[t-1], whose rows past t-1 hold R[t-1][t-1] and differ by
    # 0; for finite doubles R[j] < R[j-1] holds exactly where R[j] - R[j-1] < 0.
    r = table.values.swapaxes(0, 1)[:-1]
    if np.less(r[:, 1:], r[:, :-1]).any():  # rare: a round-off dip, or a raise
        delta = r[:, 1:] - r[:, :-1]
        delta[(delta < 0.0) & (delta >= -1e-12 * r[:, 1:])] = 0.0
        below = np.nonzero(delta < 0.0)[0]  # C order: the first column comes first
        if below.size:  # the columns before it hold the same bits as a tested sweep's
            solve_stage_price(model, delta[below[0]])
    return PriceSchedule(capacity=k, horizon=T, prices=prices.swapaxes(0, 1)), table


def evaluate_schedule(model: ValuationModel, alpha, prices: np.ndarray,
                      capacity: int, horizon: int) -> ProfitTable:
    """Propagate the profit recursion under an arbitrary price matrix.

    Used to score non-optimal policies (perturbed or constant prices) against
    the optimal table. ``prices[j, t]`` is read for j in 1..capacity and
    t in j..horizon; the matrix must cover them, other entries are ignored.
    A price read is a point of the valuation support or past it, in [0, +inf]:
    +inf is one that never sells, -0.0 counts as 0, and a negative price or a
    NaN raises ``ParameterError``. A 1-d alpha needs one price matrix per
    entry, on a trailing axis.

    ``profit_step``'s formula, with the same bits: ``cdf`` is elementwise,
    so the sale probabilities 1 - F(p) and the stay factors 1 - alpha (1 -
    F(p)) of the quoted prices (``_quoted``) are computed once, and a column
    makes five ufunc calls and no mask: a zeroed unsellable price keeps the
    continuation value. At exp(1), alpha 0.5, (k, T) = (20, 1000) a column
    takes about 2.7 µs on a 2-CPU x86 host, against 9.1 µs through
    ``profit_step`` per column (best of 15 calls).
    """
    alpha, k, T = _table_args(alpha, capacity, horizon)
    shape = (k + 1, T + 1) + np.shape(alpha)
    prices = np.asarray(prices)
    if prices.dtype.kind not in "iuf":  # float() would parse text and take bools
        raise ParameterError(f"price matrix must hold numbers, got dtype {prices.dtype}")
    prices = prices.astype(float, copy=False)
    if prices.ndim != len(shape) or prices[:k + 1, :T + 1].shape != shape:
        raise ParameterError(f"price matrix of shape {prices.shape} does not cover {shape}")
    given = _quoted(prices, k, T)
    if not (given[1:, 1:] >= 0.0).all():  # the read cells; NaN fails the comparison too
        raise ParameterError("prices read at 1 <= j <= k, j <= t <= T must lie in [0, inf]")
    sell = 1.0 - np.asarray(model.cdf(given))
    # An unsellable price may be inf: zero it in the gather, a copy of the caller's matrix.
    given[sell <= 0.0] = 0.0
    stay = 1.0 - alpha * sell
    # No cell is -0.0, by induction over the columns from column 0's +0.0:
    # with p >= 0, r_less >= +0, sell and stay in [+0, 1], p + r_less and
    # r_same stay are >= +0, so out = r_same stay + gain is too, whatever the
    # sign of a zero gain (alpha -0.0). A zeroed unsellable price has sell = 0
    # and stay = 1, so out = r_same + (+-0) = r_same: profit_step's mask.
    return _fill(alpha, k, T, partial(_sale, alpha), (given, sell, stay))


# -- continuous-time closed forms (exponential valuations) ------------------


# Every _SERIES_STRIDE terms, a partial sum past _SERIES_BOUND moves into its
# log offset. A sum grows at most (1 + x)-fold per term, so for x up to 1e12,
# the greatest "series argument" of _DOMAIN, it stays under 1e300 between
# checks: the kernel's domain, which the closed forms, their replay and the
# capacity search enforce.
_SERIES_BOUND, _SERIES_STRIDE = 1e100, 16
# Once at most _SERIES_NARROW entries still run, they finish in Python floats.
# Measured on a 2-CPU x86 host (numpy 2.4, AVX-512), best of 7: a numpy term
# pass took 2.0-2.1 us at 8 to 128 entries and a Python float entry-term 65
# ns, so they break even near 32 entries; capacity_argmax(100, 1e5, 1) took
# 158 ms at widths 0 to 48 and 337 ms at 64, (1000, 2e4, 1) 35 ms at width 0
# and 11 ms at 8 to 128.
_SERIES_NARROW = 32


def _log_series(x, k, below: bool = False):
    """log S_k(x) elementwise over broadcast arrays x in [0, 1e12], k >= 0;
    with ``below``, also log S_{k-1}(x), which needs every k >= 1.

    Sums the terms x^i / i! by their ratios x / i in linear space, over the
    entries sorted by decreasing k, so those still running are a prefix. The
    i = 0 term enters through log1p unless the sum has moved to its offset.
    Each entry's arithmetic is its own, so a vector call equals scalar calls,
    and its state one term before its end is its level-(k-1) state: the
    ``below`` logs equal a call at k - 1, bit for bit.

    A pass costs a few numpy calls whatever its width, so once the running
    prefix is ``_SERIES_NARROW`` entries or fewer, ``_finish_series`` adds
    their remaining terms one entry at a time in Python floats. It keeps
    every bit: a Python float is an IEEE double rounded to nearest, as a
    numpy float64 is, and each entry runs the same operations in the same
    order. Calls with ``below`` keep their numpy passes: the replay makes
    them on two threads, and a Python loop would hold the interpreter lock.
    Wide calls cost about a pass per term: at the search cap,
    capacity_argmax(1, 2^22, 1), the kernel's 914 831 passes over the 2 521
    entries the cut keeps take 5.3 s of the call's 5.8 s.
    """
    x, k = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(k, dtype=np.int64))
    order = np.argsort(-k, axis=None)  # entries are independent: any order of equal k will do
    xs, ks = x.ravel()[order], k.ravel()[order]
    # bounds[i] counts the entries with k > i, so those with k == i sit at
    # bounds[i]:bounds[i - 1] and the first bounds[i - 1] still add term i.
    bounds = np.searchsorted(-ks, -np.arange(1, ks.max(initial=0) + 2), side="right").tolist()
    tail, offset, term = np.zeros(xs.size), np.zeros(xs.size), np.ones(xs.size)
    if below:
        prev_tail, prev_offset = np.empty(xs.size), np.empty(xs.size)
    for i in range(1, len(bounds)):
        lo, m = bounds[i], bounds[i - 1]
        if m <= _SERIES_NARROW and not below:
            _finish_series(xs[:m], ks[:m], term[:m], tail[:m], offset[:m], i)
            break
        if below and lo < m:
            prev_tail[lo:m] = tail[lo:m]
            prev_offset[lo:m] = offset[lo:m]
        t, s = term[:m], tail[:m]
        t *= xs[:m] / i
        s += t
        if i % _SERIES_STRIDE == 0:
            scale = np.where(s > _SERIES_BOUND, s, 1.0)
            offset[:m] += np.log(scale)
            t /= scale
            s /= scale
    out = np.empty(xs.size)
    out[order] = _series_log(tail, offset)
    if not below:
        return out.reshape(x.shape)
    less = np.empty(xs.size)
    less[order] = _series_log(prev_tail, prev_offset)
    return out.reshape(x.shape), less.reshape(x.shape)


def _finish_series(x: np.ndarray, k: np.ndarray, term: np.ndarray, tail: np.ndarray,
                   offset: np.ndarray, start: int) -> None:
    """Terms start..k of each running sum, one entry at a time in Python
    floats, written back into ``tail`` and ``offset``: ``_log_series``'s pass
    per entry. A sum that does not move skips the pass's division by 1 and
    its added log 1 = 0, which change no bit. The moved sums' logs come from
    one np.log call, the ufunc the pass uses, whose bits math.log need not
    share."""
    bound, stride = _SERIES_BOUND, _SERIES_STRIDE
    moved, sums = [], []
    for j, (xj, kj, t, s) in enumerate(zip(x.tolist(), k.tolist(), term.tolist(),
                                           tail.tolist())):
        for i in range(start, kj + 1):
            t *= xj / i
            s += t
            if s > bound and i % stride == 0:  # the cheaper test first
                moved.append(j)
                sums.append(s)
                t /= s
                s /= s
        tail[j] = s
    if sums:  # each entry's logs in term order, so its offset adds them in order
        for j, log in zip(moved, np.log(sums).tolist()):
            offset[j] += log


def _series_log(tail: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """The log of a running sum: offset + log(tail) once moved, else log1p(tail)."""
    # A moved sum restarts at exactly 1 and only grows.
    if not offset.any():
        return np.log1p(tail)
    return np.where(offset > 0.0, offset + np.log(np.maximum(tail, 1.0)), np.log1p(tail))


def log_capacity_series(x: float, k: int) -> float:
    """log S_k(x) for one argument x in [0, 1e12] and one series length."""
    return float(_log_series(_check("series argument", x, "series argument"),
                             _check("size", k, "series length")))


def expected_profit_closed_form(lam: float, arrival_rate: float, capacity: int,
                                horizon: float) -> float:
    """Expected profit under Poisson arrivals and exponential valuations.

    Equals log(S_k(a' * T / e)) / lam. Horizon zero gives zero profit.
    """
    lam, arrival_rate, k, horizon = _closed_form_args(lam, arrival_rate, capacity, horizon)
    return float(_log_series(arrival_rate * horizon / math.e, k)) / lam


def price_closed_form(lam: float, arrival_rate: float, capacity: int,
                      time_left: float) -> float:
    """Posted price with k units and continuous time t left.

    Equals 1/lam + R_k(t) - R_{k-1}(t): the mean valuation marked up by the
    marginal option value of the unit on offer.
    """
    return float(_closed_form_price(*_closed_form_args(lam, arrival_rate, capacity, time_left)))


def _closed_form_price(lam: float, rate: float, k, t):
    """(1 + log S_k(x) - log S_{k-1}(x)) / lam at x = rate * t / e, elementwise
    over broadcast k >= 1 and t, unchecked. Every price is at least 1/lam, as
    S_k >= S_{k-1}. Both logs come from one running sum, log S_{k-1} from its
    state a term earlier, so their computed difference is short of 0 by a few
    ulp of x at most, and the price's three roundings add as much: a computed
    price is above (1 - 1e-9 - 1e-12 x) / lam, 1e-12 x being about 4 500 ulp
    of x. The continuous replay quotes no buyer valued below that floor."""
    log_k, log_less = _log_series(rate * t / math.e, k, below=True)
    return (1.0 + log_k - log_less) / lam


def _closed_form_args(lam: float, arrival_rate: float, capacity: int,
                      horizon: float) -> tuple[float, float, int, float]:
    """The closed forms' and their replay's arguments, checked and converted;
    a' t / e must be a series argument, which a NaN one (inf times 0) is not."""
    lam, arrival_rate = _check("valuation rate", lam, "lambda"), _check(
        "positive", arrival_rate, "arrival rate")
    k, horizon = _check("count", capacity, "capacity"), _check("nonnegative", horizon, "horizon")
    _check("series argument", arrival_rate * horizon / math.e, "series argument a' t / e")
    return lam, arrival_rate, k, horizon


def continuous_profit_numeric(model: ValuationModel, arrival_rate: float,
                              capacity: int, horizon: float,
                              step: float = 1e-3) -> float:
    """Integrate the continuous-time profit ODEs for any valuation family.

    The stack of profits (R_1, ..., R_k) evolves by

        dR_j/dt = a' * (p_j - (R_j - R_{j-1})) * (1 - F(p_j)),
        p_j = inverse virtual value at R_j - R_{j-1},

    from R_j(0) = 0. Fixed-step RK4 with a Richardson step-halving check:
    the result at step/2 is returned and must agree with the full-step result
    to 1e-6, otherwise the step is too coarse for the requested horizon.

    The stack is a list of Python floats updated in place, each stage gain
    one call of the family's closure (``ValuationModel._ode_gain``), and one
    sweep up j runs all four RK4 stages. At the small k the oracles use,
    numpy's per-call overhead on length-k arrays costs more than the
    arithmetic; past k of about 60 the scalar sweep is the slower one.
    """
    rate, k = _check("positive finite", arrival_rate, "arrival rate"), _check(
        "count", capacity, "capacity")
    horizon, step = (_check("nonnegative finite", horizon, "horizon"),
                     _check("positive", step, "step"))
    if horizon == 0:
        return 0.0
    if not (step / 2.0 > 0.0 and math.isfinite(horizon / (step / 2.0))):
        raise ParameterError(f"horizon / step must be a finite step count, got {horizon} / {step}")
    gain = model._ode_gain(rate)

    def integrate(h: float) -> float:
        n = max(1, math.ceil(horizon / h))
        dt = horizon / n
        half, sixth = 0.5 * dt, dt / 6.0
        r = [0.0] * k  # (R_1, ..., R_k); R_0 = 0 never moves
        for _ in range(n):
            # Stage s of R_j reads stage s - 1 of R_j and R_{j-1} only, so one
            # sweep up j runs all four stages; p1..p4 hold R_{j-1}'s inputs.
            p1 = p2 = p3 = p4 = 0.0
            for i, x in enumerate(r):
                d1 = gain(x - p1)
                s2 = x + half * d1
                d2 = gain(s2 - p2)
                s3 = x + half * d2
                d3 = gain(s3 - p3)
                s4 = x + dt * d3
                d4 = gain(s4 - p4)
                r[i] = x + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
                p1, p2, p3, p4 = x, s2, s3, s4
        return r[-1]

    coarse = integrate(step)
    fine = integrate(step / 2.0)
    if not abs(coarse - fine) < 1e-6 * max(1.0, abs(fine)):  # NaN too: a stiff rate
        raise ValueError(
            f"step {step} too coarse: halving moved the result by {abs(coarse - fine):.3g}"
        )
    return fine


# -- CSV export --------------------------------------------------------------


def schedule_csv_rows(schedule: PriceSchedule, table: ProfitTable):
    """Yield (j, t, price-or-None, profit) rows ordered by (j, t); a batched
    table gives one price and one profit per alpha.

    Each array is listed once; the price is None where ``PriceSchedule.price``
    gives None, that is for j < 1 or t < j.
    """
    prices, values, slots = schedule.prices.tolist(), table.values.tolist(), table.horizon + 1
    for j in range(table.capacity + 1):
        priced = prices[j][j:slots] if j else []
        yield from zip(repeat(j), range(slots), [None] * (slots - len(priced)) + priced,
                       values[j])
