"""The column-sweep table kernel against the scalar (j, t) loops it replaced.

Each oracle below is the double loop that used to fill its table one cell at
a time. The kernel must reproduce it bit for bit: the same IEEE operations
run per cell, only many cells of a column share one numpy call.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavps.benchmark import complete_info_profit
from uavps.pricing import (build_pricing, evaluate_schedule, profit_step,
                           schedule_csv_rows, solve_stage_price)
from uavps.valuations import ParameterError, ValuationModel

from oracles import posted_pricing_oracle, scored_schedule_oracle

EXP1 = ValuationModel.exponential(1.0)
UNI = ValuationModel.uniform(5.0, 15.0)


def posted_price_oracle(model, alpha, k, T):
    """build_pricing as a scalar loop: (prices, values)."""
    values = np.zeros((k + 1, T + 1))
    prices = np.full((k + 1, T + 1), np.nan)
    for j in range(1, k + 1):
        for t in range(1, T + 1):
            if t <= j - 1:
                values[j, t] = values[t, t]
            else:
                r_same = values[j, t - 1]
                r_less = values[j - 1, t - 1]
                delta = r_same - r_less
                if delta < 0.0 and delta >= -1e-12 * r_same:
                    delta = 0.0
                p = solve_stage_price(model, delta)
                prices[j, t] = p
                values[j, t] = profit_step(model, alpha, p, r_same, r_less)
    return prices, values


def given_price_oracle(model, alpha, prices, k, T):
    """evaluate_schedule as a scalar loop."""
    values = np.zeros((k + 1, T + 1))
    for j in range(1, k + 1):
        for t in range(1, T + 1):
            if t <= j - 1:
                values[j, t] = values[t, t]
            else:
                values[j, t] = profit_step(model, alpha, float(prices[j, t]),
                                           values[j, t - 1], values[j - 1, t - 1])
    return values


def profit_step_oracle(model, alpha, price, r_same, r_less):
    """profit_step with both masks on every call: the oracle for taking them
    only on calls that hold a price that cannot sell."""
    sell = 1.0 - np.asarray(model.cdf(price))
    price = np.where(sell <= 0.0, 0.0, price)
    out = np.where(sell <= 0.0, r_same,
                   alpha * (price + r_less) * sell + r_same * (1.0 - alpha * sell))
    return out if out.ndim else float(out)


def threshold_oracle(model, alpha, k, T):
    """complete_info_profit as a scalar loop (it never copied dead capacity)."""
    values = np.zeros((k + 1, T + 1))
    for j in range(1, k + 1):
        for t in range(1, T + 1):
            theta = values[j, t - 1] - values[j - 1, t - 1]
            values[j, t] = values[j, t - 1] + alpha * model.expected_excess(theta)
    return values


models = st.one_of(
    st.floats(0.2, 5.0).map(ValuationModel.exponential),
    st.tuples(st.floats(0.0, 10.0), st.floats(0.5, 10.0)).map(
        lambda lw: ValuationModel.uniform(lw[0], lw[0] + lw[1])),
)
alphas = st.floats(0.0, 1.0)
capacities = st.integers(1, 30)
horizons = st.integers(0, 200)


def _same(a, b):
    return np.array_equal(a, b, equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(models, alphas, capacities, horizons)
@example(EXP1, 0.0, 30, 200)
@example(UNI, 1.0, 30, 200)
@example(EXP1, 1.0, 7, 3)
def test_build_pricing_equals_scalar_loop(model, alpha, k, T):
    schedule, table = build_pricing(model, alpha, k, T)
    prices, values = posted_price_oracle(model, alpha, k, T)
    assert _same(table.values, values)
    assert _same(schedule.prices, prices)


@pytest.mark.parametrize("alpha, k, T", [(0.2, 30, 300), (0.5, 50, 1000)])
def test_build_pricing_equals_scalar_loop_through_roundoff_clamps(alpha, k, T):
    schedule, table = build_pricing(EXP1, alpha, k, T)
    prices, values = posted_price_oracle(EXP1, alpha, k, T)
    assert _same(table.values, values)
    assert _same(schedule.prices, prices)


@settings(max_examples=60, deadline=None)
@given(models, alphas, capacities, horizons, st.integers(0, 2**32 - 1))
@example(UNI, 0.0, 30, 200, 0)
@example(UNI, 1.0, 30, 200, 1)
def test_evaluate_schedule_equals_scalar_loop(model, alpha, k, T, seed):
    # Uniform prices reach 1.2x the upper bound, so some never sell.
    lo, hi = model.support()
    top = 1.2 * hi if math.isfinite(hi) else model.sample(0.999)
    prices = np.random.default_rng(seed).uniform(lo, top, (k + 1, T + 1))
    table = evaluate_schedule(model, alpha, prices, k, T)
    assert _same(table.values, given_price_oracle(model, alpha, prices, k, T))


@pytest.mark.parametrize("price", [15.0, 16.0, math.inf])
def test_evaluate_schedule_prices_that_never_sell(price):
    prices = np.full((4, 9), price)
    table = evaluate_schedule(UNI, 0.7, prices, 3, 8)
    assert _same(table.values, given_price_oracle(UNI, 0.7, prices, 3, 8))
    assert np.all(table.values == 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("upper", [5e-324])
def test_evaluate_schedule_on_a_narrow_support_scores_prices_past_it(upper):
    # cdf overflowed at a price of 1.0 above U(0, 5e-324): a RuntimeWarning.
    model = ValuationModel.uniform(0.0, upper)
    prices = np.full((3, 6), 1.0)
    prices[1, 2:] = 0.0
    table = evaluate_schedule(model, 0.5, prices, 2, 5)
    assert _same(table.values, given_price_oracle(model, 0.5, prices, 2, 5))
    assert np.all(table.values == 0.0)


@settings(max_examples=60, deadline=None)
@given(models, alphas, capacities, horizons)
@example(EXP1, 0.0, 30, 200)
@example(UNI, 1.0, 30, 200)
@example(EXP1, 1.0, 7, 3)
def test_complete_info_profit_equals_scalar_loop(model, alpha, k, T):
    table = complete_info_profit(model, alpha, k, T)
    assert _same(table.values, threshold_oracle(model, alpha, k, T))


# -- a batch of alphas in one sweep ---------------------------------------------------


def _assert_batch_equals_scalar_calls(model, alphas, k, T, seed):
    """Batched tables against one scalar call per alpha, values and prices."""
    batch = np.array(alphas)
    schedule, table = build_pricing(model, batch, k, T)
    bench = complete_info_profit(model, batch, k, T)
    lo, hi = model.support()
    top = 1.2 * hi if math.isfinite(hi) else model.sample(0.999)
    prices = np.random.default_rng(seed).uniform(lo, top, (k + 1, T + 1, len(alphas)))
    scored = evaluate_schedule(model, batch, prices, k, T)
    for b, alpha in enumerate(alphas):
        one_schedule, one_table = build_pricing(model, alpha, k, T)
        assert _same(table.values[..., b], one_table.values)
        assert _same(schedule.prices[..., b], one_schedule.prices)
        assert _same(bench.values[..., b], complete_info_profit(model, alpha, k, T).values)
        assert _same(scored.values[..., b],
                     evaluate_schedule(model, alpha, prices[..., b], k, T).values)


@settings(max_examples=40, deadline=None)
@given(models, st.lists(st.one_of(st.sampled_from((0.0, 1.0)), alphas),
                        min_size=1, max_size=6),
       st.integers(1, 20), st.integers(0, 120), st.integers(0, 2**32 - 1))
@example(EXP1, [0.0, 1.0, 0.5], 20, 120, 0)
@example(UNI, [1.0, 0.3, 0.0, 1.0, 0.7, 0.05], 20, 120, 1)
@example(UNI, [0.4], 7, 3, 2)
def test_batched_tables_equal_scalar_calls(model, alphas, k, T, seed):
    _assert_batch_equals_scalar_calls(model, alphas, k, T, seed)


@pytest.mark.parametrize("alphas, k, T", [([0.2, 0.0, 1.0, 0.5], 30, 300),
                                          ([0.5, 0.2, 1.0], 50, 1000)])
def test_batched_tables_equal_scalar_calls_through_roundoff_clamps(alphas, k, T):
    _assert_batch_equals_scalar_calls(EXP1, alphas, k, T, 3)


def test_batched_accessors_equal_scalar_calls():
    alphas = [0.3, 0.0, 1.0]
    schedule, table = build_pricing(EXP1, np.array(alphas), 3, 5)
    singles = [build_pricing(EXP1, alpha, 3, 5) for alpha in alphas]
    assert type(singles[0][1].final()) is float  # a lone table's cell stays a float
    assert table.final() == [one.final() for _, one in singles]
    assert schedule.price(2, 4) == [one.price(2, 4) for one, _ in singles]
    assert schedule.price(3, 2) is None
    for row, *lone in zip(schedule_csv_rows(schedule, table),
                          *(schedule_csv_rows(*one) for one in singles)):
        assert row[:2] == lone[0][:2]
        assert row[3] == [r[3] for r in lone]
        assert row[2] == (None if lone[0][2] is None else [r[2] for r in lone])


# -- the time-major layout -------------------------------------------------------------


def _filled(fill, alpha, k, T):
    """(price schedule or None, profit table) from one of the three table fills."""
    if fill is build_pricing:
        return build_pricing(EXP1, alpha, k, T)
    if fill is evaluate_schedule:  # a caller's row-major price matrix, read as given
        return None, evaluate_schedule(EXP1, alpha, np.full((k + 1, T + 1) + np.shape(alpha),
                                                            1.5), k, T)
    return None, complete_info_profit(EXP1, alpha, k, T)


@pytest.mark.parametrize("fill", [build_pricing, evaluate_schedule, complete_info_profit])
@pytest.mark.parametrize("alpha", [0.5, np.array([0.3, 0.0, 1.0])], ids=["scalar", "batch3"])
def test_tables_are_stored_time_major(fill, alpha):
    # Every column the sweep reads and writes is one contiguous block; a table
    # allocated row-major, as np.zeros(shape) gives it, has strided columns.
    k, T = 4, 9
    schedule, table = _filled(fill, alpha, k, T)
    for grid in [table.values] + ([] if schedule is None else [schedule.prices]):
        assert grid.shape == (k + 1, T + 1) + np.shape(alpha)
        assert all(grid[:, t].flags.c_contiguous for t in range(T + 1))
        dense = np.ascontiguousarray(grid)
        assert all(grid[j, t].tobytes() == dense[j, t].tobytes()
                   for j in range(k + 1) for t in range(T + 1))
        assert repr(grid.tolist()) == repr(dense.tolist())  # NaN lists as nan
        assert grid.tobytes() == dense.tobytes()
    final = table.final()
    assert final == np.ascontiguousarray(table.values)[k, T].tolist()
    assert type(final) is (float if np.ndim(alpha) == 0 else list)


def test_batched_prices_must_cover_the_batch():
    with pytest.raises(ValueError, match="cover"):
        evaluate_schedule(EXP1, np.array([0.3, 0.6]), np.ones((4, 6)), 3, 5)
    with pytest.raises(ValueError, match="cover"):
        evaluate_schedule(EXP1, np.array([0.3, 0.6]), np.ones((4, 6, 3)), 3, 5)
    with pytest.raises(ValueError, match="occurrence probability"):
        build_pricing(EXP1, np.array([0.3, 1.5]), 3, 5)


def test_empty_alpha_batch_gives_empty_tables():
    k, T, empty = 4, 9, np.array([])
    schedule, table = build_pricing(EXP1, empty, k, T)
    assert schedule.prices.shape == table.values.shape == (k + 1, T + 1, 0)
    assert table.final() == [] and schedule.price(2, 5) == []
    for model in (EXP1, UNI):
        assert complete_info_profit(model, empty, k, T).values.shape == (k + 1, T + 1, 0)
        scored = evaluate_schedule(model, empty, np.ones((k + 1, T + 1, 0)), k, T)
        assert scored.values.shape == (k + 1, T + 1, 0)


def test_complete_info_profit_allocates_no_price_matrix():
    tracemalloc.start()
    try:
        table = complete_info_profit(EXP1, 0.9, 20, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The table itself plus column temporaries; a price matrix would double it.
    assert peak < 1.5 * table.values.nbytes


# -- one validation at the kernel entry ------------------------------------------


@pytest.mark.parametrize("capacity, horizon, shape", [
    (0, 5, (6, 6)),     # no capacity
    (2, -1, (6, 6)),    # negative horizon
    (3, 5, (3, 6)),     # price matrix one row short
    (3, 5, (4, 5)),     # price matrix one column short
], ids=["capacity-0", "horizon-negative", "rows-short", "columns-short"])
def test_evaluate_schedule_rejects_bad_shapes(capacity, horizon, shape):
    with pytest.raises(ValueError):
        evaluate_schedule(EXP1, 0.5, np.ones(shape), capacity, horizon)


@pytest.mark.parametrize("cell", [(1, 1), (2, 3), (3, 3), (3, 5), (1, 5)])
@pytest.mark.parametrize("bad", [math.nan, -math.inf, -1.0, -5e-324])
@pytest.mark.parametrize("alpha", [0.0, 0.5, np.array([0.3, 0.6])], ids=["0", "0.5", "batch"])
def test_evaluate_schedule_rejects_nan_and_minus_inf_where_it_reads(cell, bad, alpha):
    # The table came out NaN or -inf, and 0 * -inf warned at alpha 0; a
    # negative price lies below every support. In a batch, one entry's price
    # is enough.
    prices = np.ones((4, 6) + np.shape(alpha))
    prices[cell + (-1,) * np.ndim(alpha)] = bad
    with pytest.raises(ParameterError, match=r"must lie in \[0, inf\]"):
        evaluate_schedule(EXP1, alpha, prices, 3, 5)


def test_evaluate_schedule_ignores_the_cells_it_does_not_read():
    # The perturbed schedules of the benchmark multiply NaN where t < j.
    prices = np.ones((5, 7))
    noisy = prices.copy()
    noisy[0], noisy[4], noisy[:, 6] = math.nan, -math.inf, math.nan  # j = 0, past k, past T
    noisy[1:, 0] = -math.inf  # t = 0
    noisy[2, 1] = noisy[3, 2] = math.nan  # t < j
    expected = evaluate_schedule(EXP1, 0.5, prices, 3, 5).values
    assert _same(evaluate_schedule(EXP1, 0.5, noisy, 3, 5).values, expected)


@pytest.mark.parametrize("fill", [build_pricing, complete_info_profit])
def test_tables_reject_negative_horizon_and_bad_alpha(fill):
    with pytest.raises(ValueError, match="horizon"):
        fill(EXP1, 0.5, 2, -1)
    with pytest.raises(ValueError, match="occurrence probability"):
        fill(EXP1, -0.1, 2, 5)


# -- the stage functions the kernel calls --------------------------------------------


stage_values = st.floats(0.0, 30.0)


@settings(max_examples=80, deadline=None)
@given(models, alphas, st.lists(st.tuples(stage_values, stage_values, stage_values),
                                min_size=1, max_size=20))
def test_profit_step_vector_call_equals_scalar_calls(model, alpha, rows):
    price, r_same, r_less = (np.array(col) for col in zip(*rows))
    assert (profit_step(model, alpha, price, r_same, r_less).tolist()
            == [profit_step(model, alpha, *row) for row in rows])


@settings(max_examples=80, deadline=None)
@given(models, st.lists(stage_values, min_size=1, max_size=20))
def test_solve_stage_price_vector_call_equals_scalar_calls(model, deltas):
    assert (solve_stage_price(model, np.array(deltas)).tolist()
            == [solve_stage_price(model, d) for d in deltas])


@pytest.mark.parametrize("deltas", [[-1e-9], [0.5, -1e-9, 2.0], [0.0, 3.0, -4.0]])
def test_solve_stage_price_raises_on_any_negative_entry(deltas):
    with pytest.raises(ValueError, match="nonnegative"):
        solve_stage_price(EXP1, np.array(deltas))


# -- the replaced stage body as an oracle ---------------------------------------------


def _bits(x):
    """The bytes of a float or an array, so that -0.0 and +0.0 differ."""
    return type(x), np.asarray(x, dtype=float).tobytes()


def _assert_step_equals_oracle(model, alpha, price, r_same, r_less):
    with np.errstate(all="ignore"):  # inf and NaN prices are part of the domain
        got = profit_step(model, alpha, price, r_same, r_less)
        want = profit_step_oracle(model, alpha, price, r_same, r_less)
    assert _bits(got) == _bits(want)


@st.composite
def stage_prices(draw, model):
    """Prices that sell, prices that cannot (at or past a bounded top, +inf), NaN."""
    lo, hi = model.support()
    special = [math.inf, -math.inf, math.nan, -0.0, 0.0, -1.0]
    if math.isfinite(hi):
        special += [hi, hi + 1.0, np.nextafter(hi, 0.0)]
    return draw(st.one_of(st.floats(lo - 1.0, hi if math.isfinite(hi) else 40.0),
                          st.sampled_from(special)))


@settings(max_examples=150, deadline=None)
@given(models, alphas, st.data())
def test_profit_step_equals_replaced_body_on_scalars(model, alpha, data):
    price = data.draw(stage_prices(model))
    _assert_step_equals_oracle(model, alpha, price, data.draw(stage_values),
                               data.draw(stage_values))


@settings(max_examples=150, deadline=None)
@given(models, st.integers(1, 20), st.integers(0, 4), st.integers(0, 2**32 - 1), st.data())
def test_profit_step_equals_replaced_body_on_arrays(model, m, batch, seed, data):
    # batch 0 is a scalar alpha over a column; otherwise a 1-d alpha batch.
    shape = (m, batch) if batch else (m,)
    alpha = (np.array(data.draw(st.lists(alphas, min_size=batch, max_size=batch)))
             if batch else data.draw(alphas))
    rng = np.random.default_rng(seed)
    lo, hi = model.support()
    price = rng.uniform(lo, hi if math.isfinite(hi) else 10.0, shape)
    mixed = rng.random(shape) < data.draw(st.sampled_from((0.0, 0.2, 1.0)))
    price[mixed] = data.draw(stage_prices(model))
    r_less = rng.uniform(0.0, 30.0, shape)
    r_same = r_less + rng.uniform(0.0, 5.0, shape)
    _assert_step_equals_oracle(model, alpha, price, r_same, r_less)


@pytest.mark.parametrize("model", [EXP1, UNI], ids=["exp", "uniform"])
@pytest.mark.parametrize("bad", [15.0, 16.0, math.inf, math.nan])
def test_profit_step_equals_replaced_body_with_one_unsellable_alpha(model, bad):
    # Three alphas share a column and only the middle one's prices differ.
    # Under the uniform law on [5, 15], 15 and 16 cannot sell, so the masks
    # run over the whole call. A NaN price gives NaN cells, masked or not.
    price = np.full((5, 3), 8.0)
    price[:, 1] = bad
    r_less = np.linspace(0.0, 2.0, 5)[:, None] * np.ones(3)
    _assert_step_equals_oracle(model, np.array([0.3, 0.6, 1.0]), price, r_less + 0.5, r_less)
    _assert_step_equals_oracle(model, 0.6, price, r_less + 0.5, r_less)


# -- the family stage rules against the generic path they fuse ------------------------


@st.composite
def stage_columns(draw):
    """(model, alpha, r_same, r_less): a column of continuation profits whose
    option values are random, exactly 0, round-off negatives, real negatives
    and, for a bounded support, at or past its top, where the price cannot
    sell; for the exponential family, rate * delta from 35 to 60, where
    expm1 reaches -1, and near k (1 + ln T), the most a table's option value
    can be, for k and T up to 10^6. The alpha is a scalar or a 1-d batch of
    0 to 4, the columns' trailing axis."""
    model = draw(models)
    batch = draw(st.one_of(st.none(), st.integers(0, 4)))
    if batch is None:
        alpha, shape = draw(alphas), (draw(st.integers(1, 20)),)
    else:
        alpha = np.array(draw(st.lists(alphas, min_size=batch, max_size=batch)))
        shape = (draw(st.integers(1, 20)), batch)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r_less = rng.uniform(0.0, 30.0, shape)
    r_same = r_less + rng.uniform(0.0, 5.0, shape)
    pick = rng.integers(0, 6, shape)
    r_same[pick == 1] = r_less[pick == 1]
    r_same[pick == 2] = np.nextafter(r_less[pick == 2], -math.inf)
    r_same[pick == 3] = r_less[pick == 3] * rng.uniform(0.0, 1.0, shape)[pick == 3]
    if math.isfinite(model.support()[1]):
        top = model.support()[1] * rng.uniform(1.0, 2.0, shape)
        r_same[pick == 4] = r_less[pick == 4] + top[pick == 4]
    else:
        k, T = rng.integers(1, 10**6, shape), rng.integers(1, 10**6, shape)
        far = np.where(rng.random(shape) < 0.5, rng.uniform(35.0, 60.0, shape),
                       k * (1.0 + np.log(T)) * rng.uniform(0.9, 1.0, shape))
        r_same[pick >= 4] = r_less[pick >= 4] + far[pick >= 4] / model.rate
    return model, alpha, r_same, r_less


@settings(max_examples=200, deadline=None)
@given(stage_columns(), st.booleans())
@example((UNI, 0.5, np.array([20.0, 1.0]), np.array([5.0, 0.5])), True)  # delta = upper
@example((UNI, np.array([]), np.zeros((3, 0)), np.zeros((3, 0))), False)
@example((UNI, 0.5, np.array([1.0, 2.0]), np.array([3.0, 2.0])), True)  # real negative
@example((EXP1, 1.0, np.array([37.0, 40.0, 60.0, 1e7]), np.zeros(4)), False)
def test_stage_rule_equals_inverse_virtual_value_then_profit_step(column, in_place):
    model, alpha, r_same, r_less = column
    # The rule clamps every negative option value to zero itself; build_pricing
    # raises after the sweep on those below its round-off allowance.
    delta = r_same - r_less
    want_price = model.inverse_virtual_value(np.maximum(delta, 0.0))
    want = profit_step(model, alpha, want_price, r_same, r_less)
    stage = model._posted_stage(alpha)
    # build_pricing hands the rule its option values in the price column.
    price = delta.copy() if in_place else np.full(delta.shape, np.nan)
    out = np.full(delta.shape, np.nan)
    stage(price if in_place else delta, price, r_same, r_less, out)
    assert _bits(price) == _bits(want_price)
    assert _bits(out) == _bits(want)


# -- the table-end round-off test against the per-column sweep ----------------------


alpha_batches = st.one_of(alphas, st.lists(alphas, max_size=4).map(np.array))


@settings(max_examples=80, deadline=None)
@given(models, alpha_batches, st.integers(0, 60), st.integers(0, 300))
@example(EXP1, 0.2, 30, 300)
@example(EXP1, np.array([0.2, 0.5]), 60, 300)
@example(UNI, np.array([]), 60, 300)
@example(EXP1, 0.5, 60, 0)
def test_build_pricing_equals_the_per_column_sweep(model, alpha, k, T):
    if k == 0:  # no table has no capacity
        with pytest.raises(ParameterError, match="capacity"):
            build_pricing(model, alpha, k, T)
        return
    schedule, table = build_pricing(model, alpha, k, T)
    prices, values = posted_pricing_oracle(model, alpha, k, T)
    assert schedule.prices.tobytes() == prices.tobytes()
    assert table.values.tobytes() == values.tobytes()


def _first_negative_column(values):
    """The first column t whose option values R[j][t-1] - R[j-1][t-1] dip below 0."""
    return next(t for t in range(1, values.shape[1])
                if (np.diff(values[:, t - 1], axis=0) < 0.0).any())


@pytest.mark.parametrize("alpha, k, T, first", [(0.2, 30, 300, 19), (0.5, 50, 1000, 39)])
def test_build_pricing_equals_the_per_column_sweep_through_roundoff(alpha, k, T, first):
    # Columns from ``first`` on read option values that dip below 0 by round-off.
    prices, values = posted_pricing_oracle(EXP1, alpha, k, T)
    assert _first_negative_column(values) == first
    for batch in (alpha, np.array([alpha, 0.7, alpha])):
        schedule, table = build_pricing(EXP1, batch, k, T)
        if np.ndim(batch):
            prices, values = posted_pricing_oracle(EXP1, batch, k, T)
        assert schedule.prices.tobytes() == prices.tobytes()
        assert table.values.tobytes() == values.tobytes()


def _posted(model, alpha, k, T):
    """build_pricing's (prices, values), as ``posted_pricing_oracle`` gives them."""
    schedule, table = build_pricing(model, alpha, k, T)
    return schedule.prices, table.values


def _outcome(fill, *args):
    """The bytes of a fill's prices and values, or the text of its ValueError."""
    try:
        prices, values = fill(*args)
    except ValueError as err:
        return str(err)
    return prices.tobytes(), values.tobytes()


@settings(max_examples=40, deadline=None)
@given(models, alpha_batches, st.integers(1, 40), st.integers(0, 200),
       st.sampled_from((1e-14, 1e-9)))
@example(EXP1, 0.5, 30, 200, 1e-9)
@example(UNI, np.array([0.5, 0.9]), 30, 200, 1e-9)
def test_build_pricing_raises_as_the_per_column_sweep_does(model, alpha, k, T, dip):
    # Each stage rule lowers row j of its output by a relative j * dip, so the
    # option values of the top rows turn negative once they are small: by
    # round-off at 1e-14, which counts as zero, and by more at 1e-9, which
    # raises in the first column that reads such a value.
    real = ValuationModel._posted_stage

    def dipped(model, alpha):
        stage = real(model, alpha)

        def rule(delta, price, r_same, r_less, out):
            stage(delta, price, r_same, r_less, out)
            rows = np.arange(1, len(out) + 1).reshape((-1,) + (1,) * (out.ndim - 1))
            out *= 1.0 - dip * rows
        return rule

    with pytest.MonkeyPatch.context() as patch:  # hypothesis reruns the body
        patch.setattr(ValuationModel, "_posted_stage", dipped)
        got = _outcome(_posted, model, alpha, k, T)
        assert got == _outcome(posted_pricing_oracle, model, alpha, k, T)


def _scored_prices(model, alpha, k, T, seed, share, junk):
    """A price matrix for (k, T) whose read cells sell, save some zeros,
    except in a ``share`` of the columns, where some cells hold +inf or, for a
    bounded law, a price at or past its top; with ``junk``, unread cells may
    hold NaN or -inf."""
    rng = np.random.default_rng(seed)
    lo, hi = model.support()
    shape = (k + 1, T + 1) + np.shape(alpha)
    trailing = (1,) * np.ndim(alpha)
    prices = rng.uniform(lo, hi if math.isfinite(hi) else 5.0, shape)
    cells = rng.random(shape) < 0.1
    prices[cells] = rng.choice([0.0, -0.0, 5e-324], int(cells.sum()))
    never = [math.inf] + ([hi, 1.2 * hi] if math.isfinite(hi) else [])
    columns = (rng.random(T + 1) < share).reshape((1, -1) + trailing)
    cells = (rng.random(shape) < 0.3) & columns
    prices[cells] = rng.choice(never, int(cells.sum()))
    if junk:
        j, t = np.indices((k + 1, T + 1))
        unread = ((j == 0) | (t < j)).reshape(shape[:2] + trailing)
        cells = unread & (rng.random(shape) < 0.5)
        prices[cells] = rng.choice([math.nan, -math.inf], int(cells.sum()))
    return prices


edge_alphas = st.sampled_from((0.0, -0.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(models, st.one_of(edge_alphas, alpha_batches,
                         st.lists(st.one_of(edge_alphas, alphas), max_size=4).map(np.array)),
       st.integers(1, 60), st.integers(0, 300), st.integers(0, 2**32 - 1),
       st.sampled_from((0.0, 0.1, 0.5, 1.0)), st.booleans())
@example(UNI, 0.7, 3, 8, 0, 0.5, True)
@example(UNI, np.array([0.0, 1.0, 0.4]), 60, 300, 1, 0.1, True)
@example(EXP1, np.array([]), 20, 100, 2, 0.5, True)
@example(EXP1, 1.0, 20, 100, 3, 1.0, False)
@example(UNI, np.array([0.0, 1.0, 0.5]), 30, 200, 4, 1.0, True)
@example(ValuationModel.uniform(0.0, 1e-300), np.array([0.0, -0.0, 1.0]), 10, 40, 5, 0.5, True)
def test_evaluate_schedule_equals_profit_step_per_column(model, alpha, k, T, seed, share, junk):
    # A share of 1 puts unsellable cells in every column, so the rule's sum
    # r_same + (+-0) stands in for profit_step's mask throughout; zero
    # prices, of either sign, and alphas of 0, -0.0 and 1 give zero sale
    # terms and zero stay factors, none of which may leave a -0.0 cell.
    prices = _scored_prices(model, alpha, k, T, seed, share, junk)
    table = evaluate_schedule(model, alpha, prices, k, T)
    assert table.values.tobytes() == scored_schedule_oracle(model, alpha, prices, k, T).tobytes()
    assert not np.signbit(table.values[table.values == 0.0]).any()


@pytest.mark.parametrize("alpha", [0.5, np.array([0.5, 1.0])], ids=["scalar", "batch"])
def test_evaluate_schedule_rejects_the_prices_whose_profit_underflowed_to_negative_zero(alpha):
    # R[1][1] = 0.5 * -1e-323 = -5e-324; at (1, 2) both 0.5 * -5e-324 terms
    # rounded to -0.0, and the unsellable price at (1, 3) had to keep that
    # -0.0: a second scoring pass, needed only by negative prices.
    prices = np.ones((2, 4) + np.shape(alpha))
    prices[1, 1], prices[1, 2], prices[1, 3] = -1e-323, -5e-324, math.inf
    with pytest.raises(ParameterError, match=r"\[0, inf\]"):
        evaluate_schedule(EXP1, alpha, prices, 1, 3)


@pytest.mark.parametrize("model", [EXP1, UNI, ValuationModel.uniform(0.0, 10.0)],
                         ids=["exp", "uniform-5-15", "uniform-0-10"])
@pytest.mark.parametrize("alpha", [0.0, -0.0, 1.0, np.array([0.0, -0.0, 1.0, 0.5])],
                         ids=["0", "-0", "1", "batch"])
def test_evaluate_schedule_scores_negative_zero_prices_as_the_oracle_does(model, alpha):
    # -0.0 is the price 0: below the support of U(5, 15), its lower end for
    # U(0, 10) and exp(1), where cdf gives -0.0. An unsellable +inf keeps r_same.
    rng = np.random.default_rng(11)
    prices = np.where(rng.random((5, 9) + np.shape(alpha)) < 0.5, -0.0, 12.0)
    prices[2, 4:] = math.inf
    table = evaluate_schedule(model, alpha, prices, 4, 8)
    assert table.values.tobytes() == scored_schedule_oracle(model, alpha, prices, 4, 8).tobytes()
    assert not np.signbit(table.values[table.values == 0.0]).any()


@pytest.mark.parametrize("layout", ["row-major", "time-major"])
@pytest.mark.parametrize("T", [0, 1, 5])
def test_evaluate_schedule_leaves_the_price_matrix_as_given(layout, T):
    # A time-major matrix, as build_pricing stores its prices, and any (k + 1, 1)
    # one are read in place, and their unsellable prices were once zeroed in
    # the caller's matrix itself.
    prices = np.full((4, T + 1), 8.0) if layout == "row-major" else np.full((T + 1, 4), 8.0).T
    prices[2:, T] = [16.0, math.inf]  # cannot sell under U(5, 15)
    before = prices.copy()
    evaluate_schedule(UNI, 0.5, prices, 3, T)
    assert prices.tobytes() == before.tobytes()
