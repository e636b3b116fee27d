"""Pricing recursion and closed forms against hand recursions and grid searches."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

import uavps.pricing
from uavps.pricing import (_closed_form_price, _log_series, _series_log, build_pricing,
                           continuous_profit_numeric, evaluate_schedule,
                           expected_profit_closed_form, log_capacity_series,
                           price_closed_form, profit_step, schedule_csv_rows,
                           solve_stage_price)
from uavps.valuations import ParameterError, ValuationModel

from oracles import exact_log_series

EXP1 = ValuationModel.exponential(1.0)
UNI = ValuationModel.uniform(5.0, 15.0)

TOL = 1e-9


def test_solve_stage_price_trivial():
    assert solve_stage_price(EXP1, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert solve_stage_price(UNI, 0.0) == pytest.approx(7.5, abs=1e-12)
    with pytest.raises(ValueError):
        solve_stage_price(EXP1, -0.1)


def test_solve_stage_price_grid_oracle():
    # argmax of (p - 0.3) e^{-p} over a fine grid
    grid = np.arange(0.0, 20.0, 1e-4)
    objective = (grid - 0.3) * np.exp(-grid)
    assert grid[np.argmax(objective)] == pytest.approx(1.3, abs=1e-3)
    assert solve_stage_price(EXP1, 0.3) == pytest.approx(1.3, abs=1e-12)

    grid = np.arange(0.0, 10.0, 1e-4)
    objective = (grid - 4.0) * (1.0 - np.asarray(ValuationModel.uniform(0, 10).cdf(grid)))
    assert grid[np.argmax(objective)] == pytest.approx(7.0, abs=1e-3)


def test_profit_step_hand_values():
    assert profit_step(EXP1, 0.0, 1.0, 0.7, 0.2) == 0.7
    assert profit_step(EXP1, 0.5, 1.0, 0.0, 0.0) == pytest.approx(
        0.5 * math.exp(-1.0), abs=1e-12)
    assert profit_step(UNI, 0.8, 7.5, 0.0, 0.0) == pytest.approx(4.5, abs=1e-12)
    # zero sale probability leaves the continuation untouched
    assert profit_step(UNI, 0.8, 15.0, 0.33, 0.1) == 0.33


def test_build_pricing_validation():
    with pytest.raises(ValueError):
        build_pricing(EXP1, 1.2, 1, 5)
    with pytest.raises(ValueError):
        build_pricing(EXP1, 0.5, 0, 5)


@pytest.mark.parametrize("alpha, k, T", [(0.2, 30, 300), (0.5, 50, 1000)])
def test_build_pricing_absorbs_option_value_roundoff(alpha, k, T):
    # Once the marginal unit is worth ~0, R[j][t-1] - R[j-1][t-1] came out
    # at -2.2e-16 and -8.9e-16 here and the fill raised.
    _, table = build_pricing(EXP1, alpha, k, T)
    assert np.all(np.diff(table.values, axis=1) >= 0.0)
    assert np.all(np.diff(table.values, axis=0) >= -1e-12 * table.values[1:])


@pytest.mark.parametrize("dip, clamps", [(1e-14, True), (1e-11, False)])
def test_build_pricing_clamps_only_roundoff(monkeypatch, dip, clamps):
    # The family's stage rule prices each column as it does, then its profits
    # are overwritten: R[1][t] = 1 and R[2][2] = 1 - dip, so the option value
    # at (2, 3) is -dip.
    real = ValuationModel._posted_stage

    def dipped(model, alpha):
        stage = real(model, alpha)

        def rule(delta, price, r_same, r_less, out):
            stage(delta, price, r_same, r_less, out)
            np.copyto(out, np.where(r_less > 0, 1.0 - dip, 1.0))
        return rule

    monkeypatch.setattr(ValuationModel, "_posted_stage", dipped)
    if clamps:
        schedule, _ = build_pricing(EXP1, 0.5, 2, 3)
        assert schedule.price(2, 3) == solve_stage_price(EXP1, 0.0)
    else:
        with pytest.raises(ValueError, match="nonnegative"):
            build_pricing(EXP1, 0.5, 2, 3)


@pytest.mark.parametrize("model, alpha, k, T, clamped", [
    (EXP1, 0.5, 10, 60, False),
    (UNI, 0.8, 10, 60, False),
    (EXP1, 0.2, 30, 300, True),  # option values of -2.2e-16 here
])
def test_build_pricing_calls_solve_stage_price_only_to_raise(
        monkeypatch, model, alpha, k, T, clamped):
    # The stage rule clamps round-off itself, so a table with no option value
    # below the allowance, dipping or not, never reaches solve_stage_price.
    schedule, table = build_pricing(model, alpha, k, T)
    r = table.values
    negative = any((r[1:m + 1, t - 1] - r[:m, t - 1] < 0.0).any()
                   for t in range(1, T + 1) for m in [min(t, k)])
    assert negative == clamped
    calls = []

    def counted(model, delta):
        calls.append(delta)
        return solve_stage_price(model, delta)

    monkeypatch.setattr(uavps.pricing, "solve_stage_price", counted)
    again = build_pricing(model, alpha, k, T)
    assert calls == []
    assert again[0].prices.tobytes() == schedule.prices.tobytes()
    assert again[1].values.tobytes() == table.values.tobytes()


def test_build_pricing_no_demand():
    schedule, table = build_pricing(UNI, 0.0, 3, 6)
    assert np.all(table.values == 0.0)
    base = solve_stage_price(UNI, 0.0)
    for j in range(1, 4):
        for t in range(j, 7):
            assert schedule.price(j, t) == pytest.approx(base, abs=1e-12)


def test_build_pricing_hand_chain():
    """Two-slot single-unit chain recomputed from the recursion by hand."""
    alpha = 0.5
    p11 = 1.0
    r11 = alpha * p11 * math.exp(-p11)
    p12 = 1.0 + r11
    sell = math.exp(-p12)
    r12 = alpha * p12 * sell + r11 * (1.0 - alpha * sell)

    schedule, table = build_pricing(EXP1, alpha, 1, 2)
    assert schedule.price(1, 1) == pytest.approx(p11, abs=1e-12)
    assert table.values[1, 1] == pytest.approx(r11, abs=1e-12)
    assert table.values[1, 1] == pytest.approx(0.183940, abs=1e-6)
    assert schedule.price(1, 2) == pytest.approx(p12, abs=1e-12)
    assert table.values[1, 2] == pytest.approx(r12, abs=1e-12)
    # Published rounding of this chain (0.336819) is a touch low; the exact
    # recursion gives 0.336975.
    assert table.values[1, 2] == pytest.approx(0.336819, abs=5e-4)


def test_schedule_shape_and_undefined_prices():
    schedule, table = build_pricing(EXP1, 0.5, 3, 2)
    assert schedule.price(3, 2) is None
    assert table.values[3, 2] == pytest.approx(table.values[2, 2], abs=0)
    assert schedule.price(1, 0) is None


def test_monotonicities_at_reference_point():
    """Price falls in spare capacity and rises in leftover time."""
    schedule, _ = build_pricing(EXP1, 0.8, 10, 10)
    p = schedule.prices
    for t in range(1, 11):
        defined = [p[j, t] for j in range(1, 11) if t >= j]
        assert all(np.diff(defined) <= TOL)
    for j in range(1, 11):
        path = [p[j, t] for t in range(j, 11)]
        assert all(np.diff(path) >= -TOL)


def test_profit_monotone_in_capacity():
    # Round-off dents the order by up to 2.7e-15 at (0.2, 30, 300).
    for model, alpha, k, T in [(EXP1, 0.2, 30, 300), (UNI, 0.8, 10, 60)]:
        _, table = build_pricing(model, alpha, k, T)
        r = table.values
        assert np.all(np.diff(r, axis=0) >= -1e-12 * np.abs(r[1:]))


def test_price_monotone_in_alpha():
    _, _ = build_pricing(EXP1, 0.3, 1, 12)
    s1, _ = build_pricing(EXP1, 0.3, 1, 12)
    s2, _ = build_pricing(EXP1, 0.7, 1, 12)
    for t in range(1, 13):
        assert s2.price(1, t) >= s1.price(1, t) - TOL


def _table_violations(model, alpha, k, T):
    """Hard invariant violations of a freshly built pair (empty when healthy)."""
    schedule, table = build_pricing(model, alpha, k, T)
    r, p = table.values, schedule.prices
    bad = []
    if not (np.all(r[0, :] == 0.0) and np.all(r[:, 0] == 0.0)):
        bad.append("boundary rows not zero")
    for j in range(1, k + 1):
        for t in range(1, T + 1):
            if r[j, t] < r[j, t - 1] - TOL:
                bad.append(f"profit fell in t at ({j},{t})")
            if t < j and abs(r[j, t] - r[t, t]) > TOL:
                bad.append(f"dead capacity not copied at ({j},{t})")
            if t >= j and j * r[1, t // j] > r[j, t] + TOL:
                bad.append(f"joint pricing under split pricing at ({j},{t})")
            if j < k and r[j + 1, t] < r[j, t] - TOL:
                bad.append(f"profit fell in capacity at ({j},{t})")
            if t >= j:
                delta = r[j, t - 1] - r[j - 1, t - 1]
                lo, hi = model.support()
                if p[j, t] < delta - TOL:
                    bad.append(f"price below option value at ({j},{t})")
                if not (lo - TOL <= p[j, t] <= (hi + TOL if not math.isinf(hi)
                                                else math.inf)):
                    bad.append(f"price outside support at ({j},{t})")
    return bad, schedule, table


@pytest.mark.parametrize("model", [EXP1, UNI], ids=["exp", "uniform"])
def test_table_invariants_random_sweep(model):
    rng = np.random.default_rng(99)
    soft = []
    for _ in range(30):
        alpha = float(rng.uniform(0.1, 0.9))
        k = int(rng.integers(1, 7))
        T = int(rng.integers(k, 31))
        bad, schedule, table = _table_violations(model, alpha, k, T)
        assert not bad, bad[:3]
        # Soft checks (observed numerically, not guaranteed): price falls in
        # capacity; profit gains shrink in capacity.
        p, r = schedule.prices, table.values
        for t in range(1, T + 1):
            defined = [p[j, t] for j in range(1, k + 1) if t >= j]
            if np.any(np.diff(defined) > TOL):
                soft.append(f"price rose in capacity alpha={alpha} k={k} T={T} t={t}")
            gains = [r[j + 1, t] - r[j, t] for j in range(0, k) if t >= j + 1]
            if np.any(np.diff(gains) > TOL):
                soft.append(f"capacity gains not concave alpha={alpha} k={k} T={T} t={t}")
    if soft:
        warnings.warn("soft pricing-shape checks flagged: " + "; ".join(soft[:5]))


@pytest.mark.parametrize("model,alpha,k,T", [
    (EXP1, 0.8, 2, 6),
    (UNI, 0.5, 3, 7),
])
def test_stage_prices_are_first_order_optimal(model, alpha, k, T):
    """Nudging any single stage price never raises the final profit."""
    schedule, table = build_pricing(model, alpha, k, T)
    best = table.final()
    for j in range(1, k + 1):
        for t in range(j, T + 1):
            for factor in (0.99, 1.01):
                perturbed = schedule.prices.copy()
                perturbed[j, t] *= factor
                alt = evaluate_schedule(model, alpha, perturbed, k, T)
                assert alt.final() <= best + 1e-12


def test_evaluate_schedule_matches_build():
    schedule, table = build_pricing(UNI, 0.6, 3, 8)
    again = evaluate_schedule(UNI, 0.6, schedule.prices, 3, 8)
    assert np.allclose(again.values, table.values, atol=1e-12)


# -- continuous closed forms ---------------------------------------------------


def capacity_series_sum(x, k):
    """Oracle: S_k(x) = sum_{i=0}^{k} x^i / i!, accumulated by term ratios."""
    total, term = 1.0, 1.0
    for i in range(1, k + 1):
        term *= x / i
        total += term
    return total


def test_capacity_series_against_log_form():
    for x in (0.0, 0.3, 1.0, 7.5):
        for k in (0, 1, 2, 5, 20):
            assert math.log(capacity_series_sum(x, k)) == pytest.approx(
                log_capacity_series(x, k), abs=1e-12)


def _log_series_oracle(x, k):
    """Oracle: log S_k(x) as one logsumexp over log-space terms."""
    if x == 0.0 or k == 0:
        return 0.0
    i = np.arange(k + 1)
    return float(logsumexp(i * math.log(x) - gammaln(i + 1)))


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1e4, allow_subnormal=False), st.integers(0, 3000))
def test_log_series_kernel_against_logsumexp(x, k):
    assert log_capacity_series(x, k) == pytest.approx(_log_series_oracle(x, k),
                                                      rel=1e-12, abs=0.0)


# The capacity search's cut rests on this bound (uavps.allocation): a computed
# log S_k(x) is within a relative (3.3 k + 5) u of the exact value, u = 2^-53.
@settings(max_examples=100, deadline=None)
@given(st.floats(math.log(1e-6), math.log(2000.0)).map(math.exp), st.integers(1, 120))
@example(1.0, 1)  # whole x
@example(2.0, 7)
@example(10.0, 10)
@example(100.0, 40)
@example(1000.0, 120)
@example(50.0, 50)  # k near x, where the terms peak
@example(99.5, 100)
@example(119.0, 120)
@example(30.0, 15)  # either side of a 16-term stride
@example(30.0, 16)
@example(30.0, 17)
@example(2000.0, 63)  # the sum moves to its log offset at term 64
@example(2000.0, 64)
@example(2000.0, 65)
@example(2000.0, 120)
def test_log_series_kernel_within_its_round_off_bound(x, k):
    exact = exact_log_series(x, k)
    with localcontext() as ctx:
        ctx.prec = 60
        error = abs(Decimal(log_capacity_series(x, k)) - exact)
        assert error <= Decimal((3.3 * k + 5) * 2.0 ** -53) * exact, (x, k, error / exact)


# The continuous replay's quote floor rests on this bound (uavps.simulator):
# a computed price (1 + log S_j - log S_{j-1}) / lam, both logs from one pass,
# is short of the exact one by at most (1e-9 + 1e-12 x) / lam, the floor's
# allowance, so it is never below the floor.
@settings(max_examples=100, deadline=None)
@given(st.floats(math.log(1e-6), math.log(2000.0)).map(math.exp), st.integers(1, 120))
@example(1.0, 1)  # whole x
@example(2.0, 2)
@example(7.0, 3)
@example(100.0, 40)
@example(50.0, 50)  # j near x, where the terms peak
@example(119.0, 120)
@example(30.0, 15)  # either side of a 16-term stride
@example(30.0, 16)
@example(30.0, 17)
@example(2000.0, 64)  # the sum moves to its log offset at term 64
@example(2000.0, 65)
@example(2000.0, 120)
def test_below_level_difference_within_the_quote_floor_allowance(x, j):
    rate = x * math.e
    x = rate / math.e  # the kernel's argument at t = 1
    price = Decimal(float(_closed_form_price(1.0, rate, j, 1.0)))
    with localcontext() as ctx:
        ctx.prec = 60
        shortfall = 1 + exact_log_series(x, j) - exact_log_series(x, j - 1) - price
        assert shortfall <= Decimal(1e-9) + Decimal(1e-12) * Decimal(x), (x, j, shortfall)
        assert price >= Decimal(1.0 - 1e-9 - 1e-12 * rate / math.e), (x, j, price)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1e4), st.integers(0, 1500)),
                min_size=1, max_size=12))
def test_log_series_vector_call_equals_scalar_calls(pairs):
    x, k = (np.array(col) for col in zip(*pairs))
    assert _log_series(x, k).tolist() == [log_capacity_series(a, b) for a, b in pairs]
    # broadcasting: every x against k and k + 1
    both = _log_series(x, np.stack((k, k + 1)))
    assert both.shape == (2, len(pairs))
    assert both[1].tolist() == [log_capacity_series(a, b + 1) for a, b in pairs]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1e4), st.integers(1, 200)),
                min_size=1, max_size=12))
@example([(1e4, 48), (1e4, 49), (1e4, 200), (5.0, 1), (0.0, 3)])  # offset moves at 48
def test_log_series_levels_equal_two_kernel_calls(pairs):
    x, k = (np.array(col) for col in zip(*pairs))
    log_k, log_less = _log_series(x, k, below=True)
    assert np.array_equal(log_k, _log_series(x, k))
    assert np.array_equal(log_less, _log_series(x, k - 1))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1e4), st.integers(1, 200)), min_size=1, max_size=12),
       st.randoms(use_true_random=False))
@example([(1e4, 48), (1e4, 48), (5.0, 1), (5.0, 1), (0.0, 3)], None)  # equal k
def test_log_series_bits_do_not_depend_on_entry_order(pairs, random):
    # One unstable sort orders the entries; each entry's sums are its own,
    # so any permutation, equal k included, permutes the logs and no bit more.
    x, k = (np.array(col) for col in zip(*pairs))
    perm = np.array(random.sample(range(x.size), x.size) if random else range(x.size)[::-1])
    assert _log_series(x[perm], k[perm]).tobytes() == _log_series(x, k)[perm].tobytes()
    both, moved = _log_series(x, k, below=True), _log_series(x[perm], k[perm], below=True)
    assert all(m.tobytes() == b[perm].tobytes() for m, b in zip(moved, both))


def test_log_series_order_past_16_bit_capacities():
    # A k past 2^15, beside small ones, with ties at both ends.
    x = np.array([0.5, 3.0e4, 7.0, 3.0e4, 0.5, 2.0])
    k = np.array([3, 2**15 + 5, 1, 2**15 + 5, 3, 2**15])
    perm = np.random.default_rng(28).permutation(x.size)
    for below in (False, True):
        got, want = _log_series(x[perm], k[perm], below), _log_series(x, k, below)
        got, want = (np.atleast_2d(got), np.atleast_2d(want))
        assert all(g.tobytes() == w[perm].tobytes() for g, w in zip(got, want))
    assert _log_series(x, k)[1] == _log_series(3.0e4, 2**15 + 5)


def _oracle_term(x, term, tail, offset, m: int, i: int) -> None:
    """Term i, x^i / i!, added to the first m running sums in place; every 16
    terms a sum past 1e100 moves into its log offset (the kernel's term step,
    copied here so that the oracles do not share it)."""
    t, s = term[:m], tail[:m]
    t *= x[:m] / i
    s += t
    if i % 16 == 0:
        scale = np.where(s > 1e100, s, 1.0)
        offset[:m] += np.log(scale)
        t /= scale
        s /= scale


def _one_level_oracle(x, k):
    """The single-level series pass as it stood before the two-level one was
    folded into it: one term loop over the running prefix."""
    x, k = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(k, dtype=np.int64))
    order = np.argsort(-k, axis=None)
    xs, ks = x.ravel()[order], k.ravel()[order]
    running = np.searchsorted(-ks, -np.arange(1, ks.max(initial=0) + 1), side="right")
    tail, offset, term = np.zeros(xs.size), np.zeros(xs.size), np.ones(xs.size)
    for i, m in enumerate(running, start=1):
        _oracle_term(xs, term, tail, offset, m, i)
    out = np.empty(xs.size)
    out[order] = _series_log(tail, offset)
    return out.reshape(x.shape)


def _two_level_oracle(x, k):
    """The separate two-level pass for 1-d x and k >= 1, as it stood before
    the fold: log S_k and log S_{k-1} from snapshots one term before the end."""
    order = np.argsort(-k)
    xs, ks = x[order], k[order]
    bounds = np.searchsorted(-ks, -np.arange(1, ks[0] + 2), side="right")
    tail, offset, term = np.zeros(xs.size), np.zeros(xs.size), np.ones(xs.size)
    prev_tail, prev_offset = np.empty(xs.size), np.empty(xs.size)
    for i in range(1, ks[0] + 1):
        lo, m = bounds[i], bounds[i - 1]
        if lo < m:
            prev_tail[lo:m] = tail[lo:m]
            prev_offset[lo:m] = offset[lo:m]
        _oracle_term(xs, term, tail, offset, m, i)
    logs, prev = np.empty(xs.size), np.empty(xs.size)
    logs[order] = _series_log(tail, offset)
    prev[order] = _series_log(prev_tail, prev_offset)
    return logs, prev


_SERIES_PAIRS = st.lists(st.tuples(st.floats(0.0, 1e4), st.integers(0, 200)),
                         min_size=1, max_size=12)


@settings(max_examples=80, deadline=None)
@given(_SERIES_PAIRS, st.sampled_from(["flat", "rows", "columns", "grid"]))
@example([(1e4, 48), (1e4, 49), (1e4, 200), (5.0, 1), (0.0, 3), (7.0, 0)], "flat")
@example([(1e4, 48), (1e4, 49), (1e4, 200), (5.0, 1)], "grid")  # offset moves at 48
def test_single_level_series_equals_its_oracle(pairs, layout):
    x, k = (np.array(col) for col in zip(*pairs))  # k = 0 entries included
    x, k = {"flat": (x, k),
            "rows": (x, np.stack((k, k + 1))),  # x against k and k + 1
            "columns": (x[:, None], np.stack((k, k + 1), axis=1)),
            "grid": (x, k[:, None])}[layout]  # every x against every k
    got, want = _log_series(x, k), _one_level_oracle(x, k)
    assert got.shape == want.shape and np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(_SERIES_PAIRS)
@example([(1e4, 48), (1e4, 49), (1e4, 200), (5.0, 1), (0.0, 3)])  # offset moves at 48
def test_two_level_series_equals_its_oracle(pairs):
    x, k = (np.array(col) for col in zip(*pairs))
    k = k + 1  # log S_{k-1} needs k >= 1
    log_k, log_less = _log_series(x, k, below=True)
    want_k, want_less = _two_level_oracle(x, k)
    assert np.array_equal(log_k, want_k) and np.array_equal(log_less, want_less)
    # nd: the same entries as a column and as a grid against a second x
    col_k, col_less = _log_series(x[:, None], k[:, None], below=True)
    assert np.array_equal(col_k[:, 0], want_k) and np.array_equal(col_less[:, 0], want_less)
    grid_k, grid_less = _log_series(np.stack((x, x[::-1])), k, below=True)
    assert grid_k.shape == grid_less.shape == (2, x.size)
    for row, xr in zip(zip(grid_k, grid_less), (x, x[::-1])):
        want = _two_level_oracle(xr, k)
        assert np.array_equal(row[0], want[0]) and np.array_equal(row[1], want[1])


_WIDE_PAIRS = st.lists(st.tuples(st.one_of(st.floats(0.0, 1e4), st.floats(0.0, 1e12)),
                                 st.integers(0, 120)), max_size=40)


@settings(max_examples=60, deadline=None)
@given(_WIDE_PAIRS)
@example([])
@example([(1e12, 120), (1e12, 17), (3.0e11, 48), (7.0, 0), (1e4, 33), (0.0, 20)] * 7)
@example([(1e12, 64), (1e12, 65), (2.5e10, 16), (5.0, 1)])  # a move at every stride
def test_log_series_narrow_finish_equals_the_per_term_loop(pairs):
    # Width 0 runs every term as a numpy pass, as the oracles do; at 1 and 32
    # the last running entries finish in Python floats, and at 10**9 every
    # entry does from its first term. Every width gives the oracles' bits.
    x = np.array([a for a, _ in pairs], dtype=float)
    k = np.array([b for _, b in pairs], dtype=np.int64)  # k = 0 entries included
    want = _one_level_oracle(x, k)
    want_k, want_less = _two_level_oracle(x, k + 1) if k.size else (want, want)
    for width in (0, 1, 32, 10**9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(uavps.pricing, "_SERIES_NARROW", width)
            got = _log_series(x, k)
            log_k, log_less = _log_series(x, k + 1, below=True)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), width
        assert log_k.tobytes() == want_k.tobytes(), width
        assert log_less.tobytes() == want_less.tobytes(), width


def test_log_series_at_large_simulation_argument():
    # Rate 200, k = 400, T = 20: the linear-space levels of the continuous
    # simulator overflowed at this argument.
    x = 200.0 * 20.0 / math.e
    levels = _log_series(x, np.arange(401))
    assert np.all(np.isfinite(levels)) and np.all(np.diff(levels) > 0.0)
    for k in (1, 20, 400):
        assert levels[k] == pytest.approx(_log_series_oracle(x, k), rel=1e-12, abs=0.0)
        assert price_closed_form(1.0, 200.0, k, 20.0) == pytest.approx(
            1.0 + levels[k] - levels[k - 1], rel=1e-12)


def test_closed_form_profit_values():
    assert expected_profit_closed_form(2.0, 1.5, 4, 0.0) == 0.0
    assert expected_profit_closed_form(1.0, 1.0, 1, math.e) == pytest.approx(
        math.log(2.0), abs=1e-12)
    assert expected_profit_closed_form(1.0, 1.0, 2, math.e) == pytest.approx(
        math.log(2.5), abs=1e-12)


def test_closed_form_profit_large_capacity_is_stable():
    # i! overflows floats beyond i = 170; the log-space sum must not.
    value = expected_profit_closed_form(1.0, 5.0, 500, 100.0)
    assert math.isfinite(value)
    assert value == pytest.approx(5.0 * 100.0 / math.e / 1.0, rel=0.01)


def test_price_closed_form_values():
    assert price_closed_form(2.0, 1.0, 3, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert price_closed_form(1.0, 1.0, 1, math.e) == pytest.approx(
        1.0 + math.log(2.0), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-3, 500.0), st.integers(1, 300),
       st.one_of(st.just(0.0), st.floats(1e-3, 100.0)))
@example(1.0, 1.0, 1, math.e)
@example(0.5, 200.0, 400, 20.0)  # the series moves to its log offset
def test_price_closed_form_equals_two_series_calls(lam, rate, k, t):
    # One kernel pass with ``below`` reads both levels of the price.
    x = rate * t / math.e
    want = (1.0 + log_capacity_series(x, k) - log_capacity_series(x, k - 1)) / lam
    assert price_closed_form(lam, rate, k, t) == want


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-3, 500.0),
       st.lists(st.tuples(st.integers(1, 300), st.one_of(st.just(0.0), st.floats(1e-3, 100.0))),
                min_size=1, max_size=12))
@example(0.5, 200.0, [(400, 20.0), (1, 0.0), (3, 2.5)])  # one entry past the log offset
def test_vector_closed_form_price_equals_scalar_calls(lam, rate, pairs):
    k, t = (np.array(col) for col in zip(*pairs))
    got = _closed_form_price(lam, rate, k, t)
    assert got.tolist() == [price_closed_form(lam, rate, a, b) for a, b in pairs]


def _largest_rate_in_domain(t):
    """The largest rate whose series argument rate * t / e is at most 1e12."""
    rate = 1e12 * math.e / t
    while rate * t / math.e > 1e12:
        rate = math.nextafter(rate, 0.0)
    while math.nextafter(rate, math.inf) * t / math.e <= 1e12:
        rate = math.nextafter(rate, math.inf)
    return rate


@pytest.mark.parametrize("t", [1.0, 10.0, 0.3])
def test_closed_forms_take_series_arguments_up_to_1e12(t):
    # RuntimeWarning is an error here: the edge stays finite, one ulp past it raises.
    rate = _largest_rate_in_domain(t)
    assert math.isfinite(expected_profit_closed_form(1.0, rate, 200, t))
    assert math.isfinite(price_closed_form(1.0, rate, 200, t))
    assert math.isfinite(log_capacity_series(rate * t / math.e, 200))
    for f in (expected_profit_closed_form, price_closed_form):
        with pytest.raises(ParameterError, match="series argument"):
            f(1.0, math.nextafter(rate, math.inf), 200, t)


@pytest.mark.parametrize("rate, t", [(1e20, 10.0), (1e13, 1.0), (1.0, math.inf),
                                     (math.inf, 0.0), (math.inf, 1.0)])
def test_closed_forms_reject_series_arguments_past_1e12(rate, t):
    for f in (expected_profit_closed_form, price_closed_form):
        with pytest.raises(ParameterError, match="series argument"):
            f(1.0, rate, 200, t)
    with pytest.raises(ParameterError, match="series argument"):
        log_capacity_series(rate * t / math.e, 200)


def test_price_equals_mean_plus_marginal_profit():
    for rate in (0.5, 1.0, 2.0):
        for k in (1, 2, 4):
            for t in (0.3, 1.0, math.e, 6.0):
                lhs = price_closed_form(1.0, rate, k, t)
                marginal = expected_profit_closed_form(1.0, rate, k, t)
                if k > 1:
                    marginal -= expected_profit_closed_form(1.0, rate, k - 1, t)
                assert lhs == pytest.approx(1.0 + marginal, abs=1e-10)


def test_closed_form_shape_at_reference_point():
    p1, p2, p3 = (price_closed_form(1.0, 1.0, k, math.e) for k in (1, 2, 3))
    assert p1 > p2 > p3
    assert 2 * p2 <= p1 + p3 + 1e-12


def test_closed_form_concavity():
    for rate in (0.5, 1.0, 2.0):
        profits = [expected_profit_closed_form(1.0, rate, k, 4.0)
                   for k in range(1, 8)]
        second = np.diff(profits, 2)
        assert np.all(second <= 1e-12)
        h = 1e-3
        for t in (0.5, 2.0, 6.0):
            f = lambda x: expected_profit_closed_form(1.0, rate, 3, x)
            curvature = (f(t + h) - 2 * f(t) + f(t - h)) / h**2
            assert curvature <= 1e-6


def test_continuous_numeric_matches_closed_form():
    assert continuous_profit_numeric(EXP1, 1.0, 1, 0.0) == 0.0
    for k, step in ((1, 1e-4), (1, 1e-3), (3, 1e-3)):
        numeric = continuous_profit_numeric(EXP1, 1.0, k, math.e, step)
        exact = expected_profit_closed_form(1.0, 1.0, k, math.e)
        assert numeric == pytest.approx(exact, abs=1e-5)


def test_continuous_numeric_works_for_uniform():
    # No closed form to compare; sanity: monotone in T and below the mean cap.
    lo = continuous_profit_numeric(UNI, 0.5, 2, 2.0, 1e-3)
    hi = continuous_profit_numeric(UNI, 0.5, 2, 4.0, 1e-3)
    assert 0.0 < lo < hi < 2 * 15.0


def test_continuous_numeric_rejects_coarse_step():
    with pytest.raises(ValueError):
        continuous_profit_numeric(EXP1, 8.0, 1, 40.0, step=40.0)


def _numeric_oracle(model, arrival_rate, capacity, horizon, step):
    """The former numpy integrator: RK4 on the array (R_0, ..., R_k), the
    stage gain from the vector handles, the same steps and Richardson check."""
    k = int(capacity)

    def deriv(r):
        delta = r[1:] - r[:-1]
        p = np.asarray(model.inverse_virtual_value(delta))
        gain = (p - delta) * (1.0 - np.asarray(model.cdf(p)))
        out = np.zeros_like(r)
        out[1:] = arrival_rate * gain
        return out

    def integrate(h):
        n = max(1, math.ceil(horizon / h))
        dt = horizon / n
        r = np.zeros(k + 1)
        for _ in range(n):
            k1 = deriv(r)
            k2 = deriv(r + 0.5 * dt * k1)
            k3 = deriv(r + 0.5 * dt * k2)
            k4 = deriv(r + dt * k3)
            r = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return float(r[k])

    coarse, fine = integrate(step), integrate(step / 2.0)
    if abs(coarse - fine) >= 1e-6 * max(1.0, abs(fine)):
        raise ValueError(f"step {step} too coarse")
    return fine


_ODE_MODELS = st.one_of(
    st.floats(0.2, 5.0).map(ValuationModel.exponential),
    st.tuples(st.floats(0.0, 10.0), st.floats(0.5, 10.0)).map(
        lambda lw: ValuationModel.uniform(lw[0], lw[0] + lw[1])))


@settings(max_examples=40, deadline=None)
@given(_ODE_MODELS, st.floats(0.1, 5.0), st.integers(1, 6),
       st.floats(0.0, 2.0), st.sampled_from((1e-2, 5e-3)))
def test_continuous_numeric_against_numpy_integrator(model, rate, k, T, step):
    expected = _numeric_oracle(model, rate, k, T, step) if T > 0 else 0.0
    got = continuous_profit_numeric(model, rate, k, T, step)
    assert type(got) is float
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_continuous_numeric_against_numpy_integrator_at_k25():
    for model, rate in ((EXP1, 2.0), (UNI, 1.5)):
        assert continuous_profit_numeric(model, rate, 25, 2.0, 1e-2) == pytest.approx(
            _numeric_oracle(model, rate, 25, 2.0, 1e-2), rel=1e-12, abs=0.0)


def test_discrete_converges_to_continuous():
    """Per-slot probability a'*eps over T/eps slots approaches the closed form.

    T = 3 keeps every slot count integral, so the pure scheme error shows
    without horizon-rounding noise.
    """
    rate, T, k = 1.0, 3.0, 2
    exact = expected_profit_closed_form(1.0, rate, k, T)
    errors = []
    for eps in (0.1, 0.01, 0.001):
        slots = round(T / eps)
        _, table = build_pricing(EXP1, rate * eps, k, slots)
        errors.append(abs(table.final() - exact))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 0.01 * exact


def test_schedule_csv_rows_layout():
    schedule, table = build_pricing(EXP1, 0.5, 2, 3)
    rows = list(schedule_csv_rows(schedule, table))
    assert len(rows) == 3 * 4
    assert rows[0] == (0, 0, None, 0.0)
    j, t, price, profit = rows[4 + 1]  # (j=1, t=1)
    assert (j, t) == (1, 1) and price == pytest.approx(1.0)
    assert rows[2 * 4 + 1][2] is None  # (j=2, t=1) has no price


def schedule_csv_rows_per_cell(schedule, table):
    """The former ``schedule_csv_rows``: one ``PriceSchedule.price`` call per cell."""
    values = table.values.tolist()
    for j in range(table.capacity + 1):
        for t in range(table.horizon + 1):
            yield j, t, schedule.price(j, t), values[j][t]


@pytest.mark.parametrize("model, alpha, k, T", [
    (EXP1, 0.5, 3, 10), (UNI, 0.8, 5, 3), (EXP1, 1.0, 1, 0), (EXP1, 0.0, 4, 4),
    (UNI, [0.2, 0.0, 0.9], 4, 7), (EXP1, [0.6], 6, 2)])
def test_schedule_csv_rows_equal_one_price_call_per_cell(model, alpha, k, T):
    schedule, table = build_pricing(model, alpha, k, T)
    assert (list(schedule_csv_rows(schedule, table))
            == list(schedule_csv_rows_per_cell(schedule, table)))
