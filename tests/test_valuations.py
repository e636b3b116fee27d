"""Distribution accessors: closed forms against independent numeric oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from uavps.valuations import ValuationModel, check_regularity

EXP1 = ValuationModel.exponential(1.0)
UNI = ValuationModel.uniform(5.0, 15.0)

MODELS = [
    EXP1,
    ValuationModel.exponential(0.5),
    ValuationModel.exponential(2.0),
    UNI,
    ValuationModel.uniform(0.0, 10.0),
    ValuationModel.uniform(6.0, 8.0),
]


def test_constructor_validation():
    with pytest.raises(ValueError):
        ValuationModel.exponential(0.0)
    with pytest.raises(ValueError):
        ValuationModel.uniform(5.0, 5.0)
    with pytest.raises(ValueError):
        ValuationModel.uniform(-1.0, 5.0)
    with pytest.raises(ValueError):
        ValuationModel(kind="normal", rate=1.0)


def test_cdf_trivial_points():
    assert EXP1.cdf(0.0) == 0.0
    assert UNI.cdf(10.0) == 0.5
    assert UNI.cdf(4.0) == 0.0 and UNI.cdf(16.0) == 1.0
    assert EXP1.cdf(-3.0) == 0.0


def test_cdf_exponential_against_empirical():
    # 1 - e^{-1} at rate 2, v = 0.5; cross-checked by the empirical CDF.
    model = ValuationModel.exponential(2.0)
    exact = -math.expm1(-1.0)
    assert model.cdf(0.5) == pytest.approx(exact, abs=1e-12)
    assert round(exact, 6) == 0.632121
    rng = np.random.default_rng(101)
    draws = model.sample(rng.random(10**6))
    assert abs(np.mean(draws <= 0.5) - exact) < 2e-3


def test_virtual_value_closed_forms():
    assert EXP1.virtual_value(1.0) == pytest.approx(0.0, abs=1e-12)
    assert UNI.virtual_value(7.5) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        EXP1.virtual_value(-0.1)
    with pytest.raises(ValueError):
        UNI.virtual_value(4.9)


def test_virtual_value_finite_difference_oracle():
    # phi(3) = 1 for rate 0.5, re-derived from v - (1 - F) / f with numeric f.
    model = ValuationModel.exponential(0.5)
    v, h = 3.0, 1e-6
    f_numeric = (model.cdf(v + h) - model.cdf(v - h)) / (2 * h)
    phi_numeric = v - (1.0 - model.cdf(v)) / f_numeric
    assert phi_numeric == pytest.approx(1.0, abs=1e-5)
    assert model.virtual_value(v) == pytest.approx(1.0, abs=1e-12)


def test_inverse_virtual_value_examples():
    assert EXP1.inverse_virtual_value(0.0) == pytest.approx(1.0, abs=1e-12)
    assert UNI.inverse_virtual_value(15.0) == 15.0  # top-of-support clamp

    # bisection oracle on phi(v) - 4 over [0, 10]
    model = ValuationModel.uniform(0.0, 10.0)
    lo, hi = 0.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if model.virtual_value(mid) < 4.0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(7.0, abs=1e-9)
    assert model.inverse_virtual_value(4.0) == pytest.approx(7.0, abs=1e-12)


def test_inverse_virtual_value_lower_clamp():
    # phi(lower) > 0 when 2 * lower > upper; targets below it clamp to lower.
    tight = ValuationModel.uniform(6.0, 8.0)
    assert tight.inverse_virtual_value(0.0) == 6.0
    assert EXP1.inverse_virtual_value(-5.0) == 0.0


def test_sample_examples():
    assert UNI.sample(0.0) == 5.0
    assert UNI.sample(0.5) == 10.0
    assert EXP1.sample(0.5) == pytest.approx(math.log(2.0), abs=1e-12)
    rng = np.random.default_rng(7)
    median = np.median(EXP1.sample(rng.random(10**6)))
    assert median == pytest.approx(math.log(2.0), abs=3e-3)
    with pytest.raises(ValueError):
        EXP1.sample(1.0)


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_check_regularity(model):
    assert check_regularity(model, 100)


def test_check_regularity_rejects_decreasing_segment():
    class Humped:
        """Virtual value dips on a sub-interval: not regular."""

        def support(self):
            return 0.0, 10.0

        def sample(self, u):
            return 10.0 * u

        def virtual_value(self, v):
            return v - 2.0 * math.sin(v)

    assert not check_regularity(Humped(), 100)
    with pytest.raises(ValueError):
        check_regularity(EXP1, 1)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99))
def test_round_trip_quantile(u):
    for model in MODELS:
        assert model.cdf(model.sample(u)) == pytest.approx(u, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99))
def test_round_trip_virtual_value(u):
    # map the unit draw into the interior of each support
    for model in MODELS:
        v = model.sample(u)
        if v <= model.support()[0]:
            continue
        assert model.inverse_virtual_value(model.virtual_value(v)) == pytest.approx(
            v, abs=1e-9)


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_empirical_cdf_kolmogorov_smirnov(model):
    rng = np.random.default_rng(1234)
    draws = model.sample(rng.random(10**6))
    stat = stats.kstest(draws, model.cdf).statistic
    assert stat < 0.005


@pytest.mark.parametrize("model", MODELS, ids=str)
@pytest.mark.parametrize("threshold", [-1.0, 0.0, 0.7, 5.5, 9.0, 20.0])
def test_expected_excess_against_survival_integral(model, threshold):
    # E[(V - t)^+] equals the integral of the survival function above t.
    _, hi = model.support()
    if math.isinf(hi):
        hi = model.sample(1.0 - 1e-12)
    if threshold >= hi:
        numeric = 0.0
    else:
        grid = np.linspace(threshold, hi, 400_001)
        numeric = float(np.trapezoid(1.0 - np.asarray(model.cdf(grid)), grid))
    assert model.expected_excess(threshold) == pytest.approx(numeric, abs=5e-6)


def _excess_with_libm(model, t):
    """E[(V - t)^+] from the closed forms, through math.exp and float pow."""
    if model.kind == "exponential":
        return 1.0 / model.rate - t if t < 0.0 else math.exp(-model.rate * t) / model.rate
    a, b = model.lower, model.upper
    if t > b:
        return 0.0
    return 0.5 * (a + b) - t if t < a else (b - t) ** 2 / (2.0 * (b - a))


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_expected_excess_vector_call_matches_libm_bit_for_bit(model):
    # On AVX-512 hosts numpy's SIMD exp differs from libm's in the last bit on
    # about one entry in twenty, its square on about one in a thousand; the
    # benchmark tables must not depend on how many cells share a call.
    lo, hi = model.support()
    hi = hi if math.isfinite(hi) else model.sample(0.9999)
    thresholds = np.random.default_rng(7).uniform(lo - 2.0, hi + 2.0, 20_000)
    values = model.expected_excess(thresholds)
    assert values.tolist() == [_excess_with_libm(model, t) for t in thresholds.tolist()]
    assert values[:50].tolist() == [model.expected_excess(t) for t in thresholds[:50]]


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_stage_gain_matches_vector_handles(model):
    # (p - delta)(1 - F(p)) at p = phi^{-1}(delta). numpy's SIMD expm1 may
    # differ from libm's in the last bit, and 1 - F(p) absorbs that as an
    # absolute error of an ulp of 1, so the bound is ulp-scale.
    lo, hi = model.support()
    if model.kind == "exponential":
        clamps = [-1.0 / model.rate]  # p = 0 at and below
        span = (-3.0 / model.rate, 40.0 / model.rate)
    else:
        clamps = [2.0 * lo - hi, hi]  # p = lower at and below, p = upper at and above
        span = (2.0 * lo - hi - 3.0, hi + 3.0)
    deltas = np.concatenate((
        np.random.default_rng(11).uniform(*span, 5000), clamps,
        [np.nextafter(c, -np.inf) for c in clamps],
        [np.nextafter(c, np.inf) for c in clamps], [c - 1.0 for c in clamps],
        [c + 1.0 for c in clamps], [0.0]))
    p = np.asarray(model.inverse_virtual_value(deltas))
    expected = (p - deltas) * (1.0 - np.asarray(model.cdf(p)))
    for delta, price, want in zip(deltas.tolist(), p.tolist(), expected.tolist()):
        got = model._stage_gain(delta)
        assert type(got) is float
        assert abs(got - want) <= 2 * math.ulp(want) + 2.3e-16 * abs(price - delta), delta
    if model.kind == "uniform":  # the upper clamp sells nothing
        assert model._stage_gain(hi) == 0.0 and model._stage_gain(hi + 1.0) == 0.0
    else:  # below the lower clamp the price is 0 and always sells
        assert model._stage_gain(clamps[0] - 1.0) == -(clamps[0] - 1.0)


def test_serialization_round_trip():
    for model in MODELS:
        assert ValuationModel.from_dict(model.to_dict()) == model
    with pytest.raises(ValueError):
        ValuationModel.from_dict({"kind": "exponential", "rate": 1.0, "junk": 1})
    with pytest.raises(ValueError):
        ValuationModel.from_dict({"kind": "uniform", "lower": 1.0})
