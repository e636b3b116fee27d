"""Distribution accessors: closed forms against independent numeric oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from uavps.valuations import ParameterError, ValuationModel

from oracles import check_regularity, scalar_stage_gain

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
    # A field of the other family, through the raw constructor.
    with pytest.raises(ParameterError, match="no support bounds"):
        ValuationModel("exponential", rate=1.0, lower=0.0)
    with pytest.raises(ParameterError, match="no rate"):
        ValuationModel("uniform", rate=1.0, lower=0.0, upper=1.0)


def test_cdf_trivial_points():
    assert EXP1.cdf(0.0) == 0.0
    assert UNI.cdf(10.0) == 0.5
    assert UNI.cdf(4.0) == 0.0 and UNI.cdf(16.0) == 1.0
    assert EXP1.cdf(-3.0) == 0.0 and math.copysign(1.0, EXP1.cdf(-3.0)) == 1.0


def _cdf_oracle(model, v):
    """ValuationModel.cdf with the exponential branch's np.where guard, which
    ``np.maximum(v, 0.0)`` makes redundant: the oracle for dropping it. Its
    rate * v overflows to inf past DBL_MAX / rate, which gives the right 1.0,
    as the uniform quotient does past a narrow support; below a uniform
    support it gives +0.0, where the quotient may be -0.0."""
    v = np.asarray(v, dtype=float)
    if model.kind == "exponential":
        with np.errstate(over="ignore"):
            out = np.where(v < 0.0, 0.0, -np.expm1(-model.rate * np.maximum(v, 0.0)))
    else:
        with np.errstate(over="ignore"):
            out = np.where(v < model.lower, 0.0, np.clip(
                (v - model.lower) / (model.upper - model.lower), 0.0, 1.0))
    return out if out.ndim else float(out)


def _bits(x):
    """The bytes of a float or an array, so that -0.0 and +0.0 differ."""
    return type(x), np.asarray(x, dtype=float).tobytes()


EDGE_VALUATIONS = [-1.0, -0.0, 0.0, math.nan, math.inf, -math.inf, 5.0, 15.0, 1e-300]


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_cdf_equals_its_oracle_on_edge_values(model):
    for v in EDGE_VALUATIONS:
        assert _bits(model.cdf(v)) == _bits(_cdf_oracle(model, v)), v
    for edges in (np.array(EDGE_VALUATIONS), np.array(EDGE_VALUATIONS).reshape(3, 3)):
        assert _bits(model.cdf(edges)) == _bits(_cdf_oracle(model, edges))


@settings(max_examples=200, deadline=None)
# rate * v overflowed inside cdf, an error under the suite's warning filter
@example(ValuationModel.exponential(2.0), [8.98846567431158e+307, 1.7976931348623157e308])
@given(st.sampled_from(MODELS),
       st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                          st.sampled_from(EDGE_VALUATIONS)), max_size=30))
def test_cdf_equals_its_oracle_bit_for_bit(model, values):
    assert _bits(model.cdf(np.array(values))) == _bits(_cdf_oracle(model, np.array(values)))
    for v in values[:5]:
        assert _bits(model.cdf(v)) == _bits(_cdf_oracle(model, v))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lower, upper", [(1.0, 1.0 + 2**-52), (0.0, 5e-324), (0.0, 1e-300),
                                          (0.0, 10.0)])
def test_uniform_cdf_stays_exact_past_a_narrow_support(lower, upper):
    # (v - lower) / width overflowed once v - lower passed DBL_MAX times the
    # width: at 1e300 for a width of 2^-52, at 1.0 for 5e-324. Under lower = 0
    # it was -0.0 at v = -5e-324.
    model = ValuationModel.uniform(lower, upper)
    v = np.array([-1e300, -5e-324, lower, upper, 2.0 * upper + 1.0, 1e300, math.inf])
    assert _bits(model.cdf(v)) == _bits(np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]))
    assert _bits(model.cdf(v)) == _bits(_cdf_oracle(model, v))
    assert model.cdf(1e300) == 1.0


def _inverse_virtual_value_oracle(model, target):
    """ValuationModel.inverse_virtual_value with ``np.clip`` for the uniform
    clamp: the oracle for calling the array method, which reaches the same
    ufunc without the wrapper."""
    t = np.asarray(target, dtype=float)
    if model.kind == "exponential":
        out = np.maximum(t + 1.0 / model.rate, 0.0)
    else:
        out = np.clip(0.5 * (t + model.upper), model.lower, model.upper)
    return out if out.ndim else float(out)


def _clamp_targets(model):
    """Targets at and one ulp either side of where the clamps start: phi at
    each support bound."""
    if model.kind == "exponential":
        edges = [-1.0 / model.rate]
    else:
        edges = [2.0 * model.lower - model.upper, model.upper]
    return [np.nextafter(e, d) for e in edges for d in (-math.inf, e, math.inf)]


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_inverse_virtual_value_equals_its_oracle_on_edge_values(model):
    targets = EDGE_VALUATIONS + _clamp_targets(model)
    for t in targets:
        assert _bits(model.inverse_virtual_value(t)) == _bits(
            _inverse_virtual_value_oracle(model, t)), t
    for edges in (np.array(targets), np.array(EDGE_VALUATIONS).reshape(3, 3)):
        assert _bits(model.inverse_virtual_value(edges)) == _bits(
            _inverse_virtual_value_oracle(model, edges))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(MODELS),
       st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                          st.sampled_from(EDGE_VALUATIONS)), max_size=30))
def test_inverse_virtual_value_equals_its_oracle_bit_for_bit(model, targets):
    assert _bits(model.inverse_virtual_value(np.array(targets))) == _bits(
        _inverse_virtual_value_oracle(model, np.array(targets)))
    for t in targets[:5]:
        assert _bits(model.inverse_virtual_value(t)) == _bits(
            _inverse_virtual_value_oracle(model, t))


def test_cdf_exponential_against_empirical():
    # 1 - e^{-1} at rate 2, v = 0.5; cross-checked by the empirical CDF.
    model = ValuationModel.exponential(2.0)
    exact = -math.expm1(-1.0)
    assert model.cdf(0.5) == pytest.approx(exact, abs=1e-12)
    assert round(exact, 6) == 0.632121
    rng = np.random.default_rng(101)
    draws = model.sample(rng.random(10**6))
    assert abs(np.mean(draws <= 0.5) - exact) < 2e-3


def test_uniform_density_on_a_narrow_support():
    # 1 / width overflowed to inf, with no warning, below a width of 1 / DBL_MAX.
    assert ValuationModel.uniform(0.0, 1e-300).pdf(0.0) == 1.0 / 1e-300
    with pytest.raises(ParameterError, match="support width 5e-324"):
        ValuationModel.uniform(0.0, 5e-324).pdf(0.0)


def test_virtual_value_closed_forms():
    assert EXP1.virtual_value(1.0) == pytest.approx(0.0, abs=1e-12)
    assert UNI.virtual_value(7.5) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        EXP1.virtual_value(-0.1)
    with pytest.raises(ValueError):
        UNI.virtual_value(4.9)
    # rate * v overflowed inside pdf, an error under the suite's warning filter;
    # f(v) underflows to 0 there, where the virtual value is undefined
    assert ValuationModel.exponential(2.0).pdf(8.98846567431158e+307) == 0.0
    with pytest.raises(ValueError):
        ValuationModel.exponential(2.0).virtual_value(8.98846567431158e+307)


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
    assert ValuationModel.exponential(2.0).mean() == 0.5 and UNI.mean() == 10.0
    # NaN passed the refusal, which tested u < 0 and u >= 1, and sampled NaN.
    for model in (EXP1, UNI):
        for draw in (1.0, -0.1, math.nan, np.array([0.5, math.nan]), np.array([0.2, 1.0])):
            with pytest.raises(ParameterError, match="uniform draws"):
                model.sample(draw)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MODELS), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30))
@example(EXP1, [0.0, math.nextafter(1.0, 0.0)])
@example(UNI, [0.0, math.nextafter(1.0, 0.0)])
def test_quantile_equals_sample_bit_for_bit(model, draws):
    # The replays call the unchecked transform on generator doubles.
    u = np.array(draws, dtype=float)
    assert model._quantile(u).tobytes() == model.sample(u).tobytes()
    for x in draws:
        assert float(model._quantile(np.float64(x))) == model.sample(x)


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_check_regularity(model):
    assert check_regularity(model)


def test_check_regularity_rejects_decreasing_segment():
    class Humped:
        """Virtual value dips on a sub-interval: not regular."""

        def support(self):
            return 0.0, 10.0

        def sample(self, u):
            return 10.0 * u

        def virtual_value(self, v):
            return v - 2.0 * math.sin(v)

    assert not check_regularity(Humped())


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
    gain = model._ode_gain(1.0)
    for delta, price, want in zip(deltas.tolist(), p.tolist(), expected.tolist()):
        got = gain(delta)
        assert type(got) is float
        assert abs(got - want) <= 2 * math.ulp(want) + 2.3e-16 * abs(price - delta), delta
    if model.kind == "uniform":  # the upper clamp sells nothing
        assert gain(hi) == 0.0 and gain(hi + 1.0) == 0.0
    else:  # below the lower clamp the price is 0 and always sells
        assert gain(clamps[0] - 1.0) == -(clamps[0] - 1.0)


@pytest.mark.parametrize("model", MODELS + [ValuationModel.uniform(0.0, 1e-4),
                                            ValuationModel.exponential(1e3)], ids=str)
def test_ode_gain_equals_the_former_stage_gain_bit_for_bit(model):
    # The closure clamps by compares where the former method called max() and
    # min(): the same value at -0.0, NaN, each clamp and one ulp either side.
    lo, hi = model.support()
    clamps = [-1.0 / model.rate] if model.kind == "exponential" else [2.0 * lo - hi, hi]
    deltas = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0]
    for c in clamps:
        deltas += [c, math.nextafter(c, -math.inf), math.nextafter(c, math.inf)]
    gain = model._ode_gain(1.0)
    for delta in deltas:
        assert _bits(gain(delta)) == _bits(scalar_stage_gain(model, delta)), delta


def test_serialization_round_trip():
    for model in MODELS:
        fields = {k: v for k, v in dataclasses.asdict(model).items() if v is not None}
        assert ValuationModel.from_dict(fields) == model
    with pytest.raises(ValueError):
        ValuationModel.from_dict({"kind": "exponential", "rate": 1.0, "junk": 1})
    with pytest.raises(ValueError):
        ValuationModel.from_dict({"kind": "uniform", "lower": 1.0})
    with pytest.raises(ParameterError, match="unknown valuation family"):
        ValuationModel.from_dict({"kind": "beta", "a": 1})
