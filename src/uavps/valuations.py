"""Service-valuation distributions and their virtual-value machinery.

Downstream code reads ``cdf`` (the CDF F), ``inverse_virtual_value`` (the
inverse of phi(v) = v - (1 - F(v)) / f(v)), ``expected_excess``, the stage rules
and ``_quantile``, the inverse CDF ``sample`` checks; never ``pdf`` or phi itself.
Two families are supported:

* exponential with rate lam: mean 1/lam, support [0, inf)
* uniform on [lower, upper] with lower >= 0

Both families are regular (phi strictly increasing), so the stage-price
equation phi(p) = delta always has a unique solution, and both admit closed
forms for phi and its inverse. No numerical root finding is needed on the
pricing hot path.

All methods accept numpy arrays as well as scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import le, lt

import numpy as np

EXPONENTIAL = "exponential"
UNIFORM = "uniform"


class ParameterError(ValueError):
    """An argument outside the domain of the function it was given to; every
    module raises it, and every module imports this one."""


# The accepted values of every public argument, one row per kind: the type a
# value is converted to, and the interval it must then lie in, read as
# "least op x op greatest" (lt excludes an end, le includes it). An int kind
# also takes a whole float such as 6.0; "probabilities" takes a float or a
# 1-d array of them. A valuation rate of at least 1e-100 and uniform bounds of
# at most 1e100 keep valuations, prices and profits (a closed form's is at
# most 1e12 / lam), and their squares, finite; a "search index", which bounds
# a discrete search's k and T, stays below 2^62, where no int64 cast wraps. The
# README's "Accepted values" table lists the same rows, and a test holds the
# two equal.
_DOMAIN = {
    "count": (int, 1, le, lt, math.inf),
    "size": (int, 0, le, lt, math.inf),
    "probability": (float, 0.0, le, le, 1.0),
    "probabilities": (np.ndarray, 0.0, le, le, 1.0),
    "valuation rate": (float, 1e-100, le, lt, math.inf),
    "valuation bound": (float, 0.0, le, le, 1e100),
    "positive": (float, 0.0, lt, le, math.inf),
    "positive finite": (float, 0.0, lt, lt, math.inf),
    "nonnegative": (float, 0.0, le, le, math.inf),
    "nonnegative finite": (float, 0.0, le, lt, math.inf),
    "series argument": (float, 0.0, le, le, 1e12),
    # Work caps, each with its cost at the cap on a 2-CPU x86 host, peaks
    # under tracemalloc: capacity_argmax(1, 2^22, 1) took 5.8 s and 292 MiB,
    # 5.3 s of it the series kernel's 914 831 passes over the 2 521 entries
    # the cut keeps, high_regime_threshold(2^22 - 0.5, 1) 1.7 s and 228 MiB,
    # and 10 replay trials at k 2 and a mean arrival count a' T of 2^19 98 s.
    # Both searches count their candidates as floor(n B / c), n = 1 for the
    # threshold.
    "arrival count": (float, 0.0, le, le, 2.0 ** 19),
    "search candidates": (float, 0.0, le, le, 2.0 ** 22),
    "search index": (float, 0.0, le, lt, 2.0 ** 62),
    "number": (float, -math.inf, le, le, math.inf),
}
_NUMBERS = frozenset((int, float))


def _check(kind: str, value, name: str):
    """``value`` converted to the type of its ``kind`` in ``_DOMAIN``, once it
    lies in that kind's interval; else ``ParameterError`` naming ``name``.

    Text, bytes, None and bools are refused before any comparison, as float()
    would parse text and a bool is no count, and an int past the largest float
    raises "... within float range". A batch of probabilities is checked in
    one vector pass and returned as a float array; its first value outside
    the interval is the one reported.
    """
    cast, low, above, below, high = _DOMAIN[kind]
    if type(value) not in _NUMBERS:  # a plain int or float needs neither test
        if cast is np.ndarray and np.ndim(value):
            x = np.asarray(value)
            if x.ndim > 1 or x.dtype.kind not in "iuf":
                raise ParameterError(f"{name} must be a number or a 1-d array of numbers, "
                                     f"got {value!r}")
            inside = above(low, x) & below(x, high)
            if inside.all():
                return x.astype(float)
            value = x[~inside][0]
        elif value is None or isinstance(value, (str, bytes, bool, np.bool_)):
            raise ParameterError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int past the largest float
        raise ParameterError(f"{name} must lie within float range") from None
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a number, got {value!r}") from None
    if cast is int:
        if not (x.is_integer() and x >= low):
            raise ParameterError(f"{name} must be a {'positive' if low else 'nonnegative'} "
                                 f"integer, got {value}")
        return int(value)
    if not (above(low, x) and below(x, high)):
        raise ParameterError(f"{name} must lie in {'[' if above is le else '('}{low:g}, "
                             f"{high:g}{']' if below is le else ')'}, got {value}")
    return x


@dataclass(frozen=True)
class ValuationModel:
    """A user service-valuation distribution.

    Use :meth:`exponential` or :meth:`uniform` rather than the raw
    constructor; they fill in only the fields the family needs.
    """

    kind: str
    rate: float | None = None
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self):
        if self.kind == EXPONENTIAL:
            if self.lower is not None or self.upper is not None:
                raise ParameterError("exponential model takes no support bounds")
            object.__setattr__(self, "rate", _check("valuation rate", self.rate,
                                                    "exponential rate"))
        elif self.kind == UNIFORM:
            if self.rate is not None:
                raise ParameterError("uniform model takes no rate")
            lower = _check("valuation bound", self.lower, "uniform lower bound")
            upper = _check("valuation bound", self.upper, "uniform upper bound")
            if not lower < upper:
                raise ParameterError(f"uniform needs lower < upper, got [{lower}, {upper}]")
            object.__setattr__(self, "lower", lower)
            object.__setattr__(self, "upper", upper)
        else:
            raise ParameterError(f"unknown valuation family {self.kind!r}")

    @classmethod
    def exponential(cls, rate: float) -> "ValuationModel":
        return cls(kind=EXPONENTIAL, rate=rate)

    @classmethod
    def uniform(cls, lower: float, upper: float) -> "ValuationModel":
        return cls(kind=UNIFORM, lower=lower, upper=upper)

    @classmethod
    def from_dict(cls, data: dict) -> "ValuationModel":
        """A model from exactly its family's keys, such as ``{"kind": "uniform",
        "lower": 5, "upper": 15}``, each value a number (see ``_check``)."""
        if not isinstance(data, dict):
            raise ParameterError(f"a valuation must be a JSON object, got {data!r}")
        kind = data.get("kind")
        if kind not in (EXPONENTIAL, UNIFORM):
            raise ParameterError(f"unknown valuation family {kind!r}")
        fields = ("rate",) if kind == EXPONENTIAL else ("lower", "upper")
        if set(data) != {"kind", *fields}:
            raise ParameterError(f"{kind} valuation needs exactly the keys "
                                 f"{['kind', *fields]}, got {list(data)}")
        return cls(kind=kind, **{f: data[f] for f in fields})

    # -- basic accessors ---------------------------------------------------

    def support(self) -> tuple[float, float]:
        if self.kind == EXPONENTIAL:
            return 0.0, math.inf
        return self.lower, self.upper

    def mean(self) -> float:
        if self.kind == EXPONENTIAL:
            return 1.0 / self.rate
        return 0.5 * (self.lower + self.upper)

    def cdf(self, v):
        """F(v); values below the support map to 0, above to 1."""
        v = np.asarray(v, dtype=float)
        if self.kind == EXPONENTIAL:
            # v < 0 gives +0.0. Past rate * v = 40, expm1(-rate * v) is -1 to
            # the last bit, so capping v there changes no value and keeps
            # rate * v finite for v up to DBL_MAX.
            out = -np.expm1(-self.rate * np.minimum(np.maximum(v, 0.0), 40.0 / self.rate))
        else:
            # The array method reaches np.clip's ufunc without its wrappers.
            out = ((v - self.lower) / (self.upper - self.lower)).clip(0.0, 1.0)
        return out if out.ndim else float(out)

    def pdf(self, v):
        """f(v); zero outside the support."""
        v = np.asarray(v, dtype=float)
        if self.kind == EXPONENTIAL:
            # exp(-746) is 0: capping rate * v there, as in cdf, changes no value.
            out = np.where(v < 0.0, 0.0, self.rate * np.exp(
                -self.rate * np.minimum(np.maximum(v, 0.0), 746.0 / self.rate)))
        else:
            inside = (v >= self.lower) & (v <= self.upper)
            out = np.where(inside, 1.0 / (self.upper - self.lower), 0.0)
        return out if out.ndim else float(out)

    # -- virtual value -----------------------------------------------------

    def virtual_value(self, v):
        """phi(v) = v - (1 - F(v)) / f(v), defined where the density is positive.

        Closed forms: v - 1/rate for the exponential family, 2v - upper for
        the uniform family.

        Raises:
            ParameterError: if any v lies where f(v) = 0.
        """
        arr = np.asarray(v, dtype=float)
        if np.any(np.asarray(self.pdf(arr)) <= 0.0):
            raise ParameterError(f"virtual value undefined outside the support: v={v}")
        if self.kind == EXPONENTIAL:
            out = arr - 1.0 / self.rate
        else:
            out = 2.0 * arr - self.upper
        return out if out.ndim else float(out)

    def inverse_virtual_value(self, target):
        """The v in the support with phi(v) = target, clamped to the support.

        A target at or above phi(upper) clamps to the upper bound (a price at
        the top of a bounded support sells with probability zero, the
        profit-neutral limit); a target below phi(lower) clamps to the lower
        bound. The exponential support is unbounded above, so only the lower
        clamp applies there.
        """
        t = np.asarray(target, dtype=float)
        if self.kind == EXPONENTIAL:
            out = np.maximum(t + 1.0 / self.rate, 0.0)
        else:
            out = (0.5 * (t + self.upper)).clip(self.lower, self.upper)
        return out if out.ndim else float(out)

    # -- sampling ----------------------------------------------------------

    def sample(self, uniform_draw):
        """Inverse-CDF transform of a uniform draw in [0, 1)."""
        u = np.asarray(uniform_draw, dtype=float)
        if not ((u >= 0.0) & (u < 1.0)).all():  # NaN fails both
            raise ParameterError("uniform draws must lie in [0, 1)")
        out = self._quantile(u)
        return out if out.ndim else float(out)

    def _quantile(self, u: np.ndarray) -> np.ndarray:
        """F^-1(u) of a float array u in [0, 1), unchecked: the replays' draws."""
        return (-np.log1p(-u) / self.rate if self.kind == EXPONENTIAL
                else self.lower + u * (self.upper - self.lower))

    # -- expectations ------------------------------------------------------

    def expected_excess(self, threshold):
        """E[(V - threshold)^+], the mean surplus above an acceptance cutoff.

        One libm call per entry: numpy's SIMD exp and square can differ in the
        last bit. Each family's entries run in one comprehension with its
        constants bound once, with no method call per entry.
        """
        t = np.asarray(threshold, dtype=float)
        vals = t.ravel().tolist()
        if self.kind == EXPONENTIAL:
            exp, rate, neg_rate, inv = math.exp, self.rate, -self.rate, 1.0 / self.rate
            out = [inv - v if v < 0.0 else exp(neg_rate * v) / rate for v in vals]
        else:
            a, b = self.lower, self.upper
            mid, width2 = 0.5 * (a + b), 2.0 * (b - a)
            out = [0.0 if v > b else mid - v if v < a else (b - v) ** 2 / width2 for v in vals]
        out = np.array(out).reshape(t.shape)
        return out if out.ndim else float(out)

    def _stage_gain(self, delta: float) -> float:
        """(p - delta) * (1 - F(p)) at p = inverse_virtual_value(delta), for one float.

        Same clamps as the vector handles: the lower support bound, and for the
        uniform family the upper bound, where the sale probability is zero.
        """
        if self.kind == EXPONENTIAL:
            p = max(delta + 1.0 / self.rate, 0.0)
            return (p - delta) * (1.0 + math.expm1(-self.rate * p))
        a, b = self.lower, self.upper
        p = min(max(0.5 * (delta + b), a), b)
        return (p - delta) * (1.0 - (p - a) / (b - a))

    def _posted_stage(self, alpha):
        """``build_pricing``'s posted-price stage rule for this family.

        ``stage(delta, price, r_same, r_less, out)`` writes, for finite option
        values delta (``delta`` may be ``price``), inverse_virtual_value(max(delta,
        0)) into ``price`` and ``pricing.profit_step`` at those prices into
        ``out`` with the same bits, clamping at 0 with no extra call: the same
        operations in the same order, less those that return their input here.
        A stage price is finite, so one that cannot sell gives 0 + r_same, the
        value profit_step's mask copies in.
        """
        if self.kind == EXPONENTIAL:
            inv, neg_rate = 1.0 / self.rate, -self.rate

            def stage(delta, price, r_same, r_less, out):
                np.add(delta, inv, out=price)
                # Rounding is monotone and inv a double, so max(fl(delta + inv),
                # inv) = fl(max(delta, 0) + inv): the clamp, after which the
                # lower clamp and cdf's max(v, 0) return their input.
                np.maximum(price, inv, out=price)
                # No cap at rate * v = 40 as in cdf: expm1 is -1 to the last bit
                # from about 37.4 up, and rate * v <= k (1 + ln T) + 1 is finite.
                sell = np.multiply(price, neg_rate)
                np.expm1(sell, out=sell)
                sell += 1.0  # 1 - -expm1(x)
                np.subtract(1.0, np.multiply(sell, alpha, out=out), out=out)  # stay
                _sale(alpha, price, sell, out, r_same, r_less, out)
        else:
            a, b = self.lower, self.upper
            width = b - a
            lo = min(max(0.5 * b, a), b)  # the price at delta = 0; np.clip on a scalar takes 3 µs

            def stage(delta, price, r_same, r_less, out):
                np.add(delta, b, out=price)
                price *= 0.5
                # 0.5 fl(delta + b) is below 0.5 b <= lo only for delta < 0, so
                # this clips 0.5 fl(max(delta, 0) + b) to the support [a, b].
                price.clip(lo, b, out=price)
                sell = np.subtract(price, a)
                sell /= width  # in [0, 1] for a price in the support: cdf's clip is a no-op
                np.subtract(1.0, sell, out=sell)
                np.subtract(1.0, np.multiply(sell, alpha, out=out), out=out)  # stay
                _sale(alpha, price, sell, out, r_same, r_less, out)
        return stage


def _sale(alpha, price, sell, stay, r_same, r_less, out) -> None:
    """``pricing.profit_step``'s formula, its operand order kept, at sale
    probabilities ``sell`` and stay factors ``stay`` = 1 - alpha sell, which
    may be ``out``, into ``out``: the stage rules' and evaluate_schedule's."""
    gain = np.add(price, r_less)
    gain *= alpha
    gain *= sell
    np.multiply(r_same, stay, out=out)
    out += gain  # the sum commutes, bit for bit
