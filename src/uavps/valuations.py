"""Service-valuation distributions and their virtual-value machinery.

Everything downstream (pricing recursions, benchmarks, simulators) touches a
user's willingness-to-pay only through four handles: the CDF F, the PDF f,
the virtual value phi(v) = v - (1 - F(v)) / f(v) and the inverse of phi.
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
# most 1e12 / lam), and their squares, finite. The README's "Accepted values"
# table lists the same rows, and a test holds the two equal.
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
        if np.any(u < 0.0) or np.any(u >= 1.0):
            raise ParameterError("uniform draws must lie in [0, 1)")
        if self.kind == EXPONENTIAL:
            out = -np.log1p(-u) / self.rate
        else:
            out = self.lower + u * (self.upper - self.lower)
        return out if out.ndim else float(out)

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
