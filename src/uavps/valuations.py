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

import numpy as np

EXPONENTIAL = "exponential"
UNIFORM = "uniform"


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
            if self.rate is None or not self.rate > 0:
                raise ValueError(f"exponential rate must be positive, got {self.rate}")
            if self.lower is not None or self.upper is not None:
                raise ValueError("exponential model takes no support bounds")
        elif self.kind == UNIFORM:
            if self.lower is None or self.upper is None:
                raise ValueError("uniform model needs lower and upper bounds")
            if self.lower < 0:
                raise ValueError(f"uniform lower bound must be >= 0, got {self.lower}")
            if not self.lower < self.upper:
                raise ValueError(
                    f"uniform needs lower < upper, got [{self.lower}, {self.upper}]"
                )
            if self.rate is not None:
                raise ValueError("uniform model takes no rate")
        else:
            raise ValueError(f"unknown valuation family {self.kind!r}")

    @classmethod
    def exponential(cls, rate: float) -> "ValuationModel":
        return cls(kind=EXPONENTIAL, rate=float(rate))

    @classmethod
    def uniform(cls, lower: float, upper: float) -> "ValuationModel":
        return cls(kind=UNIFORM, lower=float(lower), upper=float(upper))

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
            out = np.where(v < 0.0, 0.0, -np.expm1(-self.rate * np.maximum(v, 0.0)))
        else:
            out = np.clip((v - self.lower) / (self.upper - self.lower), 0.0, 1.0)
        return out if out.ndim else float(out)

    def pdf(self, v):
        """f(v); zero outside the support."""
        v = np.asarray(v, dtype=float)
        if self.kind == EXPONENTIAL:
            out = np.where(v < 0.0, 0.0, self.rate * np.exp(-self.rate * np.maximum(v, 0.0)))
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
            ValueError: if any v lies where f(v) = 0.
        """
        arr = np.asarray(v, dtype=float)
        if np.any(np.asarray(self.pdf(arr)) <= 0.0):
            raise ValueError(f"virtual value undefined outside the support: v={v}")
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
            out = np.clip(0.5 * (t + self.upper), self.lower, self.upper)
        return out if out.ndim else float(out)

    # -- sampling ----------------------------------------------------------

    def sample(self, uniform_draw):
        """Inverse-CDF transform of a uniform draw in [0, 1)."""
        u = np.asarray(uniform_draw, dtype=float)
        if np.any(u < 0.0) or np.any(u >= 1.0):
            raise ValueError("uniform draws must lie in [0, 1)")
        if self.kind == EXPONENTIAL:
            out = -np.log1p(-u) / self.rate
        else:
            out = self.lower + u * (self.upper - self.lower)
        return out if out.ndim else float(out)

    # -- expectations ------------------------------------------------------

    def expected_excess(self, threshold):
        """E[(V - threshold)^+], the mean surplus above an acceptance cutoff.

        One libm call per entry: numpy's SIMD exp and square can differ in the last bit.
        """
        t = np.asarray(threshold, dtype=float)
        out = np.array([self._excess(v) for v in t.ravel().tolist()]).reshape(t.shape)
        return out if out.ndim else float(out)

    def _excess(self, t: float) -> float:
        if self.kind == EXPONENTIAL:
            return 1.0 / self.rate - t if t < 0.0 else math.exp(-self.rate * t) / self.rate
        a, b = self.lower, self.upper
        if t > b:
            return 0.0
        if t < a:
            return 0.5 * (a + b) - t
        return (b - t) ** 2 / (2.0 * (b - a))

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

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        if self.kind == EXPONENTIAL:
            return {"kind": EXPONENTIAL, "rate": self.rate}
        return {"kind": UNIFORM, "lower": self.lower, "upper": self.upper}

    @classmethod
    def from_dict(cls, data: dict) -> "ValuationModel":
        kind = data.get("kind")
        if kind == EXPONENTIAL:
            expected = {"kind", "rate"}
        elif kind == UNIFORM:
            expected = {"kind", "lower", "upper"}
        else:
            raise ValueError(f"unknown valuation family {kind!r}")
        unknown = set(data) - expected
        if unknown:
            raise ValueError(f"unknown valuation keys: {sorted(unknown)}")
        missing = expected - set(data)
        if missing:
            raise ValueError(f"missing valuation keys: {sorted(missing)}")
        if kind == EXPONENTIAL:
            return cls.exponential(data["rate"])
        return cls.uniform(data["lower"], data["upper"])


# Quantile used to truncate the unbounded exponential support when a finite
# inspection window is needed.
REGULARITY_QUANTILE = 0.9999


def check_regularity(model, grid_points: int) -> bool:
    """Check that the virtual value is nondecreasing on an even grid.

    The grid spans the support; an unbounded upper end is truncated at the
    REGULARITY_QUANTILE quantile. Any object exposing ``support``, ``sample``
    and ``virtual_value`` can be checked, which lets tests probe deliberately
    irregular constructions.
    """
    if grid_points < 2:
        raise ValueError("need at least two grid points")
    lo, hi = model.support()
    if math.isinf(hi):
        hi = model.sample(REGULARITY_QUANTILE)
    grid = np.linspace(lo, hi, grid_points)
    phi = np.array([model.virtual_value(x) for x in grid])
    return bool(np.all(np.diff(phi) >= -1e-12))
