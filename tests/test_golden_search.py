"""Golden digests of the continuous capacity search: the sha256 of the
decisions of ``allocate_continuous`` and ``capacity_argmax`` on a grid of
rates and budgets, and of the continuous fleet plans and forking checks.

The grid puts B / c on a whole multiple, a relative 1e-13 either side of
one and 0.25 off, up to B / c = 20 000, at rates from 0.01 to 1 000. The
digests pin this host's numpy and libm as well as the package, so a mismatch
names the platform and numpy version. A change that means to alter the bits
regenerates them with ``PYTHONPATH=src python tests/test_golden_search.py``
and says which bits changed and why.
"""

import hashlib
import platform
import sys

import numpy as np

from uavps.allocation import allocate_continuous, capacity_argmax
from uavps.deployment import (FleetConfig, ForkingCheck, Hotspot, forking_condition,
                              optimal_deployment_continuous)
from uavps.valuations import ValuationModel

RATES = (0.01, 0.3, 1.0, 5.0, 50.0, 1000.0)
# (whole B / c, c); the largest searches, up to 40 ms each, run at one cost.
SIZES = [(w, c) for w in (2, 3, 10, 57, 400, 3000) for c in (0.5, 7.3)] + [(20000, 7.3)]
# (relative, absolute) shifts of B / c off the whole multiple.
SHIFTS = ((0.0, 0.0), (1e-13, 0.0), (-1e-13, 0.0), (0.0, 0.25))
LAM = 1.3

# (M, N, B0, c, lowest and highest arrival rate) of the continuous fleets.
FLEETS = ((2, 2, 20.0, 2.0, 0.5, 5.0), (3, 3, 60.0, 2.0, 1.0, 10.0),
          (3, 4, 120.0, 2.0, 2.0, 20.0), (3, 6, 200.0, 2.0, 50.0, 80.0))
FLEET_LAMS = (0.7, 1.0, 1.9)


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _budgets():
    for whole, cost in SIZES:
        for rel, off in SHIFTS:
            yield cost * whole * (1.0 + rel) + cost * off, cost


def searches() -> str:
    rows = []
    for budget, cost in _budgets():
        for rate in RATES:
            d = allocate_continuous(LAM, rate, budget, cost)
            rows.append((d.k_star, d.profit.hex(), d.t_star.hex(), d.regime.value,
                         capacity_argmax(rate, budget, cost)))
    return _digest(rows)


def _fleet(m, n, budget, cost, lo, hi, lam):
    """M hotspots with rates spread geometrically from hi down to lo, the
    highest first and nearest, so that it is the first best for a lone vehicle."""
    rates = np.geomspace(hi, lo, m).tolist()
    hotspots = [Hotspot(a, 0.4 * budget * i / m) for i, a in enumerate(rates)]
    return hotspots, FleetConfig(n, budget, cost, ValuationModel.exponential(lam))


def fleets() -> str:
    rows = []
    for shape in FLEETS:
        for lam in FLEET_LAMS:
            hotspots, fleet = _fleet(*shape, lam)
            plan = optimal_deployment_continuous(hotspots, fleet, lam)
            fork = forking_condition(hotspots[0], hotspots[1], fleet, lam)
            rows.append((plan.profile.counts, plan.total_profit.hex(),
                         [None if d is None else (d.k_star, d.t_star.hex(),
                                                  d.profit.hex())
                          for d in plan.per_hotspot],
                         fork.holds, fork.phi.hex(), fork.k2_star))
    return _digest(rows)


GOLDEN = {
    "searches": "4d49b0ade1e429fe23f7838f2cf0df93c274d58a3943bad211f33d810bab6a04",
    "fleets": "79cb27b6441b7e0502ce4c7bb106a48f8308b0cdb9238bb367938dafcc8400f6",
}


def _where() -> str:
    return (f"on {platform.platform()}, numpy {np.__version__}, "
            f"Python {sys.version.split()[0]}")


def test_capacity_searches_match_the_golden_digest():
    assert searches() == GOLDEN["searches"], f"search decisions changed {_where()}"


def test_fleet_plans_and_forking_checks_match_the_golden_digest():
    assert fleets() == GOLDEN["fleets"], f"fleet plans or forking checks changed {_where()}"


def test_forking_threshold_is_the_bound_holds_tests():
    assert ForkingCheck._fields == ("holds", "phi", "k2_star")
    for shape in FLEETS:
        for lam in FLEET_LAMS:
            hotspots, fleet = _fleet(*shape, lam)
            check = forking_condition(hotspots[0], hotspots[1], fleet, lam)
            phi, k2_star = check.phi, check.k2_star
            assert check.threshold == max(phi ** (1 / k2_star), phi)
            assert check.holds == (hotspots[1].alpha / hotspots[0].alpha > check.threshold)


if __name__ == "__main__":
    print(f'    "searches": "{searches()}",')
    print(f'    "fleets": "{fleets()}",')
