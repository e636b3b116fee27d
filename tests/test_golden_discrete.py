"""Golden digests of the discrete decisions read from pooled pricing tables:
the sha256 of ``allocate_discrete`` on a grid of models, occurrence
probabilities and budgets, and of ``optimal_deployment`` plus
``best_single_hotspot`` on the ten fleet rungs of the benchmark and on one
lopsided fleet.

The budgets put floor(B / (1 + c)) on a whole number and off it, so the
``_POOL_EPS`` floors are taken both ways; alpha is a scalar, a one-entry
list (a scalar table) and a four-entry batch. The fleets pool up to 14
vehicles, so c k / n and avail / (1 + c / n) land on and off whole numbers
too. Every profit is hashed through ``float.hex``, so a flipped sign of zero
or a last-bit change shows. The digests pin this host's numpy and libm as
well as the package, so a mismatch names the platform and numpy version. A
change that means to alter the bits regenerates them with
``PYTHONPATH=src python tests/test_golden_discrete.py`` and says which bits
changed and why.
"""

import hashlib
import platform
import random
import sys

import numpy as np

from uavps.allocation import allocate_discrete
from uavps.deployment import FleetConfig, Hotspot, best_single_hotspot, optimal_deployment
from uavps.valuations import ValuationModel

MODELS = (ValuationModel.exponential(1.3), ValuationModel.exponential(0.2),
          ValuationModel.uniform(5.0, 15.0), ValuationModel.uniform(10.0, 12.0))
ALPHAS = (0.05, 0.5, 1.0, [0.3], [0.1, 0.5, 0.8, 1.0])
# (budget, service cost): B / (1 + c) whole in the first column, not in the second.
BUDGETS = ((4, 1), (7, 1), (12, 2), (13, 2), (16, 3), (18, 3), (40, 4), (44, 4),
           (60, 1), (61, 1))

# (M hotspots, N vehicles), budget and cost of the benchmark's discrete fleets.
FLEET_RUNGS = ((2, 1), (2, 3), (3, 4), (4, 5), (5, 6), (6, 8), (7, 9),
               (8, 10), (8, 12), (10, 14))
FLEET_BUDGET, FLEET_COST = 15.0, 1.0


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _decision(d):
    return None if d is None else (d.k_star, d.t_star, d.profit.hex())


def allocations() -> str:
    rows = []
    for model in MODELS:
        for alpha in ALPHAS:
            for budget, cost in BUDGETS:
                got = allocate_discrete(model, alpha, budget, cost)
                rows.append([_decision(d) for d in got] if isinstance(got, list)
                            else _decision(got))
    return _digest(rows)


def _fleets():
    """The rungs on a fixed grid of distances, each with its own alphas and
    family, in a shuffled order; then nine hotspots 10 energy units from the
    budget beside one with 200 left."""
    rng = random.Random(2101)
    for i, (m, n) in enumerate(FLEET_RUNGS):
        model = (ValuationModel.exponential(rng.uniform(0.4, 2.5)) if i % 2 == 0 else
                 ValuationModel.uniform(lower := rng.uniform(0.0, 8.0),
                                        lower + rng.uniform(2.0, 12.0)))
        spots = [Hotspot(rng.uniform(0.05, 0.95), 0.5 * FLEET_BUDGET * j / m)
                 for j in range(m)]
        rng.shuffle(spots)
        yield spots, FleetConfig(n, FLEET_BUDGET, FLEET_COST, model)
    spots = [Hotspot(0.2 + 0.07 * j, 200.0) for j in range(9)] + [Hotspot(0.35, 10.0)]
    yield spots, FleetConfig(3, 210.0, 1.0, ValuationModel.exponential(0.8))


def fleet_plans() -> str:
    rows = []
    for spots, fleet in _fleets():
        plan = optimal_deployment(spots, fleet)
        best = best_single_hotspot(spots, fleet)
        rows.append((plan.profile.counts, plan.total_profit.hex(),
                     [_decision(d) for d in plan.per_hotspot],
                     best.index, _decision(best.decision), best.ranking))
    return _digest(rows)


GOLDEN = {
    "allocations": "79245b893200e4f557d7bff880fbed126f51b86dfb9088d6e114e057a0f1d65c",
    "fleets": "69faa436f89256ee71a5e21789e985de6d29632ee8881f8517f4c6c73f6435ac",
}


def _where() -> str:
    return (f"on {platform.platform()}, numpy {np.__version__}, "
            f"Python {sys.version.split()[0]}")


def test_discrete_allocations_match_the_golden_digest():
    assert allocations() == GOLDEN["allocations"], f"discrete allocations changed {_where()}"


def test_discrete_fleet_plans_match_the_golden_digest():
    assert fleet_plans() == GOLDEN["fleets"], f"discrete fleet plans changed {_where()}"


if __name__ == "__main__":
    print(f'    "allocations": "{allocations()}",')
    print(f'    "fleets": "{fleet_plans()}",')
