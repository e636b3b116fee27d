"""Golden digests of the discrete tables: the sha256 of the prices and values
of ``build_pricing``, of ``complete_info_profit`` and of ``evaluate_schedule``
on a grid of valuation models, occurrence probabilities and table shapes.

The grid takes both valuation families, one uniform model whose stage prices
clamp to the lower bound, scalar and 1-d alpha, and shapes up to k = 40,
horizons shorter than the capacity included. The digests hash the raw bytes,
so a flipped sign of zero or a moved NaN shows too. They pin this host's numpy
and libm as well as the package, so a mismatch names the platform and numpy
version. A change that means to alter the bits regenerates them with
``PYTHONPATH=src python tests/test_golden_tables.py`` and says which bits
changed and why.
"""

import hashlib
import platform
import sys

import numpy as np

from uavps.benchmark import complete_info_profit
from uavps.pricing import build_pricing, evaluate_schedule
from uavps.valuations import ValuationModel

MODELS = (ValuationModel.exponential(1.3), ValuationModel.exponential(0.2),
          ValuationModel.uniform(5.0, 15.0), ValuationModel.uniform(10.0, 12.0))
ALPHAS = (0.0, 0.05, 0.5, 0.93, 1.0, np.array([0.1, 0.5, 0.8, 1.0]))
# (capacity, horizon)
SHAPES = ((1, 1), (1, 12), (3, 2), (4, 0), (5, 30), (12, 12), (17, 40), (40, 25),
          (40, 60))


def _cases():
    for model in MODELS:
        for alpha in ALPHAS:
            for capacity, horizon in SHAPES:
                yield model, alpha, capacity, horizon


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def pricing_tables() -> str:
    arrays = []
    for case in _cases():
        schedule, table = build_pricing(*case)
        arrays += [schedule.prices, table.values]
    return _digest(arrays)


def complete_info_tables() -> str:
    return _digest(complete_info_profit(*case).values for case in _cases())


def scored_tables() -> str:
    """Three non-optimal policies per case: the optimal prices 7 % high, one
    constant price, and the optimal prices with row 1 never selling."""
    arrays = []
    for model, alpha, capacity, horizon in _cases():
        prices = build_pricing(model, alpha, capacity, horizon)[0].prices
        never = prices.copy()
        never[1] = np.inf
        for policy in (prices * 1.07, np.full(prices.shape, 3.0), never):
            arrays.append(evaluate_schedule(model, alpha, policy, capacity, horizon).values)
    return _digest(arrays)


GOLDEN = {
    "pricing": "51770a6132a5888f38764db793b44653c3e439024d1ec53cbac4e88c0d23eb6f",
    "complete_info": "b0376c16b8b495f52af22cc58eafbae9247a7a05f6b8f6dab5363fd38fbf9c35",
    "evaluate": "b41225022933ad392cd42c30467509fc9b5206f8299e2f6c80697103b42f3e9a",
}


def _where() -> str:
    return (f"on {platform.platform()}, numpy {np.__version__}, "
            f"Python {sys.version.split()[0]}")


def test_price_tables_match_the_golden_digest():
    assert pricing_tables() == GOLDEN["pricing"], f"price tables changed {_where()}"


def test_full_information_tables_match_the_golden_digest():
    assert complete_info_tables() == GOLDEN["complete_info"], (
        f"full-information tables changed {_where()}")


def test_scored_tables_match_the_golden_digest():
    assert scored_tables() == GOLDEN["evaluate"], f"scored tables changed {_where()}"


if __name__ == "__main__":
    print(f'    "pricing": "{pricing_tables()}",')
    print(f'    "complete_info": "{complete_info_tables()}",')
    print(f'    "evaluate": "{scored_tables()}",')
