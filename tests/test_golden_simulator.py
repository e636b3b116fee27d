"""Golden digests of the Monte-Carlo replays: the sha256 of the reports of
``simulate_discrete``, ``simulate_policy_regret`` and ``simulate_continuous``
at about 10^5 trials, played with one share per chunk and with two.

The discrete cases take both valuation families, capacity beyond the horizon
and a flat price that sells; the continuous ones a load of x / k >= 3 (rate
100, k 3, T 1: blocks about 140 draws wide), a mean arrival count below 1
(rate 0.5, where most rows are padding) and verify's rate 2, k 20, T 5. Every
float is hashed through ``float.hex``, so a last-bit change shows. A share
reads the same doubles whatever the number of shares, so one digest holds for
both. The digests pin this host's numpy and libm as well as the package, so a
mismatch names the platform and numpy version. A change that means to alter
the bits regenerates them with ``PYTHONPATH=src python
tests/test_golden_simulator.py`` and says which bits changed and why.
"""

import hashlib
import math
import platform
import sys

import numpy as np
import pytest

from uavps import simulator
from uavps.pricing import build_pricing
from uavps.simulator import simulate_continuous, simulate_discrete, simulate_policy_regret
from uavps.valuations import ValuationModel

EXP1 = ValuationModel.exponential(1.0)
UNI = ValuationModel.uniform(5.0, 15.0)

# (model, alpha, k, T, trials, seed); the regret cases add the flat price.
DISCRETE = ((EXP1, 0.5, 3, 10, 100_000, 41), (UNI, 0.8, 2, 20, 100_000, 42),
            (EXP1, 0.7, 4, 3, 50_000, 43))
REGRET = ((EXP1, 0.5, 2, 20, 100_000, 44, 1.0), (UNI, 0.3, 3, 10, 100_000, 45, 9.5))
# (lam, rate, k, T, trials, seed)
CONTINUOUS = ((1.0, 100.0, 3, 1.0, 20_000, 46), (1.0, 0.5, 3, 1.0, 100_000, 47),
              (1.0, 2.0, 20, 5.0, 100_000, 48), (2.0, 1.0, 2, math.e, 100_000, 49))


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def discrete() -> str:
    rows = []
    for model, alpha, k, T, trials, seed in DISCRETE:
        schedule, _ = build_pricing(model, alpha, k, T)
        r = simulate_discrete(model, alpha, schedule, k, T, trials, seed)
        rows.append((r.trials, r.mean_profit.hex(), r.std_error.hex(), r.served_histogram,
                     r.seed, r.generator))
    return _digest(rows)


def regret() -> str:
    rows = []
    for model, alpha, k, T, trials, seed, flat in REGRET:
        r = simulate_policy_regret(model, alpha, k, T, trials, seed, flat)
        rows.append((r.optimal_mean.hex(), r.fixed_price_mean.hex(),
                     r.paired_std_error.hex(), r.trials, r.seed))
    return _digest(rows)


def continuous() -> str:
    rows = []
    for case in CONTINUOUS:
        r = simulate_continuous(*case)
        rows.append((r.trials, r.mean_profit.hex(), r.std_error.hex(), r.served_histogram,
                     r.seed, r.generator))
    return _digest(rows)


REPLAYS = {"discrete": discrete, "regret": regret, "continuous": continuous}
GOLDEN = {
    "discrete": "2626649d2f1ba580b56fbb8f1ee2a58fc8e3d89bed2bd4d03ded5217a371644f",
    "regret": "2d2d86a948af901993f3fb2f21e6dc165b067b0bb0f2da19b8a7e67996574596",
    "continuous": "9d4c7610ec2946d197fdba08e15ee0ea39ca45b4ad1c11d419563a4420a54e70",
}


def _where() -> str:
    return (f"on {platform.platform()}, numpy {np.__version__}, "
            f"Python {sys.version.split()[0]}")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", list(REPLAYS))
def test_replays_match_the_golden_digest(monkeypatch, name, workers):
    monkeypatch.setattr(simulator, "WORKERS", workers)
    assert REPLAYS[name]() == GOLDEN[name], f"{name} replay reports changed {_where()}"


if __name__ == "__main__":
    for name, replay in REPLAYS.items():
        print(f'    "{name}": "{replay()}",')
