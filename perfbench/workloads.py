"""Seeded workloads for the uavps benchmark: generation, execution, checks.

A run under seed s replays a batch: the first ``BATCH_ROUNDS`` rounds of
its workload. Round r is filled by two generators, a seeded one,
``random.Random(f"{workload}/{s}/{r}")``, and a fixed one that ignores the
seed (see the generation section), so the same seed always yields the same
operations. Each op is a plain JSON-able dict; the library only ever sees
the inputs built from it.

Every op is run as prepare (untimed input building), call (timed library
calls only) and check (untimed correctness checks). An op fails when the
call raises, when an output is not finite, or when a check does not hold;
the failure is recorded and the run goes on.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import struct
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

WORKLOADS = ("single_uav", "fleet", "verify")

# Slack for the cell-by-cell inequalities; the tables hold profits of order
# 1..1e3, so this is far below any modelling difference and far above
# double rounding.
ORDER_TOL = 1e-9


def load_library() -> SimpleNamespace:
    """Import uavps and return its modules.

    Ops look functions up on these modules at call time, so the tracing
    shims installed on the same modules see every call.
    """
    import uavps
    from uavps import (allocation, benchmark, cli, deployment, pricing,
                       simulator, valuations)
    return SimpleNamespace(package=uavps, valuations=valuations, pricing=pricing,
                           benchmark=benchmark, allocation=allocation,
                           deployment=deployment, simulator=simulator, cli=cli)


# -- generation ---------------------------------------------------------------
#
# A round is a fixed list of slots, and a run replays a batch of rounds.
# Two generators fill a round. The fixed one, seeded by the workload and the
# round index only, draws every parameter that sets an op's cost or decides
# whether the library fails on it: table sizes, budgets, fleet and hotspot
# counts, horizons and trial counts; the valuation laws and occurrence
# probabilities of the tables the round-off defect can hit; and the arrival
# rates of the energy splits, which decide where the capacity series
# overflows. The seeded one draws everything else: the op order, flat
# prices, price noise, valuation scales, the laws of the tables the defect
# cannot reach, hotspot order and simulation seeds. So every seed does the
# same work and hits the same failures, and runs on different seeds give
# comparable figures while their inputs differ.

FAMILIES = ("exponential", "uniform")


def _lu(rng: random.Random, lo: float, hi: float) -> float:
    """Log-uniform draw on [lo, hi]."""
    return lo * (hi / lo) ** rng.random()


def _alpha(rng: random.Random) -> float:
    return rng.uniform(0.05, 0.95)


def _model(rng: random.Random, family: str) -> dict:
    # Same parameter ranges as the randomized shape sweep of the acceptance
    # suite (criterion 3).
    if family == "exponential":
        return {"kind": "exponential", "rate": rng.uniform(0.4, 2.5)}
    lower = rng.uniform(0.0, 8.0)
    return {"kind": "uniform", "lower": lower, "upper": lower + rng.uniform(2.0, 12.0)}


TABLE_STRATA = 8


def _table_size(stratum: int, u: float) -> tuple[int, int]:
    """(k, T) in one of ``TABLE_STRATA`` log-size strata.

    Stratum midpoints run log-uniformly from k = 1.3, T = 4 to k = 39,
    T = 700. The position u in [0, 1) moves k by up to a factor sqrt(2)
    either way, and T with it so that the priced cells (t >= j, about
    k * T - k (k - 1) / 2), which carry the cost, stay at the midpoint's
    count. Over all strata k covers 1..55 and T 3..960.
    """
    mid = (stratum + 0.5) / TABLE_STRATA
    k_mid, t_mid = 50.0 ** mid, 3.0 * (1000.0 / 3.0) ** mid
    priced = k_mid * t_mid - k_mid * (k_mid - 1.0) / 2.0
    k = max(1, round(k_mid * 2.0 ** (u - 0.5)))
    return k, max(k, round(priced / k + (k - 1) / 2.0))


def _table(fixed: random.Random, stratum: int, family: str) -> dict:
    """A pricing question whose size, law and alpha come from ``fixed``."""
    k, T = _table_size(stratum, fixed.random())
    return {"model": _model(fixed, family), "alpha": _alpha(fixed), "k": k, "T": T}


def _flat_price(rng: random.Random, model: dict) -> float:
    """A valuation quantile between 10 % and 90 %, so every cell can sell."""
    u = rng.uniform(0.1, 0.9)
    if model["kind"] == "exponential":
        return -math.log1p(-u) / model["rate"]
    return model["lower"] + u * (model["upper"] - model["lower"])


# (B, c) of the discrete energy splits: B // (1 + c) candidate capacities
# over B - c slots.
ALLOC_DISCRETE = ((8, 1), (40, 3), (160, 3))
# B / c of the continuous energy splits, up to 800 candidate capacities.
# Whole ratios have no high regime (its threshold is +inf); the others run
# the threshold search.
ALLOC_CONTINUOUS = (2.5, 24.0, 115.5, 401.3, 800.0)


def _single_uav_round(rng: random.Random, fixed: random.Random) -> list[dict]:
    ops = []
    # Price table plus its full-information bound, one per size stratum,
    # from k <= 2, T <= 5 (per-call overhead dominates) to k ~ 50,
    # T ~ 1000 (per-cell cost dominates).
    for s in range(TABLE_STRATA):
        ops.append({"op": "price_bound", **_table(fixed, s, FAMILIES[s % 2])})
    # Scoring of non-optimal price matrices: one flat price, and the
    # optimal schedule perturbed by +-10 % noise.
    for i, s in enumerate((4, 6)):
        k, T = _table_size(s, fixed.random())
        model = _model(rng, FAMILIES[i])
        ops.append({"op": "eval_flat", "model": model, "alpha": _alpha(rng),
                    "k": k, "T": T, "price": _flat_price(rng, model)})
    for i, s in enumerate((3, 5)):
        ops.append({"op": "eval_perturbed", **_table(fixed, s, FAMILIES[1 - i]),
                    "noise_seed": rng.randrange(2**32)})
    # Discrete energy split over an alpha sweep.
    for i, (budget, cost) in enumerate(ALLOC_DISCRETE):
        ops.append({"op": "alloc_discrete", "model": _model(fixed, FAMILIES[i % 2]),
                    "budget": budget, "cost": cost,
                    "alphas": sorted(_alpha(fixed) for _ in range(3))})
    # Continuous energy split plus the raw capacity argmax over an arrival
    # rate sweep. The rates and the cost scale decide where the capacity
    # series overflows; lambda only scales the profits.
    for ratio in ALLOC_CONTINUOUS:
        cost = _lu(fixed, 0.5, 2.0)
        ops.append({"op": "alloc_continuous", "lam": _lu(rng, 0.5, 2.0),
                    "budget": ratio * cost, "cost": cost,
                    "rates": sorted(_lu(fixed, 0.1, 50.0) for _ in range(3))})
    # The same questions through the command line, with CSV output; the
    # schedule CSV has about 8 000 rows.
    ops.append({"op": "cli_price", **_table(fixed, 6, "exponential")})
    lo = round(rng.uniform(0.1, 0.5), 2)
    ops.append({"op": "cli_allocate", "model": _model(rng, "uniform"),
                "budget": 30, "cost": 2, "sweep": f"{lo}:{round(lo + 0.4, 2)}:0.1"})
    ops.append({"op": "cli_ratio", "model": _model(rng, "exponential"),
                "alpha": _alpha(rng), "k_list": "1,2,3", "T_max": 200, "T_step": 10})
    return ops


# (M hotspots, N vehicles) of the discrete planner, which scores
# C(N + M - 1, M - 1) profiles: from 2 up to 817 190 at M = 10, N = 14.
# The small budget keeps its M * N pricing tables tiny, as in the field.
FLEET_RUNGS = ((2, 1), (2, 3), (3, 4), (4, 5), (5, 6), (6, 8), (7, 9),
               (8, 10), (8, 12), (10, 14))
FLEET_BUDGET, FLEET_COST = 15.0, 1.0
# (M, N, B0, c, lowest and highest arrival rate) of the continuous planner.
# In the last fleet every rate is high enough for the linear-space capacity
# series to overflow, so its total comes out infinite.
CONTINUOUS_FLEETS = ((2, 2, 20.0, 2.0, 0.5, 5.0), (3, 3, 60.0, 2.0, 1.0, 10.0),
                     (3, 4, 120.0, 2.0, 2.0, 20.0), (3, 6, 200.0, 2.0, 50.0, 80.0))
CLI_FLEETS = ((3, 4), (5, 6))


def _hotspots(rng: random.Random, fixed: random.Random, m: int) -> list[dict]:
    """M reachable hotspots on a fixed grid of distances. The seed only
    orders them, so the planner builds the same tables for every seed."""
    spots = [{"alpha": _alpha(fixed), "distance": 0.5 * FLEET_BUDGET * i / m}
             for i in range(m)]
    rng.shuffle(spots)
    return spots


def _fleet_round(rng: random.Random, fixed: random.Random) -> list[dict]:
    ops = []
    # Discrete planner plus the best lone-vehicle hotspot on the same input.
    for i, (m, n) in enumerate(FLEET_RUNGS):
        ops.append({"op": "deploy", "model": _model(fixed, FAMILIES[i % 2]),
                    "hotspots": _hotspots(rng, fixed, m), "count": n,
                    "budget": FLEET_BUDGET, "cost": FLEET_COST})
    # Continuous planner plus the forking check on the two best hotspots.
    # Hotspot 0 has the highest rate and the shortest flight, so it is the
    # first best for a lone vehicle, as the forking check requires.
    for m, n, budget, cost, lo, hi in CONTINUOUS_FLEETS:
        rates = sorted((_lu(rng, lo, hi) for _ in range(m)), reverse=True)
        ops.append({"op": "deploy_continuous", "lam": _lu(rng, 0.5, 2.0),
                    "hotspots": [{"alpha": a, "distance": 0.4 * budget * i / m}
                                 for i, a in enumerate(rates)],
                    "count": n, "budget": budget, "cost": cost})
    for i, (m, n) in enumerate(CLI_FLEETS):
        ops.append({"op": "cli_deploy", "model": _model(fixed, FAMILIES[i % 2]),
                    "hotspots": _hotspots(rng, fixed, m), "count": n,
                    "budget": FLEET_BUDGET, "cost": FLEET_COST})
    return ops


# Acceptance grids: criterion 1 (discrete simulation) and criterion 2
# (continuous closed form against RK4 and simulation).
C1_ALPHAS, C1_CAPS, C1_HORIZONS = (0.2, 0.5, 0.8), (1, 2, 3, 5), (5, 10, 20)
C2_RATES, C2_CAPS, C2_HORIZONS = (0.5, 1.0, 2.0), (1, 2, 3), (1.0, math.e, 5.0)
C1_MODELS = ({"kind": "exponential", "rate": 1.0},
             {"kind": "uniform", "lower": 5.0, "upper": 15.0})


def _verify_round(rng: random.Random, fixed: random.Random) -> list[dict]:
    # The grids fix the costs; the seed picks alpha and k where they leave
    # the cost unchanged (k sets the series length of the continuous
    # simulation, so there it is fixed), and the simulation seeds.
    ops = []
    seed = lambda: rng.randrange(2**31)
    for model in C1_MODELS:
        for T in C1_HORIZONS:
            ops.append({"op": "sim_discrete", "model": model,
                        "alpha": rng.choice(C1_ALPHAS), "k": rng.choice(C1_CAPS),
                        "T": T, "trials": 10**5, "seed": seed()})
    # Criterion 2 at 10^5 trials, one point at the full 10^6, and a larger
    # capacity where the per-arrival series recompute over k shows.
    for rate in C2_RATES:
        for T in C2_HORIZONS:
            ops.append({"op": "sim_continuous", "rate": rate, "k": fixed.choice(C2_CAPS),
                        "T": T, "trials": 10**5, "seed": seed()})
    ops.append({"op": "sim_continuous", "rate": 0.5, "k": fixed.choice(C2_CAPS),
                "T": 1.0, "trials": 10**6, "seed": seed()})
    ops.append({"op": "sim_continuous", "rate": 2.0, "k": 20, "T": 5.0,
                "trials": 10**5, "seed": seed()})
    for model, T, scale in ((C1_MODELS[0], 20, 1.0), (C1_MODELS[1], 10, 10.0)):
        ops.append({"op": "sim_regret", "model": model, "alpha": rng.choice(C1_ALPHAS),
                    "k": rng.choice(C1_CAPS), "T": T, "trials": 10**5,
                    "seed": seed(), "price": scale * rng.uniform(0.5, 1.5)})
    # RK4 at each criterion-2 horizon, the families taking turns.
    for i, T in enumerate(C2_HORIZONS):
        ops.append({"op": "rk4", "model": C1_MODELS[i % 2], "rate": rng.choice(C2_RATES),
                    "k": rng.choice(C2_CAPS), "T": T, "step": 1e-3})
    return ops


_GENERATORS = {"single_uav": _single_uav_round, "fleet": _fleet_round,
               "verify": _verify_round}


def generate_round(workload: str, seed: int, index: int) -> list[dict]:
    """Round ``index`` of a workload under ``seed``, in its seeded order."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops = _GENERATORS[workload](rng, random.Random(f"{workload}/fixed/{index}"))
    rng.shuffle(ops)
    return ops


# Rounds in the batch a run replays: about four seconds of work on a 2-CPU
# host, so that a 20-second run replays each op about five times.
BATCH_ROUNDS = {"single_uav": 3, "fleet": 1, "verify": 1}


def generate_batch(workload: str, seed: int) -> list[dict]:
    """The ops a run under ``seed`` replays: its first ``BATCH_ROUNDS`` rounds."""
    return [op for index in range(BATCH_ROUNDS[workload])
            for op in generate_round(workload, seed, index)]


# One small instance of every op type a workload runs: the warm-up before
# timing starts, part of set-up time.
WARMUP = {
    "single_uav": [
        {"op": "price_bound", "model": C1_MODELS[0], "alpha": 0.5, "k": 3, "T": 10},
        {"op": "eval_flat", "model": C1_MODELS[1], "alpha": 0.5, "k": 3, "T": 10,
         "price": 10.0},
        {"op": "eval_perturbed", "model": C1_MODELS[0], "alpha": 0.5, "k": 3,
         "T": 10, "noise_seed": 1},
        {"op": "alloc_discrete", "model": C1_MODELS[0], "budget": 12, "cost": 2,
         "alphas": [0.3, 0.6]},
        {"op": "alloc_continuous", "lam": 1.0, "budget": 10.5, "cost": 1.0,
         "rates": [0.5, 5.0]},
        {"op": "cli_price", "model": C1_MODELS[0], "alpha": 0.5, "k": 3, "T": 10},
        {"op": "cli_allocate", "model": C1_MODELS[1], "budget": 12, "cost": 2,
         "sweep": "0.3:0.5:0.1"},
        {"op": "cli_ratio", "model": C1_MODELS[0], "alpha": 0.5,
         "k_list": "1,2", "T_max": 10, "T_step": 2},
    ],
    "fleet": [
        {"op": "deploy", "model": C1_MODELS[0], "count": 3, "budget": 12.0,
         "cost": 1.0, "hotspots": [{"alpha": 0.6, "distance": 2.0},
                                   {"alpha": 0.4, "distance": 1.0}]},
        {"op": "deploy_continuous", "lam": 1.0, "count": 3, "budget": 20.0,
         "cost": 2.0, "hotspots": [{"alpha": 2.0, "distance": 1.0},
                                   {"alpha": 1.0, "distance": 3.0}]},
        {"op": "cli_deploy", "model": C1_MODELS[1], "count": 2, "budget": 12.0,
         "cost": 1.0, "hotspots": [{"alpha": 0.6, "distance": 2.0},
                                   {"alpha": 0.4, "distance": 1.0}]},
    ],
    "verify": [
        {"op": "sim_discrete", "model": C1_MODELS[0], "alpha": 0.5, "k": 2,
         "T": 5, "trials": 1000, "seed": 7},
        {"op": "sim_continuous", "rate": 1.0, "k": 2, "T": 1.0, "trials": 1000,
         "seed": 7},
        {"op": "sim_regret", "model": C1_MODELS[1], "alpha": 0.5, "k": 2, "T": 5,
         "trials": 1000, "seed": 7, "price": 10.0},
        {"op": "rk4", "model": C1_MODELS[0], "rate": 1.0, "k": 2, "T": 0.1,
         "step": 1e-3},
    ],
}


# -- outcomes -------------------------------------------------------------------


class CheckFailed(Exception):
    """A named correctness check that did not hold."""


@dataclass
class Outcome:
    """What one op produced, reduced to comparable form.

    ``exact`` parts must repeat bit for bit (discrete tables, discrete
    simulation reports, CSV bytes, integer decisions); ``approx`` values are
    continuous closed-form or ODE results compared to a relative 1e-9.
    """

    exact: list = field(default_factory=list)
    approx: list = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in self.exact:
            if isinstance(part, np.ndarray):
                h.update(repr(part.shape).encode())
                h.update(np.ascontiguousarray(part, dtype=float).tobytes())
            elif isinstance(part, bytes):
                h.update(part)
            elif isinstance(part, float):
                h.update(struct.pack("<d", part))
            else:
                h.update(repr(part).encode())
            h.update(b"|")
        return h.hexdigest()


def _require(cond: bool, name: str) -> None:
    if not cond:
        raise CheckFailed(name)


def _finite(*values) -> None:
    for v in values:
        _require(bool(np.all(np.isfinite(np.asarray(v, dtype=float)))), "nonfinite")


def _defined_prices(prices: np.ndarray) -> np.ndarray:
    """Prices at the cells where one is defined: j >= 1 and t >= j."""
    k1, t1 = prices.shape
    j, t = np.indices((k1, t1))
    return prices[(j >= 1) & (t >= j)]


def _nondecreasing(values: np.ndarray, axis: int) -> bool:
    step = np.diff(values, axis=axis)
    return bool(np.all(step >= -ORDER_TOL * np.maximum(1.0, np.abs(values).max())))


def _model_of(lib, spec: dict):
    return lib.valuations.ValuationModel.from_dict(spec)


def _fleet_of(lib, op: dict, model):
    hotspots = [lib.deployment.Hotspot(alpha=h["alpha"], distance=h["distance"])
                for h in op["hotspots"]]
    fleet = lib.deployment.FleetConfig(count=op["count"], initial_budget=op["budget"],
                                       service_cost=op["cost"], valuation=model)
    return hotspots, fleet


# -- op types: prepare() returns (call, check) ---------------------------------
#
# call() makes only library calls and is the timed part; check(result)
# raises CheckFailed or returns the Outcome.


def _prep_price_bound(lib, op, ctx):
    model = _model_of(lib, op["model"])
    a, k, T = op["alpha"], op["k"], op["T"]

    def call():
        schedule, table = lib.pricing.build_pricing(model, a, k, T)
        bench = lib.benchmark.complete_info_profit(model, a, k, T)
        return schedule, table, bench

    def check(res):
        schedule, table, bench = res
        _finite(table.values, bench.values, _defined_prices(schedule.prices))
        _require(_nondecreasing(table.values, 1) and _nondecreasing(bench.values, 1),
                 "table_nondecreasing_t")
        _require(bool(np.all(bench.values >= table.values - ORDER_TOL)),
                 "bound_dominates_table")
        return Outcome(exact=[schedule.prices, table.values, bench.values])

    return call, check


def _prep_eval_flat(lib, op, ctx):
    model = _model_of(lib, op["model"])
    a, k, T = op["alpha"], op["k"], op["T"]
    prices = np.full((k + 1, T + 1), op["price"])

    def call():
        return lib.pricing.evaluate_schedule(model, a, prices, k, T)

    def check(table):
        _finite(table.values)
        # One fixed price: more time or more units can only add sales.
        _require(_nondecreasing(table.values, 1) and _nondecreasing(table.values, 0),
                 "flat_nondecreasing")
        return Outcome(exact=[table.values])

    return call, check


def _prep_eval_perturbed(lib, op, ctx):
    model = _model_of(lib, op["model"])
    a, k, T = op["alpha"], op["k"], op["T"]
    noise = 1.0 + 0.2 * (np.random.default_rng(op["noise_seed"]).random((k + 1, T + 1))
                         - 0.5)

    def call():
        schedule, table = lib.pricing.build_pricing(model, a, k, T)
        scored = lib.pricing.evaluate_schedule(model, a, schedule.prices * noise, k, T)
        return table, scored

    def check(res):
        table, scored = res
        _finite(table.values, scored.values)
        _require(bool(np.all(scored.values <= table.values + ORDER_TOL)),
                 "perturbed_le_optimal")
        return Outcome(exact=[table.values, scored.values])

    return call, check


def _prep_alloc_discrete(lib, op, ctx):
    model = _model_of(lib, op["model"])
    budget, cost = op["budget"], op["cost"]

    def call():
        return [lib.allocation.allocate_discrete(model, a, budget, cost)
                for a in op["alphas"]]

    def check(decisions):
        _finite([d.profit for d in decisions])
        k_max = budget // (1 + cost)
        _require(all(1 <= d.k_star <= k_max and d.t_star == budget - cost * d.k_star
                     for d in decisions), "split_feasible")
        profits = np.array([d.profit for d in decisions])
        _require(bool(np.all(np.diff(profits) >= -ORDER_TOL)), "profit_nondecreasing_alpha")
        return Outcome(exact=[(d.k_star, d.t_star, d.profit) for d in decisions])

    return call, check


def _prep_alloc_continuous(lib, op, ctx):
    lam, budget, cost = op["lam"], op["budget"], op["cost"]

    def call():
        return [(lib.allocation.allocate_continuous(lam, r, budget, cost),
                 lib.allocation.capacity_argmax(r, budget, cost))
                for r in op["rates"]]

    def check(pairs):
        _finite([d.profit for d, _ in pairs] + [d.t_star for d, _ in pairs])
        _require(all(d.k_star == k for d, k in pairs), "kstar_matches_argmax")
        return Outcome(exact=[(d.k_star, k, d.regime.value) for d, k in pairs],
                       approx=[x for d, _ in pairs for x in (d.profit, d.t_star)])

    return call, check


def _model_flags(spec: dict) -> list[str]:
    if spec["kind"] == "exponential":
        return ["--model", "exp", "--lambda", repr(spec["rate"])]
    return ["--model", "uniform", "--a", repr(spec["lower"]), "--b", repr(spec["upper"])]


def _cli_op(lib, ctx, argv: list[str], files: dict | None = None):
    """Run ``cli.main`` inside the scratch directory with relative paths, so
    the provenance lines of the CSV, and hence its bytes, do not depend on
    where the benchmark runs."""
    workdir = ctx["tmp"]
    out = os.path.join(workdir, "out.csv")
    if os.path.exists(out):
        os.remove(out)
    for name, payload in (files or {}).items():
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(payload, fh)
    argv = argv + ["--out", "out.csv"]

    def call():
        sink_out, sink_err = io.StringIO(), io.StringIO()
        here = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                code = lib.cli.main(argv)
        finally:
            os.chdir(here)
        return code, sink_out.getvalue(), sink_err.getvalue()

    def check(res):
        code, stdout, stderr = res
        if code != 0:
            raise CliFailed(code, stderr)
        with open(out, "rb") as fh:
            data = fh.read()
        rows = [r for r in csv.reader(io.StringIO(data.decode()))
                if r and not r[0].startswith("#")]
        _finite([_number(c) for row in rows[1:] for c in row if _number(c) is not None])
        return Outcome(exact=[data, stdout])

    return call, check


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:  # empty cells and labels such as the regime name
        return None


class CliFailed(Exception):
    """The command line returned a nonzero exit code."""

    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit {code}: {stderr.strip()}")
        self.code = code
        self.stderr = stderr


def _prep_cli_price(lib, op, ctx):
    return _cli_op(lib, ctx, ["price"] + _model_flags(op["model"]) +
                   ["--alpha", repr(op["alpha"]), "--k", str(op["k"]), "--T", str(op["T"])])


def _prep_cli_allocate(lib, op, ctx):
    return _cli_op(lib, ctx, ["allocate"] + _model_flags(op["model"]) +
                   ["--B", str(op["budget"]), "--c", str(op["cost"]),
                    "--alpha-sweep", op["sweep"]])


def _prep_cli_ratio(lib, op, ctx):
    return _cli_op(lib, ctx, ["benchmark", "--ratio"] + _model_flags(op["model"]) +
                   ["--alpha", repr(op["alpha"]), "--k-list", op["k_list"],
                    "--T-max", str(op["T_max"]), "--T-step", str(op["T_step"])])


def _prep_cli_deploy(lib, op, ctx):
    return _cli_op(lib, ctx, ["deploy"] + _model_flags(op["model"]) +
                   ["--hotspots", "hotspots.json", "--N", str(op["count"]),
                    "--B0", repr(op["budget"]), "--c", repr(op["cost"])],
                   files={"hotspots.json": op["hotspots"]})


def _plan_parts(plan):
    return [(d.k_star, d.t_star, d.profit) if d is not None else None
            for d in plan.per_hotspot]


def _check_plan_total(plan) -> None:
    total = math.fsum(d.profit for d in plan.per_hotspot if d is not None)
    _require(abs(plan.total_profit - total) <= ORDER_TOL * max(1.0, abs(total)),
             "total_is_sum")


def _prep_deploy(lib, op, ctx):
    hotspots, fleet = _fleet_of(lib, op, _model_of(lib, op["model"]))

    def call():
        return (lib.deployment.optimal_deployment(hotspots, fleet),
                lib.deployment.best_single_hotspot(hotspots, fleet))

    def check(res):
        plan, single = res
        _finite([plan.total_profit, single.decision.profit])
        _check_plan_total(plan)
        _require(sum(plan.profile.counts) == fleet.count, "profile_sums_to_fleet")
        _require(plan.total_profit >= single.decision.profit - ORDER_TOL,
                 "total_ge_best_single")
        return Outcome(exact=[plan.profile.counts, _plan_parts(plan), plan.total_profit,
                              single.index, single.ranking, single.decision.profit])

    return call, check


def _prep_deploy_continuous(lib, op, ctx):
    lam = op["lam"]
    hotspots, fleet = _fleet_of(lib, op, lib.valuations.ValuationModel.exponential(lam))

    def call():
        return (lib.deployment.optimal_deployment_continuous(hotspots, fleet, lam),
                lib.deployment.forking_condition(hotspots[0], hotspots[1], fleet, lam))

    def check(res):
        plan, fork = res
        _finite([plan.total_profit, fork.phi] +
                [d.profit for d in plan.per_hotspot if d is not None])
        _check_plan_total(plan)
        _require(sum(plan.profile.counts) == fleet.count, "profile_sums_to_fleet")
        return Outcome(
            exact=[plan.profile.counts, [d.k_star if d else None for d in plan.per_hotspot],
                   fork.holds, fork.k2_star],
            approx=[plan.total_profit, fork.phi] +
                   [x for d in plan.per_hotspot if d is not None
                    for x in (d.profit, d.t_star)])

    return call, check


# Monte-Carlo means must lie within this many standard errors of the exact
# value; at 5 SE a correct simulator fails about once in 1.7 million ops.
SIM_SE = 5.0


def _report_parts(rep):
    return [rep.trials, rep.mean_profit, rep.std_error, rep.served_histogram,
            rep.seed, rep.generator]


def _prep_sim_discrete(lib, op, ctx):
    model = _model_of(lib, op["model"])
    a, k, T = op["alpha"], op["k"], op["T"]

    def call():
        schedule, table = lib.pricing.build_pricing(model, a, k, T)
        report = lib.simulator.simulate_discrete(model, a, schedule, k, T,
                                                 op["trials"], op["seed"])
        return table, report

    def check(res):
        table, rep = res
        _finite([rep.mean_profit, rep.std_error, table.final()])
        _require(abs(rep.mean_profit - table.final()) <= SIM_SE * rep.std_error,
                 "sim_within_5se")
        return Outcome(exact=[table.values] + _report_parts(rep))

    return call, check


def _prep_sim_continuous(lib, op, ctx):
    rate, k, T = op["rate"], op["k"], op["T"]

    def call():
        report = lib.simulator.simulate_continuous(1.0, rate, k, T, op["trials"],
                                                   op["seed"])
        exact = lib.pricing.expected_profit_closed_form(1.0, rate, k, T)
        return report, exact

    def check(res):
        rep, exact = res
        _finite([rep.mean_profit, rep.std_error, exact])
        _require(abs(rep.mean_profit - exact) <= SIM_SE * rep.std_error,
                 "sim_within_5se")
        # Prices are closed-form values: a log-space rewrite may move them
        # in the last bits, which moves the mean but not a single sale.
        return Outcome(exact=[rep.trials, rep.served_histogram, rep.seed, rep.generator],
                       approx=[rep.mean_profit, rep.std_error, exact])

    return call, check


def _prep_sim_regret(lib, op, ctx):
    model = _model_of(lib, op["model"])

    def call():
        return lib.simulator.simulate_policy_regret(model, op["alpha"], op["k"], op["T"],
                                                    op["trials"], op["seed"], op["price"])

    def check(rep):
        _finite([rep.optimal_mean, rep.fixed_price_mean, rep.paired_std_error])
        _require(rep.optimal_mean >= rep.fixed_price_mean - SIM_SE * rep.paired_std_error,
                 "optimal_beats_flat")
        return Outcome(exact=[rep.optimal_mean, rep.fixed_price_mean,
                              rep.paired_std_error, rep.trials, rep.seed])

    return call, check


# RK4 against the closed form, the tolerance of acceptance criterion 2.
RK4_TOL = 1e-5


def _prep_rk4(lib, op, ctx):
    model = _model_of(lib, op["model"])
    rate, k, T = op["rate"], op["k"], op["T"]

    def call():
        numeric = lib.pricing.continuous_profit_numeric(model, rate, k, T, step=op["step"])
        exact = (lib.pricing.expected_profit_closed_form(model.rate, rate, k, T)
                 if model.kind == "exponential" else None)
        return numeric, exact

    def check(res):
        numeric, exact = res
        _finite([numeric] + ([exact] if exact is not None else []))
        _require(numeric >= 0.0, "profit_nonnegative")
        if exact is not None:
            _require(abs(numeric - exact) <= RK4_TOL, "rk4_matches_closed_form")
        return Outcome(approx=[numeric] + ([exact] if exact is not None else []))

    return call, check


PREPARE = {
    "price_bound": _prep_price_bound, "eval_flat": _prep_eval_flat,
    "eval_perturbed": _prep_eval_perturbed, "alloc_discrete": _prep_alloc_discrete,
    "alloc_continuous": _prep_alloc_continuous, "cli_price": _prep_cli_price,
    "cli_allocate": _prep_cli_allocate, "cli_ratio": _prep_cli_ratio,
    "deploy": _prep_deploy, "deploy_continuous": _prep_deploy_continuous,
    "cli_deploy": _prep_cli_deploy, "sim_discrete": _prep_sim_discrete,
    "sim_continuous": _prep_sim_continuous, "sim_regret": _prep_sim_regret,
    "rk4": _prep_rk4,
}


# -- running ------------------------------------------------------------------


@dataclass
class Record:
    """One attempted op: its type, wall time, failure kind and outputs."""

    op: str
    latency_s: float
    failure: str | None = None
    detail: str = ""
    digest: str = ""
    approx: list = field(default_factory=list)


def run_op(lib, op: dict, ctx: dict) -> Record:
    """Prepare, time and check one op. Never raises for a library failure."""
    call, check = PREPARE[op["op"]](lib, op, ctx)
    clock = time.perf_counter
    start = clock()
    try:
        result = call()
    except Exception as exc:  # any library failure is a counted, failed op
        return Record(op["op"], clock() - start, type(exc).__name__, str(exc)[:200])
    latency = clock() - start
    try:
        outcome = check(result)
    except CheckFailed as exc:
        return Record(op["op"], latency, str(exc))
    except CliFailed as exc:
        return Record(op["op"], latency, f"cli_exit_{exc.code}", exc.stderr.strip()[:200])
    return Record(op["op"], latency, None, "", outcome.digest(), outcome.approx)


# -- failures known at the commit the benchmark was defined on ------------------
#
# Each known defect is matched on op type, failure kind and message. Any
# other failure makes a run incorrect.

_NEGATIVE_OPTION = "stage option value must be nonnegative"

KNOWN_DEFECTS = {
    # build_pricing round-off: r_same - r_less comes out as -1e-16 once the
    # marginal unit is worth about nothing.
    "negative_option_value": lambda r: (r.failure == "ValueError" or
                                        r.failure.startswith("cli_exit_"))
                                       and _NEGATIVE_OPTION in r.detail,
    # high_regime_threshold evaluates factorials and powers in floats.
    "regime_threshold_overflow": lambda r: (r.op == "alloc_continuous" and
                                            r.failure == "OverflowError"),
    # capacity_argmax sums the capacity series in linear space, which
    # overflows, so it disagrees with allocate_continuous at large B / c.
    "kstar_argmax_mismatch": lambda r: (r.op == "alloc_continuous" and
                                        r.failure == "kstar_matches_argmax"),
    # pooled_series_max overflows to inf in linear space, so continuous
    # fleet totals and the forking ratio come out infinite or NaN.
    "series_overflow": lambda r: (r.op in ("deploy_continuous", "alloc_continuous")
                                  and r.failure == "nonfinite"),
}


def known_defect(record: Record) -> str | None:
    """The known defect a failed record is an instance of, if any."""
    for name, matches in KNOWN_DEFECTS.items():
        if matches(record):
            return name
    return None


# -- reference outputs ------------------------------------------------------------

REFERENCE_SEED = 0
APPROX_RTOL = 1e-9


def reference_ops(workload: str) -> list[dict]:
    """The ops whose outputs are pinned: the warm-up set plus one round."""
    return WARMUP[workload] + generate_round(workload, REFERENCE_SEED, 0)


def _close(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= APPROX_RTOL * max(abs(a), abs(b))


def compare_reference(expected: dict, got: Record) -> str | None:
    """Why ``got`` does not reproduce a recorded reference output, or None.

    An op that failed when the reference was recorded may now succeed (a
    fixed defect) or fail as a known defect; an op that succeeded must
    reproduce its outputs.
    """
    if expected["failure"] is not None:
        if got.failure is None or known_defect(got):
            return None
        return f"now fails with {got.failure}"
    if got.failure is not None:
        return f"now fails with {got.failure}: {got.detail}"
    if got.digest != expected["digest"]:
        return "exact outputs differ"
    if len(got.approx) != len(expected["approx"]) or not all(
            _close(a, b) for a, b in zip(got.approx, expected["approx"])):
        return f"continuous outputs differ beyond {APPROX_RTOL}"
    return None
