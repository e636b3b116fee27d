"""Assigning a UAV fleet to heterogeneous hotspots.

Each hotspot m has an occurrence rate alpha_m and a flying distance D_m from
the station (energy cost one per unit distance). A group of n co-located
vehicles pools residual energy: pooling divides the per-unit capacity cost by
n at the price of multiplying hovering energy, so the feasible capacity bound
relaxes to floor((B0 - D) / (1 + c/n)) and the hovering time for capacity k
is floor(B0 - D - c*k/n).

The fleet profit is separable over hotspots, so the planner is the
resource-allocation dynamic program over hotspots (Ibaraki & Katoh,
*Resource Allocation Problems*, 1988): O(M * N^2) state updates instead of
the C(N + M - 1, M - 1) compositions of the fleet. It takes the
per-(hotspot, group size) decisions as input and serves both the discrete
and the continuous profits. The discrete planner fills the tables of all
hotspots in one batched sweep, padded to the largest hotspot's size, and
the continuous one scores every (hotspot, group, capacity) in one series
kernel call. A plan's total is the left-to-right float sum of its served
hotspots' profits, and exact ties go to the lexicographically greatest
profile; the planner reproduces enumeration bit for bit, profile, decisions
and total alike. ``compositions`` stays as the enumerator of
``route_oracle`` and as the reference the planner is tested against.

Two verification tools accompany the planner:

* ``route_oracle`` exhaustively enumerates every ordered hotspot subset and
  every grid-aligned energy partition for a single vehicle. Its optimum is
  always a single-hotspot route with the full residual budget, which the
  planner's per-hotspot reduction relies on.
* ``forking_condition`` evaluates the sufficient condition under which a
  fleet splits across the two best hotspots instead of all pooling on the
  first best (continuous relaxation, exponential valuations).
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .allocation import (AllocationDecision, _best_series_capacity,
                         _pooled_decisions, _series_logs)
from .valuations import ParameterError, ValuationModel

_FLOOR_EPS = 1e-9


@dataclass(frozen=True)
class Hotspot:
    """Per-slot occurrence probability (discrete) or arrival rate (continuous),
    plus flying distance from the station."""

    alpha: float
    distance: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ParameterError(f"occurrence rate must be positive, got {self.alpha}")
        if not self.distance >= 0:
            raise ParameterError(f"distance must be nonnegative, got {self.distance}")


@dataclass(frozen=True)
class FleetConfig:
    count: int
    initial_budget: float
    service_cost: float
    valuation: ValuationModel

    def __post_init__(self):
        if not self.count >= 1:
            raise ParameterError(f"fleet needs at least one vehicle, got {self.count}")
        if not 0 < self.initial_budget < math.inf:
            raise ParameterError(
                f"initial budget must be positive and finite, got {self.initial_budget}")
        if not self.service_cost > 0:
            raise ParameterError(f"service cost must be positive, got {self.service_cost}")


@dataclass(frozen=True)
class DeploymentProfile:
    """How many vehicles go to each hotspot; sums to the fleet size."""

    counts: tuple[int, ...]

    def served(self) -> int:
        return sum(1 for n in self.counts if n > 0)


@dataclass(frozen=True)
class DeploymentPlan:
    profile: DeploymentProfile
    per_hotspot: tuple[AllocationDecision | None, ...]
    total_profit: float

    def csv_rows(self):
        """Yield (hotspot, n, k, T, profit) rows; unserved hotspots blank."""
        for m, (n, dec) in enumerate(zip(self.profile.counts, self.per_hotspot)):
            if dec is None:
                yield m, n, None, None, None
            else:
                yield m, n, dec.k_star, dec.t_star, dec.profit


@dataclass(frozen=True)
class RouteInstance:
    """Hotspots plus symmetric inter-hotspot flying distances.

    No triangle inequality is imposed; only symmetry, a zero diagonal and
    nonnegativity are validated.
    """

    hotspots: tuple[Hotspot, ...]
    pairwise: np.ndarray

    def __post_init__(self):
        m = len(self.hotspots)
        d = np.asarray(self.pairwise, dtype=float)
        if d.shape != (m, m):
            raise ParameterError(f"pairwise matrix must be {m}x{m}, got {d.shape}")
        if np.any(d < 0):
            raise ParameterError("inter-hotspot distances must be nonnegative")
        if np.any(np.diag(d) != 0):
            raise ParameterError("pairwise matrix must have a zero diagonal")
        if not np.allclose(d, d.T, atol=1e-12):
            raise ParameterError("pairwise matrix must be symmetric")
        object.__setattr__(self, "pairwise", d)


class BestHotspot(NamedTuple):
    index: int
    decision: AllocationDecision
    ranking: list[int]


class RouteResult(NamedTuple):
    route: tuple[int, ...]
    budgets: tuple[float, ...]
    profit: float


class ForkingCheck(NamedTuple):
    holds: bool
    phi: float
    k2_star: int


# -- discrete per-hotspot allocation ----------------------------------------


def hotspot_profit(hotspot: Hotspot, uav_count: int,
                   fleet: FleetConfig) -> AllocationDecision:
    """Best energy split for ``uav_count`` pooled vehicles at one hotspot.

    With a single vehicle this reduces exactly to the one-UAV discrete
    allocation at budget B0 - D. Returns a zero-profit decision with k = 0
    when not even one user fits after the flight.
    """
    if uav_count < 1:
        raise ParameterError(f"need at least one vehicle, got {uav_count}")
    available = fleet.initial_budget - hotspot.distance
    if available <= 0:
        raise ParameterError(
            f"hotspot at distance {hotspot.distance} unreachable on budget "
            f"{fleet.initial_budget}"
        )
    return _pooled_decisions(fleet.valuation, (hotspot.alpha,), (available,),
                             fleet.service_cost, (uav_count,))[0][0]


# -- fleet-wide planning ------------------------------------------------------


def compositions(total: int, caps: list[int]):
    """Yield tuples of nonnegative parts summing to ``total`` with per-slot caps,
    in lexicographic order.

    Enumerates the energy partitions of ``route_oracle``; scoring every fleet
    composition this way is the reference the fleet planner is tested against.
    """
    m = len(caps)

    def rec(pos, remaining, prefix):
        if pos == m - 1:
            if remaining <= caps[pos]:
                yield prefix + (remaining,)
            return
        for n in range(0, min(caps[pos], remaining) + 1):
            yield from rec(pos + 1, remaining - n, prefix + (n,))

    yield from rec(0, total, ())


# Doubles in numeric order map to consecutive integers: nonnegative doubles
# to their bit patterns, negative ones to minus the pattern of their
# magnitude (-0.0 shares 0.0's key). The keys run from -inf to +inf.
_DOUBLE = struct.Struct("<d")
_BITS = struct.Struct("<Q")
_SIGN = 1 << 63


def _double_key(x: float) -> int:
    bits = _BITS.unpack(_DOUBLE.pack(x))[0]
    return bits if bits < _SIGN else _SIGN - bits


def _key_double(key: int) -> float:
    return _DOUBLE.unpack(_BITS.pack(key if key >= 0 else _SIGN - key))[0]


_KEY_INF = _double_key(math.inf)


def _least_prefix(addend: float, goal: float) -> float:
    """Least double s with fl(s + addend) >= goal.

    Rounded addition is monotone in s, so the qualifying doubles form an
    up-set of the ordered keys. Gallop out from the key of goal - addend to a
    bracket, then bisect: stepping one ulp at a time would never end when the
    addend alone reaches the goal, and goal - addend is not finite when both
    are infinite.
    """
    reaches = lambda key: _key_double(key) + addend >= goal
    lo, hi = -_KEY_INF - 1, _KEY_INF  # reaches(hi); lo is below the up-set
    guess = goal - addend
    if math.isfinite(guess):
        start, step = _double_key(guess), 1
        if reaches(start):
            hi = start
            while hi - step > lo and reaches(hi - step):
                hi, step = hi - step, 2 * step
            lo = max(lo, hi - step)
        else:
            lo = start
            while lo + step < hi and not reaches(lo + step):
                lo, step = lo + step, 2 * step
            hi = min(hi, lo + step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return _key_double(hi)


def _plan_fleet(options: list[list[AllocationDecision] | None],
                count: int) -> DeploymentPlan:
    """Exact best profile for a fleet whose profit is separable over hotspots.

    ``options[i][n - 1]`` is hotspot i's decision with n vehicles; None pins
    hotspot i to zero. A profile's total is the left-to-right float sum of
    its served hotspots' profits, and the profile returned is the
    lexicographically greatest one whose total is the maximum, exactly the
    result of scoring every composition in order with a ``>=`` comparison.

    Rounded addition is monotone, so the best total over profiles is reached
    through the best prefix sum of each (hotspot, vehicles used) state: a
    forward pass finds it in O(M * N^2). Picking the largest count per
    hotspot on that pass alone would break the tie rule, since two prefix
    sums an ulp apart can reach the same total once later profits absorb
    the gap. So a backward pass records, per state, the least prefix sum
    from which the best total is still reachable, and a final forward walk
    takes at each hotspot the largest count that keeps its state viable.
    """
    m = len(options)
    plus = lambda s, i, n: s + options[i][n - 1].profit if n else s
    room = lambda i, u: range(count - u + 1) if options[i] is not None else range(1)

    # best[i][u]: greatest prefix sum over hotspots < i holding u vehicles
    best = [[None] * (count + 1) for _ in range(m + 1)]
    best[0][0] = 0.0
    for i in range(m):
        for u, s in enumerate(best[i]):
            if s is None:
                continue
            for n in room(i, u):
                v, cur = plus(s, i, n), best[i + 1][u + n]
                if cur is None or v > cur:
                    best[i + 1][u + n] = v
    total = best[m][count]

    # need[i][u]: least prefix sum at (i, u) from which a completion sums to
    # the best total; None where no reachable completion seats the fleet
    need = [[None] * (count + 1) for _ in range(m + 1)]
    need[m][count] = total
    for i in reversed(range(m)):
        for u in range(count + 1):
            if best[i][u] is None:
                continue
            lows = [_least_prefix(options[i][n - 1].profit, need[i + 1][u + n])
                    if n else need[i + 1][u + n]
                    for n in room(i, u) if need[i + 1][u + n] is not None]
            need[i][u] = min(lows, default=None)

    counts, s, u = [], 0.0, 0
    for i in range(m):
        for n in reversed(room(i, u)):
            goal = need[i + 1][u + n]
            if goal is not None and plus(s, i, n) >= goal:
                break
        counts.append(n)
        s, u = plus(s, i, n), u + n

    per = tuple(options[i][n - 1] if n else None for i, n in enumerate(counts))
    return DeploymentPlan(profile=DeploymentProfile(tuple(counts)),
                          per_hotspot=per, total_profit=s)


def _reachable(hotspots: list[Hotspot], fleet: FleetConfig):
    """Indices, rates and energy left after the flight of the reachable hotspots."""
    reach = [i for i, h in enumerate(hotspots) if h.distance < fleet.initial_budget]
    if not reach:
        raise ParameterError("no hotspot is reachable on the fleet budget")
    return (reach, [hotspots[i].alpha for i in reach],
            [fleet.initial_budget - hotspots[i].distance for i in reach])


def optimal_deployment(hotspots: list[Hotspot], fleet: FleetConfig) -> DeploymentPlan:
    """Best fleet assignment under the discrete pooled profits.

    One batched sweep fills a pricing table per reachable hotspot, sized for
    the largest one with the whole fleet pooled there; each hotspot reads
    every group size's decision from a top-left corner of its table.
    The assignment itself comes from the exact dynamic program of
    ``_plan_fleet`` in O(M * N^2): the total is the left-to-right float sum
    of the served hotspots' profits, and exact ties go to the
    lexicographically greatest profile, which front-loads the lower-indexed
    hotspots. Two identical hotspots and one vehicle give (1, 0).
    Unreachable hotspots are pinned to zero vehicles.
    """
    reach, alphas, avails = _reachable(hotspots, fleet)
    rows = dict(zip(reach, _pooled_decisions(fleet.valuation, alphas, avails,
                                             fleet.service_cost, range(1, fleet.count + 1))))
    return _plan_fleet([rows.get(i) for i in range(len(hotspots))], fleet.count)


def best_single_hotspot(hotspots: list[Hotspot], fleet: FleetConfig) -> BestHotspot:
    """The hotspot a lone vehicle should serve, plus the full profit ranking.

    Ranking covers reachable hotspots ordered by achievable profit (ties to
    the lower index).
    """
    reach, alphas, avails = _reachable(hotspots, fleet)
    rows = _pooled_decisions(fleet.valuation, alphas, avails, fleet.service_cost, (1,))
    decisions = {i: row[0] for i, row in zip(reach, rows)}
    ranking = sorted(decisions, key=lambda i: (-decisions[i].profit, i))
    best = ranking[0]
    return BestHotspot(index=best, decision=decisions[best], ranking=ranking)


# -- single-vehicle routing oracle -------------------------------------------


def route_oracle(instance: RouteInstance, fleet: FleetConfig,
                 energy_step: int = 1) -> RouteResult:
    """Brute-force the best multi-hotspot route for one vehicle.

    Enumerates every ordered subset of hotspots and every energy partition on
    the given grid whose parts sum to the residual budget after flying the
    route. When the residual is not a grid multiple, the fractional remainder
    is attached to each stop in turn so the full budget is always spendable.
    Factorial enumeration caps the instance at three hotspots.
    """
    m = len(instance.hotspots)
    if m > 3:
        raise ParameterError(f"route oracle enumerates at most 3 hotspots, got {m}")
    if energy_step < 1 or energy_step != int(energy_step):
        raise ParameterError(f"energy grid step must be a positive integer, got {energy_step}")

    model = fleet.valuation
    cost = fleet.service_cost
    cache: dict[tuple[int, float], float] = {}

    def spot_profit(idx: int, budget: float) -> float:
        key = (idx, round(budget, 9))
        if key not in cache:  # no budget funds no unit: a zero-profit decision
            cache[key] = _pooled_decisions(model, (instance.hotspots[idx].alpha,),
                                           (budget,), cost, (1,))[0][0].profit
        return cache[key]

    best = RouteResult(route=(), budgets=(), profit=0.0)
    for size in range(1, m + 1):
        for route in itertools.permutations(range(m), size):
            dist = instance.hotspots[route[0]].distance
            for a, b in zip(route, route[1:]):
                dist += instance.pairwise[a, b]
            residual = fleet.initial_budget - dist
            if residual < 0:
                continue
            units = int(residual // energy_step + _FLOOR_EPS)
            remainder = residual - units * energy_step
            for parts in compositions(units, [units] * size):
                base = [p * energy_step for p in parts]
                if remainder > _FLOOR_EPS:
                    variants = []
                    for q in range(size):
                        bumped = list(base)
                        bumped[q] += remainder
                        variants.append(bumped)
                else:
                    variants = [base]
                for budgets in variants:
                    profit = sum(spot_profit(i, bdg)
                                 for i, bdg in zip(route, budgets))
                    if profit > best.profit:
                        best = RouteResult(route=route, budgets=tuple(budgets),
                                           profit=profit)
    return best


# -- continuous relaxation: pooling and forking ------------------------------


def pooled_series_max(arrival_rate: float, available: float, service_cost: float,
                      group: int) -> tuple[int, float]:
    """Max over k of the capacity series S_k(a' (avail - c k / group) / e).

    Returns (best k, log of the series value); that log over lam is the
    pooled group's expected profit. Ties go to the smallest k.
    """
    k_top = _pooled_k_top(group, available, service_cost)
    return tuple(v.item() for v in _best_series_capacity(
        arrival_rate, available, service_cost, group, k_top))


def _pooled_k_top(group, available, service_cost: float) -> np.ndarray:
    """floor(group * avail / c), the pooled capacity bound, elementwise."""
    return np.floor(np.multiply(group, available) / service_cost + _FLOOR_EPS).astype(int)


def forking_condition(hotspot1: Hotspot, hotspot2: Hotspot, fleet: FleetConfig,
                      lam: float) -> ForkingCheck:
    """Sufficient condition for the fleet to fork across the two best hotspots.

    Hotspot 1 must be the first best for a lone vehicle; the check compares
    the rate ratio a'_2 / a'_1 against max(phi^(1/k2*), phi), where phi is the
    relative profit increment of pooling the N-th vehicle on hotspot 1 over
    sending it to hotspot 2.

    The denominator's hotspot-2 series is evaluated at rate a'_1: the rate
    ratio beta = a'_2 / a'_1 has been divided out of it, and the ratio test
    against beta and beta^k2* is exactly what restores the missing factor for
    ratios below and above one.
    """
    if fleet.count < 2:
        raise ParameterError("forking needs at least two vehicles")
    if not lam > 0:
        raise ParameterError("valuation rate must be positive")
    avail1 = fleet.initial_budget - hotspot1.distance
    avail2 = fleet.initial_budget - hotspot2.distance
    if avail1 <= 0 or avail2 <= 0:
        raise ParameterError("both hotspots must be reachable")

    a1, a2 = hotspot1.alpha, hotspot2.alpha
    cost, n = fleet.service_cost, fleet.count

    # One kernel call: each hotspot alone, hotspot 1 pooling n and n - 1
    # vehicles, and hotspot 2's capacities at rate a'_1 for the denominator.
    groups = np.array([1, 1, n, n - 1, 1])[:, None]
    avails = np.array([avail2, avail1, avail1, avail1, avail2])[:, None]
    logs = _series_logs(np.array([a2, a1, a1, a1, a1])[:, None], avails, cost, groups,
                        _pooled_k_top(groups, avails, cost))
    k2_star = int(logs[0].argmax()) + 1
    best2, best1, pooled_n, pooled_n1 = logs[:4].max(axis=1).tolist()
    if best1 < best2:
        raise ParameterError("hotspot 1 must be the first best for a single vehicle")

    log_s2 = float(logs[4, k2_star - 1])
    if log_s2 <= 0.0:
        return ForkingCheck(holds=False, phi=math.inf, k2_star=k2_star)

    # phi = (S_n - S_{n-1}) / (S_{n-1} (S_k2* - 1)) = expm1(gain) / expm1(log_s2),
    # rearranged so that it overflows only when phi itself does.
    gain = pooled_n - pooled_n1
    try:
        phi = math.exp(gain - log_s2) * math.expm1(-gain) / math.expm1(-log_s2)
    except OverflowError:
        phi = math.inf
    holds = a2 / a1 > max(phi ** (1.0 / k2_star), phi)
    return ForkingCheck(holds=holds, phi=phi, k2_star=k2_star)


def optimal_deployment_continuous(hotspots: list[Hotspot], fleet: FleetConfig,
                                  lam: float) -> DeploymentPlan:
    """Best fleet assignment under the continuous closed-form profits.

    Poisson arrivals and exponential valuations of rate lam give a group of
    n vehicles the profit max_k log S_k / lam of ``pooled_series_max``; the
    assignment comes from the same planner, with the same summation order
    and tie rule, as ``optimal_deployment``. Every (hotspot, n, k) is scored
    in one series kernel call. Used to verify the forking condition.
    """
    if not lam > 0:
        raise ParameterError("valuation rate must be positive")
    reach, alphas, avails = _reachable(hotspots, fleet)
    cost, count = fleet.service_cost, fleet.count
    groups = np.arange(1, count + 1)[:, None]  # searches on axes (hotspot, n)
    avail, rate = np.array(avails)[:, None, None], np.array(alphas)[:, None, None]
    ks, logs = _best_series_capacity(rate, avail, cost, groups,
                                     _pooled_k_top(groups, avail, cost))
    rows = {i: [AllocationDecision(k_star=k, t_star=a - cost * k / n, profit=log_series / lam)
                for n, k, log_series in zip(range(1, count + 1), row_k, row_log)]
            for i, a, row_k, row_log in zip(reach, avails, ks.tolist(), logs.tolist())}
    return _plan_fleet([rows.get(i) for i in range(len(hotspots))], count)


# -- file ingestion ------------------------------------------------------------


def load_hotspots(path: str) -> list[Hotspot]:
    """Read a hotspot set from a JSON array of {"alpha": ..., "distance": ...}."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or not raw:
        raise ParameterError(f"{path}: expected a nonempty JSON array of hotspots")
    spots = []
    for i, entry in enumerate(raw):
        unknown = set(entry) - {"alpha", "distance"}
        if unknown:
            raise ParameterError(f"{path}: hotspot {i} has unknown keys {sorted(unknown)}")
        try:
            spots.append(Hotspot(alpha=float(entry["alpha"]),
                                 distance=float(entry["distance"])))
        except KeyError as exc:
            raise ParameterError(f"{path}: hotspot {i} missing key {exc}") from exc
    return spots

