"""Assigning a UAV fleet to heterogeneous hotspots.

Each hotspot m has an occurrence rate alpha_m and a flying distance D_m from
the station (energy cost one per unit distance). A group of n co-located
vehicles pools residual energy: pooling divides the per-unit capacity cost by
n at the price of multiplying hovering energy, so the feasible capacity bound
relaxes to floor((B0 - D) / (1 + c/n)) and the hovering time for capacity k
is floor(B0 - D - c*k/n).

The fleet profit is separable over hotspots, so the planner is the
resource-allocation dynamic program over hotspots (Ibaraki & Katoh,
*Resource Allocation Problems*, 1988) in the dominance-list form of
Nemhauser & Ullmann (*Management Science* 15(9), 1969): one forward pass of
O(M * N^2 * F) entry updates, F the longest list of prefixes kept for one
count of vehicles placed (1 unless prefix sums nearly tie), instead of the
C(N + M - 1, M - 1) compositions of the fleet. It takes the per-(hotspot,
group size) decisions as input and serves both the discrete and the
continuous profits. The discrete planner fills the tables of all
hotspots in one batched sweep, padded to the largest hotspot's size, and
the continuous one runs every (hotspot, group) search in one call of
``allocation``'s capacity search, which bounds each group's capacity itself.
A plan's total is the left-to-right float sum of its served hotspots'
profits, and exact ties go to the lexicographically greatest profile; the
planner reproduces enumeration bit for bit, profile, decisions and total
alike. A group serves one hotspot: a lone vehicle never gains by splitting
its energy along a multi-hotspot route.

``forking_condition`` evaluates the sufficient condition under which a fleet
splits across the two best hotspots instead of all pooling on the first best
(continuous relaxation, exponential valuations).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .allocation import AllocationDecision, _best_series_capacity, _pooled_decisions
from .pricing import _log_series
from .valuations import ParameterError, ValuationModel, _check


@dataclass(frozen=True)
class Hotspot:
    """Per-slot occurrence probability (discrete) or arrival rate (continuous),
    plus flying distance from the station."""

    alpha: float
    distance: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check("positive finite", self.alpha, "hotspot alpha"))
        object.__setattr__(self, "distance", _check("nonnegative finite", self.distance,
                                                    "hotspot distance"))


@dataclass(frozen=True)
class FleetConfig:
    count: int
    initial_budget: float
    service_cost: float
    valuation: ValuationModel

    def __post_init__(self):
        object.__setattr__(self, "count", _check("count", self.count, "fleet size"))
        object.__setattr__(self, "initial_budget", _check("positive finite", self.initial_budget,
                                                          "initial budget"))
        object.__setattr__(self, "service_cost", _check("positive finite", self.service_cost,
                                                        "service cost"))


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


class BestHotspot(NamedTuple):
    index: int
    decision: AllocationDecision
    ranking: list[int]


class ForkingCheck(NamedTuple):
    holds: bool
    phi: float
    k2_star: int

    @property
    def threshold(self) -> float:
        """max(phi^(1/k2*), phi), the bound a'_2 / a'_1 must pass to fork."""
        return max(self.phi ** (1.0 / self.k2_star), self.phi)


# -- fleet-wide planning ------------------------------------------------------


def _plan_fleet(options: list[list[AllocationDecision] | None],
                count: int) -> DeploymentPlan:
    """Exact best profile for a fleet whose profit is separable over hotspots.

    ``options[i][n - 1]`` is hotspot i's decision with n vehicles; None pins
    hotspot i to zero. A profile's total is the left-to-right float sum of
    its served hotspots' profits, and the profile returned is the
    lexicographically greatest one whose total is the maximum, exactly the
    result of scoring every composition in order with a ``>=`` comparison.

    One forward pass keeps, per count of vehicles placed, a short list of
    (counts, prefix sum) entries in decreasing counts order with strictly
    rising sums. An entry drops out when a greater profile's prefix matches
    or beats its sum: rounded addition is monotone, so under every
    completion that profile ends at least as high and ranks first. It
    also drops out when it is too far below its state's top sum to ever tie
    it (see ``margin`` below). Keeping the greatest prefix sum alone would
    break the tie rule, since two prefix sums an ulp apart can reach the
    same total once later profits absorb the gap. With F the longest list
    kept, the pass costs O(M * N^2 * F).
    """
    # cap bounds every prefix sum: |fl(s + p)| <= fl(|s| + max |p|), as
    # rounding is monotone, so no prefix sum outgrows this left fold.
    cap = 0.0
    for row in options:
        if row is not None:
            cap += max(abs(d.profit) for d in row)
    # A sum of magnitude at most cap rounds by at most ulp(cap) / 2, so adding
    # one profit to two prefix sums a gap g apart leaves them at least
    # g - ulp(cap) apart, and adding nothing leaves g. With `left` hotspots to
    # come, an entry more than left * ulp(cap) below its list's top sum ends
    # strictly below the top under any completion the two share, so it can
    # neither win nor tie. left * ulp(cap) is exact (or inf, which prunes nothing), so
    # the rounded test `top - s > margin` holds only when the exact gap
    # exceeds margin. The last hotspot takes margin 0, as 0 * inf is NaN.
    ulp = math.ulp(cap)
    lists = [[((), 0.0)]] + [[] for _ in range(count)]
    for i, row in enumerate(options):
        left = len(options) - 1 - i
        margin = left * ulp if left else 0.0
        grown = [[(counts + (0,), s) for counts, s in entries] for entries in lists]
        if row is not None:
            for u, entries in enumerate(lists):
                for n, decision in enumerate(row[:count - u], start=1):
                    grown[u + n] += [(counts + (n,), s + decision.profit)
                                     for counts, s in entries]
        lists = []
        for entries in grown:
            entries.sort(reverse=True)
            kept = []
            for entry in entries:
                if not kept or entry[1] > kept[-1][1]:
                    kept.append(entry)
            lists.append([e for e in kept if not kept[-1][1] - e[1] > margin])

    counts, total = lists[count][-1]
    per = tuple(options[i][n - 1] if n else None for i, n in enumerate(counts))
    return DeploymentPlan(profile=DeploymentProfile(counts),
                          per_hotspot=per, total_profit=total)


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
    The assignment itself comes from the one forward pass of ``_plan_fleet``,
    exact like scoring every composition: the total is the left-to-right
    float sum of the served hotspots' profits, and exact ties go to the
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


# -- continuous relaxation: pooling and forking ------------------------------


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
    _check("valuation rate", lam, "lambda")
    avail1 = fleet.initial_budget - hotspot1.distance
    avail2 = fleet.initial_budget - hotspot2.distance
    if avail1 <= 0 or avail2 <= 0:
        raise ParameterError("both hotspots must be reachable")

    a1, a2 = hotspot1.alpha, hotspot2.alpha
    cost, n = fleet.service_cost, fleet.count

    # One search call: each hotspot alone and hotspot 1 pooling n and n - 1
    # vehicles; the denominator reads hotspot 2's series at k2* and rate a'_1.
    groups = np.array([1, 1, n, n - 1])[:, None]
    avails = np.array([avail2, avail1, avail1, avail1])[:, None]
    ks, logs = _best_series_capacity(np.array([a2, a1, a1, a1])[:, None], avails, cost, groups)
    k2_star = ks[0].item()
    best2, best1, pooled_n, pooled_n1 = logs.tolist()
    if best1 < best2:
        raise ParameterError("hotspot 1 must be the first best for a single vehicle")

    log_s2 = float(_log_series(a1 * max(avail2 - cost * k2_star, 0.0) / math.e, k2_star))
    if log_s2 <= 0.0:
        return ForkingCheck(holds=False, phi=math.inf, k2_star=k2_star)

    # phi = (S_n - S_{n-1}) / (S_{n-1} (S_k2* - 1)) = expm1(gain) / expm1(log_s2),
    # rearranged so that it overflows only when phi itself does.
    gain = pooled_n - pooled_n1
    try:
        phi = math.exp(gain - log_s2) * math.expm1(-gain) / math.expm1(-log_s2)
    except OverflowError:
        phi = math.inf
    check = ForkingCheck(holds=False, phi=phi, k2_star=k2_star)
    return check._replace(holds=a2 / a1 > check.threshold)


def optimal_deployment_continuous(hotspots: list[Hotspot], fleet: FleetConfig,
                                  lam: float) -> DeploymentPlan:
    """Best fleet assignment under the continuous closed-form profits.

    Poisson arrivals and exponential valuations of rate lam give a group of
    n vehicles the profit max_k log S_k / lam, k in 1..floor(n * avail / c),
    from the capacity search of ``allocate_continuous``; the assignment comes
    from the same planner, with the same summation order and tie rule, as
    ``optimal_deployment``. Every (hotspot, n) search runs in one series
    kernel call. Used to verify the forking condition.
    """
    lam = _check("valuation rate", lam, "lambda")
    reach, alphas, avails = _reachable(hotspots, fleet)
    cost, count = fleet.service_cost, fleet.count
    groups = np.arange(1, count + 1)[:, None]  # searches on axes (hotspot, n)
    avail, rate = np.array(avails)[:, None, None], np.array(alphas)[:, None, None]
    ks, logs = _best_series_capacity(rate, avail, cost, groups)
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
        if not isinstance(entry, dict) or set(entry) != {"alpha", "distance"}:
            raise ParameterError(f"{path}: hotspot {i} must be an object with the keys "
                                 f"alpha and distance, got {entry!r}")
        spots.append(Hotspot(entry["alpha"], entry["distance"]))
    return spots

