"""Record paired benchmark runs of this checkout against a parent revision.

Usage, from the root of a checkout:

    python3 tools/bench_record.py --parent HEAD~1 --pairs 10 --out BENCH_2.json
    python3 tools/bench_record.py --compare BENCH_1.json BENCH_2.json

The first form exports the parent revision with ``git archive`` into a
temporary directory and runs ``perfbench/run.py --trace 0`` in both trees,
alternating which side goes first, once per seed and workload; each tree runs
its own ``perfbench``, which loads that tree's ``src``. It then runs one
``--trace 1`` pair per workload on a further seed, and times three table
fills of both trees in one process. The run length and the workloads are the
ones ``BENCHMARK.json`` declares. The change side is this checkout's working
tree, uncommitted edits to tracked files included: the file records its HEAD
commit, whether the tree was clean, and the git tree ids of ``src`` and
``perfbench`` as measured on each side, so that ``git rev-parse HEAD:src`` on a
later commit tells whether it holds the measured code.

The output holds:
- the environment: commits, measured tree ids, Python, numpy, numpy's SIMD dispatch as
  ``numpy.show_runtime()`` prints it, and the CPU count of the affinity mask;
- per workload: every run's last JSON line, each end-to-end metric's median
  and quartiles per side, and the pairs the change won (ties count for
  neither side), with ``correct`` and ``failed`` per side;
- the traced pair's per-layer metrics;
- cells per second of ``build_pricing``, ``evaluate_schedule`` and
  ``complete_info_profit`` at (k, T) = (20, 1000) for exponential and uniform
  valuations, counting the k * T cells of R[1..k][1..T]; trials per
  second of ``simulate_discrete`` and ``simulate_policy_regret`` at
  (k, T) = (5, 20) with 10^5 trials, and of ``simulate_continuous`` at rate
  0.5, k 3, T 1 with 10^6 trials and at rate 2, k 20, T 5 with 10^5; calls
  per second of ``capacity_argmax(1, 8000, 1)`` and
  ``capacity_argmax(1000, 20000, 1)``, plans per second of
  ``optimal_deployment_continuous`` for 10 vehicles on ten hotspots, RK4
  steps per second of ``continuous_profit_numeric`` at rate 1, k 3, T 1,
  calls per second of two argument-checking paths, ``load_hotspots`` of a
  ten-hotspot file and ``expected_profit_closed_form`` at k 3, and
  calls per second of ``cli.main`` on five fixed command lines, stdout
  captured and ``--out`` a temporary file: ``price`` at exp(1), alpha 0.5,
  k 19, T 420; ``allocate`` on a five-point alpha sweep; ``deploy`` of six
  vehicles on ten hotspots; discrete ``simulate`` at k 5, T 20 with 10^5
  trials; and ``benchmark --ratio`` for k 1, 2, 3 up to T 200.
  Each is timed ``LAYER_REPS`` times per side in one process that loads
  both trees (about a minute and a half on a 2-CPU host); the file keeps each
  side's best rate and, beside it, the median and quartiles of all its reps;
- one tier-1 run per tree, parent first, each with its own ``tests`` and
  ``src``: wall time, pass, fail and skip counts, the failing tests, and
  ``test_criterion_02_closed_form_equivalence``'s duration.

The second form prints, per workload and metric, the ratio of the change
medians of the second file to those of the first, and per layer each file's
own change/parent ratio of best rates, side by side: two files' layer rates
were timed under different host loads, so their quotient measures the host,
not the code. The script uses the standard library only; numpy is imported
only by the processes it starts.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
LAYER_REPS = 60
# The directories a run loads; their tree ids identify what was measured.
MEASURED = ("src", "perfbench")
CRITERION_2 = "test_criterion_02_closed_form_equivalence"
# The same thread pinning as perfbench/run.py, for the in-process timings.
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS")}

# Both trees' packages load in one process under their own names, and each
# rep calls the two sides in turn, alternating which goes first, so drift in
# the host's speed reaches both sides alike.
LAYER_SNIPPET = r"""
import contextlib, importlib, importlib.util, io, json, os, sys, tempfile, time
from functools import partial

def load(name, tree):
    spec = importlib.util.spec_from_file_location(
        name, f"{tree}/src/uavps/__init__.py", submodule_search_locations=[f"{tree}/src/uavps"])
    lib = importlib.util.module_from_spec(spec)
    sys.modules[name] = lib
    spec.loader.exec_module(lib)
    return lib

def run_cli(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"uavps {' '.join(argv)} failed")

k, T, alpha, reps = 20, 1000, 0.5, int(sys.argv[3])
calls, work = {}, {}
workdir = tempfile.TemporaryDirectory(prefix="bench-cli-")
ten = os.path.join(workdir.name, "ten.json")
with open(ten, "w") as fh:
    json.dump([{"alpha": round(0.9 - 0.05 * i, 2), "distance": 0.75 * i} for i in range(10)], fh)
for side, tree in (("parent", sys.argv[1]), ("change", sys.argv[2])):
    lib = load(f"uavps_{side}", tree)
    for family, model in (("exponential", lib.valuations.ValuationModel.exponential(1.0)),
                          ("uniform", lib.valuations.ValuationModel.uniform(5.0, 15.0))):
        prices = lib.pricing.build_pricing(model, alpha, k, T)[0].prices
        calls[f"build_pricing.{family}", side] = partial(
            lib.pricing.build_pricing, model, alpha, k, T)
        calls[f"evaluate_schedule.{family}", side] = partial(
            lib.pricing.evaluate_schedule, model, alpha, prices, k, T)
        calls[f"complete_info_profit.{family}", side] = partial(
            lib.benchmark.complete_info_profit, model, alpha, k, T)
        for name in ("build_pricing", "evaluate_schedule", "complete_info_profit"):
            work[f"{name}.{family}"] = k * T, "cells/s"
    # verify's largest criterion-1 table, its low-load 10^6 replay and its
    # k = 20 replay; a regret trial plays two policies on one draw stream.
    sim, model = lib.simulator, lib.valuations.ValuationModel.exponential(1.0)
    schedule = lib.pricing.build_pricing(model, alpha, 5, 20)[0]
    for name, trials, call in (
            ("simulate_discrete.k5_T20", 10**5,
             partial(sim.simulate_discrete, model, alpha, schedule, 5, 20, 10**5, 1)),
            ("simulate_policy_regret.k5_T20", 10**5,
             partial(sim.simulate_policy_regret, model, alpha, 5, 20, 10**5, 1, 1.0)),
            ("simulate_continuous.rate0.5_k3_T1", 10**6,
             partial(sim.simulate_continuous, 1.0, 0.5, 3, 1.0, 10**6, 1)),
            ("simulate_continuous.rate2_k20_T5", 10**5,
             partial(sim.simulate_continuous, 1.0, 2.0, 20, 5.0, 10**5, 1))):
        calls[name, side], work[name] = call, (trials, "trials/s")
    # The continuous capacity search at a small and a large rate, the
    # continuous planner on ten hotspots, and RK4 at criterion 2's step:
    # ceil(T / h) steps at h = 1e-3 and at h / 2.
    spots = [lib.deployment.Hotspot(alpha=0.5 + 0.5 * i, distance=8.0 * i) for i in range(10)]
    fleet = lib.deployment.FleetConfig(10, 200.0, 2.0, model)
    for name, count, unit, call in (
            ("capacity_argmax.rate1_B8000", 1, "calls/s",
             partial(lib.allocation.capacity_argmax, 1.0, 8000.0, 1.0)),
            ("capacity_argmax.rate1000_B20000", 1, "calls/s",
             partial(lib.allocation.capacity_argmax, 1000.0, 20000.0, 1.0)),
            ("optimal_deployment_continuous.m10_n10", 1, "plans/s",
             partial(lib.deployment.optimal_deployment_continuous, spots, fleet, 1.0)),
            ("continuous_profit_numeric.rate1_k3_T1", 3000, "steps/s",
             partial(lib.pricing.continuous_profit_numeric, model, 1.0, 3, 1.0)),
            # Calls whose cost is mostly their argument checks.
            ("load_hotspots.m10", 1, "calls/s", partial(lib.deployment.load_hotspots, ten)),
            ("expected_profit_closed_form.k3", 1, "calls/s",
             partial(lib.pricing.expected_profit_closed_form, 1.0, 1.5, 3, 2.0))):
        calls[name, side], work[name] = call, (count, unit)
    # The five subcommands through cli.main, stdout captured, --out a temp file.
    cli, exp = importlib.import_module(f"uavps_{side}.cli"), ["--model", "exp", "--lambda", "1"]
    for name, argv in (
            ("cli.price.k19_T420", ["price", *exp, "--alpha", "0.5", "--k", "19", "--T", "420"]),
            ("cli.allocate.sweep5", ["allocate", *exp, "--B", "30", "--c", "2",
                                     "--alpha-sweep", "0.1:0.5:0.1"]),
            ("cli.deploy.m10_n6", ["deploy", *exp, "--hotspots", ten, "--N", "6",
                                   "--B0", "15", "--c", "1"]),
            ("cli.simulate.k5_T20", ["simulate", *exp, "--alpha", "0.5", "--k", "5", "--T", "20",
                                     "--trials", "100000", "--seed", "1"]),
            ("cli.ratio.k123_T200", ["benchmark", "--ratio", *exp, "--alpha", "0.5",
                                     "--k-list", "1,2,3", "--T-max", "200", "--T-step", "10"])):
        out = ["--out", os.path.join(workdir.name, f"{side}.csv")]
        calls[name, side], work[name] = partial(run_cli, cli, argv + out), (1, "calls/s")
seconds = {key: [] for key in calls}
for i in range(reps):
    for key in sorted(calls, reverse=i % 2 == 1):
        start = time.perf_counter()
        calls[key]()
        seconds[key].append(time.perf_counter() - start)
rates = {}
for (name, side), times in seconds.items():
    count, unit = work[name]
    rates.setdefault(name, {"unit": unit})[side] = [count / t for t in times]
workdir.cleanup()
print(json.dumps(rates))
"""

ENV_SNIPPET = r"""
import contextlib, io, json, os, platform, sys
import numpy
text = io.StringIO()
with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
    numpy.show_runtime()
report = text.getvalue()
start = report.find("'simd_extensions'")
simd = " ".join(report[start:report.find("}}", start) + 1].split()) if start >= 0 else None
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "simd": simd, "cpus": len(os.sched_getaffinity(0)),
                  "platform": platform.platform()}))
"""


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(revision: str, into: Path) -> str:
    """Extract the tree of ``revision`` into ``into``; return its commit."""
    commit = _git("rev-parse", "--verify", f"{revision}^{{commit}}")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return commit


def _trees(commit: str) -> dict:
    return {d: _git("rev-parse", f"{commit}:{d}") for d in MEASURED}


def _python(tree: Path, args: list[str], timeout: float) -> str:
    done = subprocess.run([sys.executable, *args], cwd=tree, env={**os.environ, **PINNED},
                          capture_output=True, text=True, timeout=timeout)
    if done.returncode:
        raise RuntimeError(f"{args} in {tree} exited {done.returncode}: {done.stderr[-2000:]}")
    return done.stdout


def _bench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The last JSON line of one perfbench run, with metrics flattened to values."""
    out = _python(tree, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(trace)],
                  timeout=30 * seconds + 600)
    last = json.loads(out.strip().splitlines()[-1])
    return {"seed": seed, "correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {name: m["value"] for name, m in last["metrics"].items()}}


def _tier1(tree: Path) -> dict:
    """One run of the tree's tier-1 suite, read back from its JUnit report."""
    with tempfile.TemporaryDirectory(prefix="bench-tier1-") as tmp:
        report = Path(tmp) / "tier1.xml"
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        f"--junitxml={report}"], cwd=tree, capture_output=True, timeout=3600)
        wall = time.perf_counter() - start
        if not report.exists():
            raise RuntimeError(f"tier-1 in {tree} wrote no report")
        root = ElementTree.parse(report).getroot()
    cases = list(root.iter("testcase"))
    failing = [f"{c.get('classname')}::{c.get('name')}" for c in cases
               if c.find("failure") is not None or c.find("error") is not None]
    skipped = sum(c.find("skipped") is not None for c in cases)
    return {"wall_s": wall, "passed": len(cases) - len(failing) - skipped,
            "failed": len(failing), "skipped": skipped, "failing": failing,
            "criterion_02_s": next((float(c.get("time")) for c in cases
                                    if c.get("name") == CRITERION_2), None)}


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def _summary(runs: dict, better: dict) -> dict:
    """Medians, quartiles and the change's wins per end-to-end metric."""
    out = {}
    for name, direction in better.items():
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(values["parent"], values["change"]))
        out[name] = {"better": direction, **{side: _spread(values[side]) for side in SIDES},
                     "wins": wins, "pairs": len(values["change"])}
    return out


def record(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    env = json.loads(_python(ROOT, ["-c", ENV_SNIPPET], timeout=120))
    head = _git("rev-parse", "HEAD")
    # A commit of the working tree's tracked files, made without touching any
    # ref or file; empty output means the tree matches HEAD.
    snapshot = _git("stash", "create") or head
    result = {"environment": {**env, "commit": head, "clean": snapshot == head,
                              "trees": _trees(snapshot)},
              "settings": {"seconds": seconds, "pairs": args.pairs,
                           "first_seed": args.seed, "layer_reps": LAYER_REPS},
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        commit = _export(args.parent, parent)
        result["environment"].update(parent=commit, parent_trees=_trees(commit))
        trees = {"parent": parent, "change": ROOT}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {side: [] for side in SIDES}
            for i in range(args.pairs):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    runs[side].append(_bench(trees[side], workload, seed, seconds, 0))
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {runs[side][-1]['metrics']['latency_p90_ms']:.3f} ms p90"
                    for side in SIDES), file=sys.stderr)
            traced = {side: _bench(trees[side], workload, args.seed + args.pairs,
                                   seconds, 1) for side in SIDES}
            result["workloads"][workload] = {
                "metrics": _summary(runs, better),
                "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
                "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
                "runs": runs, "traced": traced}
        layers = json.loads(_python(ROOT, ["-c", LAYER_SNIPPET, str(parent), str(ROOT),
                                       str(LAYER_REPS)], timeout=1200))
        result["tier1"] = {side: _tier1(trees[side]) for side in SIDES}
    # The best rep per side, and beside it the spread of all of them.
    result["layers"] = {name: {"unit": entry["unit"],
                               **{side: max(entry[side]) for side in SIDES},
                               "reps": {side: _spread(entry[side]) for side in SIDES}}
                        for name, entry in layers.items()}
    return result


def compare(first: dict, second: dict) -> list[str]:
    """Ratios of the second file's change medians to the first's, then each
    file's own change/parent ratio per layer."""
    lines = []
    for workload, entry in second["workloads"].items():
        base = first["workloads"].get(workload)
        if base is None:
            continue
        for name, stats in entry["metrics"].items():
            if name in base["metrics"]:
                a, b = base["metrics"][name]["change"]["median"], stats["change"]["median"]
                ratio = f"x{b / a:.4f}" if a else "-"
                lines.append(f"{workload:10s} {name:16s} {a:12.6g} -> {b:12.6g}  {ratio}")
    own = [{name: f"x{e['change'] / e['parent']:.4f}" for name, e in f.get("layers", {}).items()}
           for f in (first, second)]
    lines.append(f"{'layer':10s} {'change/parent':38s} {'A':>12s}    {'B':>12s}")
    for name in {**own[0], **own[1]}:
        a, b = (ratios.get(name, "-") for ratios in own)
        lines.append(f"{'layer':10s} {name:38s} {a:>12s}    {b:>12s}")
    for key in ("wall_s", "criterion_02_s"):
        a, b = (f"x{f['tier1']['change'][key] / f['tier1']['parent'][key]:.4f}"
                if "tier1" in f else "-" for f in (first, second))
        lines.append(f"{'tier1':10s} {key:38s} {a:>12s}    {b:>12s}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="print per-metric ratios of B's change medians to A's, "
                        "and each file's own layer ratios")
    p.add_argument("--parent", help="git revision to run against this checkout")
    p.add_argument("--out", help="JSON file to write")
    p.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload")
    p.add_argument("--seed", type=int, default=7101, help="seed of the first pair")
    args = p.parse_args(argv)
    if args.compare:
        first, second = (json.loads(Path(f).read_text()) for f in args.compare)
        print("\n".join(compare(first, second)))
        return 0
    if not (args.parent and args.out) or args.pairs < 1:
        p.error("recording needs --parent, --out and --pairs >= 1")
    result = record(args)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
