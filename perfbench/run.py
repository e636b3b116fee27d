"""Run one uavps benchmark workload and report its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload single_uav --seed 1 --seconds 20 --trace 0

The seed draws a batch of planning queries (``workloads.generate_batch``).
One client replays the batch in a closed loop, pass after pass, until
``--seconds`` have passed: the next query goes out only when the previous
one returned. Every pass must give the same outputs. An op's latency is the
median of its replays, each scaled to a reference host speed by the
calibration kernel of ``hostspeed``; the unscaled figures are printed too.

With ``--trace 0`` the run reports the end-to-end metrics: set-up time
(median over fresh processes), throughput, latency quantiles, success rate
and peak memory. With ``--trace 1`` it replays the batch untraced and with
the per-layer shims in turn, and reports the per-layer metrics and the
tracing overhead. Both modes also replay the reference ops and compare them
with the outputs recorded in ``reference.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give every metric with its unit and sample count, and the failures by kind.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported, here and
# in every process started from here: the benchmark measures one client.
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from shims import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh processes timed for set-up; the median of their host-scaled times
# is reported.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
# Untraced and traced passes of a traced run, taken in turn.
TRACE_PASSES = 2

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "peak_rss_mb": "MB", "success_rate": "ratio"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time one fresh-process set-up; the value is the monotonic
    # clock reading taken just before the process was started.
    p.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _library_present() -> bool:
    return (SRC / "uavps" / "__init__.py").is_file()


def setup(workload: str, ctx: dict):
    """Import uavps and run one warm-up op of each op type of the workload."""
    lib = workloads.load_library()
    if not Path(lib.package.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"uavps imported from {lib.package.__file__}, not {SRC}")
    records = [workloads.run_op(lib, op, ctx) for op in workloads.WARMUP[workload]]
    return lib, records


def _probe_setup(workload: str) -> list[float]:
    """Set-up time of fresh processes, each timed from just before its start
    and host-scaled by the kernel runs just before and after it."""
    kernel = lambda: statistics.median(hostspeed.kernel_seconds() for _ in range(3))
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = kernel()
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "1", "--setup-probe", repr(started)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
            env={**os.environ, **PINNED_THREADS})
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        elapsed = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        samples.append(elapsed * 2.0 * hostspeed.REFERENCE_S / (before + kernel()))
    return samples


def _quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of a nonempty sample.

    A weighted mean of all order statistics with Beta(q (n + 1),
    (1 - q) (n + 1)) weights, so it moves smoothly when one value moves,
    where the interpolated order statistic jumps between neighbours.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def _failure_lines(records) -> tuple[list[str], bool]:
    """Failure breakdown by op type and kind; False if any is not a known defect."""
    kinds = Counter()
    all_known = True
    for r in records:
        if r.failure is None:
            continue
        defect = workloads.known_defect(r)
        all_known &= defect is not None
        kinds[(r.op, r.failure, defect or "UNKNOWN")] += 1
    n = len(records)
    failed = sum(kinds.values())
    lines = [f"fail_rate {failed / n:.6f} ({failed} of {n} ops)"]
    lines += [f"  fail {op} {kind} [{defect}] {count} ({count / n:.4f} of ops)"
              for (op, kind, defect), count in sorted(kinds.items())]
    return lines, all_known


def _outputs(record) -> tuple:
    return record.failure, record.detail, record.digest, repr(record.approx)


def _replay(lib, ops, ctx) -> tuple[list, list[float]]:
    """One pass over the batch: its records, and each op's host-speed factor
    from the calibration kernel run before and after it."""
    records, factors = [], []
    before = hostspeed.kernel_seconds()
    for op in ops:
        records.append(workloads.run_op(lib, op, ctx))
        after = hostspeed.kernel_seconds()
        factors.append(2.0 * hostspeed.REFERENCE_S / (before + after))
        before = after
    return records, factors


def _median_latency(passes, scaled: bool = True) -> list[float]:
    """Each op's median latency over the passes, host-scaled or raw."""
    return [statistics.median(recs[i].latency_s * (f[i] if scaled else 1.0)
                              for recs, f in passes)
            for i in range(len(passes[0][0]))]


def _unstable(ops, passes) -> list[str]:
    """Op types whose replays gave other outputs than the first pass."""
    first = passes[0][0]
    return sorted({op["op"] for recs, _ in passes[1:] for op, a, b in zip(ops, first, recs)
                   if _outputs(a) != _outputs(b)})


def _simulated_trials(op: dict) -> int:
    # the regret op replays every trial under two policies
    return op["trials"] * (2 if op["op"] == "sim_regret" else 1)


def _latency_metrics(completed: int, latency: list[float]) -> dict:
    n = len(latency)
    return {
        "ops_per_s": (completed / sum(latency), n),
        "latency_p50_ms": (1e3 * _quantile(latency, 0.5), n),
        "latency_p90_ms": (1e3 * _quantile(latency, 0.9), n),
    }


def _end_to_end(lib, args, ctx):
    """Passes over the batch in a closed loop until ``--seconds`` passed."""
    ops = workloads.generate_batch(args.workload, args.seed)
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds:
        passes.append(_replay(lib, ops, ctx))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = passes[0][0]
    n = len(records)
    completed = sum(1 for r in records if r.failure is None)
    # The timed phase is the sum of the op calls; input building, checks
    # and the calibration kernel run outside the clock.
    latency = _median_latency(passes)
    metrics = _latency_metrics(completed, latency)
    metrics["peak_rss_mb"] = (peak_rss_mb, 1)
    # 1 - fail_rate, which is never 0 and so has a relative bound
    metrics["success_rate"] = (completed / n, n)
    raw = _latency_metrics(completed, _median_latency(passes, scaled=False))
    factors = [f for _, fs in passes for f in fs]
    notes = [f"batch of {n} ops replayed {len(passes)} times; each op timed by the "
             f"median of its host-scaled replays",
             "unscaled " + " ".join(f"{name} {value:.6g}" for name, (value, _) in raw.items()),
             f"host-speed factor median {statistics.median(factors):.4f} "
             f"range {min(factors):.4f}..{max(factors):.4f}"]
    sims = [(op, t) for op, t in zip(ops, latency) if op["op"].startswith("sim_")]
    if sims:
        trials = sum(_simulated_trials(op) for op, _ in sims)
        busy = sum(t for _, t in sims)
        notes.append(f"trials_per_s {trials / busy:.6g} 1/s (n={len(sims)} simulation ops)")
    problems = [f"replays of {name} gave other outputs than the first pass"
                for name in _unstable(ops, passes)]
    return metrics, records, len(passes), notes, problems


def _per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# The baseline table of ROADMAP.md: rates measured on a 2-CPU host at the
# commit the benchmark was defined on, by a perf_counter loop without shims.
# (what, value, unit, rate metric of the traced run)
BASELINE_RATES = (
    ("pricing cell, k=20 T=1000", 13.0, "us/cell", "pricing.cells_per_s"),
    ("full-information cell, k=20 T=1000", 1.4, "us/cell", "benchmark.cells_per_s"),
    ("deployment profile, M=10 N=14", 4.3, "us/profile", "deployment.profiles_per_s"),
    ("RK4 step, criterion-2 grid", 87.0, "us/step", "pricing.ode_steps_per_s"),
)


def _sanity_lines(metrics: dict) -> list[str]:
    """Traced per-layer rates beside the baseline; OFF marks a factor above 2."""
    lines = []
    for what, base, unit, name in BASELINE_RATES:
        rate = metrics[name]
        if rate <= 0:
            continue
        got = 1e6 / rate
        flag = "OFF" if not 0.5 <= got / base <= 2.0 else "ok"
        lines.append(f"sanity {name}: {got:.4g} {unit} traced vs {base} {unit} baseline "
                     f"({what}) x{got / base:.2f} {flag}")
    return lines


def _per_layer(lib, args, ctx):
    """Untraced and traced passes over the batch in turn; outputs must agree."""
    ops = workloads.generate_batch(args.workload, args.seed)
    tracer = Tracer(lib)
    plain, traced = [], []
    for _ in range(TRACE_PASSES):
        plain.append(_replay(lib, ops, ctx))
        tracer.install()
        try:
            traced.append(_replay(lib, ops, ctx))
        finally:
            tracer.remove()
    plain_s, traced_s = sum(_median_latency(plain)), sum(_median_latency(traced))
    values = tracer.metrics()
    values["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    metrics = {name: (value, len(ops)) for name, value in values.items()}
    notes = [f"batch of {len(ops)} ops, {TRACE_PASSES} untraced and {TRACE_PASSES} traced "
             f"passes; host-scaled untraced {plain_s:.4f} s, traced {traced_s:.4f} s; "
             f"layer times are unscaled"]
    notes += _sanity_lines(values)
    problems = [f"shims or replays changed the outputs of {name}"
                for name in _unstable(ops, plain + traced)]
    return metrics, plain[0][0], 2 * TRACE_PASSES, notes, problems


def _check_reference(lib, workload: str, ctx: dict) -> list[str]:
    """Replay the reference ops; return one line per mismatch."""
    with open(HERE / "reference.json") as fh:
        expected = json.load(fh)[workload]
    problems = []
    for entry in expected:
        got = workloads.run_op(lib, entry["op"], ctx)
        why = workloads.compare_reference(entry, got)
        if why:
            problems.append(f"reference mismatch {entry['op']['op']}: {why}")
    return problems


def run(args, ctx) -> int:
    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
             f"trace {args.trace}"]
    if args.trace:
        lib, warm = setup(args.workload, ctx)
        metrics, records, passes, notes, problems = _per_layer(lib, args, ctx)
        units = {name: _per_layer_unit(name) for name in metrics}
    else:
        setup_samples = _probe_setup(args.workload)
        lib, warm = setup(args.workload, ctx)
        metrics, records, passes, notes, problems = _end_to_end(lib, args, ctx)
        metrics["setup_s"] = (statistics.median(setup_samples), len(setup_samples))
        notes.append("setup_s host-scaled samples " +
                     " ".join(f"{s:.4f}" for s in setup_samples))
        units = END_TO_END_UNITS
    fail_lines, all_known = _failure_lines(records)
    problems += _check_reference(lib, args.workload, ctx)
    problems += [f"warm-up {r.op} failed: {r.failure} {r.detail}"
                 for r in warm if r.failure is not None]
    correct = all_known and not problems

    for name in sorted(metrics):
        value, samples = metrics[name]
        lines.append(f"{name} {value:.6g} {units[name]} (n={samples})")
    lines += fail_lines + notes + problems
    lines.append(f"correct {correct}")
    print("\n".join(lines))
    failed = sum(1 for r in records if r.failure is not None)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records) * passes,
        "failed": failed * passes,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not _library_present():
        print(f"perfbench: no uavps sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch_root = ROOT / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    ctx = {"tmp": tempfile.mkdtemp(dir=scratch_root)}
    try:
        if args.setup_probe is not None:
            setup(args.workload, ctx)
            print(json.dumps({"setup_s": time.monotonic() - args.setup_probe}))
            return 0
        return run(args, ctx)
    finally:
        shutil.rmtree(ctx["tmp"], ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
