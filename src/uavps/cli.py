"""Command-line surface: price, allocate, deploy, simulate, benchmark.

Every command validates its parameters before dispatch (exit code 2 on a bad
configuration, 1 on a runtime failure, 0 on success), prints headline numbers
to stdout with six decimals, and can write CSV files carrying the full
parameter set as ``#`` comment lines. CSV cells use shortest round-trip float
formatting, so files re-parse to exactly the values the library returned, and
identical configurations (including seeds) produce byte-identical files.

Parameters may also come from a JSON config file via ``--config``; explicit
flags override file values.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import allocation, benchmark, deployment, pricing, simulator
from .valuations import ValuationModel


class ConfigError(Exception):
    """A parameter bundle that fails the target operation's preconditions."""


# -- small parsers -------------------------------------------------------------


def parse_sweep(text: str) -> list[float]:
    """Parse ``start:stop:step`` into an inclusive grid (half-step tolerance)."""
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad sweep {text!r}, expected start:stop:step") from exc
    if step <= 0 or stop < start:
        raise ConfigError(f"bad sweep {text!r}: need step > 0 and stop >= start")
    out, v = [], start
    while v <= stop + step / 2:
        out.append(round(v, 12))
        v += step
    return out

def parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc


def _fmt(x) -> str:
    """Shortest round-trip representation; empty cell for missing values."""
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path: str, header: list[str], rows, params: dict) -> None:
    """Write rows with a provenance comment block (no timestamps: determinism)."""
    with open(path, "w", newline="") as fh:
        fh.write("# uavps\n")
        for key in sorted(params):
            fh.write(f"# {key}: {_fmt(params[key])}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Read back a CSV written by :func:`write_csv`, skipping comments."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def _model_from_args(args) -> ValuationModel:
    if args.model in ("exp", "exponential"):
        if args.lam is None:
            raise ConfigError("exponential model needs --lambda")
        return ValuationModel.exponential(args.lam)
    if args.model == "uniform":
        if args.a is None or args.b is None:
            raise ConfigError("uniform model needs --a and --b")
        if not 0 <= args.a < args.b:
            raise ConfigError(f"need 0 <= a < b, got a={args.a} b={args.b}")
        return ValuationModel.uniform(args.a, args.b)
    raise ConfigError(f"unknown model {args.model!r} (use exp or uniform)")


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


# -- commands -------------------------------------------------------------------


def cmd_price(args) -> int:
    _check(args.k is not None and args.k >= 1, "--k must be a positive integer")
    _check(args.T is not None and args.T >= 0, "--T must be nonnegative")
    params = {"command": "price", "mode": args.mode, "model": args.model,
              "lambda": args.lam, "a": args.a, "b": args.b, "alpha": args.alpha,
              "arrival_rate": args.arrival_rate, "k": args.k, "T": args.T}

    if args.mode == "continuous":
        _check(args.lam is not None and args.lam > 0, "--lambda must be positive")
        _check(args.arrival_rate is not None and args.arrival_rate > 0,
               "--arrival-rate must be positive")
        profit = pricing.expected_profit_closed_form(args.lam, args.arrival_rate,
                                                     int(args.k), args.T)
        print(f"{profit:.6f}")
        if args.out:
            grid = [args.T * i / 100 for i in range(101)]
            rows = [(int(args.k), t,
                     pricing.price_closed_form(args.lam, args.arrival_rate,
                                               int(args.k), t),
                     pricing.expected_profit_closed_form(args.lam, args.arrival_rate,
                                                         int(args.k), t))
                    for t in grid]
            write_csv(args.out, ["k", "t", "price", "profit"], rows, params)
        return 0

    model = _model_from_args(args)
    _check(args.alpha is not None and 0 <= args.alpha <= 1,
           "--alpha must lie in [0, 1]")
    _check(args.T == int(args.T), "discrete mode needs an integer --T")
    schedule, table = pricing.build_pricing(model, args.alpha, int(args.k),
                                            int(args.T))
    print(f"{table.final():.6f}")
    if args.out:
        write_csv(args.out, ["j", "t", "price", "profit"],
                  pricing.schedule_csv_rows(schedule, table), params)
    return 0


def cmd_allocate(args) -> int:
    _check(args.B is not None and args.c is not None, "--B and --c are required")
    params = {"command": "allocate", "mode": args.mode, "model": args.model,
              "lambda": args.lam, "a": args.a, "b": args.b, "B": args.B,
              "c": args.c, "alpha": args.alpha, "arrival_rate": args.arrival_rate,
              "alpha_sweep": args.alpha_sweep}

    def emit(rows):
        for alpha, dec in rows:
            print(f"alpha={alpha:.6f} k={dec.k_star} T={dec.t_star:.6f} "
                  f"profit={dec.profit:.6f} regime={dec.regime.value}")
        if args.out:
            write_csv(args.out, ["alpha", "k_star", "t_star", "profit", "regime"],
                      [(a, d.k_star, d.t_star, d.profit, d.regime.value)
                       for a, d in rows], params)

    if args.mode == "continuous":
        _check(args.lam is not None and args.lam > 0, "--lambda must be positive")
        _check(args.B > args.c > 0, "need B > c > 0")
        rates = (parse_sweep(args.alpha_sweep) if args.alpha_sweep
                 else [args.arrival_rate])
        _check(all(r is not None and r > 0 for r in rates),
               "--arrival-rate (or --alpha-sweep) must be positive")
        emit([(r, allocation.allocate_continuous(args.lam, r, args.B, args.c))
              for r in rates])
        return 0

    model = _model_from_args(args)
    _check(args.c > 0, "--c must be positive")
    _check(args.B == int(args.B) and args.c == int(args.c),
           "discrete mode needs integer --B and --c")
    _check(args.B >= 1 + args.c, f"budget {args.B} cannot cover one user "
           f"plus one hovering slot at c={args.c}")
    alphas = parse_sweep(args.alpha_sweep) if args.alpha_sweep else [args.alpha]
    _check(all(a is not None and 0 <= a <= 1 for a in alphas),
           "--alpha (or --alpha-sweep) must lie in [0, 1]")
    emit([(a, allocation.allocate_discrete(model, a, int(args.B), int(args.c)))
          for a in alphas])
    return 0


def cmd_deploy(args) -> int:
    _check(args.hotspots is not None, "--hotspots file is required")
    try:
        spots = deployment.load_hotspots(args.hotspots)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise ConfigError(f"cannot load hotspots: {exc}") from exc
    _check(args.N is not None and args.N >= 1, "--N must be a positive integer")
    _check(args.B0 is not None and args.B0 > 0, "--B0 must be positive")
    _check(args.c is not None and args.c > 0, "--c must be positive")

    if args.check_forking:
        _check(args.lam is not None and args.lam > 0, "--lambda must be positive")
        _check(len(spots) >= 2, "--check-forking needs at least two hotspots")
        _check(args.N >= 2, "--check-forking needs at least two vehicles")
        fleet = deployment.FleetConfig(count=int(args.N), initial_budget=args.B0,
                                       service_cost=args.c,
                                       valuation=ValuationModel.exponential(args.lam))
        check = deployment.forking_condition(spots[0], spots[1], fleet, args.lam)
        bound = max(check.phi ** (1.0 / check.k2_star), check.phi)
        print(f"phi={check.phi:.6f} threshold={bound:.6f} "
              f"ratio={spots[1].alpha / spots[0].alpha:.6f} k2_star={check.k2_star} "
              f"forking={'holds' if check.holds else 'fails'}")
        return 0

    model = _model_from_args(args)
    fleet = deployment.FleetConfig(count=int(args.N), initial_budget=args.B0,
                                   service_cost=args.c, valuation=model)
    _check(any(h.distance < fleet.initial_budget for h in spots),
           "no hotspot is reachable on the fleet budget")
    plan = deployment.optimal_deployment(spots, fleet)
    print("profile " + " ".join(str(n) for n in plan.profile.counts))
    print(f"total_profit={plan.total_profit:.6f}")
    if args.out:
        params = {"command": "deploy", "model": args.model, "lambda": args.lam,
                  "a": args.a, "b": args.b, "N": args.N, "B0": args.B0,
                  "c": args.c, "hotspots": args.hotspots}
        write_csv(args.out, ["hotspot", "n", "k", "T", "profit"],
                  plan.csv_rows(), params)
    return 0


def cmd_simulate(args) -> int:
    _check(args.k is not None and args.k >= 1, "--k must be a positive integer")
    _check(args.T is not None and args.T >= 0, "--T must be nonnegative")
    _check(args.trials >= 1, "--trials must be positive")
    params = {"command": "simulate", "mode": args.mode, "model": args.model,
              "lambda": args.lam, "a": args.a, "b": args.b, "alpha": args.alpha,
              "arrival_rate": args.arrival_rate, "k": args.k, "T": args.T,
              "trials": args.trials, "seed": args.seed}

    if args.mode == "continuous":
        _check(args.lam is not None and args.lam > 0, "--lambda must be positive")
        _check(args.arrival_rate is not None and args.arrival_rate > 0,
               "--arrival-rate must be positive")
        report = simulator.simulate_continuous(args.lam, args.arrival_rate,
                                               int(args.k), args.T,
                                               args.trials, args.seed)
        reference = pricing.expected_profit_closed_form(
            args.lam, args.arrival_rate, int(args.k), args.T)
    else:
        model = _model_from_args(args)
        _check(args.alpha is not None and 0 <= args.alpha <= 1,
               "--alpha must lie in [0, 1]")
        _check(args.T == int(args.T), "discrete mode needs an integer --T")
        schedule, table = pricing.build_pricing(model, args.alpha, int(args.k),
                                                int(args.T))
        report = simulator.simulate_discrete(model, args.alpha, schedule,
                                             int(args.k), int(args.T),
                                             args.trials, args.seed)
        reference = table.final()

    print(f"mean={report.mean_profit:.6f} std_error={report.std_error:.6f} "
          f"expected={reference:.6f} trials={report.trials} seed={report.seed} "
          f"generator={report.generator}")
    if args.out:
        write_csv(args.out, ["trials", "mean", "std_error", "seed"],
                  [(report.trials, report.mean_profit, report.std_error,
                    report.seed)], params)
    return 0


def cmd_benchmark(args) -> int:
    if args.ratio == args.variance:
        raise ConfigError("pick exactly one of --ratio / --variance")
    if args.ratio:
        model = _model_from_args(args)
        _check(args.alpha is not None and 0 <= args.alpha <= 1,
               "--alpha must lie in [0, 1]")
        ks = parse_int_list(args.k_list)
        _check(all(k >= 1 for k in ks), "--k entries must be positive")
        _check(args.T_max is not None and args.T_max >= max(ks),
               "--T-max must cover the largest capacity")
        horizons = list(range(max(ks), int(args.T_max) + 1, args.T_step))
        curves = {k: dict(benchmark.profit_ratio_curve(model, args.alpha, k,
                                                       horizons))
                  for k in ks}
        header = (["T", "ratio"] if len(ks) == 1
                  else ["T"] + [f"ratio_k{k}" for k in ks])
        rows = [[t] + [curves[k][t] for k in ks] for t in horizons]
        for row in rows:
            print(" ".join(f"{x:.6f}" if isinstance(x, float) else str(x)
                           for x in row))
        if args.out:
            params = {"command": "benchmark", "study": "ratio",
                      "model": args.model, "lambda": args.lam, "a": args.a,
                      "b": args.b, "alpha": args.alpha, "k": args.k_list,
                      "T_max": args.T_max, "T_step": args.T_step}
            write_csv(args.out, header, rows, params)
        return 0

    _check(args.mean is not None and args.mean > 0, "--mean must be positive")
    _check(args.variances is not None, "--variances sweep is required")
    variances = parse_sweep(args.variances)
    _check(bool(variances), "--variances produced an empty grid")
    if args.alpha is None:
        args.alpha = 0.8  # default occurrence probability for the study
    if args.k is None:
        args.k = 1
    _check(0 <= args.alpha <= 1, "--alpha must lie in [0, 1]")
    _check(args.k >= 1, "--k must be a positive integer")
    _check(args.T is not None and args.T >= 1 and args.T == int(args.T),
           "--T must be a positive integer")
    _check(all(args.mean - math.sqrt(3 * v) >= 0 for v in variances),
           "a variance in the sweep drives the uniform lower bound below zero")
    rows = benchmark.variance_sweep(args.mean, variances, args.alpha,
                                    int(args.k), int(args.T))
    for var, inc, comp in rows:
        print(f"{var:.6f} {inc:.6f} {comp:.6f}")
    if args.out:
        params = {"command": "benchmark", "study": "variance", "mean": args.mean,
                  "alpha": args.alpha, "k": args.k, "T": args.T,
                  "variances": args.variances}
        write_csv(args.out, ["variance", "incomplete", "complete"], rows, params)
    return 0


# -- parser ---------------------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="exp", help="valuation family: exp or uniform")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="exponential valuation rate")
    p.add_argument("--a", type=float, default=None, help="uniform lower bound")
    p.add_argument("--b", type=float, default=None, help="uniform upper bound")


class _CommandParser(argparse.ArgumentParser):
    """A subcommand parser that records the dest of each flag spelling."""

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        dests = vars(self).setdefault("dests", {})  # __init__ adds -h through here
        for name in (action.dest, *action.option_strings):
            dests[name.lstrip("-").replace("-", "_")] = action.dest
        return action


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser. ``config`` maps flag spellings ("arrival-rate") or dests
    ("lam") to subcommand defaults, which explicit flags still override."""
    parser = argparse.ArgumentParser(
        prog="uavps",
        description="Dynamic pricing, energy allocation and fleet deployment "
                    "for UAV-provided services.")
    parser.add_argument("--config", default=None,
                        help="JSON file of flag defaults (flags override)")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)

    p = sub.add_parser("price", help="build a dynamic price schedule")
    _add_model_flags(p)
    p.add_argument("--mode", choices=("discrete", "continuous"), default="discrete")
    p.add_argument("--alpha", type=float, default=None,
                   help="per-slot occurrence probability (discrete)")
    p.add_argument("--arrival-rate", type=float, default=None,
                   help="Poisson arrival rate (continuous)")
    p.add_argument("--k", type=int, default=None, help="service capacity")
    p.add_argument("--T", type=float, default=None, help="hovering horizon")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("allocate", help="split a budget into hovering time and capacity")
    _add_model_flags(p)
    p.add_argument("--mode", choices=("discrete", "continuous"), default="discrete")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--arrival-rate", type=float, default=None)
    p.add_argument("--alpha-sweep", default=None,
                   help="start:stop:step sweep over alpha (or arrival rate)")
    p.add_argument("--B", type=float, default=None, help="on-site energy budget")
    p.add_argument("--c", type=float, default=None, help="per-user service cost")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("deploy", help="assign the fleet to hotspots")
    _add_model_flags(p)
    p.add_argument("--hotspots", default=None,
                   help="JSON array of {alpha, distance} entries")
    p.add_argument("--N", type=int, default=None, help="fleet size")
    p.add_argument("--B0", type=float, default=None, help="full-charge budget")
    p.add_argument("--c", type=float, default=None, help="per-user service cost")
    p.add_argument("--check-forking", action="store_true",
                   help="evaluate the two-hotspot forking condition "
                        "(continuous mode, exponential valuations)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_deploy)

    p = sub.add_parser("simulate", help="Monte-Carlo check of a schedule")
    _add_model_flags(p)
    p.add_argument("--mode", choices=("discrete", "continuous"), default="discrete")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--arrival-rate", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("benchmark", help="full-information comparison studies")
    _add_model_flags(p)
    p.add_argument("--ratio", action="store_true",
                   help="profit ratio versus horizon")
    p.add_argument("--variance", action="store_true",
                   help="profits versus valuation variance at fixed mean")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--k", type=int, default=None,
                   help="capacity (variance study)")
    p.add_argument("--k-list", dest="k_list", default="1",
                   help="comma-separated capacities (ratio study)")
    p.add_argument("--T", type=float, default=None, help="horizon (variance study)")
    p.add_argument("--T-max", dest="T_max", type=float, default=None,
                   help="largest horizon (ratio study)")
    p.add_argument("--T-step", dest="T_step", type=int, default=1)
    p.add_argument("--mean", type=float, default=None)
    p.add_argument("--variances", default=None, help="start:stop:step sweep")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_benchmark)

    config = {key.replace("-", "_"): value for key, value in (config or {}).items()}
    for p in sub.choices.values():
        p.set_defaults(**{p.dests[k]: v for k, v in config.items() if k in p.dests})
    return parser


def _read_config(argv: list[str]) -> dict:
    """The JSON object named by --config, or no defaults without the flag.

    A pre-parser finds the path as the full parser will: "--config PATH",
    "--config=PATH" or an abbreviation, before the subcommand only. Its usage
    errors are left to the full parser.
    """
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    try:
        path = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        return {}
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser(_read_config(argv))
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse reports usage errors with code 2
            return int(exc.code or 0)
        return args.func(args)
    except ConfigError as exc:
        print(f"uavps: config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"uavps: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
