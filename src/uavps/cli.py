"""Command-line surface: price, allocate, deploy, simulate, benchmark.

The library validates every value: a bad one raises ``ParameterError``, which
exits with code 2, as do the checks made here, which are only those the
library cannot make: flags that must be present, the model family, sweep and
list syntax, the pairing of study flags, and the hotspot and config files. Any
other failure exits with 1 and success with 0. Every command ends in ``_emit``,
the one place that prints and writes: headline numbers to stdout with six
decimals, then, given ``--out``, a CSV file whose ``#`` comment lines carry the
full parameter set and whose rows are computed only then. Its cells use
shortest round-trip floats, so files re-parse to exactly the library's values,
and identical configurations (seeds included) give byte-identical files. The
discrete price schedule is formatted a capacity row at a time, in the bytes
``csv.writer`` gives for ``pricing.schedule_csv_rows``.

Each flag is declared once, in the table ``_FLAGS``, which names the
subcommands that take it; ``build_parser`` builds every subcommand from it.
``main`` builds the parser on its first call and reuses it for every later
call in the process. Parameters may also come from a JSON config file via
``--config``, keyed by the same table's spellings or dests; explicit flags
override file values. A ``--config`` run builds a second parser, with the
file's values as defaults. A file value must have the flag's JSON type and,
for a flag with choices, be one of them; a number takes the flag's type, as a
string does (an int flag's only when whole). An unreadable file or a value that
does not fit prints ``uavps: config error:``, any other ``ParameterError``
``uavps: error:``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from functools import cache, partial
from itertools import repeat

from . import allocation, benchmark, deployment, pricing, simulator
from .valuations import ParameterError, ValuationModel, _check


# -- small parsers -------------------------------------------------------------


_MAX_SWEEP_STEPS = 10_000


def parse_sweep(text: str) -> list[float]:
    """Parse ``start:stop:step`` into an inclusive grid (half-step tolerance)."""
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise ParameterError(f"bad sweep {text!r}, expected start:stop:step") from exc
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise ParameterError(f"bad sweep {text!r}: need finite values, step > 0 "
                             "and stop >= start")
    # v += step leaves v unchanged once step is at most half an ulp of v, and
    # |v| stays below |start| and |stop| + step.
    if not (step > math.ulp(max(abs(start), abs(stop) + step)) / 2
            and (stop - start) / step <= _MAX_SWEEP_STEPS):
        raise ParameterError(f"bad sweep {text!r}: the step must advance every value, "
                             f"in at most {_MAX_SWEEP_STEPS} steps")
    out, v = [], start
    while v <= stop + step / 2:
        out.append(round(v, 12))
        v += step
    return out

def parse_int_list(text: str) -> list[int]:
    """Parse comma-separated integers."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"bad integer list {text!r}") from exc


def write_csv(path: str, header: list[str], rows, params: dict, text=()) -> None:
    """Write rows with a provenance comment block (no timestamps: determinism).

    ``csv.writer`` takes the rows as they are: None becomes an empty cell, a
    float its shortest round-trip repr and anything else its ``str``. A numpy
    float64 cell is a float to the writer, so it is written in shortest form
    (``1.5``), where a per-cell ``repr`` would write ``np.float64(1.5)``.
    ``text``, given instead of ``rows``, is the body already in the writer's
    bytes, lines ending in ``\r\n``, and is written as it is.
    """
    with open(path, "w", newline="") as fh:
        fh.write("# uavps\n")
        for key, value in sorted(params.items()):  # str(x) is repr(x) for a float
            fh.write(f"# {key}: {'' if value is None else value}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
        fh.writelines(text)


def _schedule_text(schedule: pricing.PriceSchedule, table: pricing.ProfitTable):
    """Yield the CSV text of ``pricing.schedule_csv_rows`` (scalar alpha), one
    capacity row j of T + 1 lines at a time, in the bytes ``csv.writer`` gives.

    A float list's repr is its elements' shortest reprs joined by ``", "``, the
    writer's cells, so one repr per row formats every float in C; a dead cell
    (j = 0, or t < j) is empty, as the writer writes None.
    """
    prices, values, slots = schedule.prices.tolist(), table.values.tolist(), table.horizon + 1
    times = [str(t) for t in range(slots)]
    for j in range(table.capacity + 1):
        priced = repr(prices[j][j:slots])[1:-1].split(", ") if 0 < j < slots else []
        cells = zip(repeat(str(j)), times, [""] * (slots - len(priced)) + priced,
                    repr(values[j])[1:-1].split(", "))
        yield "\r\n".join(map(",".join, cells)) + "\r\n"


def _params(args, *skip: str) -> dict:
    """The CSV provenance of a run: every parsed flag but the plumbing and
    ``skip``, labelled by dest, except ``lam``, which is labelled ``lambda``."""
    skip = {"config", "func", "out", *skip}
    return {("lambda" if dest == "lam" else dest): value
            for dest, value in vars(args).items() if dest not in skip}


def _need(args, *dests: str) -> None:
    """Fail unless every named flag has a value: the library cannot take None."""
    missing = [d for d in dests if getattr(args, d) is None]
    if missing:
        raise ParameterError("missing " + ", ".join(
            "--" + ("lambda" if d == "lam" else d.replace("_", "-")) for d in missing))


def _model_from_args(args) -> ValuationModel:
    if args.model == "uniform":
        _need(args, "a", "b")
        return ValuationModel.uniform(args.a, args.b)
    _need(args, "lam")
    return ValuationModel.exponential(args.lam)


# -- commands -------------------------------------------------------------------


def _emit(args, lines: list[str], header: list[str] | None = None, rows=(),
          params: dict | None = None, text=()) -> int:
    """Every command's output: print the headline ``lines``, then, given --out and
    a ``header``, write ``rows`` or ``text`` (read only then) with ``params``, by
    default ``_params(args)``, as provenance."""
    print("\n".join(lines))
    if args.out and header:
        write_csv(args.out, header, rows, _params(args) if params is None else params, text)
    return 0


def cmd_price(args) -> int:
    _need(args, "k", "T")  # the library checks that k is whole: a config may give 2.5
    if args.mode == "continuous":
        _need(args, "lam", "arrival_rate")
        profit = partial(pricing.expected_profit_closed_form, args.lam, args.arrival_rate,
                         args.k)
        price = partial(pricing.price_closed_form, args.lam, args.arrival_rate, args.k)
        grid = (args.T * i / 100 for i in range(101))
        return _emit(args, [f"{profit(args.T):.6f}"], ["k", "t", "price", "profit"],
                     ((args.k, t, price(t), profit(t)) for t in grid))

    model = _model_from_args(args)
    _need(args, "alpha")
    schedule, table = pricing.build_pricing(model, args.alpha, args.k, args.T)
    return _emit(args, [f"{table.final():.6f}"], ["j", "t", "price", "profit"],
                 text=_schedule_text(schedule, table))


def cmd_allocate(args) -> int:
    _need(args, "B", "c")
    # The sweep runs over the arrival rate in continuous mode, a decision per
    # point, else over alpha, whose decisions share one table sweep.
    if args.mode == "continuous":
        _need(args, "lam")
        swept, decide = "arrival_rate", lambda xs: [
            allocation.allocate_continuous(args.lam, x, args.B, args.c) for x in xs]
    else:
        swept, decide = "alpha", partial(allocation.allocate_discrete, _model_from_args(args),
                                         budget=args.B, service_cost=args.c)
    if not args.alpha_sweep:
        _need(args, swept)
    points = parse_sweep(args.alpha_sweep) if args.alpha_sweep else [getattr(args, swept)]
    rows = [(x, d.k_star, d.t_star, d.profit, d.regime.value)
            for x, d in zip(points, decide(points))]
    return _emit(args, [f"{swept}={x:.6f} k={k} T={t:.6f} profit={p:.6f} regime={r}"
                        for x, k, t, p, r in rows],
                 [swept, "k_star", "t_star", "profit", "regime"], rows)


def cmd_deploy(args) -> int:
    _need(args, "hotspots", "N", "B0", "c")
    try:
        spots = deployment.load_hotspots(args.hotspots)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot load hotspots: {exc}") from exc
    fleet = partial(deployment.FleetConfig, args.N, args.B0, args.c)

    if args.check_forking:  # a headline only: no CSV
        _need(args, "lam")
        if len(spots) < 2:
            raise ParameterError("--check-forking needs at least two hotspots")
        check = deployment.forking_condition(
            spots[0], spots[1], fleet(ValuationModel.exponential(args.lam)), args.lam)
        return _emit(args, [f"phi={check.phi:.6f} threshold={check.threshold:.6f} ratio="
                            f"{spots[1].alpha / spots[0].alpha:.6f} k2_star={check.k2_star} "
                            f"forking={'holds' if check.holds else 'fails'}"])

    plan = deployment.optimal_deployment(spots, fleet(_model_from_args(args)))
    return _emit(args, ["profile " + " ".join(map(str, plan.profile.counts)),
                        f"total_profit={plan.total_profit:.6f}"],
                 ["hotspot", "n", "k", "T", "profit"], plan.csv_rows(),
                 _params(args, "check_forking"))


def cmd_simulate(args) -> int:
    _need(args, "k", "T")
    if args.mode == "continuous":
        _need(args, "lam", "arrival_rate")
        report = simulator.simulate_continuous(args.lam, args.arrival_rate, args.k, args.T,
                                               args.trials, args.seed)
        reference = pricing.expected_profit_closed_form(args.lam, args.arrival_rate,
                                                        args.k, args.T)
    else:
        model = _model_from_args(args)
        _need(args, "alpha")
        schedule, table = pricing.build_pricing(model, args.alpha, args.k, args.T)
        report = simulator.simulate_discrete(model, args.alpha, schedule, args.k, args.T,
                                             args.trials, args.seed)
        reference = table.final()
    return _emit(args, [f"mean={report.mean_profit:.6f} std_error={report.std_error:.6f} "
                        f"expected={reference:.6f} trials={report.trials} "
                        f"seed={report.seed} generator={report.generator}"],
                 ["trials", "mean", "std_error", "seed"],
                 [(report.trials, report.mean_profit, report.std_error, report.seed)])


def cmd_benchmark(args) -> int:
    if args.ratio == args.variance:
        raise ParameterError("pick exactly one of --ratio / --variance")
    if args.ratio:
        model = _model_from_args(args)
        _need(args, "alpha", "T_max")
        ks = parse_int_list(args.k_list)
        step = _check("count", args.T_step, "--T-step")  # a config may give 2.5
        t_max = _check("nonnegative finite", args.T_max, "--T-max")
        horizons = list(range(max(ks), int(t_max) + 1, step))
        # One table pair at max(ks) gives every curve, in list order.
        curves = benchmark.profit_ratio_curve(model, args.alpha, ks, horizons)
        rows = list(zip(horizons, *([r for _, r in curve] for curve in curves)))
        return _emit(args, [" ".join([str(t), *(f"{r:.6f}" for r in ratios)])
                            for t, *ratios in rows],
                     ["T", "ratio"] if len(ks) == 1 else ["T"] + [f"ratio_k{k}" for k in ks],
                     rows, {"command": "benchmark", "study": "ratio", "model": args.model,
                            "lambda": args.lam, "a": args.a, "b": args.b,
                            "alpha": args.alpha, "k": args.k_list, "T_max": args.T_max,
                            "T_step": args.T_step})

    _need(args, "mean", "variances", "T")
    variances = parse_sweep(args.variances)
    if args.alpha is None:
        args.alpha = 0.8  # default occurrence probability for the study
    if args.k is None:
        args.k = 1
    _check("positive", args.T, "--T")  # the library accepts T = 0; the study does not
    rows = benchmark.variance_sweep(args.mean, variances, args.alpha, args.k, args.T)
    return _emit(args, [" ".join(f"{x:.6f}" for x in row) for row in rows],
                 ["variance", "incomplete", "complete"], rows,
                 {"command": "benchmark", "study": "variance", "mean": args.mean,
                  "alpha": args.alpha, "k": args.k, "T": args.T,
                  "variances": args.variances})


# -- parser ---------------------------------------------------------------------


_COMMANDS = {
    "price": (cmd_price, "build a dynamic price schedule"),
    "allocate": (cmd_allocate, "split a budget into hovering time and capacity"),
    "deploy": (cmd_deploy, "assign the fleet to hotspots"),
    "simulate": (cmd_simulate, "Monte-Carlo check of a schedule"),
    "benchmark": (cmd_benchmark, "full-information comparison studies"),
}
_EVERY = " ".join(_COMMANDS)

# Every flag once, in help order: its spelling, the subcommands that take it
# and its ``add_argument`` keywords.
_FLAGS = (
    ("--model", _EVERY, dict(default="exp", choices=("exp", "exponential", "uniform"),
                             help="valuation family")),
    ("--lambda", _EVERY, dict(dest="lam", type=float, help="exponential valuation rate")),
    ("--a", _EVERY, dict(type=float, help="uniform lower bound")),
    ("--b", _EVERY, dict(type=float, help="uniform upper bound")),
    ("--mode", "price allocate simulate", dict(choices=("discrete", "continuous"),
                                               default="discrete")),
    ("--ratio", "benchmark", dict(action="store_true", help="profit ratio versus horizon")),
    ("--variance", "benchmark", dict(action="store_true",
                                     help="profits versus valuation variance at fixed mean")),
    ("--alpha", "price allocate simulate benchmark",
     dict(type=float, help="per-slot occurrence probability (discrete)")),
    ("--arrival-rate", "price allocate simulate",
     dict(type=float, help="Poisson arrival rate (continuous)")),
    ("--alpha-sweep", "allocate",
     dict(help="start:stop:step sweep over alpha (or arrival rate)")),
    ("--hotspots", "deploy", dict(help="JSON array of {alpha, distance} entries")),
    ("--N", "deploy", dict(type=int, help="fleet size")),
    ("--B0", "deploy", dict(type=float, help="full-charge budget")),
    ("--B", "allocate", dict(type=float, help="on-site energy budget")),
    ("--c", "allocate deploy", dict(type=float, help="per-user service cost")),
    ("--check-forking", "deploy", dict(action="store_true",
                                       help="evaluate the two-hotspot forking condition "
                                            "(continuous mode, exponential valuations)")),
    ("--k", "price simulate benchmark", dict(type=int, help="service capacity")),
    ("--k-list", "benchmark", dict(default="1",
                                   help="comma-separated capacities (ratio study)")),
    ("--T", "price simulate benchmark", dict(type=float, help="hovering horizon")),
    ("--T-max", "benchmark", dict(type=float, help="largest horizon (ratio study)")),
    ("--T-step", "benchmark", dict(type=int, default=1)),
    ("--trials", "simulate", dict(type=int, default=100_000)),
    ("--seed", "simulate", dict(type=int, default=0)),
    ("--mean", "benchmark", dict(type=float)),
    ("--variances", "benchmark", dict(help="start:stop:step sweep")),
    ("--out", _EVERY, dict(help="CSV output path")),
)


def _config_default(action: argparse.Action, value):
    """A config file value as a flag default, if its JSON type fits the flag (a
    bool for a switch, a number or a string for a typed flag, a string else)
    and it is one of the flag's choices, where the flag has them; a number takes
    a float flag's type, and an int flag's if whole."""
    flag = action.option_strings[0]
    fits = (bool,) if action.nargs == 0 else (str, int, float) if action.type else (str,)
    if type(value) not in fits or action.choices and value not in action.choices:
        raise ParameterError(f"config value {value!r} does not fit {flag}")
    if action.type is float and type(value) is int:
        return _check("number", value, flag)
    if action.type is int and type(value) is float and value.is_integer():
        return int(value)
    return value


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser, built from ``_FLAGS``. ``config`` maps flag spellings
    ("arrival-rate") or dests ("lam") to subcommand defaults, which explicit
    flags still override."""
    parser = argparse.ArgumentParser(
        prog="uavps",
        description="Dynamic pricing, energy allocation and fleet deployment "
                    "for UAV-provided services.")
    parser.add_argument("--config", default=None,
                        help="JSON file of flag defaults (flags override)")
    sub = parser.add_subparsers(dest="command", required=True)
    # A null value leaves the flag unset, at its parser default.
    config = {key.replace("-", "_"): value for key, value in (config or {}).items()
              if value is not None}
    for name, (func, text) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        flags = {}
        for spelling, commands, kwargs in _FLAGS:
            if name in commands.split():
                action = p.add_argument(spelling, **kwargs)
                flags[spelling.lstrip("-").replace("-", "_")] = flags[action.dest] = action
        p.set_defaults(func=func, **{flags[k].dest: _config_default(flags[k], v)
                                     for k, v in config.items() if k in flags})
    return parser


def _load_config(path: str) -> dict:
    """The JSON object in the --config file: flag defaults."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # bad JSON, or an int past 4300 digits
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterError(f"config file {path} must hold a JSON object")
    return data


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser without config, shared by every ``main`` call. Reuse is safe:
    ``parse_args`` only reads it and returns a fresh namespace, and every
    default in ``_FLAGS`` is immutable."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
            if args.config is not None:  # parse again, the file's values as defaults
                try:
                    parser = build_parser(_load_config(args.config))
                except ParameterError as exc:
                    print(f"uavps: config error: {exc}", file=sys.stderr)
                    return 2
                args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse reports usage errors with code 2
            return int(exc.code or 0)
        return args.func(args)
    except ParameterError as exc:
        print(f"uavps: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"uavps: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
