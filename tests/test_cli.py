"""Command-line surface: exit codes, CSV round trips, determinism."""

import argparse
import csv
import io
import json
import math
import pathlib
import shlex
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavps import cli, pricing
from uavps.allocation import allocate_continuous, allocate_discrete
from uavps.benchmark import profit_ratio_curve, variance_sweep
from uavps.pricing import build_pricing
from uavps.valuations import ParameterError, ValuationModel

import test_golden_cli as golden

EXP1 = ValuationModel.exponential(1.0)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Read back a CSV written by ``cli.write_csv``, skipping comments."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def _fmt(x) -> str:
    """The former ``cli._fmt``: shortest round-trip floats, empty for None."""
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv_per_cell(path: str, header: list[str], rows, params: dict) -> None:
    """The former ``cli.write_csv``, every cell and parameter mapped through ``_fmt``."""
    with open(path, "w", newline="") as fh:
        fh.write("# uavps\n")
        for key in sorted(params):
            fh.write(f"# {key}: {_fmt(params[key])}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def test_sweep_parser():
    assert cli.parse_sweep("0.05:0.2:0.05") == [0.05, 0.1, 0.15, 0.2]
    assert cli.parse_sweep("1:1:1") == [1.0]
    with pytest.raises(ParameterError):
        cli.parse_sweep("1:0:1")
    with pytest.raises(ParameterError):
        cli.parse_sweep("nope")
    # v += 1 cannot move 1e16; the first sweep looped forever, the second
    # asked for 10^12 points, and the third stalls at 2^53 past a start it moves.
    for text in ("1e16:1.0000000000000002e16:1", "0:1:1e-12", f"{2**53 - 2}:{2**53 + 10}:1"):
        with pytest.raises(ParameterError, match="bad sweep"):
            cli.parse_sweep(text)
    assert len(cli.parse_sweep("0:1:1e-4")) == 10_001
    assert cli.parse_sweep(f"{2**52}:{2**52 + 2}:1") == [2.0**52, 2.0**52 + 1, 2.0**52 + 2]


def test_price_discrete_stdout_and_csv(tmp_path, capsys):
    out = tmp_path / "sched.csv"
    code = cli.main(["price", "--model", "exp", "--lambda", "1", "--alpha", "0.8",
                     "--k", "3", "--T", "10", "--out", str(out)])
    assert code == 0
    _, table = build_pricing(EXP1, 0.8, 3, 10)
    assert capsys.readouterr().out.strip() == f"{table.final():.6f}"

    header, rows = read_csv(str(out))
    assert header == ["j", "t", "price", "profit"]
    assert len(rows) == 4 * 11
    # shortest round-trip formatting re-parses to the exact table values
    parsed = {(int(r[0]), int(r[1])): r for r in rows}
    assert float(parsed[3, 10][3]) == table.final()
    assert parsed[3, 2][2] == ""  # price undefined with fewer slots than units


def test_price_continuous_stdout(capsys):
    code = cli.main(["price", "--mode", "continuous", "--lambda", "1",
                     "--arrival-rate", "1", "--k", "1", "--T", "2.718281828"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0.693147"


def test_missing_flag_and_bad_value_exit_2(capsys):
    assert cli.main(["price", "--model", "exp", "--lambda", "1",
                     "--alpha", "0.8", "--T", "10"]) == 2  # no --k
    assert cli.main(["allocate", "--model", "uniform", "--a", "5", "--b", "15",
                     "--B", "3", "--c", "3", "--alpha", "0.5"]) == 2
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["benchmark", "--model", "exp", "--lambda", "1"]) == 2
    capsys.readouterr()


def test_allocate_sweep_matches_library(tmp_path, capsys):
    out = tmp_path / "alloc.csv"
    code = cli.main(["allocate", "--model", "uniform", "--a", "5", "--b", "15",
                     "--B", "15", "--c", "3",
                     "--alpha-sweep", "0.1:0.9:0.2", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    header, rows = read_csv(str(out))
    assert header == ["alpha", "k_star", "t_star", "profit", "regime"]
    uni = ValuationModel.uniform(5, 15)
    for row in rows:
        decision = allocate_discrete(uni, float(row[0]), 15, 3)
        assert int(row[1]) == decision.k_star
        assert float(row[3]) == decision.profit


def test_deploy_and_forking(tmp_path, capsys):
    spots = tmp_path / "spots.json"
    spots.write_text(json.dumps([{"alpha": 0.8, "distance": 5.0},
                                 {"alpha": 0.8, "distance": 5.0}]))
    out = tmp_path / "plan.csv"
    code = cli.main(["deploy", "--hotspots", str(spots), "--N", "2",
                     "--B0", "20", "--c", "2", "--model", "exp",
                     "--lambda", "1", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("profile 1 1")
    header, rows = read_csv(str(out))
    assert header == ["hotspot", "n", "k", "T", "profit"]
    assert len(rows) == 2

    code = cli.main(["deploy", "--hotspots", str(spots), "--check-forking",
                     "--N", "2", "--B0", "20", "--c", "2", "--lambda", "1"])
    assert code == 0
    assert "forking=holds" in capsys.readouterr().out

    missing = tmp_path / "nope.json"
    assert cli.main(["deploy", "--hotspots", str(missing), "--N", "2",
                     "--B0", "20", "--c", "2", "--lambda", "1"]) == 2


def test_simulate_determinism_byte_identical(tmp_path, capsys):
    args = ["simulate", "--model", "exp", "--lambda", "1", "--alpha", "0.5",
            "--k", "1", "--T", "2", "--trials", "20000", "--seed", "9"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    first = capsys.readouterr().out
    assert cli.main(args + ["--out", str(out2)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert out1.read_bytes() == out2.read_bytes()


def test_benchmark_ratio_columns(tmp_path, capsys):
    out = tmp_path / "ratio.csv"
    code = cli.main(["benchmark", "--ratio", "--model", "exp", "--lambda", "1",
                     "--alpha", "0.5", "--k-list", "1,2,3", "--T-max", "12",
                     "--T-step", "3", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    header, rows = read_csv(str(out))
    assert header == ["T", "ratio_k1", "ratio_k2", "ratio_k3"]
    for row in rows:
        assert float(row[1]) >= float(row[2]) >= float(row[3])


def test_benchmark_variance_roundtrip(tmp_path, capsys):
    out = tmp_path / "var.csv"
    code = cli.main(["benchmark", "--variance", "--mean", "10", "--T", "3",
                     "--alpha", "0.8", "--k", "1", "--variances", "5:15:5",
                     "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    header, rows = read_csv(str(out))
    assert header == ["variance", "incomplete", "complete"]
    expected = variance_sweep(10.0, [5.0, 10.0, 15.0], 0.8, 1, 3)
    for row, (var, inc, comp) in zip(rows, expected):
        assert float(row[0]) == var
        assert float(row[1]) == inc
        assert float(row[2]) == comp
    # a bad sweep exits 2
    assert cli.main(["benchmark", "--variance", "--mean", "10", "--T", "3",
                     "--alpha", "0.8", "--k", "1", "--variances",
                     "bad"]) == 2
    capsys.readouterr()


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "exp", "lambda": 1.0, "alpha": 0.5,
                               "k": 1, "T": 2.0}))
    assert cli.main(["--config", str(cfg), "price"]) == 0
    base = capsys.readouterr().out.strip()
    _, table = build_pricing(EXP1, 0.5, 1, 2)
    assert base == f"{table.final():.6f}"

    assert cli.main(["--config", str(cfg), "price", "--T", "3"]) == 0
    overridden = capsys.readouterr().out.strip()
    _, table3 = build_pricing(EXP1, 0.5, 1, 3)
    assert overridden == f"{table3.final():.6f}"

    assert cli.main(["--config", str(tmp_path / "absent.json"), "price"]) == 2
    capsys.readouterr()
    # Help never reads the file.
    assert cli.main(["--config", str(tmp_path / "absent.json"), "price", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: uavps price")


def test_config_help_key_adds_no_provenance_line(tmp_path, capsys):
    # A config "help" key names no flag, so it is ignored.
    plain, helped = tmp_path / "plain.json", tmp_path / "helped.json"
    plain.write_text(json.dumps({"alpha": 0.5, "k": 1, "T": 2.0}))
    helped.write_text(json.dumps({"alpha": 0.5, "k": 1, "T": 2.0, "help": True}))
    outs = [tmp_path / "plain.csv", tmp_path / "helped.csv"]
    for cfg, out in zip((plain, helped), outs):
        assert cli.main(["--config", str(cfg), "price", *EXP, "--out", str(out)]) == 0
    capsys.readouterr()
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("spelling", [
    lambda path: ["--config", path],
    lambda path: [f"--config={path}"],
    lambda path: ["--conf", path],
], ids=["separate", "equals", "abbreviated"])
def test_config_path_in_every_argparse_spelling(spelling, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "exp", "lambda": 1.0, "alpha": 0.5,
                               "k": 1, "T": 2.0}))
    assert cli.main([*spelling(str(cfg)), "price"]) == 0
    _, table = build_pricing(EXP1, 0.5, 1, 2)
    assert capsys.readouterr().out.strip() == f"{table.final():.6f}"

    assert cli.main([*spelling(str(tmp_path / "absent.json")), "price"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python parses ints of any length")
def test_config_integer_past_the_digit_limit_is_a_config_error(tmp_path, capsys):
    # json.load raises a plain ValueError for an int literal past Python's
    # 4300-digit limit: it exited 1 with "uavps: error:".
    cfg = tmp_path / "run.json"
    cfg.write_text('{"k": 1' + "0" * 5000 + "}")
    assert cli.main(["--config", str(cfg), *_set(PRICE_D, "--k", None)]) == 2
    assert capsys.readouterr().err.startswith(
        f"uavps: config error: cannot read config file {cfg}: Exceeds the limit")


def test_subcommand_flag_prefix_of_config_is_not_a_config_path(capsys):
    # --c after the subcommand is allocate's cost flag, not an abbreviated --config
    assert cli.main(["allocate", "--model", "exp", "--lambda", "1", "--B", "15",
                     "--c", "3", "--alpha", "0.5"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["--config"], ["price", "--config"]])
def test_config_flag_without_a_path_is_a_usage_error(argv, capsys):
    assert cli.main(argv) == 2
    capsys.readouterr()


# -- flag inventory --------------------------------------------------------------
#
# Each subcommand's flags in order, as (option strings, dest, type, default,
# choices, nargs), help text left out.

FLAGS = {
    "-h": (("-h", "--help"), "help", None, argparse.SUPPRESS, None, 0),
    "--model": (("--model",), "model", None, "exp", ("exp", "exponential", "uniform"),
                None),
    "--lambda": (("--lambda",), "lam", float, None, None, None),
    "--a": (("--a",), "a", float, None, None, None),
    "--b": (("--b",), "b", float, None, None, None),
    "--mode": (("--mode",), "mode", None, "discrete", ("discrete", "continuous"), None),
    "--ratio": (("--ratio",), "ratio", None, False, None, 0),
    "--variance": (("--variance",), "variance", None, False, None, 0),
    "--alpha": (("--alpha",), "alpha", float, None, None, None),
    "--arrival-rate": (("--arrival-rate",), "arrival_rate", float, None, None, None),
    "--alpha-sweep": (("--alpha-sweep",), "alpha_sweep", None, None, None, None),
    "--hotspots": (("--hotspots",), "hotspots", None, None, None, None),
    "--N": (("--N",), "N", int, None, None, None),
    "--B0": (("--B0",), "B0", float, None, None, None),
    "--B": (("--B",), "B", float, None, None, None),
    "--c": (("--c",), "c", float, None, None, None),
    "--check-forking": (("--check-forking",), "check_forking", None, False, None, 0),
    "--k": (("--k",), "k", int, None, None, None),
    "--k-list": (("--k-list",), "k_list", None, "1", None, None),
    "--T": (("--T",), "T", float, None, None, None),
    "--T-max": (("--T-max",), "T_max", float, None, None, None),
    "--T-step": (("--T-step",), "T_step", int, 1, None, None),
    "--trials": (("--trials",), "trials", int, 100_000, None, None),
    "--seed": (("--seed",), "seed", int, 0, None, None),
    "--mean": (("--mean",), "mean", float, None, None, None),
    "--variances": (("--variances",), "variances", None, None, None, None),
    "--out": (("--out",), "out", None, None, None, None),
}
MODEL_FLAGS = "-h --model --lambda --a --b"
INVENTORY = {
    "price": f"{MODEL_FLAGS} --mode --alpha --arrival-rate --k --T --out",
    "allocate": f"{MODEL_FLAGS} --mode --alpha --arrival-rate --alpha-sweep --B --c --out",
    "deploy": f"{MODEL_FLAGS} --hotspots --N --B0 --c --check-forking --out",
    "simulate": f"{MODEL_FLAGS} --mode --alpha --arrival-rate --k --T --trials --seed --out",
    "benchmark": f"{MODEL_FLAGS} --ratio --variance --alpha --k --k-list --T --T-max "
                 "--T-step --mean --variances --out",
}


def test_flag_inventory():
    # argparse lists a parser's actions only in its private ``_actions``.
    top = cli.build_parser()
    assert [a.dest for a in top._actions] == ["help", "config", "command"]
    commands = top._actions[-1].choices
    assert list(commands) == list(INVENTORY)
    for name, parser in commands.items():
        got = [(tuple(a.option_strings), a.dest, a.type, a.default,
                None if a.choices is None else tuple(a.choices), a.nargs)
               for a in parser._actions]
        assert got == [FLAGS[flag] for flag in INVENTORY[name].split()], name


# -- the shared parser -------------------------------------------------------------
#
# ``main`` builds the parser without config once per process and reuses it, so
# no run may leave a mark on it.


@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_parser_is_built_once_and_once_more_per_config_run(fresh_parser, tmp_path,
                                                           monkeypatch, capsys):
    builds, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda config=None: builds.append(config) or build(config))
    for _ in range(3):
        assert cli.main(PRICE_D) == 0
    assert cli.main(["price", "--k", "x"]) == 2
    assert builds == [None]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"k": 2}))
    for n in (1, 2):
        assert cli.main(["--config", str(cfg), *_set(PRICE_D, "--k", None)]) == 0
        assert builds == [None] + [{"k": 2}] * n
    capsys.readouterr()


def test_shared_parser_is_unchanged_by_any_run(fresh_parser, tmp_path, capsys):
    # The variance study writes its default alpha and k into the namespace.
    assert cli.main(_set(VAR, "--alpha", None, "--k", None)) == 0
    assert cli.main(["price", "--k", "x"]) == 2  # usage error
    assert cli.main(_set(PRICE_D, "--lambda", "0")) == 2  # ParameterError
    assert cli.main(["price", "-h"]) == 0
    capsys.readouterr()
    built = cli._parser()
    for name in golden.RUNS:
        assert golden.run(name, str(tmp_path)) == golden.GOLDEN[name], name
    assert cli._parser() is built


def test_every_flag_default_is_immutable():
    for parser in cli.build_parser()._actions[-1].choices.values():
        for action in parser._actions:
            assert type(action.default) in (str, int, float, bool, type(None)), action.dest


# -- exit codes ------------------------------------------------------------------
#
# One entry per value the CLI hands to the library, with a bad, missing, NaN or
# boundary value, on every subcommand and mode. Exit 2 is a ParameterError,
# raised by the library or by the CLI's own presence and syntax checks.


def _set(base, *pairs):
    """``base`` with each (flag, value) pair set; a None value drops the flag."""
    out = list(base)
    for flag, value in zip(pairs[::2], pairs[1::2]):
        if flag in out:
            i = out.index(flag)
            out[i:i + 2] = [] if value is None else [flag, value]
        elif value is not None:
            out += [flag, value]
    return out


def _uniform(base):
    return _set(base, "--lambda", None, "--model", "uniform") + ["--a", "5", "--b", "15"]


EXP = ["--model", "exp", "--lambda", "1"]
PRICE_D = ["price", *EXP, "--alpha", "0.8", "--k", "3", "--T", "10"]
PRICE_C = ["price", "--mode", "continuous", "--lambda", "1", "--arrival-rate", "1",
           "--k", "3", "--T", "10"]
ALLOC_D = ["allocate", *EXP, "--alpha", "0.5", "--B", "15", "--c", "3"]
ALLOC_C = ["allocate", "--mode", "continuous", "--lambda", "1", "--arrival-rate", "1",
           "--B", "15", "--c", "3"]
DEPLOY = ["deploy", *EXP, "--hotspots", "{two}", "--N", "2", "--B0", "20", "--c", "2"]
FORK = ["deploy", "--check-forking", "--lambda", "1", "--hotspots", "{two}",
        "--N", "2", "--B0", "20", "--c", "2"]
SIM_D = ["simulate", *EXP, "--alpha", "0.5", "--k", "2", "--T", "5", "--trials", "500"]
SIM_C = ["simulate", "--mode", "continuous", "--lambda", "1", "--arrival-rate", "1",
         "--k", "2", "--T", "5", "--trials", "500"]
RATIO = ["benchmark", "--ratio", *EXP, "--alpha", "0.5", "--k-list", "1,2", "--T-max", "6"]
VAR = ["benchmark", "--variance", "--mean", "10", "--variances", "5:15:5",
       "--alpha", "0.8", "--k", "1", "--T", "3"]

SPOT_FILES = {
    "two": [{"alpha": 0.8, "distance": 5.0}, {"alpha": 0.8, "distance": 5.0}],
    "one": [{"alpha": 0.8, "distance": 5.0}],
    "far": [{"alpha": 0.8, "distance": 5.0}, {"alpha": 0.5, "distance": 50.0}],
    "order": [{"alpha": 0.2, "distance": 5.0}, {"alpha": 0.8, "distance": 5.0}],
    "zero_alpha": [{"alpha": 0.0, "distance": 5.0}],
    "nan_alpha": [{"alpha": float("nan"), "distance": 5.0}],
    "not_objects": [1, 2],
    "null_alpha": [{"alpha": None, "distance": 1}],
    "bool_values": [{"alpha": True, "distance": False}],
    "strings": [{"alpha": "0.8", "distance": "5"}, {"alpha": "0.5", "distance": " 9 "}],
    "huge_alpha": [{"alpha": 10**400, "distance": 5.0}],
}

# A --config float takes an int flag's type only when whole: 2.0 works as 2,
# and a fractional one is the library's to reject.
CONFIG_FILES = {"k_frac": {"k": 2.5}, "k_whole": {"k": 2.0},
                "N_frac": {"N": 2.5}, "N_whole": {"N": 2.0},
                "trials_frac": {"trials": 100.5}, "trials_whole": {"trials": 500.0},
                "seed_frac": {"seed": 1.5}, "seed_whole": {"seed": 3.0},
                "T_step_frac": {"T_step": 2.5}, "T_step_whole": {"T_step": 2.0},
                "seed_null": {"seed": None}}
# Values that do not fit their flag's JSON type or choices, or a float flag's
# range: the config file itself is at fault, so the run prints "config error".
CONFIG_MISFITS = {"k_list_int": {"k_list": 2},
                  "alpha_sweep_int": {"alpha_sweep": 5}, "variances_int": {"variances": 3},
                  "alpha_list": {"alpha": [0.5, 0.6]}, "out_int": {"out": 1},
                  "hotspots_int": {"hotspots": 3},
                  "forking_str": {"check_forking": "false"},
                  "mode_foo": {"mode": "foo"}, "model_foo": {"model": "foo"},
                  "T_huge": {"T": 10**400}, "array": [1, 2]}


def _configured(name, base, flag):
    return ["--config", "{%s}" % name, *_set(base, flag, None)]


def _cases():
    ok, bad = [], []
    for mode, base in (("d", PRICE_D), ("c", PRICE_C)):
        ok += [(f"price-{mode}", base), (f"price-{mode}-T0", _set(base, "--T", "0"))]
        bad += [(f"price-{mode}-{flag}-{v}", _set(base, flag, v))
                for flag, v in (("--k", None), ("--k", "0"), ("--T", None),
                                ("--T", "-1"), ("--T", "nan"))]
    ok += [("price-c-T-frac", _set(PRICE_C, "--T", "2.5")),
           ("price-d-alpha-0", _set(PRICE_D, "--alpha", "0")),
           ("price-d-alpha-1", _set(PRICE_D, "--alpha", "1")),
           ("price-d-uniform", _uniform(PRICE_D)),
           ("price-d-T-6.0", _set(PRICE_D, "--T", "6.0"))]
    bad += [("price-d-T-frac", _set(PRICE_D, "--T", "2.5")),
            ("price-d-lambda-None", _set(PRICE_D, "--lambda", None)),
            ("price-d-uniform-b-None", _set(_uniform(PRICE_D), "--b", None)),
            ("price-d-uniform-a-20", _set(_uniform(PRICE_D), "--a", "20")),
            ("price-d-uniform-a--1", _set(_uniform(PRICE_D), "--a", "-1")),
            ("price-d-uniform-a-nan", _set(_uniform(PRICE_D), "--a", "nan"))]
    bad += [(f"price-c-{flag}-{v}", _set(PRICE_C, flag, v))
            for flag in ("--lambda", "--arrival-rate") for v in (None, "0", "-1", "nan")]
    bad += [(f"price-d-alpha-{v}", _set(PRICE_D, "--alpha", v))
            for v in (None, "1.5", "-0.1", "nan")]

    for mode, base in (("d", ALLOC_D), ("c", ALLOC_C)):
        ok.append((f"allocate-{mode}", base))
        bad += [(f"allocate-{mode}-{flag}-{v}", _set(base, flag, v))
                for flag, v in (("--B", None), ("--c", None), ("--c", "0"), ("--c", "-3"),
                                ("--c", "nan"), ("--B", "3"), ("--alpha-sweep", "1:0:1"),
                                ("--alpha-sweep", "x"), ("--alpha-sweep", "0:1:0"),
                                ("--alpha-sweep", "0:1:inf"),
                                ("--alpha-sweep", "1e16:1.0000000000000002e16:1"),
                                ("--alpha-sweep", "0:1:1e-12"))]
    ok += [("allocate-c-sweep", _set(ALLOC_C, "--alpha-sweep", "0.5:1:0.5")),
           ("allocate-c-B-frac", _set(ALLOC_C, "--B", "15.5")),
           ("allocate-d-B-4", _set(ALLOC_D, "--B", "4")),
           ("allocate-d-sweep", _set(ALLOC_D, "--alpha-sweep", "0:1:0.5")),
           ("allocate-d-uniform", _uniform(ALLOC_D))]
    bad += [(f"allocate-c-{flag}-{v}", _set(ALLOC_C, flag, v))
            for flag, v in (("--lambda", None), ("--lambda", "0"), ("--lambda", "nan"),
                            ("--arrival-rate", None), ("--arrival-rate", "0"),
                            ("--arrival-rate", "-1"), ("--arrival-rate", "nan"),
                            ("--alpha-sweep", "0:1:0.5"), ("--B", "nan"))]
    bad.append(("allocate-c-rate-1e13",
                _set(ALLOC_C, "--arrival-rate", "1e13", "--B", "100", "--c", "1")))
    bad += [(f"allocate-d-{flag}-{v}", _set(ALLOC_D, flag, v))
            for flag, v in (("--B", "15.5"), ("--c", "1.5"), ("--B", "3.0"),
                            ("--alpha", None), ("--alpha", "2"), ("--alpha", "-0.5"),
                            ("--alpha", "nan"), ("--alpha-sweep", "0.5:1.5:0.5"))]

    ok += [("deploy", DEPLOY), ("deploy-one", _set(DEPLOY, "--hotspots", "{one}")),
           ("forking", FORK)]
    bad += [(f"deploy-{flag}-{v}", _set(DEPLOY, flag, v))
            for flag, v in (("--hotspots", None), ("--hotspots", "{missing}"),
                            ("--hotspots", "{bad_json}"), ("--hotspots", "{zero_alpha}"),
                            ("--N", None), ("--N", "0"), ("--B0", None), ("--B0", "0"),
                            ("--B0", "-1"), ("--B0", "nan"), ("--B0", "5"), ("--c", None),
                            ("--c", "0"), ("--c", "nan"))]
    bad += [(f"forking-{flag}-{v}", _set(FORK, flag, v))
            for flag, v in (("--lambda", None), ("--lambda", "0"), ("--lambda", "nan"),
                            ("--hotspots", "{one}"), ("--N", "1"), ("--B0", "0"),
                            ("--c", "0"))]

    for mode, base in (("d", SIM_D), ("c", SIM_C)):
        ok += [(f"simulate-{mode}", base), (f"simulate-{mode}-T0", _set(base, "--T", "0"))]
        bad += [(f"simulate-{mode}-{flag}-{v}", _set(base, flag, v))
                for flag, v in (("--k", None), ("--k", "0"), ("--T", None), ("--T", "-1"),
                                ("--T", "nan"), ("--trials", "0"))]
    ok += [("simulate-d-uniform", _uniform(SIM_D)),
           ("simulate-d-T-6.0", _set(SIM_D, "--T", "6.0"))]
    bad += [(f"simulate-c-{flag}-{v}", _set(SIM_C, flag, v))
            for flag in ("--lambda", "--arrival-rate") for v in (None, "0", "nan")]
    bad += [(f"simulate-d-{flag}-{v}", _set(SIM_D, flag, v))
            for flag, v in (("--alpha", None), ("--alpha", "1.5"), ("--alpha", "nan"),
                            ("--T", "2.5"))]

    ok += [("ratio", RATIO), ("ratio-T-max-6.5", _set(RATIO, "--T-max", "6.5")),
           ("ratio-uniform", _uniform(RATIO)),
           ("variance", VAR), ("variance-defaults", _set(VAR, "--alpha", None, "--k", None)),
           ("variance-0", _set(VAR, "--variances", "0:0:1")),
           ("variance-T-6.0", _set(VAR, "--T", "6.0"))]
    bad += [("benchmark-neither", ["benchmark", *EXP]),
            ("benchmark-both", ["benchmark", "--ratio", "--variance", *EXP])]
    bad += [(f"ratio-{flag}-{v}", _set(RATIO, flag, v))
            for flag, v in (("--alpha", None), ("--alpha", "2"), ("--alpha", "nan"),
                            ("--k-list", "0"), ("--k-list", "1,x"), ("--T-max", None),
                            ("--T-max", "1"), ("--T-max", "nan"), ("--lambda", None))]
    bad += [("ratio-k-list--1,2", _set(RATIO, "--k-list", None) + ["--k-list=-1,2"]),
            ("ratio-T-max--inf", _set(RATIO, "--T-max", None) + ["--T-max=-inf"])]
    bad += [(f"variance-{flag}-{v}", _set(VAR, flag, v))
            for flag, v in (("--mean", None), ("--mean", "0"), ("--mean", "-1"),
                            ("--mean", "nan"), ("--variances", None),
                            ("--variances", "bad"), ("--variances", "nan:nan:1"),
                            ("--variances", "50:60:10"), ("--alpha", "2"), ("--k", "0"),
                            ("--T", None), ("--T", "0"), ("--T", "2.5"))]
    for name, base in (("price-d", PRICE_D), ("price-c", PRICE_C), ("simulate-d", SIM_D),
                       ("simulate-c", SIM_C), ("variance", VAR)):
        ok.append((f"config-{name}-k-2.0", _configured("k_whole", base, "--k")))
        bad.append((f"config-{name}-k-2.5", _configured("k_frac", base, "--k")))
    for name, base in (("deploy", DEPLOY), ("forking", FORK)):
        ok.append((f"config-{name}-N-2.0", _configured("N_whole", base, "--N")))
        bad.append((f"config-{name}-N-2.5", _configured("N_frac", base, "--N")))
    for name, base in (("simulate-d", SIM_D), ("simulate-c", SIM_C)):
        ok += [(f"config-{name}-trials-500.0", _configured("trials_whole", base, "--trials")),
               (f"config-{name}-seed-3.0", _configured("seed_whole", base, "--seed"))]
        bad += [(f"config-{name}-trials-100.5", _configured("trials_frac", base, "--trials")),
                (f"config-{name}-seed-1.5", _configured("seed_frac", base, "--seed"))]
    ok += [("config-ratio-T-step-2.0", _configured("T_step_whole", RATIO, "--T-step")),
           ("config-simulate-d-seed-null", _configured("seed_null", SIM_D, "--seed"))]
    bad += [("config-ratio-T-step-2.5", _configured("T_step_frac", RATIO, "--T-step")),
            ("config-ratio-k-list-2", _configured("k_list_int", RATIO, "--k-list"))]
    return [pytest.param(argv, 0, id=name) for name, argv in ok] + \
           [pytest.param(argv, 2, id=name) for name, argv in bad]


# Bad parameters that exited 1 or raised a traceback before the library's
# checks raised ParameterError; each now exits 2.
MOVED_TO_2 = [
    ("price-d-T-inf", _set(PRICE_D, "--T", "inf")),  # OverflowError traceback
    ("simulate-d-T-inf", _set(SIM_D, "--T", "inf")),  # OverflowError traceback
    ("allocate-d-B-inf", _set(ALLOC_D, "--B", "inf")),  # OverflowError traceback
    ("allocate-c-B-inf", _set(ALLOC_C, "--B", "inf")),  # OverflowError traceback
    ("variance-T-inf", _set(VAR, "--T", "inf")),  # OverflowError traceback
    ("ratio-T-max-inf", _set(RATIO, "--T-max", "inf")),  # OverflowError traceback
    ("price-d-lambda-0", _set(PRICE_D, "--lambda", "0")),
    ("price-d-lambda--1", _set(PRICE_D, "--lambda", "-1")),
    ("price-d-lambda-nan", _set(PRICE_D, "--lambda", "nan")),
    ("allocate-d-lambda-0", _set(ALLOC_D, "--lambda", "0")),
    ("deploy-lambda-0", _set(DEPLOY, "--lambda", "0")),
    ("simulate-d-lambda-0", _set(SIM_D, "--lambda", "0")),
    ("ratio-lambda-0", _set(RATIO, "--lambda", "0")),
    ("allocate-d-B-nan", _set(ALLOC_D, "--B", "nan")),
    ("deploy-nan-alpha", _set(DEPLOY, "--hotspots", "{nan_alpha}")),
    ("forking-unreachable", _set(FORK, "--hotspots", "{far}")),
    ("forking-not-first-best", _set(FORK, "--hotspots", "{order}")),
    ("ratio-T-step-0", _set(RATIO, "--T-step", "0")),
    ("ratio-T-step--1", _set(RATIO, "--T-step", "-1")),
    ("variance-negative", _set(VAR, "--variances", None) + ["--variances=-1:0:1"]),
    ("variance-tiny-mean", _set(VAR, "--mean", "1e-7", "--variances", "0:0:1")),
    # Wrote a NaN time and NaN prices with exit 0: the first grid point is inf * 0.
    ("price-c-T-inf-out", _set(PRICE_C, "--T", "inf") + ["--out", "{out}"]),
    # Printed inf with exit 0: the series argument a' t / e is inf, past the
    # closed forms' 1e12, where the series kernel's overflow guard stops holding.
    ("price-c-T-inf", _set(PRICE_C, "--T", "inf")),
    # Exited 1 with numpy's "lam value too large": no Poisson count past ~9.2e18.
    ("simulate-c-T-inf", _set(SIM_C, "--T", "inf")),
    # Exited 0 with a zero plan: floor(inf) cast to int inside the planner.
    ("deploy-B0-inf", _set(DEPLOY, "--B0", "inf")),
    # Exited 1 with numpy's "expected non-negative integer" from SeedSequence.
    ("simulate-d-seed--1", _set(SIM_D, "--seed", "-1")),
    ("simulate-c-seed--1", _set(SIM_C, "--seed", "-1")),
    # TypeError tracebacks from a hotspot that is no object or has a null rate.
    ("deploy-not-objects", _set(DEPLOY, "--hotspots", "{not_objects}")),
    ("deploy-null-alpha", _set(DEPLOY, "--hotspots", "{null_alpha}")),
    # Config values of the wrong JSON type. Two sweeps exited 1 with an
    # AttributeError and a list alpha with a TypeError; an int --out wrote the
    # CSV onto file descriptor 1 and an int --hotspots read descriptor 3; the
    # string "false" switched the forking check on.
    ("config-allocate-sweep-int", _configured("alpha_sweep_int", ALLOC_D, "--alpha")),
    ("config-variance-variances-int", _configured("variances_int", VAR, "--variances")),
    ("config-price-d-alpha-list", _configured("alpha_list", PRICE_D, "--alpha")),
    ("config-price-d-out-int", ["--config", "{out_int}", *PRICE_D]),
    ("config-deploy-hotspots-int", _configured("hotspots_int", DEPLOY, "--hotspots")),
    ("config-deploy-forking-str", ["--config", "{forking_str}", *DEPLOY]),
    # Exited 0 with total_profit=0.000000: the energy past 2^63 wrapped in an int cast.
    ("deploy-B0-1e20", _set(DEPLOY, "--B0", "1e20")),
    # A config file holding a JSON array, not an object.
    ("config-price-d-array", ["--config", "{array}", *PRICE_D]),
    # Exited 0 with a plan for a hotspot with alpha 1.0 and distance 0.0.
    ("deploy-bool-values", _set(DEPLOY, "--hotspots", "{bool_values}")),
    # Exited 0 with a plan: float() read the strings as numbers.
    ("deploy-strings", _set(DEPLOY, "--hotspots", "{strings}")),
    # Config values outside a flag's choices, which argparse checks only on
    # the command line: each ran in discrete mode and exited 0.
    ("config-price-mode-foo", ["--config", "{mode_foo}", *PRICE_D]),
    ("config-allocate-mode-foo", ["--config", "{mode_foo}", *ALLOC_D]),
    ("config-simulate-mode-foo", ["--config", "{mode_foo}", *SIM_D]),
    # A model outside exp, exponential and uniform, where the run builds no
    # valuation model: each exited 0, and an --out CSV recorded the bad name.
    ("config-price-c-model-foo", ["--config", "{model_foo}", *PRICE_C]),
    ("config-allocate-c-model-foo", ["--config", "{model_foo}", *ALLOC_C]),
    ("config-forking-model-foo", ["--config", "{model_foo}", *FORK]),
    ("config-simulate-c-model-foo", ["--config", "{model_foo}", *SIM_C]),
    ("config-variance-model-foo", ["--config", "{model_foo}", *VAR]),
    # Printed nan with a RuntimeWarning and exited 0: an infinite rate or
    # upper bound turned every table cell to NaN.
    ("price-d-lambda-inf", _set(PRICE_D, "--lambda", "inf")),
    ("price-d-uniform-b-inf", _set(_uniform(PRICE_D), "--b", "inf")),
    # OverflowError tracebacks from an integer past the largest float.
    ("price-d-k-huge", _set(PRICE_D, "--k", str(10**400))),
    ("simulate-d-trials-huge", _set(SIM_D, "--trials", str(10**400))),
    ("config-price-d-T-huge", _configured("T_huge", PRICE_D, "--T")),
    ("deploy-huge-alpha", _set(DEPLOY, "--hotspots", "{huge_alpha}")),
]


@pytest.mark.parametrize("argv, code", _cases() + [
    pytest.param(argv, 2, id=f"moved-{name}") for name, argv in MOVED_TO_2] + [
    # An --out path in a missing directory: OSError, exit 1.
    pytest.param(PRICE_D + ["--out", "{missing}/out.csv"], 1, id="price-d-out-missing-dir")])
def test_exit_codes(argv, code, tmp_path, capsys):
    paths = {"missing": str(tmp_path / "absent.json"), "out": str(tmp_path / "out.csv"),
             "bad_json": str(tmp_path / "bad.json")}
    (tmp_path / "bad.json").write_text("{")
    for name, content in {**SPOT_FILES, **CONFIG_FILES, **CONFIG_MISFITS}.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
    assert cli.main([a.format(**paths) for a in argv]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:  # one line, no traceback, "config error" only for a misfit config value
        misfit = any(a.strip("{}") in CONFIG_MISFITS for a in argv)
        prefix = "uavps: config error: " if misfit else "uavps: error: "
        assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("argv", [PRICE_D, SIM_D, VAR],
                         ids=["price-d", "simulate-d", "variance"])
def test_discrete_horizon_is_checked_by_the_library(argv, tmp_path, capsys):
    # The library takes a whole float as its whole number and rejects any
    # other; the CLI passes --T through.
    runs = []
    for T in ("6", "6.0"):
        out = tmp_path / f"T{T}.csv"
        assert cli.main(_set(argv, "--T", T) + ["--out", str(out)]) == 0
        runs.append((capsys.readouterr().out, out.read_bytes()))
    assert runs[0] == runs[1]
    assert cli.main(_set(argv, "--T", "2.5")) == 2
    assert capsys.readouterr().err == (
        "uavps: error: horizon must be a nonnegative integer, got 2.5\n")


@pytest.mark.parametrize("argv", [PRICE_D, PRICE_C, ALLOC_D, ALLOC_C, DEPLOY, FORK, SIM_D,
                                  SIM_C, RATIO, VAR],
                         ids=["price-d", "price-c", "allocate-d", "allocate-c", "deploy",
                              "forking", "simulate-d", "simulate-c", "ratio", "variance"])
def test_model_outside_its_choices_is_a_usage_error(argv, capsys):
    # argparse rejects it before any file is read; the continuous runs, the
    # forking check and the variance study exited 0 while --model had no choices.
    assert cli.main(_set(argv, "--model", "foo")) == 2
    assert "argument --model: invalid choice: 'foo'" in capsys.readouterr().err


# The same values as JSON numbers of either kind and as flags: a whole float
# count, an int for a float flag and a float for a float flag.
SAME_AS_FLAGS = [
    (_uniform(PRICE_D), {"a": 5, "b": 15.0, "alpha": 1, "k": 2.0, "T": 8}),
    (SIM_D, {"lambda": 2, "alpha": 0.5, "k": 2, "T": 5.0, "trials": 500.0, "seed": 3.0}),
    (DEPLOY, {"lambda": 1, "N": 2.0, "B0": 20, "c": 2}),
    (RATIO, {"alpha": 1, "T_max": 6, "T_step": 2.0}),
]


@pytest.mark.parametrize("argv, config", SAME_AS_FLAGS,
                         ids=["price-d", "simulate-d", "deploy", "ratio"])
def test_config_run_writes_the_flags_run_bytes(argv, config, tmp_path, capsys):
    spots, cfg = tmp_path / "two.json", tmp_path / "run.json"
    spots.write_text(json.dumps(SPOT_FILES["two"]))
    cfg.write_text(json.dumps(config))
    flags = configured = ["--config", str(cfg)] + [a.format(two=str(spots)) for a in argv]
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        flags, configured = _set(flags, flag, f"{value:g}"), _set(configured, flag, None)
    runs = []
    for name, run in (("flags", flags), ("config", configured)):
        out = tmp_path / f"{name}.csv"
        assert cli.main(run + ["--out", str(out)]) == 0, name
        runs.append((capsys.readouterr().out, out.read_bytes()))
    assert runs[0] == runs[1]


def test_fractional_T_max_truncates(capsys):
    assert cli.main(_set(RATIO, "--T-max", "6")) == 0
    whole = capsys.readouterr().out
    assert cli.main(_set(RATIO, "--T-max", "6.5")) == 0
    assert capsys.readouterr().out == whole


# -- CSV writer ------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    PRICE_D, PRICE_C, _uniform(PRICE_D),
    _set(ALLOC_D, "--alpha-sweep", "0:1:0.25"), _set(ALLOC_C, "--alpha-sweep", "0.5:2:0.5"),
    DEPLOY, SIM_D, SIM_C, RATIO, _set(RATIO, "--k-list", "3,1"),
    _set(RATIO, "--k-list", "2,2"), VAR,
], ids=["price-d", "price-c", "price-d-uniform", "allocate-d-sweep", "allocate-c-sweep",
        "deploy", "simulate-d", "simulate-c", "ratio", "ratio-3,1", "ratio-2,2", "variance"])
def test_csv_bytes_equal_the_per_cell_writer(argv, tmp_path, monkeypatch, capsys):
    spots = tmp_path / "two.json"
    spots.write_text(json.dumps(SPOT_FILES["two"]))
    oracle, out = tmp_path / "oracle.csv", tmp_path / "out.csv"
    write, text, tables = cli.write_csv, cli._schedule_text, []

    def both(path, header, rows, params, blocks=()):
        # The discrete schedule arrives as text; its oracle is the row API on
        # the same table.
        rows, blocks = list(rows), list(blocks)
        write_csv_per_cell(str(oracle), header, rows + [
            row for pair in tables for row in pricing.schedule_csv_rows(*pair)], params)
        write(path, header, rows, params, blocks)

    monkeypatch.setattr(cli, "_schedule_text", lambda *pair: tables.append(pair) or text(*pair))
    monkeypatch.setattr(cli, "write_csv", both)
    assert cli.main([a.format(two=str(spots)) for a in argv] + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == oracle.read_bytes()


def test_write_csv_cells(tmp_path):
    rows = [(None, 0.1 + 0.2, math.inf, 7), (1, 2.5e-300, -math.inf, None)]
    params = {"b": None, "a": 0.1 + 0.2}
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    cli.write_csv(str(ours), ["w", "x", "y", "z"], iter(rows), params)
    write_csv_per_cell(str(oracle), ["w", "x", "y", "z"], rows, params)
    assert ours.read_bytes() == oracle.read_bytes() == (
        b"# uavps\n# a: 0.30000000000000004\n# b: \n"
        b"w,x,y,z\r\n,0.30000000000000004,inf,7\r\n1,2.5e-300,-inf,\r\n")
    # A numpy float64 cell is written in shortest form, where _fmt gave its repr.
    cli.write_csv(str(ours), ["x"], [(np.float64(1.5),)], {})
    assert ours.read_bytes().endswith(b"x\r\n1.5\r\n")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["exp", "uniform"]), st.floats(0.05, 20.0), st.floats(0.0, 30.0),
       st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       st.integers(1, 40), st.integers(0, 60))
@example("exp", 1.0, 0.0, 0.5, 40, 0)
@example("uniform", 10.0, 5.0, 1.0, 7, 3)
def test_schedule_text_is_the_writers_bytes(family, scale, low, alpha, k, T):
    model = (ValuationModel.exponential(scale) if family == "exp"
             else ValuationModel.uniform(low, low + scale))
    schedule, table = build_pricing(model, alpha, k, T)
    oracle = io.StringIO(newline="")
    csv.writer(oracle).writerows(pricing.schedule_csv_rows(schedule, table))
    blocks = list(cli._schedule_text(schedule, table))
    assert len(blocks) == k + 1
    assert "".join(blocks).encode() == oracle.getvalue().encode()


# -- output path -------------------------------------------------------------------
#
# A command's CSV rows are computed only when --out asks for a file.


def test_continuous_price_grid_is_priced_only_for_a_file(tmp_path, monkeypatch, capsys):
    calls, price = [], pricing.price_closed_form
    monkeypatch.setattr(pricing, "price_closed_form",
                        lambda *args: calls.append(args) or price(*args))
    assert cli.main(PRICE_C) == 0
    assert calls == []
    assert cli.main(PRICE_C + ["--out", str(tmp_path / "c.csv")]) == 0
    assert len(calls) == 101
    capsys.readouterr()


def test_discrete_schedule_rows_are_read_only_for_a_file(tmp_path, monkeypatch, capsys):
    read, blocks = [], cli._schedule_text

    def counted(*args):
        for block in blocks(*args):
            read.append(block)
            yield block

    monkeypatch.setattr(cli, "_schedule_text", counted)
    assert cli.main(PRICE_D) == 0
    assert read == []
    assert cli.main(PRICE_D + ["--out", str(tmp_path / "d.csv")]) == 0
    assert len(read) == 3 + 1  # one block per capacity row
    assert sum(block.count("\r\n") for block in read) == (3 + 1) * (10 + 1)
    capsys.readouterr()


# -- batched studies through the command line --------------------------------------


def test_continuous_allocate_sweep_is_labelled_arrival_rate(tmp_path, capsys):
    out = tmp_path / "alloc.csv"
    assert cli.main(_set(ALLOC_C, "--alpha-sweep", "0.5:1:0.5") + ["--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["arrival_rate=0.500000",
                                                   "arrival_rate=1.000000"]
    header, rows = read_csv(str(out))
    assert header == ["arrival_rate", "k_star", "t_star", "profit", "regime"]
    for row in rows:
        decision = allocate_continuous(1.0, float(row[0]), 15.0, 3.0)
        assert (int(row[1]), float(row[3])) == (decision.k_star, decision.profit)

    # The discrete sweep runs over alpha and keeps its label.
    assert cli.main(_set(ALLOC_D, "--alpha-sweep", "0.5:1:0.5") + ["--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("alpha=0.500000 ")
    assert read_csv(str(out))[0][0] == "alpha"


@pytest.mark.parametrize("k_list", ["3,1", "2,2", "1,2,3", "2"])
def test_ratio_columns_follow_the_k_list(k_list, tmp_path, capsys):
    out = tmp_path / "ratio.csv"
    ks = [int(k) for k in k_list.split(",")]
    argv = _set(RATIO, "--k-list", k_list, "--T-max", "20", "--T-step", "4")
    assert cli.main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    header, rows = read_csv(str(out))
    assert header == (["T", "ratio"] if len(ks) == 1 else ["T"] + [f"ratio_k{k}" for k in ks])
    horizons = list(range(max(ks), 21, 4))
    assert [int(row[0]) for row in rows] == horizons
    for column, k in enumerate(ks, start=1):
        curve = profit_ratio_curve(EXP1, 0.5, k, horizons)
        assert [float(row[column]) for row in rows] == [r for _, r in curve]


# -- README ------------------------------------------------------------------------


def _readme_commands() -> list[str]:
    """The ``uavps ...`` lines of the README's command-line block."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("uavps ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # The forking check needs the first hotspot to be the first best.
    (tmp_path / "spots.json").write_text(json.dumps(
        [{"alpha": 0.8, "distance": 5.0}, {"alpha": 0.5, "distance": 9.0}]))
    lines = _readme_commands()
    assert len(lines) == 9
    outs = {}
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        outs[line] = capsys.readouterr().out
    closed_form = ("uavps price --mode continuous --lambda 1 --arrival-rate 1 --k 1 "
                   "--T 2.718281828")
    assert outs[closed_form] == "0.693147\n"
