"""Command-line surface: exit codes, CSV round trips, determinism."""

import csv
import json

import pytest

from uavps import cli
from uavps.allocation import allocate_discrete
from uavps.benchmark import variance_sweep
from uavps.pricing import build_pricing
from uavps.valuations import ParameterError, ValuationModel

EXP1 = ValuationModel.exponential(1.0)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Read back a CSV written by ``cli.write_csv``, skipping comments."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def test_sweep_parser():
    assert cli.parse_sweep("0.05:0.2:0.05") == [0.05, 0.1, 0.15, 0.2]
    assert cli.parse_sweep("1:1:1") == [1.0]
    with pytest.raises(ParameterError):
        cli.parse_sweep("1:0:1")
    with pytest.raises(ParameterError):
        cli.parse_sweep("nope")


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
    # empty sweep is a config error
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


def test_subcommand_flag_prefix_of_config_is_not_a_config_path(capsys):
    # --c after the subcommand is allocate's cost flag, not an abbreviated --config
    assert cli.main(["allocate", "--model", "exp", "--lambda", "1", "--B", "15",
                     "--c", "3", "--alpha", "0.5"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["--config"], ["price", "--config"]])
def test_config_flag_without_a_path_is_a_usage_error(argv, capsys):
    assert cli.main(argv) == 2
    capsys.readouterr()


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
}


def _cases():
    ok, bad = [], []
    for mode, base in (("d", PRICE_D), ("c", PRICE_C)):
        ok += [(f"price-{mode}", base), (f"price-{mode}-T0", _set(base, "--T", "0"))]
        bad += [(f"price-{mode}-{flag}-{v}", _set(base, flag, v))
                for flag, v in (("--k", None), ("--k", "0"), ("--T", None),
                                ("--T", "-1"), ("--T", "nan"))]
    ok += [("price-c-T-frac", _set(PRICE_C, "--T", "2.5")),
           ("price-c-T-inf", _set(PRICE_C, "--T", "inf")),
           ("price-d-alpha-0", _set(PRICE_D, "--alpha", "0")),
           ("price-d-alpha-1", _set(PRICE_D, "--alpha", "1")),
           ("price-d-uniform", _uniform(PRICE_D))]
    bad += [("price-d-T-frac", _set(PRICE_D, "--T", "2.5")),
            ("price-d-model", _set(PRICE_D, "--model", "foo")),
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
                                ("--alpha-sweep", "0:1:inf"))]
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
    ok.append(("simulate-d-uniform", _uniform(SIM_D)))
    bad += [(f"simulate-c-{flag}-{v}", _set(SIM_C, flag, v))
            for flag in ("--lambda", "--arrival-rate") for v in (None, "0", "nan")]
    bad += [(f"simulate-d-{flag}-{v}", _set(SIM_D, flag, v))
            for flag, v in (("--alpha", None), ("--alpha", "1.5"), ("--alpha", "nan"),
                            ("--T", "2.5"))]

    ok += [("ratio", RATIO), ("ratio-T-max-6.5", _set(RATIO, "--T-max", "6.5")),
           ("ratio-uniform", _uniform(RATIO)),
           ("variance", VAR), ("variance-defaults", _set(VAR, "--alpha", None, "--k", None)),
           ("variance-0", _set(VAR, "--variances", "0:0:1"))]
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
    # Exited 1 with numpy's "lam value too large": no Poisson count past ~9.2e18.
    ("simulate-c-T-inf", _set(SIM_C, "--T", "inf")),
    # Exited 0 with a zero plan: floor(inf) cast to int inside the planner.
    ("deploy-B0-inf", _set(DEPLOY, "--B0", "inf")),
]


@pytest.mark.parametrize("argv, code", _cases() + [
    pytest.param(argv, 2, id=f"moved-{name}") for name, argv in MOVED_TO_2])
def test_exit_codes(argv, code, tmp_path, capsys):
    paths = {"missing": str(tmp_path / "absent.json"), "out": str(tmp_path / "out.csv"),
             "bad_json": str(tmp_path / "bad.json")}
    (tmp_path / "bad.json").write_text("{")
    for name, spots in SPOT_FILES.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(spots))
    assert cli.main([a.format(**paths) for a in argv]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:  # one line, no traceback
        assert err.startswith("uavps: config error: ") and err.count("\n") == 1


def test_fractional_T_max_truncates(capsys):
    assert cli.main(_set(RATIO, "--T-max", "6")) == 0
    whole = capsys.readouterr().out
    assert cli.main(_set(RATIO, "--T-max", "6.5")) == 0
    assert capsys.readouterr().out == whole
