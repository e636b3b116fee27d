"""Command-line surface: exit codes, CSV round trips, determinism."""

import csv
import json

import pytest

from uavps import cli
from uavps.allocation import allocate_discrete
from uavps.benchmark import variance_sweep
from uavps.pricing import build_pricing
from uavps.valuations import ValuationModel

EXP1 = ValuationModel.exponential(1.0)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Read back a CSV written by ``cli.write_csv``, skipping comments."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def test_sweep_parser():
    assert cli.parse_sweep("0.05:0.2:0.05") == [0.05, 0.1, 0.15, 0.2]
    assert cli.parse_sweep("1:1:1") == [1.0]
    with pytest.raises(cli.ConfigError):
        cli.parse_sweep("1:0:1")
    with pytest.raises(cli.ConfigError):
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
