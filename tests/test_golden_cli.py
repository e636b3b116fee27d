"""Golden digests of the command line: the sha256 of each command's stdout and
``--out`` bytes, for every subcommand and mode and one ``--config`` run.

The digests pin this host's numpy and libm as well as the package, so a
mismatch names the platform and numpy version. A change that means to alter
the bytes regenerates them with ``PYTHONPATH=src python tests/test_golden_cli.py``
and says which bits changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np
import pytest

from uavps import cli

FILES = {"spots.json": [{"alpha": 0.8, "distance": 5.0}, {"alpha": 0.5, "distance": 9.0}],
         "run.json": {"model": "uniform", "a": 5, "b": 15, "alpha": 0.6, "k": 2, "T": 8,
                      "seed": None}}

EXP = ["--model", "exp", "--lambda", "1.3"]
UNIFORM = ["--model", "uniform", "--a", "5", "--b", "15"]
RUNS = {
    "price-d": ["price", *EXP, "--alpha", "0.7", "--k", "3", "--T", "12"],
    "price-d-uniform": ["price", *UNIFORM, "--alpha", "0.4", "--k", "2", "--T", "7"],
    "price-d-large": ["price", "--model", "exp", "--lambda", "1", "--alpha", "0.5",
                      "--k", "19", "--T", "420"],
    "price-c": ["price", "--mode", "continuous", "--lambda", "1", "--arrival-rate", "2.5",
                "--k", "3", "--T", "4"],
    "allocate-d": ["allocate", *EXP, "--alpha", "0.5", "--B", "15", "--c", "3"],
    "allocate-d-sweep": ["allocate", *UNIFORM, "--alpha-sweep", "0.1:0.9:0.2",
                         "--B", "15", "--c", "3"],
    "allocate-c": ["allocate", "--mode", "continuous", "--lambda", "1",
                   "--arrival-rate", "1.5", "--B", "15.5", "--c", "3"],
    "allocate-c-sweep": ["allocate", "--mode", "continuous", "--lambda", "1",
                         "--alpha-sweep", "0.5:2:0.5", "--B", "15", "--c", "3"],
    "deploy": ["deploy", *EXP, "--hotspots", "spots.json", "--N", "3", "--B0", "20",
               "--c", "2"],
    "deploy-forking": ["deploy", "--check-forking", "--lambda", "1", "--hotspots",
                       "spots.json", "--N", "2", "--B0", "20", "--c", "2"],
    "simulate-d": ["simulate", *EXP, "--alpha", "0.5", "--k", "2", "--T", "5",
                   "--trials", "2000", "--seed", "7"],
    "simulate-c": ["simulate", "--mode", "continuous", "--lambda", "1",
                   "--arrival-rate", "1", "--k", "2", "--T", "5", "--trials", "2000"],
    "benchmark-ratio": ["benchmark", "--ratio", *EXP, "--alpha", "0.5", "--k-list", "3,1",
                        "--T-max", "12", "--T-step", "3"],
    "benchmark-variance": ["benchmark", "--variance", "--mean", "10", "--variances",
                           "5:15:5", "--T", "3"],
    "config-price": ["--config", "run.json", "price", "--T", "9"],
}

# (stdout, --out bytes); None where the command writes no file.
GOLDEN = {
    "price-d": ("958cbbfb6954faec75a1856c7788eb56ec0187625b7582f864826b1e46171dd0",
                "377ea683e64fc08e2f3f4a92b6c58241839cb88cddfb7e8805af7805bf247371"),
    "price-d-uniform": ("26f807b48667940a529cb48e932501179bc854da5710d35c95eebed028437958",
                        "1292919885fcd5284497143cf3358248e34a8511d762c5bef131e14267d50315"),
    "price-d-large": ("9f539a09c56be5d80bf586b6d71e9a3ca498d07b24dc8463e008a9afa89347c7",
                      "ce94cceb5be30bb1e1db05dae5c2055b222a0a542c418903fee8d071ab39907b"),
    "price-c": ("974c24fe68c14f4eaf5acb36e5f2680e8d670bf84e976b186b7b7dcac0758e0c",
                "dcc6112795671c55a32172a74239fc282c6762a7bb4b77dd9256e2113872794d"),
    "allocate-d": ("570c262689a11dccc3656c329094908e9fd140f58a8b05cd2b720782d3537e96",
                   "9df9bae2dc1f437d19b6ba4cfdb2219a29917c33a2a23c8f5427ec07163efb49"),
    "allocate-d-sweep": ("9f78c1e6a17775be75a49013cabcbf81cc89c853c224d1176be16a4e07761e1b",
                         "04dbf9f0ab4c5a8df2356f8c3480f0e88185c957958cb7a8c15a6e8db9c1a73b"),
    "allocate-c": ("3f495dcf16ca0fb8a9fbcb462ede9ec1f48e331371ecf2e5e9a0c24009229752",
                   "c95d8f01aa1ff043654075f9b86795c8d5410d26d3e0acc6f9887eb5a1e3294d"),
    "allocate-c-sweep": ("fdc83f596a9d28a53c00adf66a1e4d045b3ad90083e0b54e7ed8604b73d72e70",
                         "b8e6c8f03f897a89d16fb2ac5e46ef77870ef4033ef60cc3a45b8522ad2d07db"),
    "deploy": ("d94926e9abeae53cd0dbe84edc6faa5fb0d35194a6c02f72f634a5b5df4929f4",
               "680d7fa5858a80c75c66a78af0d55e391abead5d13e7f51352e2defdb93ea40e"),
    "deploy-forking": ("e2cbdecf533d3aec35b167cc0b4050d52abc9ff0d865d330560da419c15a389a",
                       None),
    "simulate-d": ("7501f2350e9d1c813aee9f5497a2fbd5500936a3787f648b00e383bfe6674ba5",
                   "6f40690223f74026eb6ee76c899989bbe79cb62718ce7de5c77d59b7dae13225"),
    "simulate-c": ("90b6a8355a4a9656fdfe601db69b017a595a3e840b6fc7b621d685af868d6f42",
                   "4ce81657de7a8598f38ff5c307ef7791d4429fbe122253132784beaab77cc2e0"),
    "benchmark-ratio": ("2e229033636cc75e0821b938e621f1ad52667fe0e7ab6dbe3df178c1c9fd2556",
                        "72c58e6bf10a62fcb97b2f9a6f84f1819d4af68050da38a3f1d301e29b2a10ad"),
    "benchmark-variance": ("61332b05b92fbe0a39cf33680273bf49e03c041b8d0d398f3d0d4dd5650ec78d",
                           "6ebdd248ee913f5e8763aa01a0c9d0baeeb59d0355a03ad879152625bc69939a"),
    "config-price": ("e05244892b6facf5ebe7ae3fa7415b7f3ba1caa61eba7679786f85c7e5f34b29",
                     "b99523affb3c0835e7cb91b5edf668f33141c04a8b712e39e144818a3b5a1738"),
}


def run(name: str, workdir: str) -> tuple[str, str | None]:
    """The digests of one command, run in ``workdir`` with relative paths, as
    the CSV provenance lines name the hotspot file by the path given."""
    out = os.path.join(workdir, "out.csv")
    with contextlib.suppress(FileNotFoundError):
        os.remove(out)
    for file, payload in FILES.items():
        with open(os.path.join(workdir, file), "w") as fh:
            json.dump(payload, fh)
    stdout, here = io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(RUNS[name] + ["--out", "out.csv"])
    finally:
        os.chdir(here)
    assert code == 0, name
    written = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            written = hashlib.sha256(fh.read()).hexdigest()
    return hashlib.sha256(stdout.getvalue().encode()).hexdigest(), written


@pytest.mark.parametrize("name", RUNS)
def test_cli_bytes_match_the_golden_digests(name, tmp_path):
    assert run(name, str(tmp_path)) == GOLDEN[name], (
        f"{name}: stdout or --out bytes changed on {platform.platform()}, "
        f"numpy {np.__version__}, Python {sys.version.split()[0]}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        for name in RUNS:
            stdout, written = run(name, workdir)
            written = "None" if written is None else f'"{written}"'
            print(f'    "{name}": ("{stdout}",\n{" " * (len(name) + 9)}{written}),')
