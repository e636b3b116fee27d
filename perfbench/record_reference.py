"""Record the reference outputs that every benchmark run replays.

Run from the root of a checkout, on the commit whose outputs become the
reference:

    python3 perfbench/record_reference.py

It writes ``perfbench/reference.json``: for each workload, the warm-up ops
plus round 0 of seed ``REFERENCE_SEED``, each with its failure kind (or
null), the digest of its exact outputs and its continuous outputs.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402  (pins threads before numpy loads)
import workloads  # noqa: E402


def main() -> int:
    lib = workloads.load_library()
    out = {}
    tmp = tempfile.mkdtemp(dir=HERE.parent)
    try:
        for workload in workloads.WORKLOADS:
            entries = []
            for op in workloads.reference_ops(workload):
                rec = workloads.run_op(lib, op, {"tmp": tmp})
                entries.append({"op": op, "failure": rec.failure,
                                "digest": rec.digest, "approx": rec.approx})
                print(workload, op["op"], rec.failure or "ok", f"{rec.latency_s:.3f}s")
            out[workload] = entries
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(HERE / "reference.json", "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
