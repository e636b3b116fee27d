"""Tests of the benchmark itself (not of uavps).

Run from the root of a checkout:

    python3 perfbench/selftest.py

They check that the op stream is a function of the seed, that the tracing
shims are transparent, and that a failing op is counted without stopping
the run.
"""

import shutil
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402  (pins threads before numpy loads)
import shims  # noqa: E402
import workloads  # noqa: E402


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.lib = workloads.load_library()
        cls.tmp = tempfile.mkdtemp(dir=HERE.parent)
        cls.ctx = {"tmp": cls.tmp}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def test_same_seed_same_ops_other_seed_other_ops(self):
        for workload in workloads.WORKLOADS:
            first = workloads.generate_batch(workload, 11)
            self.assertEqual(first, workloads.generate_batch(workload, 11), workload)
            self.assertNotEqual(first, workloads.generate_batch(workload, 12), workload)
            # rounds of one seed differ too
            self.assertNotEqual(workloads.generate_round(workload, 11, 0),
                                workloads.generate_round(workload, 11, 1), workload)

    def test_only_cost_neutral_fields_depend_on_the_seed(self):
        # fields the seed may draw, per op type; hotspot lists may be reordered
        seeded = {"eval_flat": {"model", "alpha", "price"}, "eval_perturbed": {"noise_seed"},
                  "alloc_continuous": {"lam"}, "cli_allocate": {"model", "sweep"},
                  "cli_ratio": {"model", "alpha"}, "deploy_continuous": {"lam", "hotspots"},
                  "sim_discrete": {"alpha", "k", "seed"}, "sim_continuous": {"seed"},
                  "sim_regret": {"alpha", "k", "seed", "price"}, "rk4": {"rate", "k"}}

        def fixed_view(op):
            view = {key: value for key, value in op.items()
                    if key not in seeded.get(op["op"], ())}
            if "hotspots" in view:
                view["hotspots"] = sorted(map(repr, view["hotspots"]))
            return repr(sorted(view.items()))

        for workload in workloads.WORKLOADS:
            views = {repr(sorted(map(fixed_view, workloads.generate_batch(workload, s))))
                     for s in range(5)}
            self.assertEqual(len(views), 1, workload)

    def test_shims_are_transparent(self):
        ops = [op for w in workloads.WORKLOADS for op in workloads.WARMUP[w]]
        ops += workloads.generate_round("single_uav", 3, 0)
        plain = [workloads.run_op(self.lib, op, self.ctx) for op in ops]
        tracer = shims.Tracer(self.lib)
        originals = {name: getattr(self.lib.pricing, name) for name in shims.TABLES}
        tracer.install()
        try:
            self.assertIsNot(self.lib.pricing.build_pricing, originals["build_pricing"])
            self.assertIs(self.lib.allocation.build_pricing, self.lib.pricing.build_pricing)
            traced = [workloads.run_op(self.lib, op, self.ctx) for op in ops]
        finally:
            tracer.remove()
        for name, fn in originals.items():
            self.assertIs(getattr(self.lib.pricing, name), fn)
        for op, a, b in zip(ops, plain, traced):
            self.assertEqual((a.failure, a.digest, repr(a.approx)),
                             (b.failure, b.digest, repr(b.approx)), op)
        metrics = tracer.metrics()
        self.assertGreater(metrics["pricing.cells"], 0)
        self.assertGreater(metrics["valuations.calls"], 0)
        self.assertGreater(metrics["cli.csv_rows"], 0)

    def test_work_counts_repeat(self):
        ops = workloads.WARMUP["fleet"] + workloads.WARMUP["verify"]
        counts = []
        for _ in range(2):
            tracer = shims.Tracer(self.lib)
            tracer.install()
            try:
                for op in ops:
                    workloads.run_op(self.lib, op, self.ctx)
            finally:
                tracer.remove()
            counts.append(dict(tracer.counts))
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["deployment.profiles"], 0)
        self.assertGreater(counts[0]["pricing.ode_steps"], 0)

    def test_failing_op_is_counted_and_run_goes_on(self):
        good = workloads.WARMUP["single_uav"][0]
        bad = dict(good, alpha=1.5)  # outside [0, 1]: build_pricing raises
        records = [workloads.run_op(self.lib, op, self.ctx) for op in (good, bad, good)]
        self.assertEqual([r.failure for r in records], [None, "ValueError", None])
        self.assertGreater(records[1].latency_s, 0.0)
        lines, all_known = run._failure_lines(records)
        self.assertTrue(lines[0].startswith("fail_rate 0.333333 (1 of 3 ops)"), lines)
        self.assertFalse(all_known)  # a ValueError of this kind is no known defect

    def test_failed_check_is_counted(self):
        # a search that disagrees with allocate_continuous fails the op's check
        fake = SimpleNamespace(**vars(self.lib))
        fake.allocation = SimpleNamespace(
            allocate_continuous=self.lib.allocation.allocate_continuous,
            capacity_argmax=lambda *args: -1)
        op = {"op": "alloc_continuous", "lam": 1.0, "budget": 10.0, "cost": 1.0,
              "rates": [2.0]}
        record = workloads.run_op(fake, op, self.ctx)
        self.assertEqual(record.failure, "kstar_matches_argmax")
        self.assertEqual(workloads.known_defect(record), "kstar_argmax_mismatch")

    def test_reference_comparison(self):
        op = workloads.WARMUP["single_uav"][0]
        rec = workloads.run_op(self.lib, op, self.ctx)
        entry = {"op": op, "failure": None, "digest": rec.digest, "approx": rec.approx}
        self.assertIsNone(workloads.compare_reference(entry, rec))
        self.assertIsNotNone(workloads.compare_reference(dict(entry, digest="0"), rec))
        failed = dict(entry, failure="ValueError")
        self.assertIsNone(workloads.compare_reference(failed, rec))


if __name__ == "__main__":
    unittest.main()
