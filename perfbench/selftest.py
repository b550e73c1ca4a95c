"""Tests of the benchmark itself.

    python3 perfbench/selftest.py            # from the root of a checkout

The oracle tests feed real and deliberately corrupted CLI outputs to the
oracles; the smoke tests run every workload in both modes with two ops
and check that every metric named in BENCHMARK.json is emitted.  The file
is not named test_*.py so that the repository's pytest run does not
collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def cli_output(argv: list[str]) -> tuple[int, str]:
    import warpconv.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = warpconv.cli.main(argv)
    return code, out.getvalue()


def first_op(workload: str, kind: str, preset: str | None = None,
             points: int | None = None) -> Op:
    for seed in range(50):
        for op in workloads.build(workload, seed):
            if op.kind != kind:
                continue
            if preset and op.params.get("preset") != preset:
                continue
            if points and op.params.get("points") != points:
                continue
            return op
    raise LookupError(f"no {kind} op for {preset}")


class OracleTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.validators = oracles.load_validators(
            os.path.join(ROOT, "src", "warpconv", "schemas"))

    def judge(self, op: Op, code: int, stdout: str) -> list[str]:
        return oracles.check(op, code, stdout, self.validators)

    def assert_caught(self, op: Op, out: dict, what: str):
        problems = self.judge(op, 0, json.dumps(out))
        self.assertTrue(problems, f"corruption not caught: {what}")

    def test_spectrum_corruptions_fail(self):
        for preset in ("landau", "free", "gravito_constant"):
            op = first_op("spectrum_sweep", "spectrum", preset, 32)
            code, stdout = cli_output(list(op.argv))
            self.assertEqual(self.judge(op, code, stdout), [], preset)

            shifted = json.loads(stdout)
            shifted["eigenvalues"][0] *= 1.05
            self.assert_caught(op, shifted, f"{preset}: ground level +5%")

            if preset == "free":
                shifted = json.loads(stdout)
                shifted["eigenvalues"][-1] *= 1.2
                self.assert_caught(op, shifted, "free: top level +20%")

            loose = json.loads(stdout)
            loose["residuals"][3] = 1e-6
            self.assert_caught(op, loose, f"{preset}: residual 1e-6")

            short = json.loads(stdout)
            short["eigenvalues"].pop()
            self.assert_caught(op, short, f"{preset}: one level missing")

            self.assertTrue(self.judge(op, 4, ""), "unexpected exit code")

    def test_verify_all_pass_false_fails(self):
        op = Op(("verify", "--seed", "1"), "verify")
        out = {"command": "verify", "seed": 1, "negative_control": False,
               "all_pass": True, "checks": [{"name": "additivity",
                                             "passed": True}]}
        self.assertEqual(self.judge(op, 0, json.dumps(out)), [])
        out["all_pass"] = False
        self.assert_caught(op, out, "all_pass false")
        out["all_pass"] = True
        del out["checks"][0]["passed"]
        self.assert_caught(op, out, "schema: check without 'passed'")
        selected = Op(("verify", "--select", "moyal"), "verify",
                      params={"select": "moyal"})
        out = {"command": "verify", "seed": 1, "negative_control": False,
               "all_pass": True,
               "checks": [{"name": "additivity", "passed": True}]}
        self.assertTrue(self.judge(selected, 0, json.dumps(out)),
                        "--select reported another section")

    def test_holonomy_shift_fails(self):
        for preset in ("landau", "aharonov_bohm", "gravito_constant"):
            op = first_op("spectrum_sweep", "holonomy", preset)
            code, stdout = cli_output(list(op.argv))
            self.assertEqual(self.judge(op, code, stdout), [], preset)
            out = json.loads(stdout)
            out["value"] += 1e-6
            self.assert_caught(op, out, f"{preset} holonomy + 1e-6")

    def test_refused_op(self):
        op = Op(("spectrum", "--model", "lense_thirring"), "refused",
                expect_exit=3)
        self.assertEqual(self.judge(op, 3, ""), [])
        self.assertTrue(self.judge(op, 0, "{}"))
        self.assertTrue(self.judge(op, 3, "{}\n"))

    def test_commutator_wrong_coefficient_fails(self):
        checked = 0
        for op in workloads.build("cli_queries", 3):
            if op.kind != "commutator":
                continue
            code, stdout = cli_output(list(op.argv))
            self.assertEqual(self.judge(op, code, stdout), [])
            out = json.loads(stdout)
            self.assertEqual(oracles.commutator_problems(
                op.params["a"], op.params["b"], out, 0), [])
            if not out["expression"]["terms"]:
                continue
            out["expression"]["terms"][0]["coeff"]["im"] = "7/3"
            self.assertTrue(oracles.commutator_problems(
                op.params["a"], op.params["b"], out, 0),
                "wrong commutator coefficient not caught")
            checked += 1
            if checked == 2:
                break
        self.assertEqual(checked, 2)

    def test_commutator_sign_convention(self):
        # [X1, P1] = i with P = -i d/dx; the opposite sign must fail.
        a = [(1, 0, [("X", 1, 1)])]
        b = [(1, 0, [("P", 1, 1)])]
        term = {"coeff": {"re": "0", "im": "1"}, "constants": {},
                "x": [0, 0, 0], "r": "0", "rho": "0", "P": [0, 0, 0]}
        out = {"expression": {"terms": [term]}}
        self.assertEqual(oracles.commutator_problems(a, b, out, 0), [])
        term["coeff"]["im"] = "-1"
        self.assertTrue(oracles.commutator_problems(a, b, out, 0))


class HelperTests(unittest.TestCase):
    def test_tail_percentile(self):
        xs = [float(i) for i in range(1, 41)]
        value, pct = run.tail(xs)
        self.assertEqual(value, 30.0)            # 10 samples beyond it
        self.assertEqual(pct, 75.0)
        value, pct = run.tail(xs[:8])
        self.assertEqual(value, 5.0)             # upper median
        self.assertGreaterEqual(value, 4.5)

    def test_import_split(self):
        stderr = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     scipy._lib",
            "import time:       200 |        300 |   scipy",
            "import time:        50 |         50 |     scipy.linalg._misc",
            "import time:       150 |        200 |   scipy.linalg",
            "import time:        10 |         10 |   numpy",
            "import time:        90 |        600 | warpconv.cli",
        ])
        total, scipy_total = run.import_split(stderr)
        self.assertAlmostEqual(total, 600e-6)
        self.assertAlmostEqual(scipy_total, 500e-6)

    def test_pass_counts(self):
        self.assertEqual([workloads.passes(w, 30) for w in workloads.WORKLOADS],
                         [4, 2, 3])
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.passes(name, 1), 2)

    def test_workloads_are_seeded(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.build(name, 5), workloads.build(name, 5))
            self.assertNotEqual(workloads.build(name, 5),
                                workloads.build(name, 6))


class SmokeTests(unittest.TestCase):
    def bench(self, *args, cwd=ROOT):
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), *args],
            cwd=cwd, capture_output=True, text=True, timeout=300)

    def test_every_metric_emitted(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for workload in workloads.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    r = self.bench("--workload", workload, "--seed", "3",
                                   "--seconds", "1", "--trace", str(trace),
                                   "--smoke")
                    self.assertEqual(r.returncode, 0, r.stderr[-2000:])
                    result = json.loads(r.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct",
                                                      "failed", "metrics"])
                    self.assertEqual(result["failed"], 0, r.stdout)
                    self.assertEqual(sorted(result["metrics"]),
                                     sorted(m["name"] for m in spec[key]))
                    for m in spec[key]:
                        self.assertEqual(result["metrics"][m["name"]]["unit"],
                                         m["unit"])

    def test_fails_without_the_program(self):
        bare = os.path.join(HERE, "results", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("results",
                                                          "__pycache__"))
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "cli_queries", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"metrics"', r.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
