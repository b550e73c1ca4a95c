"""The benchmark's in-process passes stay correct with and without tracing.

perfbench/inproc.py runs each op of a workload through ``cli.main`` in one
process; with ``--trace 1`` perfbench/tracing.py first wraps every public
function and method of the package, reads the eigensolver's matrix and
residuals and puts each ``DeformationSpec`` in a set.  The benchmark fails
an op whose traced stdout differs from its plain one or that fails an
oracle (perfbench/oracles.py), so both are checked here, op by op, on a
full pass of each workload: the seed-4 pass of ``spectrum_sweep`` (10
spectra, 3 holonomies and the refused ``lense_thirring``) and a pass of
``cli_queries``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import oracles  # noqa: E402  (perfbench/ is put on the path above)
import workloads  # noqa: E402

PASSES = [("spectrum_sweep", 4, False), ("cli_queries", 1, False)]


def _inproc(workload, seed, smoke, trace):
    argv = [sys.executable, os.path.join(PERFBENCH, "inproc.py"),
            "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)["ops"]


@pytest.mark.parametrize("workload, seed, smoke", PASSES)
def test_traced_pass_matches_plain_pass_and_oracles(workload, seed, smoke):
    ops = workloads.build(workload, seed, smoke)
    plain = _inproc(workload, seed, smoke, 0)
    traced = _inproc(workload, seed, smoke, 1)
    validators = oracles.load_validators(
        os.path.join(ROOT, "src", "warpconv", "schemas"))
    assert len(plain) == len(traced) == len(ops)
    for op, p, t in zip(ops, plain, traced):
        assert t["stdout"] == p["stdout"], op.argv
        for res in (p, t):
            assert oracles.check(op, res["exit"], res["stdout"],
                                 validators) == [], op.argv
