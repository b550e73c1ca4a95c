"""Run one pass of a workload in-process through `warpconv.cli.main(argv)`.

    python3 perfbench/inproc.py --workload NAME --seed N [--trace 0|1]
                                [--smoke] [--spans PATH]

Run from the root of a checkout.  The package is imported before the clock
starts.  With `--trace 1` the package is instrumented first (see
tracing.py), the spans are written to PATH and the per-layer metrics are
reported.  Prints one JSON object: the pass wall time and every op's exit
code and stdout.  run.py starts this as a fresh process for each of the
untraced and traced passes, so neither sees caches the other filled.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
import traceback

import workloads


def _run_op(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error exits 1 from the real CLI
            traceback.print_exc()
            code = 1
    return code, out.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", help="where --trace 1 writes the spans")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import warpconv.cli as cli
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()

    ops = workloads.build(args.workload, args.seed, args.smoke)
    results = []
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        code, stdout = _run_op(cli, list(op.argv))
        results.append({"exit": code, "stdout": stdout,
                        "seconds": time.perf_counter() - t0})
    report = {"wall_s": time.perf_counter() - t_pass, "ops": results}
    if tracer is not None:
        report["metrics"] = tracer.metrics()
        report["spans"] = len(tracer.start)
        if args.spans:
            tracer.write(args.spans)
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
