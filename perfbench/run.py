"""warpconv benchmark: one workload, one run.

    python3 perfbench/run.py --workload {verify_suite,spectrum_sweep,cli_queries}
                             --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the program is taken from `src/`.

`--trace 0` measures end to end.  A closed loop with one client launches
the real CLI (`python -m warpconv.cli ...`) once per op, waits for it, and
repeats the workload's fixed op sequence (a pass) as many times as fill
S seconds at the workload's nominal pass time, and at least twice
(workloads.passes), so the sample count never depends on how busy the
host is.  Before that it makes one untimed warm-up invocation (page cache
only; every op still pays interpreter start and import) and times
`--version` several times for `setup_s`.

`--trace 1` is the traced run: one untraced and one traced in-process pass
(inproc.py, each in a fresh process) give the per-layer metrics of
tracing.py, `trace.overhead_ratio`, and a check that tracing leaves every
op's stdout bytes unchanged; `-X importtime` gives the import split.

Every op output goes through the oracles (oracles.py) outside the timed
region; a wrong output is a failed op.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
repeat the metrics for people.  Per-op details (stdout sha256, times,
max-RSS, problems) and the environment go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import statistics
import sys
import threading
import time

import oracles
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile
COMMUTATOR_SAMPLE = 4     # commutator ops per run checked with sympy
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "PYTHONHASHSEED")

VERSION_ARGV = ["-m", "warpconv.cli", "--version"]
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                    "op_tail_s": "s", "peak_rss_mb": "MB"}


class Child:
    """Exit code, output, wall time and max-RSS of one finished process."""

    def __init__(self, argv: list[str], env: dict):
        out_fd = os.memfd_create("stdout")
        err_fd = os.memfd_create("stderr")
        actions = [(os.POSIX_SPAWN_DUP2, out_fd, 1),
                   (os.POSIX_SPAWN_DUP2, err_fd, 2),
                   (os.POSIX_SPAWN_CLOSE, 0)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                             file_actions=actions)
        guard = threading.Lock()
        reaped = [False]

        def kill():
            with guard:
                if not reaped[0]:
                    os.kill(pid, 9)

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        _, status, usage = os.wait4(pid, 0)
        with guard:
            reaped[0] = True
        self.seconds = time.perf_counter() - t0
        timer.cancel()
        timer.join()
        self.exit = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        self.stdout = _drain(out_fd).decode()
        self.stderr = _drain(err_fd).decode(errors="replace")


def _drain(fd: int) -> bytes:
    os.lseek(fd, 0, os.SEEK_SET)
    with os.fdopen(fd, "rb") as fh:
        return fh.read()


def child_env() -> dict:
    """The user's environment with the checkout's src/ importable.

    PYTHONHASHSEED and the BLAS thread variables are left as the user has
    them, so hash-seed dependence shows up as differing output digests."""
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def cli_argv(op: workloads.Op) -> list[str]:
    return ["-m", "warpconv.cli", *op.argv]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile that still
    has TAIL_BEYOND samples beyond it.  With fewer than 2 * TAIL_BEYOND
    samples no percentile above the median qualifies, and the upper median
    is reported instead."""
    xs = sorted(samples)
    n = len(xs)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return xs[rank - 1], 100.0 * rank / n


def environment() -> dict:
    # Imported here, after the timed work: only this record needs them.
    import numpy
    import scipy
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    for name, module in (("numpy_blas", numpy), ("scipy_blas", scipy)):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            info[name] = f"{blas.get('name')} {blas.get('version')}"
        except (KeyError, TypeError):
            info[name] = None
    return info


class Run:
    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.ops = workloads.build(args.workload, args.seed, args.smoke)
        self.validators = oracles.load_validators(
            os.path.join("src", "warpconv", "schemas"))
        self.records: list[dict] = []

    def judge(self, index: int, op, exit_code: int, stdout: str,
              extra: dict) -> dict:
        rec = {"op": index, "argv": list(op.argv), "exit": exit_code,
               "sha256": sha256(stdout),
               "problems": oracles.check(op, exit_code, stdout,
                                         self.validators), **extra}
        self.records.append(rec)
        return rec

    def check_commutators(self, outputs: dict[int, str]) -> None:
        """sympy oracle on a seeded sample of the commutator ops."""
        picks = sorted(i for i, op in enumerate(self.ops)
                       if op.kind == "commutator")
        rng = random.Random(self.args.seed)
        sample = rng.sample(picks, min(len(picks), 1 if self.args.smoke
                                       else COMMUTATOR_SAMPLE))
        for i in sample:
            op = self.ops[i]
            try:
                out = json.loads(outputs[i])
                problems = oracles.commutator_problems(
                    op.params["a"], op.params["b"], out, self.args.seed + i)
            except (ValueError, KeyError) as exc:
                problems = [f"commutator oracle: {exc}"]
            for rec in self.records:
                if rec["op"] == i:
                    rec["problems"] += problems

    def end_to_end(self) -> dict:
        args = self.args
        # Warm-up, untimed: `--version` imports every module the ops load,
        # so it fills the page cache; each timed op still pays the import.
        Child(VERSION_ARGV, self.env)
        setup = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            c = Child(VERSION_ARGV, self.env)
            if c.exit != 0 or not c.stdout.strip():
                fail(f"warpconv --version failed (exit {c.exit}): "
                     f"{c.stderr.strip()[-400:]}")
            setup.append(c.seconds)

        walls, seconds, rss = [], [], []
        first: dict[int, str] = {}
        for _ in range(1 if args.smoke else
                       workloads.passes(args.workload, args.seconds)):
            t_pass = time.perf_counter()
            children = [Child(cli_argv(op), self.env) for op in self.ops]
            walls.append(time.perf_counter() - t_pass)
            for i, (op, c) in enumerate(zip(self.ops, children)):
                rec = self.judge(i, op, c.exit, c.stdout,
                                 {"pass": len(walls) - 1,
                                  "seconds": c.seconds,
                                  "maxrss_kb": c.maxrss_kb})
                if i not in first:
                    first[i] = c.stdout
                elif c.stdout != first[i]:
                    rec["problems"].append("stdout differs from the first pass")
                seconds.append(c.seconds)
                rss.append(c.maxrss_kb)
        self.check_commutators(first)

        value, pct = tail(seconds)
        self.notes = {"passes": len(walls), "ops": len(seconds),
                      "op_tail_percentile": pct,
                      "op_tail_beyond": sum(s > value for s in seconds),
                      "setup_samples": setup, "pass_walls": walls}
        return {"setup_s": statistics.median(setup),
                "wall_s": statistics.median(walls),
                "op_p50_s": statistics.median(seconds),
                "op_tail_s": value,
                "peak_rss_mb": max(rss) / 1024.0}

    def traced(self) -> dict:
        args = self.args
        cli_s, scipy_s = [], []
        for _ in range(1 if args.smoke else IMPORTTIME_REPEATS):
            c = Child(["-X", "importtime", "-c", "import warpconv.cli"],
                      self.env)
            if c.exit != 0:
                fail(f"importing warpconv.cli failed: {c.stderr.strip()[-400:]}")
            total, scipy_total = import_split(c.stderr)
            cli_s.append(total)
            scipy_s.append(scipy_total)

        spans = os.path.join(results_dir(),
                             f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        reports = []
        for trace in (0, 1):
            argv = [os.path.join(HERE, "inproc.py"), "--workload",
                    args.workload, "--seed", str(args.seed),
                    "--trace", str(trace)]
            if trace:
                argv += ["--spans", spans]
            if args.smoke:
                argv.append("--smoke")
            c = Child(argv, self.env)
            if c.exit != 0:
                fail(f"in-process pass failed: {c.stderr.strip()[-400:]}")
            reports.append(json.loads(c.stdout))
        plain, traced = reports
        outputs = {}
        for pass_, report in enumerate(reports):
            for i, (op, res) in enumerate(zip(self.ops, report["ops"])):
                rec = self.judge(i, op, res["exit"], res["stdout"],
                                 {"pass": pass_, "traced": bool(pass_),
                                  "seconds": res["seconds"]})
                outputs.setdefault(i, res["stdout"])
                if pass_ and res["stdout"] != plain["ops"][i]["stdout"]:
                    rec["problems"].append("stdout changed under tracing")
        self.check_commutators(outputs)
        self.notes = {"spans": traced["spans"], "spans_file": spans,
                      "untraced_wall_s": plain["wall_s"],
                      "traced_wall_s": traced["wall_s"]}
        metrics = dict(traced["metrics"])
        metrics["cli.import_s"] = statistics.median(cli_s)
        metrics["cli.import_scipy_s"] = statistics.median(scipy_s)
        metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
        return {name: metrics[name] for name in tracing.metric_names()
                if name in metrics}


def import_split(stderr: str) -> tuple[float, float]:
    """(warpconv.cli cumulative, scipy cumulative) seconds from -X importtime.

    scipy is the sum over scipy modules that no other scipy module
    imported, so nested imports are not counted twice."""
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        if not parts[1].strip().isdigit():
            continue                                  # the header line
        name = parts[2][1:]
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(parts[1]) / 1e6))
    total = scipy_total = 0.0
    ancestors: list[tuple[int, str]] = []
    # importtime prints each module after the modules it imported; walking
    # backwards meets every parent before its children.
    for depth, name, seconds in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name == "warpconv.cli":
            total = seconds
        if _is_scipy(name) and not any(_is_scipy(a) for _, a in ancestors):
            scipy_total += seconds
        ancestors.append((depth, name))
    return total, scipy_total


def _is_scipy(module: str) -> bool:
    return module == "scipy" or module.startswith("scipy.")


def results_dir() -> str:
    path = os.path.join(HERE, "results")
    os.makedirs(path, exist_ok=True)
    return path


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main() -> int:
    ap = argparse.ArgumentParser(description="warpconv benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="two ops per pass, one pass, fewer repeats; exits "
                         "1 unless every metric of BENCHMARK.json is emitted")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "warpconv", "cli.py")):
        fail("no src/warpconv/cli.py here; run from the root of a checkout")
    run = Run(args)
    if args.trace:
        metrics = run.traced()
        units = {name: tracing.metric_unit(name) for name in metrics}
    else:
        metrics = run.end_to_end()
        units = END_TO_END_UNITS
    attempted = len(run.records)
    failed = sum(1 for rec in run.records if rec["problems"])

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "environment": environment(),
              "fail_ratio": failed / attempted, **run.notes,
              "result": result, "ops": run.records}
    path = os.path.join(results_dir(), f"{args.workload}-seed{args.seed}"
                                       f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"(closed loop, 1 client)")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':40s} {failed}/{attempted} = "
          f"{failed / attempted:.6g} ratio")
    if not args.trace:
        print(f"  op_tail_s is p{run.notes['op_tail_percentile']:.0f} of "
              f"{run.notes['ops']} ops in {run.notes['passes']} passes")
    for rec in run.records:
        if rec["problems"]:
            print(f"  FAILED op {rec['op']} ({' '.join(rec['argv'])[:80]}): "
                  f"{'; '.join(rec['problems'])[:300]}")
    print(f"  details: {os.path.relpath(path)}")

    if args.smoke:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        wanted = [m["name"] for m in
                  spec["per_layer" if args.trace else "end_to_end"]]
        missing = [n for n in wanted if n not in result["metrics"]]
        if missing:
            print(f"perfbench: smoke run is missing metrics {missing}",
                  file=sys.stderr)
            return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
