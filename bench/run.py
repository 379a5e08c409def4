"""Fixed-seed benchmark of gmtree: one workload per invocation.

    python3 bench/run.py --workload matchup --seed 1 --seconds 25 --trace 0

Workloads (see spec.json for each one's op, reason and tail percentile):
matchup, reduced, region, checks. The load is a closed loop with one client:
the next op is issued when the previous one returns.

With ``--trace 0`` the run reports the end-to-end metrics: set-up time (the
median over ``SETUP_SAMPLES`` fresh processes, each timed from launch to the
point where its first op could start: imports, input generation, writing and
parsing models), ops per second over the timed section (whole passes over
the workload's cases; see workloads.py), median and tail op latency, and the
peak resident memory of the measuring process. With ``--trace 1`` a separate run
wraps the package's callables in spans and reports per-layer metrics instead.

Every op's output is checked after the timed section; the counts go into
``attempted`` and ``failed``. The last line of output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the worker's full report (failures, tail percentile, op count,
environment). The exit status is nonzero, with no result line, when the
package cannot be found or a worker fails.

This script uses only the standard library; the package is imported by the
worker processes it starts (``worker.py``), from ``src/`` of this checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 2  # set-up-only processes; the measuring process adds one more
DEADLINE_S = 170  # all workers of one invocation; a run that takes longer fails


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker_env(threads: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GMTREE_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, env, extra, deadline) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.max_ops:
        cmd += ["--max-ops", str(args.max_ops)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)] + extra, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description="Fixed-seed gmtree benchmark.")
    p.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=0,
                   help="stop each run after this many ops (smoke test)")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gmtree", "__init__.py")):
        sys.stderr.write(f"no gmtree package under {os.path.join(ROOT, 'src')}\n")
        return 2
    threads = nproc()
    env = worker_env(threads)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setups.append(run_worker(args, env, ["--setup-only"], deadline)["setup_s"])
        report = run_worker(args, env, [], deadline)
    except (subprocess.TimeoutExpired, ValueError, IndexError, RuntimeError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1

    metrics = report["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        report["setup_samples_s"] = setups
    units = {m["name"]: m["unit"] for m in spec_metrics(args.trace)}
    missing = sorted(set(units) - set(metrics))
    if missing:
        sys.stderr.write(f"metrics declared in BENCHMARK.json but not measured: {missing}\n")
        return 1
    report["environment"] = {
        "seed": args.seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        **report.pop("versions"),
        "nproc": threads,
        "blas_threads": threads,
        "cpu_model": cpu_model(),
    }
    table = [(name, metrics[name], unit) for name, unit in units.items()]
    if not args.trace:
        # not a BENCHMARK.json metric (it is 0 when all is well); the result
        # line carries the counts it is made of
        table.append(("failed_ratio", report["failed"] / report["attempted"], "ratio"))
    for name, value, unit in table:
        print(f"{args.workload:8s} {name:36s} {value:14.6g} {unit}")
    print(json.dumps(report))
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def spec_metrics(trace: int) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


if __name__ == "__main__":
    sys.exit(main())
