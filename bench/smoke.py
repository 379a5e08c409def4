"""Smoke test of the benchmark harness at its smallest size.

    python3 bench/smoke.py

Runs the first cases of every workload (one of each kind of op), untraced
and traced, and checks that each run's result line carries exactly the
metrics BENCHMARK.json declares for that mode, each with its declared unit;
that no op failed (``failed_ratio`` is 0); that the traced run's spans
nest; and that a directory holding only BENCHMARK.json and the benchmark's
own files makes the harness exit nonzero without a result. Exits 0 when every
check holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# one of each kind of op: the first cases of each workload
SMOKE_OPS = {"matchup": 3, "reduced": 1, "region": 3, "checks": 9}


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "60", "--trace", str(trace),
           "--max-ops", str(SMOKE_OPS[workload])]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def spans_nest(report) -> bool:
    """Every written span lies inside the span that caused it."""
    with open(os.path.join(ROOT, report["trace"]["spans_file"]), encoding="utf-8") as fh:
        spans = {s["id"]: s for s in map(json.loads, fh)}
    return bool(spans) and all(
        spans[s["parent"]]["start"] <= s["start"] <= s["end"] <= spans[s["parent"]]["end"]
        for s in spans.values() if s["parent"] in spans)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for w in (wl["name"] for wl in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, w, trace)
            tag = f"{w} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit status {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result, report = json.loads(lines[-1]), json.loads(lines[-2])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want)) or 'units'}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} ops failed: "
                                f"{report.get('failures')}")
            if trace == 1 and (report["trace"]["nesting_errors"] or not spans_nest(report)):
                problems.append(f"{tag}: spans do not nest: {report['trace']}")
            print(f"ok  {tag}: {result['attempted']} ops", flush=True)

    bare = os.path.join(HERE, "_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(bare, "checks", 0)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("a checkout without the package still produced a result")
        else:
            print("ok  bare directory: exit status", proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
