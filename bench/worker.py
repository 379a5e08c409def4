"""One benchmark process: set up one workload, run it, check it, report.

``run.py`` starts this script once per set-up sample and once for the
measured run; see there. The script imports gmtree from ``src/`` of the
checkout it sits in and refuses any other copy. It prints one JSON object as
its last line of output, with the metrics as plain numbers by name.

    python3 bench/worker.py --workload matchup --seed 1 --seconds 25 \\
        --trace 0 --t0 <time.monotonic() at process launch> [--setup-only]
        [--max-ops N]

A traced run also writes its spans, as JSON lines, to
``bench/_work/spans-<workload>-<seed>.jsonl``.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--max-ops", type=int, default=0, help="stop after this many ops (0: no limit)")
    return p.parse_args(argv)


def import_package() -> dict:
    """Import gmtree from this checkout; return the numpy and scipy versions."""
    sys.path.insert(0, SRC)
    import gmtree
    import numpy
    import scipy

    where = os.path.dirname(os.path.abspath(gmtree.__file__))
    if where != os.path.join(SRC, "gmtree"):
        raise SystemExit(f"gmtree imported from {where}, not from {SRC}")
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def load_refs(workload: str, seed: int) -> list:
    path = os.path.join(HERE, "refs", f"{workload}.json")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(str(seed), [])


def run_loop(wl, seconds, max_ops, tracer=None):
    """Closed loop: op i+1 is issued only after op i returns.

    Op i runs case ``i % wl.CASES``. The loop runs for ``seconds`` and then on
    to the end of the current pass over the cases (see workloads.py), so every
    case is timed equally often.
    """
    records = []  # (i, seconds, raw output or exception)
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        if tracer is not None:
            tracer.begin(i)
        t = time.perf_counter()
        try:
            raw = wl.run(i % wl.CASES)
        except Exception as exc:  # a failed op is counted and never retried
            raw = exc
        dt = time.perf_counter() - t
        if tracer is not None:
            dt = tracer.end()
        records.append((i, dt, raw))
        i += 1
        now = time.perf_counter()
        if (now >= deadline and i % wl.CASES == 0) or (max_ops and i >= max_ops):
            return records, now - start


def check_all(wl, records, refs):
    """Output checks, outside the timed section. Returns (failures, notes)."""
    failed, notes, compared = 0, [], 0
    for i, _, raw in records:
        c = i % wl.CASES
        if isinstance(raw, Exception):
            problems = [f"raised {type(raw).__name__}: {raw}"]
        else:
            ref = refs[c] if c < len(refs) else None
            compared += ref is not None
            try:
                problems = wl.check(c, wl.summarize(c, raw), ref)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            if len(notes) < 20:
                notes.append({"op": i, "case": c, **wl.describe(c), "problems": problems})
    return failed, notes, compared


def percentile(sorted_vals, q):
    """Linear-interpolation percentile (q in [0, 100]) of sorted values."""
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def main(argv=None):
    args = parse_args(argv)
    versions = import_package()
    import tracer as tracing
    from workloads import WORKLOADS

    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["workloads"][args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tr = tracing.Tracer() if args.trace else None
    try:
        if tr is not None:
            tr.install()
            tr.begin("setup")
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if tr is not None:
            tr.end()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        records, elapsed = run_loop(wl, args.seconds, args.max_ops, tr)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        overhead = None
        if tr is not None:
            tr.uninstall()
            overhead = calibrate_overhead(wl, records)
    finally:
        if tr is not None:
            tr.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    refs = load_refs(args.workload, args.seed)
    failed, notes, compared = check_all(wl, records, refs)
    lat = sorted(dt for _, dt, _ in records)
    n = len(lat)
    tail_q = spec["tail_percentile"]
    result = {
        "workload": args.workload,
        "versions": versions,
        "attempted": n,
        "failed": failed,
        "failures": notes,
        "ops_compared_to_reference": compared,
        "elapsed_s": elapsed,
        "ops_per_elapsed_s": n / elapsed,
        "cases": wl.CASES,
        "passes": n / wl.CASES,
        "tail_percentile": tail_q,
        "tail_ops_beyond": sum(1 for v in lat if v > percentile(lat, tail_q)),
        "op_ms": [round(1e3 * dt, 3) for _, dt, _ in records],
        "metrics": {},
    }
    if tr is None:
        result["metrics"] = {
            "setup_s": setup_s,
            "ops_per_s": n / elapsed,
            "op_ms_p50": 1e3 * percentile(lat, 50),
            "op_ms_tail": 1e3 * percentile(lat, tail_q),
            "peak_rss_mib": peak_rss_mib,
        }
    else:
        result["metrics"] = tr.metrics(overhead)
        result["trace"] = {
            "absent": tr.absent,
            "nesting_errors": tr.nesting_errors,
            "spans_kept": len(tr.spans),
            "spans_dropped": tr.spans_dropped,
        }
        spans = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl")
        with open(spans, "w", encoding="utf-8") as fh:
            for span in tr.spans:
                fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "op"), span))))
                fh.write("\n")
        result["trace"]["spans_file"] = os.path.relpath(spans, ROOT)
    print(json.dumps(result))
    return 0


def calibrate_overhead(wl, records):
    """Traced over untraced wall time, minus 1, on the same ops.

    Ops 1, 2, ... (op 0 also paid first-call costs) are run again untraced
    until they cover a fifth of the traced time; a one-op run reuses op 0.
    """
    traced = untraced = 0.0
    total = sum(dt for _, dt, _ in records)
    picks = records[1:] or records
    for i, dt, _ in picks:
        t = time.perf_counter()
        try:
            wl.run(i % wl.CASES)
        except Exception:
            pass  # counted as failed in the traced pass already
        untraced += time.perf_counter() - t
        traced += dt
        if traced >= 0.2 * total:
            break
    return traced / untraced - 1.0 if untraced > 0 else 0.0


if __name__ == "__main__":
    sys.exit(main())
