"""Regenerate the stored reference outputs in ``refs/``.

    python3 bench/make_refs.py --seeds 0-10 [--workloads matchup,region]

For every seed and workload this runs each case once, untimed, and stores its
summary, keyed by seed and case index. A timed run compares every op of a
seed that has stored references at the tolerance the tests use for that
quantity. An op whose output fails its own check is reported and stored as
null: a wrong value is no reference.

Regenerate only when the op definitions in ``workloads.py`` change, and from
a commit whose outputs are trusted.
"""

import argparse
import json
import os
import shutil
import sys

import worker

def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seeds_arg, required=True)
    p.add_argument("--workloads", default="matchup,reduced,region,checks")
    args = p.parse_args(argv)
    worker.import_package()
    from workloads import WORKLOADS

    os.makedirs(os.path.join(worker.HERE, "refs"), exist_ok=True)
    for name in args.workloads.split(","):
        path = os.path.join(worker.HERE, "refs", f"{name}.json")
        refs = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                refs = json.load(fh)
        for seed in args.seeds:
            workdir = os.path.join(worker.WORK, f"refs-{name}-{os.getpid()}")
            os.makedirs(workdir, exist_ok=True)
            try:
                wl = WORKLOADS[name](seed, workdir)
                rows = []
                for c in range(wl.CASES):
                    values = wl.summarize(c, wl.run(c))
                    problems = wl.check(c, values, values)
                    if problems:  # a wrong output is no reference
                        print(f"{name} seed {seed} case {c}: {problems}", file=sys.stderr)
                        values = None
                    rows.append(values)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            refs[str(seed)] = rows
            print(f"{name} seed {seed}: {len(rows)} cases", file=sys.stderr)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
