"""Reproduce the program defects the benchmark's output checks have found.

    python3 bench/known_defects.py

Each case below is an input from a workload generator (workloads.py) on which
the package's output fails the check the workload applies. The timed
workloads leave the free twin and ``gmtree outer`` out, because a benchmark
run must have no failing op; ``matchup`` keeps its rare failing trees. This
script keeps the defects in view: it prints every case and exits 1 while any
of them still reproduces, 0 once all are fixed.

* ``region`` free twin: ``outer.rd_out_min_weighted_free`` at its default
  budget returns a value below the equality-manifold optimum
  ``outer.rd_out_min_weighted`` (tests' budget, 12 starts) by more than the
  depth's gate. The case: seed 5, group 4, the first depth-2 tree.
* ``reduced`` outer: ``gmtree outer`` at default settings returns a value
  above ``gmtree inner`` on the same reduced model by more than 5e-3 nats,
  while the Gaussian oracle confirms the inner channel meets the distortion
  at the reported rates. So the outer value is no lower bound there. Cases:
  seed 0 model 7, seed 31 model 0.
* ``matchup``: on a depth-2 tree, ``outer.matchup_verify``'s inner value for
  the uniform weights exceeds the outer value by more than the 2e-3 gate.
  The oracle confirms the inner channel, and more starts move neither side,
  so one of the two bounds is not tight there. The case: seed 303, case 6.
"""

import json
import os
import shutil
import sys

import numpy as np

import worker


def free_twin_case(W, seed, group, k):
    rng = W._rng(seed, 3, group, k)
    tree = W.random_binary_tree(rng, W.Region.DEPTHS[k])
    d = W.distortion_at(tree, W.FRACTIONS[(group + k) % len(W.FRACTIONS)])
    w = [float(x) for x in rng.uniform(0.1, 1.0, tree.leaf_count)]
    s = (seed * 104729 + 3 * group + k) % 2**31
    free = W.outer.rd_out_min_weighted_free(tree, w, d, seed=s)
    restricted = W.outer.rd_out_min_weighted(tree, w, d, seed=s, starts=12).value
    gate = W.GATE[tree.depth]
    return (f"region seed {seed} group {group} slot {k}: free twin {free:.6f}, "
            f"equality manifold {restricted:.6f}, gate {gate:g}"), abs(free - restricted) > gate


def matchup_case(W, seed, case):
    tree, d, grid, s = W.Matchup(seed, "").cases[case]
    report = W.outer.matchup_verify(tree, d, grid, tol=W.GATE[tree.depth], seed=s)
    _, inner_value, outer_value, gap = report.rows[0]
    gate = W.GATE[tree.depth]
    return (f"matchup seed {seed} case {case}: inner {inner_value:.6f}, outer {outer_value:.6f}, "
            f"gap {gap:.3e}, gate {gate:g}"), abs(gap) > gate


def reduced_outer_case(W, seed, model, workdir):
    path, d, bt = W.Reduced(seed, workdir).models[model]
    values = {}
    for kind in ("inner", "outer"):
        status, text = W._cli([kind, "--tree", path, "-d", repr(d)])
        values[kind] = json.loads(text) if status == 0 else {}
    sol = values["inner"]
    joint = W.inner.build_joint(bt, sol["alpha"])
    rates = W.inner.vertex_rates(W.inner.tabulate_rank(bt, sol["alpha"]), sol["perm"])
    oracle = float(np.dot(sol["weights"], rates))
    gap = values["outer"]["value_nats"] - sol["value_nats"]
    achievable = abs(oracle - sol["value_nats"]) <= W.ORACLE_TOL and \
        W.inner.distortion(joint) <= d * (1 + 1e-9)
    return (f"reduced seed {seed} model {model}: inner {sol['value_nats']:.6f} "
            f"(oracle {oracle:.6f}, achievable: {achievable}), "
            f"outer {values['outer']['value_nats']:.6f}, outer - inner {gap:.3e}"), \
        achievable and gap > W.VALUE_GATE


def main():
    worker.import_package()
    import workloads as W

    workdir = os.path.join(worker.WORK, f"defects-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cases = [free_twin_case(W, 5, 4, 0),
                 reduced_outer_case(W, 0, 7, workdir),
                 reduced_outer_case(W, 31, 0, workdir),
                 matchup_case(W, 303, 6)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for text, standing in cases:
        print(("DEFECT " if standing else "fixed  ") + text)
    return 1 if any(standing for _, standing in cases) else 0


if __name__ == "__main__":
    sys.exit(main())
