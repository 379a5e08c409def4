"""Batch command-line front door.

Subcommands read a model file (see modelio), run one library entry point,
and emit JSON on stdout (CSV for the polyline/table commands, to --out or
stdout). Exit status: 0 success, 1 domain error (infeasible distortion,
non-embeddable input, ...), 2 malformed input or usage. Error payloads go to
stderr as JSON with a machine-readable "code". Each search budget has one
source: its command-line flag, else the built-in default; the environment
sets none of them; the library refuses a budget below 1 (``bad-budget``).
Rates are reported in nats and bits.
"""

import argparse
import json
import logging
import math
import sys

import numpy as np

from . import embedding, inner, lattice, modelio, outer, trees, worstcase
from .errors import GmtreeError, ModelError, check_count
from .lattice import LatticePair

__all__ = ["main", "build_parser"]

log = logging.getLogger("gmtree")
LN2 = math.log(2.0)


def _bits(x: float) -> float:
    return x / LN2


def _floats(items) -> list:
    return [float(v) for v in items]


def _parse_csv_list(text: str, cast, what: str) -> list:
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ModelError(f"cannot parse {what}: {text!r}", code="bad-argument") from None


def _load_binary(path: str):
    """Binary source for the region commands; general trees are reduced first.

    Returns (tree, leaf_map or None, observation ids or None).
    """
    model = modelio.load_model(path)
    if isinstance(model, trees.BinaryTreeSource):
        return model, None, None
    if isinstance(model, trees.MarkovTree):
        bt, leaf_map = trees.binarize(model)
        return bt, leaf_map, sorted(model.observations)
    raise ModelError("this command needs a tree model", code="bad-model")


def _load_cov(path: str) -> modelio.CovarianceModel:
    model = modelio.load_model(path)
    if isinstance(model, modelio.CovarianceModel):
        return model
    if isinstance(model, trees.MarkovTree):
        cov = trees.tree_to_cov(model)
        ent = tuple(tuple(map(float, row)) for row in cov.matrix)
        return modelio.CovarianceModel(tuple(cov.labels), ent)
    raise ModelError("this command needs a covariance model", code="bad-model")


def _expand_weights(raw, tree, leaf_map, obs):
    m = tree.leaf_count
    if raw is None:
        w = [1.0] * m
        for i in tree.padding:
            w[i - 1] = 0.0
        return w
    vals = _parse_csv_list(raw, float, "weights")
    if len(vals) == m:
        return vals
    if leaf_map is not None and obs is not None and len(vals) == len(obs):
        w = [0.0] * m
        for node_id, v in zip(obs, vals):
            w[leaf_map[node_id] - 1] = v
        return w
    raise ModelError(
        f"expected {m} weights" + (f" or {len(obs)} (one per observation)" if obs else ""),
        code="bad-weights",
    )


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _emit_csv(header, rows, out_path) -> None:
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        log.info("wrote %d rows to %s", len(rows), out_path)
    else:
        sys.stdout.write(text)


def _rates_obj(rates) -> list:
    return [
        {"level": k, "pos": i, "nats": float(v), "bits": _bits(float(v))}
        for (k, i), v in sorted(rates.items())
    ]


# --------------------------------------------------------------------------
# subcommand handlers


def cmd_embed_check(args):
    model = _load_cov(args.model)
    P, adj, forest = embedding.markov_graph_exact(model.entries)
    n = len(model.labels)
    payload = {
        "labels": list(model.labels),
        "precision": [[modelio.fmt(v) for v in row] for row in P],
        "adjacency": [[int(adj[i, j]) for j in range(n)] for i in range(n)],
        "is_forest": bool(forest),
    }
    if forest:
        payload["summary"] = "markov graph is a forest"
    elif n == 3:
        M = model.cov().matrix
        violations = embedding.check_embed_conditions(M)
        payload["violations"] = [
            {"triple": list(v.triple), "condition": v.condition, "value": v.value}
            for v in violations
        ]
        if not violations:
            payload["summary"] = "not a forest; embeddable via embed3"
        else:
            payload["summary"] = "not a forest; not embeddable"
            w = embedding.converse_witness(M)
            if w is not None:
                payload["witness"] = {
                    "target": w.target,
                    "pair": list(w.pair),
                    "coefficients": _floats(w.coefficients),
                    "pair_cov": w.pair_cov,
                    "product": w.product,
                }
    else:
        payload["summary"] = "not a forest; embeddability undecided for N > 3"
    _emit(payload)
    return 0


def cmd_embed3(args):
    model = _load_cov(args.model)
    tree = embedding.embed3(model.cov().matrix, labels=model.labels)
    achieved = trees.tree_to_cov(tree)
    idx = [achieved.index(l) for l in model.labels]
    got = np.asarray(achieved.matrix)[np.ix_(idx, idx)]
    dev = float(np.max(np.abs(got - model.cov().matrix)))
    payload = modelio.tree_to_obj(tree)
    payload["cov_max_dev"] = dev
    _emit(payload)
    return 0


def cmd_reduce(args):
    model = modelio.load_model(args.model)
    if not isinstance(model, trees.MarkovTree):
        raise ModelError("reduce needs a tree model", code="bad-model")
    if args.target not in model.ids:
        raise ModelError(f"unknown target {args.target!r}", code="unknown-node")
    rerooted = trees.reroot(model, args.target)
    bt, leaf_map = trees.binarize(rerooted)
    # verify the (target, observations) covariance survived the reduction
    orig = trees.tree_to_cov(model)
    bcov = trees.binary_cov(bt)
    obs = sorted(rerooted.observations)
    keep = [args.target] + [v for v in obs if v != args.target]
    oi = [orig.index(v) for v in keep]
    # binary_cov row n - 1 holds heap node n; the root is row 0
    bi = [0] + [bt.index((bt.depth, leaf_map[v])) - 1 for v in keep[1:]]
    dev = float(
        np.max(
            np.abs(
                np.asarray(orig.matrix)[np.ix_(oi, oi)]
                - np.asarray(bcov.matrix)[np.ix_(bi, bi)]
            )
        )
    )
    payload = modelio.binary_to_obj(bt)
    payload["leaf_map"] = {v: leaf_map[v] for v in sorted(leaf_map)}
    payload["cov_max_dev"] = dev
    _emit(payload)
    return 0


def cmd_inner(args):
    tree, leaf_map, obs = _load_binary(args.tree)
    w = _expand_weights(args.weights, tree, leaf_map, obs)
    sol = inner.min_weighted_sum(tree, w, args.distortion, starts=args.starts, seed=args.seed)
    payload = {
        "value_nats": float(sol.value),
        "value_bits": _bits(float(sol.value)),
        "weights": w,
        "rates_nats": _floats(sol.rates),
        "rates_bits": [_bits(float(v)) for v in sol.rates],
        "alpha": _floats(sol.alpha),
        "achieved_distortion": float(sol.distortion),
        "perm": list(sol.perm),
    }
    if leaf_map:
        payload["leaf_map"] = leaf_map
    _emit(payload)
    return 0


def cmd_outer(args):
    tree, leaf_map, obs = _load_binary(args.tree)
    w = _expand_weights(args.weights, tree, leaf_map, obs)
    sol = outer.rd_out_min_weighted(tree, w, args.distortion)
    payload = {
        "value_nats": float(sol.value),
        "value_bits": _bits(float(sol.value)),
        "weights": w,
        "rates": _rates_obj(sol.rates),
        "diagnostics": {
            "iterations": sol.iterations,
            "converged": sol.converged,
            "subsets": sol.subsets,
        },
    }
    if leaf_map:
        payload["leaf_map"] = leaf_map
    _emit(payload)
    return 0


def cmd_verify_matchup(args):
    tree, _, _ = _load_binary(args.tree)
    m = tree.leaf_count
    rng = np.random.default_rng(args.seed)
    vectors = [[1.0] * m]
    for _ in range(check_count(args.weights_grid, "--weights-grid", code="bad-budget") - 1):
        vectors.append([float(v) for v in rng.uniform(0.1, 1.0, m)])
    report = outer.matchup_verify(
        tree, args.distortion, vectors,
        tol=args.gap_tol, starts=args.starts, seed=args.seed,
    )
    payload = {
        "distortion": args.distortion,
        "tol": report.tol,
        "max_gap": report.max_gap,
        "passed": report.passed,
        "rows": [
            {"weights": list(wv), "inner": iv, "outer": ov, "gap": g}
            for wv, iv, ov, g in report.rows
        ],
    }
    _emit(payload)
    return 0


def cmd_region_slice(args):
    tree, leaf_map, _ = _load_binary(args.tree)
    toks = [t.strip() for t in args.pair.split(",")]
    if len(toks) != 2:
        raise ModelError("pair must name two encoders, e.g. 1,2", code="bad-pair")
    pair = []
    for t in toks:
        if t.lstrip("+-").isdigit():
            pair.append(int(t))
        elif leaf_map is not None and t in leaf_map:
            pair.append(leaf_map[t])
        else:
            raise ModelError(f"unknown encoder {t!r}", code="bad-pair")
    pts = inner.region_slice(
        tree, args.distortion, (pair[0], pair[1]),
        points=args.points, starts=args.starts, seed=args.seed,
    )
    rows = [(ra, rb, _bits(ra), _bits(rb)) for ra, rb in pts]
    _emit_csv(("ra_nats", "rb_nats", "ra_bits", "rb_bits"), rows, args.out)
    return 0


def cmd_lattice(args):
    lp = LatticePair(args.n, args.m)
    est = lattice.lattice_mc_distortion(args.sigma2, lp, args.samples, args.seed)
    bound = lattice.lattice_analytic_bound(lp)
    rate = lattice.lattice_sum_rate(lp)
    _emit(
        {
            "sigma2": args.sigma2,
            "n": args.n,
            "m": args.m,
            "samples": est.samples,
            "mse": est.value,
            "se": est.se,
            "analytic_bound": bound,
            "within_bound": est.value <= bound,
            "sum_rate_nats": rate,
            "sum_rate_bits": _bits(rate),
        }
    )
    return 0


def cmd_divergence(args):
    grid = _parse_csv_list(args.sigma2_grid, float, "sigma2 grid")
    lp = LatticePair(args.n, args.m)
    report = lattice.divergence_report(
        grid, args.distortion, lp, samples=args.samples, seed=args.seed
    )
    rows = [
        (r.sigma2, r.separation_rate, r.lattice_rate, r.lattice_mse)
        for r in report.rows
    ]
    if args.out:
        _emit_csv(
            ("sigma2", "separation_rate_nats", "lattice_rate_nats", "lattice_mse"),
            rows,
            args.out,
        )
    payload = {
        "target_distortion": report.target_distortion,
        "analytic_bound": report.analytic_bound,
        "separation_monotone": report.separation_monotone,
        "lattice_within_target": report.lattice_within_target,
        "rows": [
            {
                "sigma2": r.sigma2,
                "separation_rate_nats": r.separation_rate,
                "separation_rate_bits": _bits(r.separation_rate),
                "lattice_rate_nats": r.lattice_rate,
                "lattice_rate_bits": _bits(r.lattice_rate),
                "lattice_mse": r.lattice_mse,
                "lattice_se": r.lattice_se,
            }
            for r in report.rows
        ],
    }
    _emit(payload)
    return 0


def cmd_worst_case(args):
    tree, _, _ = _load_binary(args.tree)
    m = tree.leaf_count
    if args.alpha is None:
        a = [0.0 if (i + 1) in tree.padding else 0.7 for i in range(m)]
    else:
        a = _parse_csv_list(args.alpha, float, "alpha")
    report = worstcase.llse_equivalence_check(
        tree, a, args.dist, samples=args.samples, seed=args.seed
    )
    _emit(
        {
            "dist": report.dist,
            "samples": report.samples,
            "gaussian_mmse": report.gaussian_mmse,
            "empirical_mse": report.empirical_mse,
            "se": report.se,
            "gap": report.gap,
            "cov_max_dev_se": report.cov_max_dev,
            "passed": report.passed,
        }
    )
    return 0


# --------------------------------------------------------------------------
# parser


def _add_solver_opts(p, starts_default=16):
    """--starts and --seed: the inner search's multi-start budget and its seed."""
    p.add_argument("--starts", type=int, default=starts_default)
    p.add_argument("--seed", type=int, default=0)


def _add_mc_opts(p, samples_default):
    p.add_argument("--samples", type=int, default=samples_default)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmtree",
        description="Rate-distortion tools for Gauss-Markov tree sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed-check", help="Markov graph structure and embeddability report")
    p.add_argument("model")
    p.set_defaults(func=cmd_embed_check)

    p = sub.add_parser("embed3", help="explicit star tree for an embeddable 3x3 covariance")
    p.add_argument("model")
    p.set_defaults(func=cmd_embed3)

    p = sub.add_parser("reduce", help="reroot at the target and binarize")
    p.add_argument("model")
    p.add_argument("--target", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("inner", help="achievable minimum weighted sum rate")
    p.add_argument("--tree", required=True)
    p.add_argument("-d", "--distortion", type=float, required=True)
    p.add_argument("--weights")
    _add_solver_opts(p)
    p.set_defaults(func=cmd_inner)

    p = sub.add_parser("outer", help="converse lower bound on the weighted sum rate")
    p.add_argument("--tree", required=True)
    p.add_argument("-d", "--distortion", type=float, required=True)
    p.add_argument("--weights")
    p.set_defaults(func=cmd_outer)

    p = sub.add_parser("verify-matchup", help="inner vs outer gap report over a weight grid")
    p.add_argument("--tree", required=True)
    p.add_argument("-d", "--distortion", type=float, required=True)
    p.add_argument("--weights-grid", type=int, default=8)
    p.add_argument("--gap-tol", type=float, default=5e-3)
    _add_solver_opts(p)
    p.set_defaults(func=cmd_verify_matchup)

    p = sub.add_parser("region-slice", help="two-encoder boundary polyline as CSV")
    p.add_argument("--tree", required=True)
    p.add_argument("-d", "--distortion", type=float, required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--points", type=int, default=17)
    p.add_argument("--out")
    _add_solver_opts(p, starts_default=8)
    p.set_defaults(func=cmd_region_slice)

    p = sub.add_parser("lattice", help="Monte Carlo distortion of the modular-difference code")
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    _add_mc_opts(p, 1_000_000)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("divergence", help="separation rate vs lattice rate over a variance grid")
    p.add_argument("--sigma2-grid", required=True)
    p.add_argument("-d", "--distortion", type=float, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--out")
    _add_mc_opts(p, 200_000)
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("worst-case", help="non-Gaussian LLSE distortion equivalence check")
    p.add_argument("--tree", required=True)
    p.add_argument("--dist", choices=("uniform", "laplace", "signmix", "gaussian"),
                   default="uniform")
    p.add_argument("--alpha")
    _add_mc_opts(p, 1_000_000)
    p.set_defaults(func=cmd_worst_case)

    return parser


def _fail(exc: GmtreeError, status: int) -> int:
    json.dump({"error": str(exc), "code": exc.code}, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")
    return status


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except ModelError as e:
        return _fail(e, 2)
    except GmtreeError as e:
        return _fail(e, 1)


if __name__ == "__main__":
    sys.exit(main())
