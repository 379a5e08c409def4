"""The four benchmark workloads: seeded inputs, the op sequence, output checks.

A workload is built once per process (that is the set-up the benchmark times)
and holds ``CASES`` cases, generated from the seed: case ``c`` is one op's
inputs. The closed loop in worker.py runs the cases in order, pass after pass,
so op ``i`` is case ``i % CASES`` and any two runs with one seed do the same
work in the same order. A second seed keeps the composition (depths, distortion
fractions, op mix) and draws different trees.

Each pass holds the workload's whole op mix (every kind of op in its share),
and a run ends on a pass boundary, so every case is timed equally often and a
faster program does more passes of the same mix rather than more of the cheap
ops. Repeating a case repeats its inputs exactly, so the package must not
keep results between calls; it keeps none.

Every op has three parts:

* ``run(c)``: the timed call into the package; it returns the raw output.
* ``summarize(c, raw)``: turns the raw output into a dict of plain numbers
  (untimed).
* ``check(c, values, ref)``: returns a list of problems, empty when the op is
  correct. ``ref`` is the stored reference for this seed and case, or None.

Functions are looked up on their module at call time (``outer.matchup_verify``
rather than an imported name), so the tracer's wrappers see every call.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

from gmtree import cli, embedding, fixture_path, inner, lattice, modelio, outer
from gmtree import trees, worstcase

FRACTIONS = (0.2, 0.5, 0.8)
GATE = {2: 2e-3, 3: 5e-3}  # test-5 matchup gates by tree depth, nats
VALUE_GATE = 5e-3  # reduced value against its reference: the inner/outer gate, nats
ORACLE_TOL = 1e-9  # fast channel evaluation against the Gaussian oracle, as in the tests


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def random_binary_tree(rng: np.random.Generator, depth: int) -> trees.BinaryTreeSource:
    """Complete binary tree with the parameter ranges of the test suite."""
    alpha, noise = {}, {}
    for k in range(2, depth + 1):
        for i in range(1, 2 ** (k - 1) + 1):
            alpha[(k, i)] = float(rng.uniform(0.2, 0.95))
            noise[(k, i)] = float(rng.uniform(0.05, 1.0))
    return trees.BinaryTreeSource(depth, float(rng.uniform(0.5, 2.0)), alpha, noise)


def distortion_at(tree: trees.BinaryTreeSource, fraction: float) -> float:
    """The point ``fraction`` of the way from the all-observations MMSE to
    the root variance, as in the matchup acceptance test."""
    floor = inner.ChannelContext(tree).d_floor
    return floor + fraction * (tree.root_var - floor)


def weight_grid(rng: np.random.Generator, m: int, count: int) -> list:
    """The CLI's grid shape: the uniform vector first, then seeded draws."""
    out = [[1.0] * m]
    while len(out) < count:
        out.append([float(v) for v in rng.uniform(0.1, 1.0, m)])
    return out


def _finite(*vals) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals)


def _close(name: str, got: float, want: float, tol: float, against: str = "reference") -> list:
    if abs(got - want) <= tol:
        return []
    return [f"{name} {got!r} differs from {against} {want!r} by more than {tol:g}"]


class Matchup:
    """One op: ``outer.matchup_verify`` on one (tree, distortion) pair.

    The trees have depth 2, three at each distortion fraction. Depth-3 trees
    are not among the cases: a depth-3 op costs about five depth-2
    ops and its cost varies with the tree far more (coefficient of variation
    0.43 against 0.14), so the few that fit into a run set the run's
    throughput.
    """

    name = "matchup"
    DEPTH = 2
    GRID = 2  # weight vectors per op: the uniform one, then one warm-started
    CASES = 3 * len(FRACTIONS)

    def __init__(self, seed: int, workdir: str):
        self.cases = []
        for c in range(self.CASES):
            rng = _rng(seed, 1, c)
            tree = random_binary_tree(rng, self.DEPTH)
            frac = FRACTIONS[c % len(FRACTIONS)]
            grid = weight_grid(rng, tree.leaf_count, self.GRID)
            self.cases.append((tree, distortion_at(tree, frac), grid, (seed * 7919 + c) % 2**31))

    def describe(self, c):
        tree, d, _, _ = self.cases[c]
        return {"depth": tree.depth, "m": tree.leaf_count, "padding": len(tree.padding)}

    def run(self, c):
        tree, d, grid, s = self.cases[c]
        return outer.matchup_verify(tree, d, grid, tol=GATE[tree.depth], seed=s)

    def summarize(self, c, rep):
        return {"inner": [r[1] for r in rep.rows], "outer": [r[2] for r in rep.rows]}

    def check(self, c, v, ref):
        tree = self.cases[c][0]
        gate = GATE[tree.depth]
        bad = []
        if len(v["inner"]) != self.GRID:
            bad.append(f"expected {self.GRID} rows, got {len(v['inner'])}")
        for j, (a, b) in enumerate(zip(v["inner"], v["outer"])):
            if not _finite(a, b):
                bad.append(f"row {j}: non-finite value")
            elif abs(a - b) > gate:
                bad.append(f"row {j}: |gap| {abs(a - b):.3e} above gate {gate:g}")
        if ref is not None and not bad:
            for key in ("inner", "outer"):
                for j, (a, b) in enumerate(zip(v[key], ref[key])):
                    bad += _close(f"row {j} {key}", a, b, gate)
        return bad


def _cli(argv) -> tuple:
    """In-process ``gmtree`` call; returns (exit status, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue()


def random_general_tree(rng: np.random.Generator, n_obs: int):
    """Random Gauss-Markov tree with ``n_obs`` observations and a hidden target."""
    n = n_obs + int(rng.integers(2, 4))
    nodes = [trees.TreeNode("v0", None)]
    for j in range(1, n):
        nodes.append(trees.TreeNode(
            f"v{j}", f"v{int(rng.integers(0, j))}",
            float(rng.uniform(0.5, 0.95)), float(rng.uniform(0.1, 0.6)),
        ))
    order = rng.permutation(n)
    obs = frozenset(f"v{k}" for k in order[:n_obs])
    target = f"v{order[n_obs]}"
    return trees.MarkovTree(tuple(nodes), float(rng.uniform(0.5, 2.0)), obs), target


class Reduced:
    """One op: an in-process ``gmtree inner`` call on a model produced by
    ``gmtree reduce``, with default settings but ``STARTS`` search starts.

    A default-settings call (16 starts) takes 1.2-2.7 s on a 2-vCPU Xeon VM,
    so a run could time only about five models three times each, and the
    seed-to-seed difference in five models set the run's figures. A start's
    work does not change with the start count, and on the models tried the
    value at 4 starts equals the value at 16.

    The models are random general trees with 3 observations and a hidden
    target, redrawn until their reduction has 8 leaves (5 of them padding),
    all at distortion fraction 0.8. With 4-5 observations or at fraction 0.2
    a single default-settings solve can take 50 s on a 2-vCPU Xeon VM, longer
    than a whole run; at 0.5 its cost varies fourfold between models. The
    bundled figure tree (hidden target ``b``) reduces to 16 leaves, whose
    solves take 3-4 times as long as an 8-leaf one, so it is not a case.

    ``gmtree outer`` is not timed: on these padded trees its value lies above
    the inner value, which the Gaussian oracle confirms as achievable, on
    about one model in a hundred, so a workload holding it fails its output
    check. ``known_defects.py`` reproduces this. The inner output is checked
    against the oracle instead: the rate vector and distortion of the
    reported channel, recomputed from the joint covariance.
    """

    name = "reduced"
    OBSERVATIONS = 3
    LEAVES = 8  # leaf count the models are drawn to reduce to
    FRACTION = 0.8
    STARTS = 4
    CASES = 12  # models

    def __init__(self, seed: int, workdir: str):
        self.models = []  # (reduced path, distortion, BinaryTreeSource)
        draw = 0
        for j in range(self.CASES):
            while True:
                tree, target = random_general_tree(_rng(seed, 2, draw), self.OBSERVATIONS)
                draw += 1
                src = os.path.join(workdir, f"model{j}.json")
                with open(src, "w", encoding="utf-8") as fh:
                    json.dump(modelio.tree_to_obj(tree), fh)
                status, text = _cli(["reduce", src, "--target", target])
                if status != 0:
                    raise RuntimeError(f"reduce failed on {src}: exit status {status}")
                depth = json.loads(text)["binary_tree"]["depth"]
                if 2 ** (depth - 1) == self.LEAVES:
                    break
            path = os.path.join(workdir, f"reduced{j}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            bt = modelio.load_model(path)
            self.models.append((path, distortion_at(bt, self.FRACTION), bt))
        self._oracle = {}  # (case, alpha, perm) -> (distortion, weighted sum)

    def describe(self, c):
        bt = self.models[c][2]
        return {"m": bt.leaf_count, "padding": len(bt.padding)}

    def run(self, c):
        path, d, _ = self.models[c]
        return _cli(["inner", "--tree", path, "-d", repr(d), "--starts", str(self.STARTS)])

    def summarize(self, c, raw):
        status, text = raw
        out = {"status": status, "value": math.nan}
        if status == 0:
            try:
                payload = json.loads(text)
            except ValueError:
                return out
            for key in ("value_nats", "achieved_distortion", "weights", "alpha", "perm"):
                if key in payload:
                    out[key.split("_")[0]] = payload[key]
        return out

    def check(self, c, v, ref):
        _, d, bt = self.models[c]
        if v["status"] != 0:
            return [f"exit status {v['status']}"]
        if not _finite(v["value"]) or not all(k in v for k in ("achieved", "weights", "alpha", "perm")):
            return ["value missing or non-finite, or the channel missing from the output"]
        bad = []
        if not v["achieved"] <= d * (1 + 1e-9):
            bad.append(f"achieved distortion {v['achieved']} above target {d}")
        # the reported channel, recomputed by the Gaussian oracle; a pass that
        # repeats a case's channel exactly reuses its oracle values
        key = (c, tuple(v["alpha"]), tuple(v["perm"]))
        if key not in self._oracle:
            rates = inner.vertex_rates(inner.tabulate_rank(bt, v["alpha"]), v["perm"])
            self._oracle[key] = (inner.distortion(inner.build_joint(bt, v["alpha"])),
                                 float(np.dot(v["weights"], rates)))
        oracle_d, oracle_value = self._oracle[key]
        if not oracle_d <= d * (1 + 1e-9):
            bad.append(f"oracle distortion {oracle_d} above target {d}")
        bad += _close("value", v["value"], oracle_value, ORACLE_TOL,
                      against="the oracle's chain vertex")
        if ref is not None and not bad:
            bad += _close("value", v["value"], ref["value"], VALUE_GATE)
        return bad


class Region:
    """One op: ``inner.region_slice`` on one (tree, distortion) pair.

    The cases come in groups of three: the slice on two depth-2 trees and on
    one depth-3 tree. The three trees of a group take the three distortion
    fractions, in an order that turns with each group, so that each depth slot
    meets each fraction equally often. A depth-3 slice costs 2-5 depth-2
    slices and its cost varies with the tree, so six groups are drawn, to
    keep the seed-to-seed difference in the depth-3 trees small.

    The audit twin ``outer.rd_out_min_weighted_free`` is not timed: its value
    falls below the equality-manifold optimum ``outer.rd_out_min_weighted``
    beyond the depth's gate on about one tree in nine, so a workload holding
    it fails its output check. ``known_defects.py`` reproduces this.
    """

    name = "region"
    DEPTHS = (2, 2, 3)  # depth of each case of a group
    GROUPS = 2 * len(FRACTIONS)
    CASES = GROUPS * len(DEPTHS)
    POINTS = 3  # supporting weights per slice (the CLI default is 17)

    def __init__(self, seed: int, workdir: str):
        self.cases = []  # (tree, d, seed)
        for p in range(self.GROUPS):
            for k, depth in enumerate(self.DEPTHS):
                rng = _rng(seed, 3, p, k)
                tree = random_binary_tree(rng, depth)
                d = distortion_at(tree, FRACTIONS[(p + k) % len(FRACTIONS)])
                self.cases.append((tree, d, (seed * 104729 + 3 * p + k) % 2**31))

    def describe(self, c):
        tree = self.cases[c][0]
        return {"depth": tree.depth, "m": tree.leaf_count, "padding": len(tree.padding)}

    def run(self, c):
        tree, d, s = self.cases[c]
        return inner.region_slice(tree, d, (1, tree.leaf_count), points=self.POINTS, seed=s)

    def summarize(self, c, raw):
        return {"points": [[float(a), float(b)] for a, b in raw]}

    def check(self, c, v, ref):
        pts = v["points"]
        if not pts:
            return ["empty polyline"]
        if not all(_finite(a, b) for a, b in pts):
            return ["non-finite polyline point"]
        for (a0, b0), (a1, b1) in zip(pts, pts[1:]):
            if not (a1 > a0 and b1 < b0):
                return ["polyline is not Pareto-ordered"]
        if ref is None:
            return []
        got = min(a + b for a, b in pts)
        want = min(a + b for a, b in ref["points"])
        return _close("slice minimum sum rate", got, want, GATE[self.cases[c][0].depth])


class Checks:
    """One op: one item of a fixed rotation over the verification paths
    (lattice, worst case, embedding, the Gaussian oracle, equality rates).
    The cases are ``ROUNDS`` rotations, each with its own Monte Carlo seed and
    inputs; six rounds take each lattice variance and each audit-tree depth
    equally often.

    The tail probability runs for both lattice pairs of the tail test in each
    rotation. Besides covering both, this makes the item count odd, so the
    median op falls inside one item's spread of latencies rather than in the
    gap between two items whose costs differ threefold.
    """

    name = "checks"
    ITEMS = ("lattice_mc", "lattice_tail2", "lattice_tail3", "separation", "llse_uniform",
             "llse_laplace", "embed_batch", "rank_audit", "equality_rates")
    SIGMA2 = (1e2, 1e4, 1e6)
    EMBED_BATCH = 100
    ROUNDS = 6
    CASES = ROUNDS * len(ITEMS)
    # test 9's instance and Monte Carlo seed: its 3-SE gate is a statistical
    # test that fails on a few percent of fresh draws even when the code is right
    LLSE_TREE = trees.BinaryTreeSource(
        2, 1.0, {(2, 1): 0.9, (2, 2): 0.7}, {(2, 1): 0.19, (2, 2): 0.51})
    LLSE_ALPHA = (0.8, 0.6)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.rounds = []
        for r in range(self.ROUNDS):
            rng = _rng(seed, 4, r)
            mats = [self._corr3(rng) for _ in range(self.EMBED_BATCH)]
            depth = 2 + r % 2
            audit_tree = random_binary_tree(rng, depth)
            audit_alpha = [float(a) for a in rng.uniform(0.05, 0.95, audit_tree.leaf_count)]
            eq_tree = random_binary_tree(rng, 3)
            eq_alpha = [float(a) for a in rng.uniform(0.05, 0.95, eq_tree.leaf_count)]
            self.rounds.append((mats, audit_tree, audit_alpha, eq_tree, eq_alpha))
        self.fixtures = [modelio.load_model(fixture_path(n)).entries
                         for n in ("allquarter3", "star4")]
        self._separation = {}

    @staticmethod
    def _corr3(rng):
        while True:
            A = rng.standard_normal((3, 4))
            K = A @ A.T
            s = np.sqrt(np.diag(K))
            if np.all(s > 1e-6):
                return K / np.outer(s, s)

    def _item(self, c):
        r = c // len(self.ITEMS)
        return self.ITEMS[c % len(self.ITEMS)], r, (self.seed * 7 + r) % 2**31

    def describe(self, c):
        return {"item": self._item(c)[0]}

    def run(self, c):
        item, r, s = self._item(c)
        mats, audit_tree, audit_alpha, eq_tree, eq_alpha = self.rounds[r]
        if item == "lattice_mc":
            lp = lattice.LatticePair(8, 4)
            return lattice.lattice_mc_distortion(self.SIGMA2[r % 3], lp, samples=1_000_000, seed=s)
        if item.startswith("lattice_tail"):
            lp = lattice.LatticePair(8, int(item[-1]))
            return lattice.lattice_tail_prob(100.0, lp, samples=1_000_000, seed=s)
        if item == "separation":
            return lattice.separation_min_sum_rate(self.SIGMA2[r % 3], 0.5, seed=s)
        if item.startswith("llse_"):
            return worstcase.llse_equivalence_check(
                self.LLSE_TREE, list(self.LLSE_ALPHA), item[5:], samples=1_000_000, seed=0)
        if item == "embed_batch":
            worst, witnessed, n_pass = 0.0, True, 0
            for K in mats:
                if embedding.check_embed_conditions(K):
                    w = embedding.converse_witness(K)
                    witnessed = witnessed and w is not None and w.product < 0
                else:
                    n_pass += 1
                    cov = trees.tree_to_cov(embedding.embed3(K))
                    idx = [cov.index(f"x{j}") for j in (1, 2, 3)]
                    G = np.asarray(cov.matrix)[np.ix_(idx, idx)]
                    worst = max(worst, float(np.max(np.abs(G - K))))
            forests = [embedding.markov_graph_exact(e)[2] for e in self.fixtures]
            return worst, witnessed, n_pass, forests
        if item == "rank_audit":
            f = inner.tabulate_rank(audit_tree, audit_alpha)
            return len(inner.polymatroid_audit(f, tol=1e-9))
        rates = outer.equality_rates(eq_tree, eq_alpha)
        worst = 0.0
        for node in ((1, 1), (2, 1), (2, 2)):
            l, rt = trees.BinaryTreeSource.children(node)
            got = outer.f_node(eq_tree, node, rates[l], rates[rt])
            worst = max(worst, abs(got - rates[node]))
        return worst

    def summarize(self, c, raw):
        item, r, _ = self._item(c)
        if item == "lattice_mc" or item.startswith("lattice_tail"):
            return {"value": raw.value, "se": raw.se}
        if item == "separation":
            return {"value": float(raw), "sigma2": self.SIGMA2[r % 3]}
        if item.startswith("llse_"):
            return {"gap": raw.gap, "se": raw.se}
        if item == "embed_batch":
            worst, witnessed, n_pass, forests = raw
            return {"worst": worst, "witnessed": witnessed, "n_pass": n_pass, "forests": forests}
        if item == "rank_audit":
            return {"violations": raw}
        return {"worst": float(raw)}

    def check(self, c, v, ref):
        item, r, _ = self._item(c)
        if item == "lattice_mc":
            lp = lattice.LatticePair(8, 4)
            bound = lattice.lattice_analytic_bound(lp)
            if not (_finite(v["value"]) and v["value"] <= bound):  # test 7
                return [f"MC distortion {v['value']!r} above the analytic bound {bound:.3e}"]
        elif item.startswith("lattice_tail"):
            m = int(item[-1])
            cap = 2.0 * math.exp(-(2.0 ** (2 * m - 3)))
            if not (_finite(v["value"]) and v["value"] <= cap + 3 * v["se"]):  # test 8
                return [f"tail probability {v['value']!r} above {cap:.3e} + 3 se"]
        elif item == "separation":
            if not (_finite(v["value"]) and v["value"] > 0):
                return [f"separation rate {v['value']!r} is not positive"]
            # test 7: the separation rate grows with sigma2 at a fixed distortion
            self._separation[v["sigma2"]] = v["value"]
            seen = [self._separation[s] for s in self.SIGMA2 if s in self._separation]
            if any(a >= b for a, b in zip(seen, seen[1:])):
                return ["separation rates do not grow with sigma2"]
        elif item.startswith("llse_"):
            if not (_finite(v["gap"]) and abs(v["gap"]) <= 3 * v["se"]):  # test 9
                return [f"LLSE gap {v['gap']!r} above 3 se {3 * v['se']!r}"]
        elif item == "embed_batch":  # tests 1 and 2
            if v["worst"] > 1e-12 or not v["witnessed"]:
                return [f"embedding round trip {v['worst']:.2e} or a missing witness"]
            if v["forests"] != [False, True]:
                return [f"fixture forest flags {v['forests']} differ from [False, True]"]
        elif item == "rank_audit":  # test 3
            if v["violations"]:
                return [f"{v['violations']} contra-polymatroid violations"]
        elif v["worst"] > 1e-9:  # test 4
            return [f"node cap differs from equality rate by {v['worst']:.2e}"]
        if ref is None:
            return []
        if item == "lattice_mc" or item.startswith("lattice_tail"):
            return _close(item, v["value"], ref["value"], 3 * max(v["se"], ref["se"]))
        if item == "separation":
            return _close(item, v["value"], ref["value"], 1e-6 * ref["value"])
        if item == "embed_batch" and v["n_pass"] != ref["n_pass"]:
            return [f"{v['n_pass']} embeddable matrices, reference has {ref['n_pass']}"]
        return []


WORKLOADS = {cls.name: cls for cls in (Matchup, Reduced, Region, Checks)}
