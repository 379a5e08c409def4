"""Converse (outer) bound built from per-node noise-quantization rates.

Every tree node (k, i) gets a nonnegative rate r_i^(k) measuring how much the
codes reveal about the noise injected there. Feasibility at distortion d
(``frd_contains``) pins the root rate from below by half the log ratio of the
root variance to d and caps every internal node n by a concave function of
its children's slots x_c:

    f_n = 1/2 log(1 + S_n),   S_n = sum over children c of coef_c phi(x_c),

with phi(r) = 1 - e^(-2 r) and coef_c = alpha_c^2 N_n / N_c, N being a
node's noise variance (the root's is its full variance).

Zero-noise (copy) edges, which ``binarize`` adds, are exact. A node n >= 2
with N_n = 0 has rate 0, and its slot holds q_n = lim alpha_n^2 (1 -
e^(-2 r_n)) / N_n instead. Its phi is the identity, its cap is alpha_n^2 S_n,
and it is no row of any subset bound. A zero-noise child c enters a noisy
parent n with coef_c = N_n; below a zero-noise parent a noisy child has
coef_c = alpha_c^2 / N_c and a zero-noise child coef_c = 1.

Telescoping the caps down to the leaves and summing over the noisy ancestors
of an encoder subset yields a lower bound on that subset's sum rate. Each such
bound is convex in the slots x (it subtracts compositions of the concave,
nondecreasing caps), and so is the feasible set, so the weighted minimum is
one convex program in (x, R):

    minimize w.R  subject to  R(A) >= bound(A; x) for every nonempty set A
    of real leaves, x_root >= rho, x_n <= cap of n's children, x, R >= 0,

with padding slots fixed at 0. ``rd_out_min_weighted`` solves it with SLSQP
and cutting planes (``_OuterEval.convex``), with analytic jacobians from one
reverse pass over the heap list (``bound_grad``, ``cap``); its value is
the program's w.R and its rates the program's x. An encoder of weight 0 is
known: its R is free, so every subset containing it is dropped, and its leaf,
the zero-noise nodes above it and their nearest noisy ancestor are held at
+inf. ``matchup_verify`` cross-checks the outer value against the
independently computed inner bound.

Rates are dicts keyed by (level, position) at the API; information is in
nats. Inside, rates are lists in the heap layout of ``BinaryTreeSource``
(see its docstring), and every composition is one pass over such a list in
descending index order, children first.
"""

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (DomainError, ModelError, check_count, check_distortion, check_tolerance,
                     check_weights)
from .gauss import gaussian_cmi
from .inner import ChannelContext, _check_alpha, build_joint, min_weighted_sum, weight_order
from .trees import BinaryTreeSource

__all__ = [
    "f_node",
    "frd_contains",
    "telescope_f",
    "rd_out_subset_bound",
    "rd_out_min_weighted",
    "matchup_verify",
    "equality_rates",
    "max_root_rate",
    "OuterSolution",
    "MatchupReport",
]

WARM_STARTS = 6  # matchup_verify's inner starts for every weight vector after the first
CONVEX_ITERS = 100  # SLSQP iterations allowed per solve
CONVEX_FTOL = 1e-12  # SLSQP's stopping tolerance on the objective
CUT_TOL = 1e-12  # a subset bound violated by more than this (relative) joins the program


class _OuterEval:
    """Child-cap coefficients of one tree by heap index, zero noise exact."""

    def __init__(self, tree: BinaryTreeSource):
        m = self.m = tree.leaf_count
        noise = tree.heap_noise
        a2 = self.a2 = [a * a for a in tree.heap_alpha]
        # zero[n]: node n has zero noise, and its slot holds q_n
        zero = self.zero = [False, False] + [v == 0.0 for v in noise[2:]]
        # coef[n]: the coefficient of child n in its parent's sum S
        self.coef = [0.0, 0.0]
        for n in range(2, 2 * m):
            p = n // 2
            if zero[p]:
                self.coef.append(1.0 if zero[n] else a2[n] / noise[n])
            else:
                self.coef.append(noise[p] if zero[n] else a2[n] * noise[p] / noise[n])
        self.real = [i for i in range(1, m + 1) if i not in tree.padding]
        # slots that are always 0: padding leaves and zero-noise nodes with alpha 0
        self.fixed = {m + i - 1 for i in tree.padding} | {
            n for n in range(2, 2 * m) if zero[n] and a2[n] == 0.0}

    def cap(self, n: int, x1: float, x2: float) -> tuple[float, float, float]:
        """The cap at internal node n of its children's slots x1 and x2, and
        its partial derivatives in them."""
        s, d = 0.0, []
        for k, x in ((2 * n, x1), (2 * n + 1, x2)):
            if x < 0:
                raise DomainError("rates must be nonnegative", code="negative-rate")
            c = self.coef[k]
            if self.zero[k]:  # phi(q) = q
                s += c * x
                d.append(c)
            else:  # phi(r) = 1 - e^(-2r)
                s -= c * math.expm1(-2.0 * x)
                d.append(2.0 * c * math.exp(-2.0 * x))
        if self.zero[n]:  # alpha^2 S, and 0 for alpha = 0 even at S = inf
            a2 = self.a2[n]
            return (a2 * s if a2 else 0.0), a2 * d[0], a2 * d[1]
        k = 0.5 / (1.0 + s)
        return 0.5 * math.log1p(s), k * d[0], k * d[1]

    def sweep(self, r: list, nodes) -> list:
        """Set r[n] to the cap of its children for each n of ``nodes`` (children first)."""
        for n in nodes:
            r[n] = self.cap(n, r[2 * n], r[2 * n + 1])[0]
        return r

    def max_root(self) -> float:
        """Supremum of the composed root rate: real leaves at +inf, fixed slots at 0."""
        m = self.m
        leaves = [0.0 if n in self.fixed else math.inf for n in range(m, 2 * m)]
        return self.sweep([0.0] * m + leaves, range(m - 1, 0, -1))[1]

    def plan(self, A) -> tuple:
        """The subset bound's index lists for leaf set A, from one bottom-up
        mask pass: the rows (noisy nodes whose leaves meet A), the nodes
        wholly inside A, the mixed nodes bottom-up, and the mask (0 outside
        A, 1 inside, 2 mixed)."""
        m = self.m
        s = [0] * m + [int(i in A) for i in range(1, m + 1)]
        for n in range(m - 1, 0, -1):
            s[n] = s[2 * n] if s[2 * n] == s[2 * n + 1] else 2
        rows = [n for n in range(1, 2 * m) if s[n] and not self.zero[n]]
        inside = [n for n in range(1, 2 * m) if s[n] == 1]
        return rows, inside, [n for n in range(m - 1, 0, -1) if s[n] == 2], s

    def credit(self, r: list, cleared, mixed) -> list:
        """Telescoped slots: ``cleared`` nodes at 0, ``mixed`` nodes
        recomposed through their caps, every other node at its own slot."""
        v = list(r)
        for n in cleared:
            v[n] = 0.0
        return self.sweep(v, mixed)

    def bound(self, plan, r: list) -> float:
        """Each row's rate less its credit for the complement's codes; a
        row known exactly (rate and credit +inf) adds 0."""
        rows, inside, mixed, _ = plan
        v = self.credit(r, inside, mixed)
        return sum(r[n] - v[n] for n in rows if r[n] != v[n])

    def bound_grad(self, plan, r: list) -> tuple[float, list]:
        """``bound(plan, r)`` and its gradient in r by heap index.

        Every row n adds r_n and subtracts its credit v_n. A mixed node's
        credit is the cap of its children's credits; the others are 0
        (inside A) or their own slots (outside A). One reverse pass over the
        mixed nodes, parents first, carries each credit's weight in the sum
        down to the children, and the weight that reaches a node outside A
        is its slot's share.
        """
        rows, inside, mixed, s = plan
        v = self.credit(r, inside, mixed)
        g = [0.0] * (2 * self.m)
        for n in rows:
            g[n] = 1.0
        weight = list(g)  # of each credit in the sum: 1 per row, plus what parents pass
        for n in reversed(mixed):
            _, d1, d2 = self.cap(n, v[2 * n], v[2 * n + 1])
            for child, d in ((2 * n, d1), (2 * n + 1, d2)):
                if s[child] == 2:
                    weight[child] += weight[n] * d
                elif s[child] == 0:  # outside A: its credit is its own slot
                    g[child] -= weight[n] * d
        return sum(r[n] - v[n] for n in rows if r[n] != v[n]), g

    def known(self, w: list) -> set:
        """Slots held at +inf for weights w: each real leaf of weight 0, and
        through zero-noise nodes every node up to its nearest noisy ancestor."""
        held = set()
        for i in self.real:
            if w[i - 1] > 0.0:
                continue
            n = self.m + i - 1
            while n not in self.fixed:
                held.add(n)
                if not self.zero[n]:
                    break
                n //= 2
        return held

    def convex(self, w: list, rho: float) -> tuple[list, float, int, bool, int]:
        """Slots at the optimum of the outer bound's convex program (heap
        list), its value w.R, SLSQP's iterations summed over the rounds, the
        last solve's success flag and its number of subset constraints.

        Minimize w.R over (x, R) >= 0 subject to R(A) >= bound(A; x) for the
        subsets A in play, x_root >= rho (a bound) and x_n <= its cap at
        every internal n. Fixed slots stay at 0 and known ones at +inf
        (``known``); only encoders of positive weight (live) have an R. The
        subsets start as the weight order's nested prefix sets and the
        singletons. After each solve every subset of the live encoders is
        scanned, and the most violated bound, if it exceeds CUT_TOL, joins
        the program, which is solved again from the last solution.

        SLSQP is the package's only use of scipy, so ``scipy.optimize`` is
        imported here, at the first solve, and not with the package.
        """
        from scipy.optimize import minimize

        m = self.m
        held = self.known(w)
        live = [i for i in self.real if w[i - 1] > 0.0]
        free = [n for n in range(1, 2 * m) if n not in held and n not in self.fixed]
        col = {n: j for j, n in enumerate(free)}
        p = len(free)
        caps = [n for n in free if n < m]
        wR = np.array([w[i - 1] for i in live])
        grad = np.concatenate([np.zeros(p), wR])
        r = [math.inf if n in held else 0.0 for n in range(2 * m)]

        def slots(z):
            # SLSQP can step an ulp or two below its bounds, and it clips
            # only what it hands the objective: clip here
            for n, j in col.items():
                r[n] = max(float(z[j]), 0.0)
            return r

        def subset(A):
            return [p + k for k, i in enumerate(live) if i in A], self.plan(A)

        order = [i for i in weight_order(w) if w[i - 1] > 0.0]
        active = {}  # leaf set -> its R columns and plan, in the order added
        for A in map(frozenset, [order[:j] for j in range(1, len(order) + 1)] + [[i] for i in live]):
            if A not in active:
                active[A] = subset(A)
        memo = {}

        def constraints(z):
            """Values and jacobian of every constraint, as rows >= 0."""
            key = z.tobytes()
            if key not in memo:
                memo.clear()
                x = slots(z)
                val = np.empty(len(active) + len(caps))
                jac = np.zeros((len(val), len(z)))
                for q, (cols, plan) in enumerate(active.values()):
                    b, g = self.bound_grad(plan, x)
                    val[q] = z[cols].sum() - b
                    jac[q, cols] = 1.0
                    jac[q, :p] = [-g[n] for n in free]
                for q, n in enumerate(caps, len(active)):
                    fn, d1, d2 = self.cap(n, x[2 * n], x[2 * n + 1])
                    val[q], jac[q, col[n]] = fn - x[n], -1.0
                    for c, d in ((2 * n, d1), (2 * n + 1, d2)):
                        if c in col:  # fixed and known slots are no variables
                            jac[q, col[c]] = d
                memo[key] = val, jac
            return memo[key]

        z = np.full(len(grad), rho)
        value, iterations, converged = 0.0, 0, True
        bounds = [(rho if n == 1 else 0.0, None) for n in free] + [(0.0, None)] * len(live)
        while len(z):  # with every slot known or fixed there is nothing to solve
            memo.clear()
            res = minimize(
                lambda z: (float(wR @ z[p:]), grad),
                z,
                jac=True,
                method="SLSQP",
                bounds=bounds,
                constraints={"type": "ineq", "fun": lambda z: constraints(z)[0],
                             "jac": lambda z: constraints(z)[1]},
                options={"maxiter": CONVEX_ITERS, "ftol": CONVEX_FTOL},
            )
            z, value = res.x, float(res.fun)
            iterations += int(res.nit)
            converged = bool(res.success)
            x = slots(z)
            worst, gap = None, CUT_TOL * (1.0 + abs(value))
            for bits in range(1, 1 << len(live)):
                A = frozenset(i for k, i in enumerate(live) if bits >> k & 1)
                if A not in active:
                    cols, plan = subset(A)
                    excess = self.bound(plan, x) - z[cols].sum()
                    if excess > gap:
                        worst, gap = A, excess
            if worst is None:
                break
            active[worst] = subset(worst)
        x = slots(z)
        if 1 in col:
            x[1] = max(x[1], rho)
        return list(x), value, iterations, converged, len(active)


def f_node(tree: BinaryTreeSource, node, r1: float, r2: float) -> float:
    """Cap at an internal node given its children's slots (nats).

    A noisy child's slot is its rate, a zero-noise child's its q (see the
    module docstring). The cap is a rate at a noisy node and a q at a
    zero-noise one.
    """
    h = tree.index(node)
    if h >= tree.leaf_count:
        raise ModelError(f"node {node} is not internal", code="unknown-node")
    return _OuterEval(tree).cap(h, r1, r2)[0]


def _check_rates(tree: BinaryTreeSource, r: dict) -> list:
    """The (level, pos) rate dict as a heap-ordered list (index 0 unused).

    A NaN rate is refused (``bad-number``); +inf is a legal rate.
    """
    got = {tuple(k): float(v) for k, v in r.items()}
    nodes = tree.nodes()
    if set(got) != set(nodes):
        raise ModelError("rates must cover every tree node", code="bad-rates")
    bad = [k for k, v in got.items() if math.isnan(v)]
    if bad:
        raise ModelError(f"rates must be numbers, not NaN at {sorted(bad)}", code="bad-number")
    return [0.0] + [got[v] for v in nodes]


def _check_subset(tree: BinaryTreeSource, A: Iterable[int]) -> frozenset:
    kept = frozenset(int(i) for i in A)
    if not kept <= set(range(1, tree.leaf_count + 1)):
        raise ModelError("A must be a set of leaf positions", code="bad-subset")
    return kept


def frd_contains(tree: BinaryTreeSource, r: dict, d: float, tol: float = 1e-10) -> bool:
    """Membership of r in the feasible noise-quantization set at distortion d.

    A zero-noise node's entry is its q (see the module docstring), capped
    like a rate by ``f_node``. ``tol`` must be a finite number >= 0
    (``bad-tolerance``).
    """
    check_tolerance(tol)
    check_distortion(d)
    rates = _check_rates(tree, r)
    if any(v < -tol for v in rates[1:]):
        return False
    if tree.root_var > 0 and rates[1] < 0.5 * math.log(tree.root_var / d) - tol:
        return False
    ev = _OuterEval(tree)
    return not any(
        rates[n] > ev.cap(n, max(rates[2 * n], 0.0), max(rates[2 * n + 1], 0.0))[0] + tol
        for n in range(1, ev.m)
    )


def telescope_f(tree: BinaryTreeSource, node, A: Iterable[int], r: dict, mode: str = "both") -> float:
    """Recursive cap composition of r at ``node`` relative to leaf set A.

    Nodes whose observations sit fully inside A (or fully outside) bottom the
    recursion out at their own slot; in "only" mode the slots of nodes fully
    outside A are zeroed instead. Mixed nodes recurse through their caps; a
    zero-noise node's slot is its q.
    """
    if mode not in ("both", "only"):
        raise ModelError("mode must be 'both' or 'only'", code="bad-mode")
    rates = _check_rates(tree, r)
    kept = _check_subset(tree, A)
    h = tree.index(node)
    ev = _OuterEval(tree)
    _, outside, mixed, _ = ev.plan(frozenset(range(1, ev.m + 1)) - kept)
    # only the subtree of h is composed: n lies in it when its leading bits are h
    below = [n for n in mixed if n >= h and n >> (n.bit_length() - h.bit_length()) == h]
    return ev.credit(rates, outside if mode == "only" else (), below)[h]


def rd_out_subset_bound(tree: BinaryTreeSource, r: dict, A: Iterable[int]) -> float:
    """Lower bound on the sum rate of encoder subset A from rates r.

    Sums, over every noisy ancestor of A, the node rate minus the telescoped
    credit for what the complement's codes already convey. Zero-noise nodes
    carry q, not a rate, and are no rows.
    """
    rates = _check_rates(tree, r)
    Aset = _check_subset(tree, A)
    if not Aset:
        return 0.0
    ev = _OuterEval(tree)
    return ev.bound(ev.plan(Aset), rates)


def max_root_rate(tree: BinaryTreeSource) -> float:
    """Supremum of the composed root rate (padding rates pinned to zero)."""
    return _OuterEval(tree).max_root()


def equality_rates(tree: BinaryTreeSource, alpha) -> dict:
    """Noise-quantization rates induced by a Gaussian test channel.

    r at a noisy node (k, i) is I(x_(k,i); u_{O(k,i)} | parent) (no
    conditioning at the root); these saturate every internal cap and witness
    feasibility at the channel's achieved distortion. A zero-noise leaf gets
    q = alpha_edge^2 a^2 / ((1 - a^2) V_leaf) for its channel coefficient a,
    and a zero-noise internal node its saturated cap. Oracle-grade
    (covariance based), used by verification paths rather than optimizers.
    """
    a = _check_alpha(tree, alpha)
    # the joint lists x in heap order (x_n at n - 1), then u_1..u_m, so the
    # u of heap leaf h sits at h + m - 1
    M = build_joint(tree, a).matrix
    m = tree.leaf_count
    ev = _OuterEval(tree)
    x = [0.0] * (2 * m)
    nodes = tree.nodes()
    for n in range(2 * m - 1, 0, -1):  # children first
        if not ev.zero[n]:
            span = m >> (n.bit_length() - 1)  # node n's leaves are heap n*span .. (n+1)*span - 1
            uo = [h + m - 1 for h in range(n * span, (n + 1) * span)]
            x[n] = gaussian_cmi(M, [n - 1], uo, [] if n == 1 else [n // 2 - 1])
        elif n >= m:  # the channel's q at a zero-noise leaf
            ai = a[n - m]
            top = tree.heap_alpha[n] ** 2 * ai * ai
            den = (1.0 - ai * ai) * tree.var(nodes[n - 1])
            x[n] = top / den if den > 0.0 else (math.inf if top else 0.0)
        else:
            x[n] = ev.cap(n, x[2 * n], x[2 * n + 1])[0]
    return dict(zip(nodes, map(float, x[1:])))


class OuterSolution(NamedTuple):
    """The convex program's optimum and what the solve cost.

    ``value`` is the program's w.R and ``rates`` its slots by node: a rate
    at a noisy node, q at a zero-noise one, +inf where a weight-0 encoder
    makes the node known, 0 at padding. ``iterations`` is SLSQP's iteration
    count summed over the cutting-plane rounds, ``converged`` the last
    solve's success flag and ``subsets`` the number of subset constraints in
    the last solve.
    """

    value: float
    rates: dict
    iterations: int
    converged: bool
    subsets: int


def rd_out_min_weighted(tree: BinaryTreeSource, weights, d: float) -> OuterSolution:
    """Minimum of the converse bound on the weighted sum rate at distortion d.

    One convex program (``_OuterEval.convex``), solved by SLSQP with cutting
    planes over the subset constraints; the root rate is bounded below by
    half log(root variance / d). Its value is a lower bound for every point
    of the rate region at distortion d.
    """
    ev = _OuterEval(tree)
    w = check_weights(weights, ev.m)
    check_distortion(d)
    s2 = tree.root_var
    if s2 == 0.0 or d >= s2:
        return OuterSolution(0.0, {n: 0.0 for n in tree.nodes()}, 0, True, 0)
    rho = 0.5 * math.log(s2 / d)
    cap = ev.max_root()
    if rho >= cap * (1 - 1e-12):
        raise DomainError(
            f"distortion {d} requires root rate {rho:.6f} beyond the achievable "
            f"maximum {cap:.6f}",
            code="infeasible-distortion",
        )
    rates, value, iterations, converged, subsets = ev.convex(w, rho)
    return OuterSolution(value, dict(zip(tree.nodes(), rates[1:])), iterations, converged, subsets)


@dataclass
class MatchupReport:
    """Per-weight comparison of the two independently optimized bounds."""

    distortion: float
    tol: float
    rows: list = field(default_factory=list)  # (weights, inner, outer, gap)

    @property
    def max_gap(self) -> float:
        return max((abs(g) for *_, g in self.rows), default=0.0)

    @property
    def passed(self) -> bool:
        return all(abs(g) <= self.tol for *_, g in self.rows)


def matchup_verify(
    tree: BinaryTreeSource,
    d: float,
    weight_vectors,
    *,
    tol: float = 2e-3,
    starts: int = 16,
    seed: int = 0,
) -> MatchupReport:
    """Run both bound optimizers per weight vector and report the gaps.

    The two computations share nothing beyond the weight-ordering convention;
    agreement within combined optimizer tolerance is the machine check that
    the region's inner and outer descriptions coincide. ``starts`` and
    ``seed`` budget the inner search of the first weight vector; later ones
    reuse the previous optimum as a warm start with WARM_STARTS starts and
    seed + their index. ``tol`` is the largest gap that passes, a finite
    number >= 0 (``bad-tolerance``). ``starts`` must be an integer >= 1
    (``bad-budget``) at any d, and there must be at least one weight vector
    (``bad-weights``).
    """
    check_tolerance(tol)
    starts = check_count(starts, "starts", code="bad-budget")
    weight_vectors = list(weight_vectors)
    if not weight_vectors:
        raise ModelError("matchup_verify needs at least one weight vector", code="bad-weights")
    report = MatchupReport(d, tol)
    ictx = ChannelContext(tree)
    warm = None
    for idx, wv in enumerate(weight_vectors):
        isol = min_weighted_sum(
            tree, wv, d, starts=starts if idx == 0 else WARM_STARTS,
            seed=seed + idx, warm=warm, _ctx=ictx,
        )
        osol = rd_out_min_weighted(tree, wv, d)
        warm = isol.alpha
        report.rows.append(
            (tuple(float(v) for v in wv), isol.value, osol.value, isol.value - osol.value)
        )
    return report
