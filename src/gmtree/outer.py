"""Converse (outer) bound built from per-node noise-quantization rates.

Every tree node (k, i) gets a nonnegative rate r_i^(k) measuring how much the
codes reveal about the noise injected there. Feasibility at distortion d
(``frd_contains``) pins the root rate from below by half the log ratio of the
root variance to d and caps every internal node by a concave function of its
children's rates:

    f(r1, r2) = 1/2 log(1 + c1 (1 - e^(-2 r1)) + c2 (1 - e^(-2 r2))),

with c = alpha^2 * (own noise variance) / (child noise variance), the root
using its full variance in place of a noise variance. Telescoping f down to
the leaves and summing over the ancestors of an encoder subset yields a lower
bound on that subset's sum rate. Each such bound is convex in the node rates
r (it subtracts compositions of the concave, nondecreasing f), and so is the
feasible set, so the weighted minimum is one convex program in (r, R):

    minimize w.R  subject to  R(A) >= bound(A; r) for every nonempty set A
    of real leaves, r_root >= rho, r_n <= f(children of n), r, R >= 0,

with padding rates fixed at 0. ``rd_out_min_weighted`` solves it once with
SLSQP (``_OuterEval.convex``), started cold at r = R = rho, with analytic
jacobians from one reverse pass over the heap list (``bound_grad``,
``cap_grad``). The optimum's leaf-rate direction is then put on the equality
manifold (internal rates saturated, root pinned), and the weighted
combination of nested-subset bounds there is the reported outer value.
Trees whose noise variances NOISE_FLOOR_REL lifts from 0, and trees with
more than CONVEX_MAX_LEAVES real leaves, keep the seeded multi-start search
over leaf-rate directions (``solve_method``). So does a solve whose pinned
value lies above the program's by more than CONVEX_SLACK (relative): with a
zero or near-zero weight the program's optimum can sit off the manifold.
``matchup_verify`` cross-checks the outer value against the independently
computed inner bound.

The root pin is Newton's method along a ray t * u of leaf rates: one pass
carries each node's rate and its derivative in t. Each f is jointly concave
and nondecreasing and the leaves are linear in t, so the root rate is concave
and nondecreasing in t, and Newton from t = 0 rises to the pin without
overshooting. It stops on the residual, once the root rate is within two ulps
of the pin. The free-rate audit twin, whose capped pass has kinks, keeps
``brentq``.

Rates are dicts keyed by (level, position) at the API; information is in
nats. Inside, rates are lists in the heap layout of ``BinaryTreeSource``
(see its docstring), and every composition is one pass over such a list in
descending index order, children first.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np
from scipy.optimize import brentq, minimize

from ._search import multi_start
from .errors import DomainError, ModelError
from .gauss import gaussian_cmi
from .inner import (
    ChannelContext,
    _check_distortion,
    _check_weights,
    build_joint,
    min_weighted_sum,
    weight_order,
)
from .trees import BinaryTreeSource

__all__ = [
    "f_node",
    "frd_contains",
    "telescope_f",
    "rd_out_subset_bound",
    "rd_out_min_weighted",
    "rd_out_min_weighted_free",
    "matchup_verify",
    "equality_rates",
    "max_root_rate",
    "OuterSolution",
    "MatchupReport",
]

NOISE_FLOOR_REL = 1e-9  # zero noise variances are lifted to this times the root variance
PIN_STEPS = 60  # Newton steps allowed to the root pin; the solver's pins take 4-8
# rd_out_min_weighted_free's search budget
FREE_SWEEPS = 120
FREE_GOLDEN_ITERS = 16
FREE_TOL = 1e-6
WARM_STARTS = 6  # matchup_verify's starts for every weight vector after the first
CONVEX_MAX_LEAVES = 8  # real leaves; the program has one constraint per nonempty subset
CONVEX_ITERS = 100  # SLSQP iterations allowed
CONVEX_FTOL = 1e-12  # SLSQP's stopping tolerance on the objective
CONVEX_SLACK = 1e-8  # pinned value above the program's by more than this (relative): search


def solve_method(tree: BinaryTreeSource) -> str:
    """How ``rd_out_min_weighted`` solves on this tree: "convex" or "search".

    The convex program runs unless NOISE_FLOOR_REL lifts a noise variance
    of the tree from 0 (the lifted coefficients, up to 1e9, make SLSQP's
    line search fail) or the tree has more than CONVEX_MAX_LEAVES real
    leaves; those trees keep the multi-start search.
    """
    eps = NOISE_FLOOR_REL * tree.root_var
    if any(v < eps for v in tree.heap_noise[1:]):
        return "search"
    return "convex" if tree.leaf_count - len(tree.padding) <= CONVEX_MAX_LEAVES else "search"


def _factor(r: float) -> float:
    """1 - e^(-2r), saturating cleanly at r = +inf."""
    if r == math.inf:
        return 1.0
    if r < 0:
        raise DomainError("rates must be nonnegative", code="negative-rate")
    return -math.expm1(-2.0 * r)


class _OuterEval:
    """Child-cap coefficients of one tree by heap index, degenerate noises perturbed."""

    def __init__(self, tree: BinaryTreeSource):
        m = self.m = tree.leaf_count
        eps = NOISE_FLOOR_REL * tree.root_var
        # own[n]: the variance node n passes to its children's coefficients
        own = [max(v, eps) for v in tree.heap_noise]
        # c[n]: the coefficient of child n in its parent's cap
        self.c = [0.0, 0.0]
        for n in range(2, 2 * m):
            a = tree.heap_alpha[n]
            self.c.append(a * a * own[n // 2] / own[n] if own[n // 2] > 0 else 0.0)
        self.real = [i for i in range(1, m + 1) if i not in tree.padding]

    def f(self, n: int, r1: float, r2: float) -> float:
        c = self.c
        return 0.5 * math.log1p(c[2 * n] * _factor(r1) + c[2 * n + 1] * _factor(r2))

    def sweep(self, r: list, nodes) -> list:
        """Set r[n] to f of its children for each n of ``nodes`` (children first)."""
        f = self.f
        for n in nodes:
            r[n] = f(n, r[2 * n], r[2 * n + 1])
        return r

    def compose(self, leaf_rates) -> list:
        """All node rates with internals saturated at f of their children."""
        m = self.m
        return self.sweep([0.0] * m + [float(v) for v in leaf_rates], range(m - 1, 0, -1))

    def reach(self, u) -> float:
        """Supremum over t of the root rate at leaf rates t * u (u >= 0).

        The root rate is nondecreasing in t, so its supremum is ``compose``
        with the leaves of u's support at +inf and the rest at 0.
        """
        return self.compose([math.inf if v > 0.0 else 0.0 for v in u])[1]

    def max_root(self) -> float:
        """Supremum of the composed root rate: real leaves at +inf, padding at 0."""
        real = set(self.real)
        return self.reach([float(i in real) for i in range(1, self.m + 1)])

    def ray(self, t: float, u) -> tuple[list, float]:
        """``compose`` at leaf rates t * u, with the root's tangent dr[1]/dt.

        The rates are those of ``compose`` bit for bit (same ``_factor`` and
        ``log1p`` arithmetic); the tangent carries
        df/dr1 = c1 e^(-2 r1) / (1 + c1 F1 + c2 F2) up the same pass.
        """
        m, c = self.m, self.c
        r = [0.0] * m + [t * ui for ui in u]
        dr = [0.0] * m + list(u)
        expm1, log1p = math.expm1, math.log1p
        for n in range(m - 1, 0, -1):
            a, b = c[2 * n], c[2 * n + 1]
            f1, f2 = -expm1(-2.0 * r[2 * n]), -expm1(-2.0 * r[2 * n + 1])
            x = a * f1 + b * f2
            r[n] = 0.5 * log1p(x)
            dr[n] = (a * (1.0 - f1) * dr[2 * n] + b * (1.0 - f2) * dr[2 * n + 1]) / (1.0 + x)
        return r, dr[1]

    def pin(self, u, rho: float) -> tuple[float, list, int]:
        """The t >= 0 at which the root rate of t * u meets rho, the rates
        there and the number of Newton steps taken.

        Newton from t = 0 on a concave nondecreasing root rate rises to rho
        without a bracket. It stops once rho - r[1] is within two ulps of
        rho, after PIN_STEPS steps, or if the tangent vanishes. The caller
        checks that rho is reachable along u.
        """
        tol = 2.0 * math.ulp(rho)
        t, steps = 0.0, 0
        r, slope = self.ray(t, u)
        while rho - r[1] > tol and slope > 0.0 and steps < PIN_STEPS:
            t += (rho - r[1]) / slope
            r, slope = self.ray(t, u)
            steps += 1
        return t, r, steps

    def plan(self, A) -> tuple[list, list, list]:
        """Index lists of the subset bound for leaf set A, from one bottom-up
        mask pass: the ancestor rows (nodes whose leaves meet A), the nodes
        wholly inside A and the mixed nodes, bottom-up."""
        m = self.m
        s = [0] * m + [int(i in A) for i in range(1, m + 1)]  # 0 outside, 1 inside, 2 mixed
        for n in range(m - 1, 0, -1):
            s[n] = s[2 * n] if s[2 * n] == s[2 * n + 1] else 2
        rows = [n for n in range(1, 2 * m) if s[n]]
        return rows, [n for n in rows if s[n] == 1], [n for n in reversed(rows) if s[n] == 2]

    def credit(self, r: list, zero, mixed) -> list:
        """Telescoped rates: ``zero`` nodes at 0, ``mixed`` nodes recomposed
        through f, every other node at its own rate."""
        v = list(r)
        for n in zero:
            v[n] = 0.0
        return self.sweep(v, mixed)

    def bound(self, plan, r: list) -> float:
        """Each ancestor row's rate less its credit for the complement's codes."""
        rows, inside, mixed = plan
        v = self.credit(r, inside, mixed)
        return sum(r[n] - v[n] for n in rows)

    def cap_grad(self, n: int, r: list) -> tuple[float, float, float]:
        """f at node n of its children's rates in r (the arithmetic of
        ``f``), and its partial derivatives in the two children's rates."""
        a, b = self.c[2 * n], self.c[2 * n + 1]
        r1, r2 = r[2 * n], r[2 * n + 1]
        x = a * _factor(r1) + b * _factor(r2)
        return 0.5 * math.log1p(x), a * math.exp(-2.0 * r1) / (1.0 + x), b * math.exp(-2.0 * r2) / (1.0 + x)

    def bound_grad(self, plan, r: list) -> tuple[float, list]:
        """``bound(plan, r)`` and its gradient in r by heap index.

        Every row n adds r_n and subtracts its credit v_n. A mixed row's
        credit is f of its children's credits; the others are constants (0
        inside A) or their own rates (outside A). One reverse pass over the
        mixed nodes, parents first, carries each credit's weight in the sum
        down to the children, and the weight that reaches a node outside A
        is its rate's share.
        """
        rows, inside, mixed = plan
        v = self.credit(r, inside, mixed)
        g = [0.0] * (2 * self.m)
        for n in rows:
            g[n] = 1.0
        weight = list(g)  # of each credit in the sum: 1 per row, plus what parents pass
        for n in reversed(mixed):
            _, d1, d2 = self.cap_grad(n, v)
            for child, d in ((2 * n, d1), (2 * n + 1, d2)):
                if g[child]:  # a row: its credit is 0 or composed further down
                    weight[child] += weight[n] * d
                else:  # outside A: its credit is its own rate
                    g[child] -= weight[n] * d
        return sum(r[n] - v[n] for n in rows), g

    def convex(self, w: list, rho: float) -> tuple[list, float, int, bool]:
        """Leaf rates at the optimum of the outer bound's convex program,
        its value w.R, SLSQP's iteration count and its success flag.

        Minimize w.R over (r, R) >= 0 subject to R(A) >= bound(A; r) for
        every nonempty set A of real leaves, r_1 >= rho and r_n <= f(its
        children) at every internal n. Padding rates stay at 0. The solve
        starts cold at r = R = rho, and every constraint takes its analytic
        jacobian (``bound_grad``, ``cap_grad``).
        """
        m, real = self.m, self.real
        free = list(range(1, m)) + [m + i - 1 for i in real]  # r's columns; R's follow
        col = {n: j for j, n in enumerate(free)}
        p = len(free)
        subsets = [
            ([p + i for i in members], self.plan(frozenset(real[i] for i in members)))
            for size in range(1, len(real) + 1)
            for members in itertools.combinations(range(len(real)), size)
        ]
        wR = np.array([w[i - 1] for i in real])
        grad = np.concatenate([np.zeros(p), wR])
        memo = {}

        def constraints(z):
            """Values and jacobian of every constraint, as rows >= 0."""
            key = z.tobytes()
            if key not in memo:
                memo.clear()
                # SLSQP can step an ulp or two below its bounds, and it clips
                # only what it hands the objective: clip the rates here
                r = [0.0] * (2 * m)
                for n, j in col.items():
                    r[n] = max(float(z[j]), 0.0)
                val = np.empty(len(subsets) + m)
                jac = np.zeros((len(subsets) + m, len(z)))
                for q, (cols, plan) in enumerate(subsets):
                    b, g = self.bound_grad(plan, r)
                    val[q] = z[cols].sum() - b
                    jac[q, cols] = 1.0
                    jac[q, :p] = [-g[n] for n in free]
                q = len(subsets)
                val[q], jac[q, col[1]] = r[1] - rho, 1.0
                for q, n in enumerate(range(1, m), q + 1):
                    fn, d1, d2 = self.cap_grad(n, r)
                    val[q], jac[q, col[n]] = fn - r[n], -1.0
                    for c, d in ((2 * n, d1), (2 * n + 1, d2)):
                        if c in col:  # padding rates are no variables
                            jac[q, col[c]] = d
                memo[key] = val, jac
            return memo[key]

        res = minimize(
            lambda z: (float(wR @ z[p:]), grad),
            np.full(len(grad), rho),
            jac=True,
            method="SLSQP",
            bounds=[(0.0, None)] * len(grad),
            constraints={"type": "ineq", "fun": lambda z: constraints(z)[0],
                         "jac": lambda z: constraints(z)[1]},
            options={"maxiter": CONVEX_ITERS, "ftol": CONVEX_FTOL},
        )
        leaves = [0.0] * m
        for i in real:
            leaves[i - 1] = max(float(res.x[col[m + i - 1]]), 0.0)
        return leaves, float(res.fun), int(res.nit), bool(res.success)


def f_node(tree: BinaryTreeSource, node, r1: float, r2: float) -> float:
    """Rate cap at an internal node given its children's rates (nats).

    Zero noise variances below are perturbed to NOISE_FLOOR_REL times the
    root variance; the cap is continuous in that limit.
    """
    h = tree.index(node)
    if h >= tree.leaf_count:
        raise ModelError(f"node {node} is not internal", code="unknown-node")
    return _OuterEval(tree).f(h, r1, r2)


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
    """Membership of r in the feasible noise-quantization set at distortion d."""
    _check_distortion(d)
    rates = _check_rates(tree, r)
    if any(v < -tol for v in rates[1:]):
        return False
    if tree.root_var > 0 and rates[1] < 0.5 * math.log(tree.root_var / d) - tol:
        return False
    ev = _OuterEval(tree)
    return not any(
        rates[n] > ev.f(n, max(rates[2 * n], 0.0), max(rates[2 * n + 1], 0.0)) + tol
        for n in range(1, ev.m)
    )


def telescope_f(tree: BinaryTreeSource, node, A: Iterable[int], r: dict, mode: str = "both") -> float:
    """Recursive f-composition of r at ``node`` relative to leaf set A.

    Nodes whose observations sit fully inside A (or fully outside) bottom the
    recursion out at their own rate; in "only" mode the rates of nodes fully
    outside A are zeroed instead. Mixed nodes recurse through f.
    """
    if mode not in ("both", "only"):
        raise ModelError("mode must be 'both' or 'only'", code="bad-mode")
    rates = _check_rates(tree, r)
    kept = _check_subset(tree, A)
    h = tree.index(node)
    ev = _OuterEval(tree)
    _, outside, mixed = ev.plan(frozenset(range(1, ev.m + 1)) - kept)
    # only the subtree of h is composed: n lies in it when its leading bits are h
    below = [n for n in mixed if n >= h and n >> (n.bit_length() - h.bit_length()) == h]
    return ev.credit(rates, outside if mode == "only" else (), below)[h]


def rd_out_subset_bound(tree: BinaryTreeSource, r: dict, A: Iterable[int]) -> float:
    """Lower bound on the sum rate of encoder subset A from rates r.

    Sums, over every level and every ancestor of A, the node rate minus the
    telescoped credit for what the complement's codes already convey.
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

    r at node (k, i) is I(x_(k,i); u_{O(k,i)} | parent) (no conditioning at
    the root); these saturate every internal cap and witness feasibility at
    the channel's achieved distortion. Oracle-grade (covariance based), used
    by verification paths rather than optimizers.
    """
    # the joint lists x in heap order (x_n at n - 1), then u_1..u_m, so the
    # u of heap leaf h sits at h + m - 1
    M = build_joint(tree, alpha).matrix
    m = tree.leaf_count
    out = {}
    for n, node in enumerate(tree.nodes(), 1):
        span = m >> (node[0] - 1)  # node n's leaves are heap n*span .. (n+1)*span - 1
        uo = [h + m - 1 for h in range(n * span, (n + 1) * span)]
        out[node] = gaussian_cmi(M, [n - 1], uo, [] if n == 1 else [n // 2 - 1])
    return out


class OuterSolution(NamedTuple):
    """The outer value, the pinned rates it is taken at and their leaf
    direction ``theta``, and what the solve cost.

    ``method`` names the solver whose direction was pinned: that of
    ``solve_method(tree)``, or "search" where the convex solve handed over
    (see ``rd_out_min_weighted``). For "convex", ``iterations`` and
    ``converged`` are SLSQP's iteration count and success flag. For
    "search", ``iterations`` counts distinct objective evaluations (one
    root pin each) and ``converged`` only says that a direction reaching
    the root pin was found: the search has no optimality test.
    """

    value: float
    rates: dict
    theta: np.ndarray
    method: str
    iterations: int
    converged: bool


def _weighted_plan(ev: _OuterEval, w: list[float]) -> list[tuple[float, tuple]]:
    """Nested suffix sets of the ascending weight order with their deltas."""
    sigma = list(reversed(weight_order(w)))  # ascending
    plans = []
    prev = 0.0
    for j, s in enumerate(sigma):
        delta = w[s - 1] - prev
        prev = w[s - 1]
        if delta <= 0.0:
            continue
        plans.append((delta, ev.plan(frozenset(sigma[j:]))))
    return plans


def rd_out_min_weighted(
    tree: BinaryTreeSource,
    weights,
    d: float,
    *,
    starts: int = 32,
    sweeps: int = 200,
    tol: float = 1e-6,
    seed: int = 0,
    warm=None,
    _ev: _OuterEval | None = None,
) -> OuterSolution:
    """Best (largest) computable lower bound on the weighted sum rate.

    On trees that ``solve_method`` marks "convex", one SLSQP solve of the
    convex program (``_OuterEval.convex``) gives the optimal leaf rates;
    on the others, and when the convex direction's pinned value lies above
    the program's by more than CONVEX_SLACK, ``multi_start`` searches over
    leaf-rate directions (the convex direction among its starts), and
    ``starts``, ``sweeps``, ``tol``, ``seed`` and ``warm`` set its budget.
    Either way the leaf direction is then scaled onto the equality
    manifold: every internal rate saturates its cap, and the root is
    pinned to half log(root variance / d) by monotone Newton along the
    direction (``_OuterEval.pin``), stopped on the root rate's residual,
    so the returned rates meet the distortion. Returns the weighted
    combination of nested-subset bounds at those rates (a valid lower
    bound for every point of the rate region at distortion d).
    """
    ev = _ev if _ev is not None else _OuterEval(tree)
    m = ev.m
    w = _check_weights(weights, m)
    _check_distortion(d)
    method = solve_method(tree)
    s2 = tree.root_var
    if s2 == 0.0 or d >= s2:
        return OuterSolution(0.0, {n: 0.0 for n in tree.nodes()}, np.zeros(m), method, 0, True)
    rho = 0.5 * math.log(s2 / d)
    cap = ev.max_root()
    if rho >= cap * (1 - 1e-12):
        raise DomainError(
            f"distortion {d} requires root rate {rho:.6f} beyond the achievable "
            f"maximum {cap:.6f}",
            code="infeasible-distortion",
        )
    plans = _weighted_plan(ev, w)
    real0 = [i - 1 for i in ev.real]
    reach = {}  # ev.reach(u) depends only on u's support

    def solve_rates(x):
        mx = max(x[i] for i in real0)
        if mx <= 1e-12:
            return None
        u = [0.0] * m
        for i in real0:
            u[i] = x[i] / mx
        support = tuple(v > 0.0 for v in u)
        top = reach.get(support)
        if top is None:
            top = reach[support] = ev.reach(u)
        if top < rho:
            return None
        return ev.pin(u, rho)[1]

    evals = 0

    def objective(x):
        nonlocal evals
        evals += 1
        rates = solve_rates(x)
        if rates is None:
            return math.inf
        return sum(delta * ev.bound(plan, rates) for delta, plan in plans)

    extra = []
    if method == "convex":
        leaves, program, iterations, converged = ev.convex(w, rho)
        top = max(leaves)
        best_x = [v / top for v in leaves] if top > 0.0 else leaves
        best_f = objective(best_x)
        # a (near-)zero weight leaves the program's optimum off the equality
        # manifold, and its pinned direction can lose value: search then
        if not best_f <= program + CONVEX_SLACK * (1.0 + abs(program)):
            method = "search"
            extra.append(best_x)
    if method == "search":
        if warm is not None:
            warm = [float(v) for v in warm]
            if len(warm) == m and max(warm) > 0:
                extra.insert(0, warm)
        evals = 0
        best_x, best_f = multi_start(
            objective,
            m,
            real0,
            starts=starts,
            seed=seed,
            sweeps=sweeps,
            tol=tol,
            extra_starts=extra,
        )
        iterations, converged = evals, True
    rates = solve_rates(best_x)
    if rates is None or not math.isfinite(best_f):
        raise DomainError(
            "no feasible rate assignment found for the requested distortion",
            code="infeasible-distortion",
        )
    theta = np.array([best_x[i] if i in real0 else 0.0 for i in range(m)])
    return OuterSolution(best_f, dict(zip(tree.nodes(), rates[1:])), theta,
                         method, iterations, converged)


def rd_out_min_weighted_free(
    tree: BinaryTreeSource,
    weights,
    d: float,
    *,
    starts: int = 32,
    seed: int = 0,
) -> float:
    """Audit twin of rd_out_min_weighted over fully free node rates.

    Candidate rates are projected into feasibility (internal caps applied
    bottom-up, root pinned) instead of being parameterized on the equality
    manifold. Slower and only used to confirm that the restricted
    parameterization is not leaving value on the table.
    """
    ev = _OuterEval(tree)
    m = ev.m
    w = _check_weights(weights, m)
    _check_distortion(d)
    s2 = tree.root_var
    if s2 == 0.0 or d >= s2:
        return 0.0
    rho = 0.5 * math.log(s2 / d)
    if rho >= ev.max_root() * (1 - 1e-12):
        raise DomainError("unreachable distortion", code="infeasible-distortion")
    plans = _weighted_plan(ev, w)
    # every node but the root and the padding leaves (heap m + i - 1 for leaf i)
    coords = [n for n in range(2, 2 * m) if n - m + 1 not in tree.padding]
    rmax = 4.0 * rho + 8.0

    def sweep(x, scale):
        """Bottom-up cap pass at the scaled proposal; returns the rates with
        the root pinned and the root's cap."""
        rates = [0.0] * (2 * m)
        for val, n in zip(x, coords):
            rates[n] = val * rmax * scale
        for n in range(m - 1, 1, -1):
            rates[n] = min(rates[n], ev.f(n, rates[2 * n], rates[2 * n + 1]))
        root_cap = ev.f(1, rates[2], rates[3]) if m > 1 else rho
        rates[1] = rho
        return rates, root_cap

    def project(x):
        if not any(v > 0 for v in x):
            x = [1.0] * len(x)
        rates, root_cap = sweep(x, 1.0)
        if root_cap >= rho:
            return rates
        # repair: inflate the proposal along its ray until the root cap
        # reaches the pin (the cap is nondecreasing in the scale)
        t_hi = 2.0
        while sweep(x, t_hi)[1] < rho:
            t_hi *= 2.0
            if t_hi > 2.0 ** 60:
                return None  # support of the ray cannot reach the pin
        t = brentq(lambda s: sweep(x, s)[1] - rho, 1.0, t_hi,
                   xtol=1e-13, rtol=1e-13, maxiter=300)
        return sweep(x, t)[0]

    def objective(x):
        rates = project(x)
        if rates is None:
            return math.inf
        return sum(delta * ev.bound(plan, rates) for delta, plan in plans)

    _, best_f = multi_start(
        objective,
        len(coords),
        list(range(len(coords))),
        starts=starts,
        seed=seed,
        sweeps=FREE_SWEEPS,
        golden_iters=FREE_GOLDEN_ITERS,
        tol=FREE_TOL,
    )
    return best_f


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
    sweeps: int = 60,
    seed: int = 0,
) -> MatchupReport:
    """Run both bound optimizers per weight vector and report the gaps.

    The two computations share nothing beyond the weight-ordering convention;
    agreement within combined optimizer tolerance is the machine check that
    the region's inner and outer descriptions coincide. Later weight vectors
    reuse the previous optimum as a warm start with a reduced start budget.
    """
    report = MatchupReport(d, tol)
    ictx = ChannelContext(tree)
    ev = _OuterEval(tree)
    warm_in = warm_out = None
    for idx, wv in enumerate(weight_vectors):
        budget = starts if idx == 0 else WARM_STARTS
        isol = min_weighted_sum(
            tree, wv, d, starts=budget, sweeps=sweeps,
            seed=seed + idx, warm=warm_in, _ctx=ictx,
        )
        osol = rd_out_min_weighted(
            tree, wv, d, starts=budget, sweeps=sweeps,
            seed=seed + idx, warm=warm_out, _ev=ev,
        )
        warm_in, warm_out = isol.alpha, osol.theta
        report.rows.append(
            (tuple(float(v) for v in wv), isol.value, osol.value, isol.value - osol.value)
        )
    return report
