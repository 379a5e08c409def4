"""Achievable (inner) bound: Gaussian test channels plus binning.

Each encoder i quantizes its leaf observation through the variance-preserving
test channel u_i = alpha_i x_i + w_i, Var(w_i) = (1 - alpha_i^2) Var(x_i),
alpha_i in [0, 1]. For a fixed channel the achievable rate vectors form a
contra-polymatroid {R : sum_{i in A} R_i >= f(A)} whose rank function is
f(A) = I(x_A; u_A | u_{A^c}); its vertices come from permutation chains, and
a weighted sum rate is minimized at the vertex of the descending-weight
permutation. The (R_a, R_b) region slice at supporting weight lam is that
vertex for weight lam on a, 1 - lam on b and 0 elsewhere: the chain
[a, b, rest] when lam >= 1/2, else [b, a, rest]. So ``min_weighted_sum`` and
``region_slice`` run one search. The channel is searched by seeded multi-start
coordinate descent over directions, each scaled onto the distortion boundary
by solving a secular equation (one eigendecomposition of the whitened leaves
by numpy's ``eigh_lo`` gufunc, then a monotone Newton iteration); a region
slice repairs each direction once for all its supporting weights. Vertices
come from the Cholesky pivots of the covariance of u; encoders with alpha = 0,
padding included, are left out of every factorization, since their
contribution is exactly zero.

Leaf/encoder positions are 1-based throughout the public subset API, matching
the tree node indexing.
"""

import math
import numbers
import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo

from . import gauss
from ._search import multi_start
from .errors import (DomainError, ModelError, check_count, check_distortion, check_tolerance,
                     check_weights)
from .gauss import Cov, gaussian_cmi
from .trees import BinaryTreeSource, binary_cov

__all__ = [
    "build_joint",
    "rank_f",
    "distortion",
    "RankFunction",
    "tabulate_rank",
    "polymatroid_audit",
    "vertex_rates",
    "weight_order",
    "min_weighted_sum",
    "region_slice",
    "InnerSolution",
    "ChannelContext",
]


# ---------------------------------------------------------------------------
# channels and rank functions


def _check_alpha(tree: BinaryTreeSource, alpha) -> np.ndarray:
    """The channel as an array: one coefficient in [0, 1] per leaf (NaN
    refused with the rest), 0 at padding."""
    a = np.asarray(alpha, dtype=float)
    if a.shape != (tree.leaf_count,):
        raise ModelError(
            f"alpha must have one entry per leaf ({tree.leaf_count})", code="bad-channel"
        )
    if not np.all((a >= -1e-12) & (a <= 1 + 1e-12)):  # NaN compares false
        raise ModelError("alpha entries must be numbers in [0, 1]", code="bad-channel")
    a = np.clip(a, 0.0, 1.0)
    for i in tree.padding:
        if a[i - 1] != 0.0:
            raise ModelError(
                f"padding leaf {i} must have alpha 0", code="padding-rate-pinned"
            )
    return a


def build_joint(tree: BinaryTreeSource, alpha) -> Cov:
    """Covariance of all tree nodes plus the quantized observations u_1..u_m.

    Var(u_i) equals the leaf variance (variance-preserving channel) and every
    cross-covariance picks up one factor alpha_i. The 2m - 1 nodes come first,
    in ``binary_cov`` order (heap node n at row n - 1), then u_1..u_m.
    """
    a = _check_alpha(tree, alpha)
    cov = binary_cov(tree)
    K = cov.matrix
    n = K.shape[0]
    m = tree.leaf_count
    leaf_idx = [tree.index(v) - 1 for v in tree.leaves()]
    J = np.zeros((n + m, n + m))
    J[:n, :n] = K
    J[n:, :n] = a[:, None] * K[leaf_idx, :]
    J[:n, n:] = J[n:, :n].T
    J[n:, n:] = np.outer(a, a) * K[np.ix_(leaf_idx, leaf_idx)]
    J[n:, n:][np.diag_indices(m)] = K[leaf_idx, leaf_idx]
    labels = cov.labels + tuple(f"u{i}" for i in range(1, m + 1))
    return Cov(labels, J)


def _encoders(joint: Cov) -> int:
    """The encoder count m of a ``build_joint`` covariance: 3m - 1 rows, m = 2^(L-1)."""
    m, r = divmod(len(joint.labels) + 1, 3)
    if r or m & (m - 1):
        raise ModelError(f"no build_joint output has {len(joint.labels)} rows", code="bad-joint")
    return m


def rank_f(joint: Cov, A: Iterable[int]) -> float:
    """f(A) = I(x_A; u_A | u_{A^c}) in nats; +inf in the degenerate case."""
    m = _encoders(joint)
    A = sorted(set(int(i) for i in A))
    if any(not 1 <= i <= m for i in A):
        raise ModelError(f"subset out of range 1..{m}", code="bad-subset")
    if not A:
        return 0.0
    xA = [m + i - 2 for i in A]  # leaf i is heap node m + i - 1
    uA = [2 * m + i - 2 for i in A]
    uAc = [2 * m + i - 2 for i in range(1, m + 1) if i not in A]
    return gaussian_cmi(joint.matrix, xA, uA, uAc)


def distortion(joint: Cov) -> float:
    """MMSE of the root given all quantized observations."""
    m = _encoders(joint)
    return gauss.mmse(joint.matrix, 0, list(range(2 * m - 1, 3 * m - 1)))


@dataclass(frozen=True)
class RankFunction:
    """Tabulated f(A) over every subset of 1..ground (extended reals)."""

    ground: int
    table: dict

    def __post_init__(self):
        want = 1 << self.ground
        if len(self.table) != want:
            raise ModelError(
                f"rank table must cover all {want} subsets", code="bad-rank-table"
            )

    def __call__(self, A: Iterable[int]) -> float:
        return self.table[frozenset(A)]

    def subsets(self):
        return sorted(self.table, key=lambda s: (len(s), sorted(s)))


def tabulate_rank(tree: BinaryTreeSource, alpha) -> RankFunction:
    """Tabulate f over all encoder subsets via the Gaussian oracle."""
    joint = build_joint(tree, alpha)
    m = tree.leaf_count
    table = {frozenset(): 0.0}
    ground = list(range(1, m + 1))
    for size in range(1, m + 1):
        for A in combinations(ground, size):
            table[frozenset(A)] = rank_f(joint, A)
    return RankFunction(m, table)


def polymatroid_audit(f: RankFunction, tol: float = 1e-9):
    """Check nonnegativity, normalization, monotonicity, supermodularity.

    Returns a list of (kind, A, B, amount) violations; empty means f is a
    contra-polymatroid rank function to tolerance ``tol``, a finite number
    >= 0 (``bad-tolerance``). Infinite values are legal and satisfy every
    inequality they appear on the large side of.
    """
    check_tolerance(tol)
    out = []
    ground = set(range(1, f.ground + 1))
    empty = f(())
    if not abs(empty) <= tol:
        out.append(("empty", frozenset(), None, empty))
    for A in f.subsets():
        fA = f(A)
        if fA < -tol:
            out.append(("nonnegative", A, None, fA))
        for e in sorted(ground - A):
            fAe = f(A | {e})
            if fAe < fA - tol:
                out.append(("monotone", A, frozenset({e}), fAe - fA))
    subsets = f.subsets()
    for A in subsets:
        for B in subsets:
            lhs = f(A | B) + f(A & B)
            rhs = f(A) + f(B)
            if lhs < rhs - tol:
                out.append(("supermodular", A, B, lhs - rhs))
    return out


def weight_order(weights) -> list[int]:
    """Vertex permutation for a weight vector: descending, ties by position.

    Positions are 1-based. The chain starts at the most expensive encoder, so
    the large supermodular increments land on the cheap ones.
    """
    w = check_weights(weights)
    return sorted(range(1, len(w) + 1), key=lambda i: (-w[i - 1], i))


def vertex_rates(f: RankFunction, perm: Sequence[int]) -> np.ndarray:
    """Rate vector of the chain vertex b^(perm); needs finite f on the chain."""
    if sorted(perm) != list(range(1, f.ground + 1)):
        raise ModelError("perm must be a permutation of 1..ground", code="bad-permutation")
    rates = np.zeros(f.ground)
    prev = 0.0
    chain = set()
    for i in perm:
        chain.add(i)
        cur = f(chain)
        if not math.isfinite(cur):
            raise DomainError(
                f"rank is infinite on chain prefix {sorted(chain)}", code="infinite-rank"
            )
        rates[i - 1] = max(cur - prev, 0.0)
        prev = cur
    return rates


# ---------------------------------------------------------------------------
# fast evaluation context for the optimizer


_NEWTON_CAP = 50  # repair iterations; from s = 1 they converge quadratically
_NEWTON_STEP_RTOL = 1e-12  # a step that moves s by less than this is the last
# region_slice's search budget per supporting weight, lighter than the
# _search SWEEPS, GOLDEN_ITERS and TOL that min_weighted_sum runs with
SLICE_SWEEPS = 40
SLICE_GOLDEN_ITERS = 14
SLICE_TOL = 1e-7


def _pivots(M):
    """Cholesky pivots of a symmetric matrix in its given order, no pivoting.

    Pivot j is the variance of row j given rows 0..j-1, the square of the
    Cholesky diagonal; their logs sum to every leading log-determinant.
    Elimination overwrites M. None when M is not positive definite.
    """
    a = M
    n = len(a)
    out = []
    for col in range(n):
        acol = a[col]
        p = acol[col]
        if p <= 0.0:
            return None
        out.append(p)
        for r in range(col + 1, n):
            arow = a[r]
            f = arow[col] / p
            if f != 0.0:
                for j in range(col + 1, n):
                    arow[j] -= f * acol[j]
    return out


def _secular(lam, c2, s: float):
    """h(s) = sum_k c_k^2 / (lam_k + s) and -h'(s)."""
    h = dh = 0.0
    for lk, ck in zip(lam, c2):
        den = lk + s
        if den > 0.0:  # a null direction of U (a noiseless copy) has c_k = 0
            q = ck / den
            h += q
            dh += q / den
    return h, dh


def _copies_root(tree: BinaryTreeSource, n: int) -> bool:
    """Whether heap node n is a nonzero multiple of the root: every edge
    above it has zero noise and a nonzero coefficient."""
    while n > 1:
        if tree.heap_noise[n] != 0.0 or tree.heap_alpha[n] == 0.0:
            return False
        n //= 2
    return True


class ChannelContext:
    """Precomputed second moments of one tree for fast channel evaluation.

    Every kernel works on the encoders with alpha > 0 only. An encoder with
    alpha = 0 (padding always) sends a u independent of everything else with
    Var(u) equal to its noise variance, so it is a diagonal block of U and
    every rate or rank increment it contributes is exactly 0.
    """

    def __init__(self, tree: BinaryTreeSource):
        K = binary_cov(tree).matrix
        m = tree.leaf_count
        idx = [tree.index(v) - 1 for v in tree.leaves()]
        self.m = m
        self.leaf_cov = [[float(K[a, b]) for b in idx] for a in idx]
        self.leaf_var = [self.leaf_cov[i][i] for i in range(m)]
        self.root_leaf = [float(K[0, j]) for j in idx]
        self.root_var = float(K[0, 0])
        self.padding = frozenset(i - 1 for i in tree.padding)
        self.real = [i for i in range(m) if i not in self.padding]
        if m == 1 or any(_copies_root(tree, m + i) for i in self.real):
            # the root is observed directly or through copy edges: exactly 0,
            # where the MMSE below would leave a rounding residue
            self.d_floor = 0.0
        else:
            self.d_floor = gauss.mmse(K, 0, [idx[i] for i in self.real])
        # whitened leaves for the repair: correlations less the identity, and
        # root-leaf covariances over the leaf standard deviations
        inv = [1.0 / math.sqrt(v) if v > 0.0 else 0.0 for v in self.leaf_var]
        self._corr_off = [
            [0.0 if i == j else inv[i] * self.leaf_cov[i][j] * inv[j] for j in range(m)]
            for i in range(m)
        ]
        self._rho = [r * s for r, s in zip(self.root_leaf, inv)]

    def _u(self, alpha, order) -> list:
        """Covariance of u over the 0-based leaves ``order``, in that order."""
        K, v = self.leaf_cov, self.leaf_var
        rows = []
        for i in order:
            ai, Ki = alpha[i], K[i]
            row = [ai * alpha[j] * Ki[j] for j in order]
            row[len(rows)] = v[i]  # variance-preserving channel
            rows.append(row)
        return rows

    def distortion(self, alpha) -> float:
        """MMSE of the root given u: the last Cholesky pivot with the root last."""
        live = [i for i in range(self.m) if alpha[i] > 0.0]
        q = [alpha[i] * self.root_leaf[i] for i in live]
        M = self._u(alpha, live)
        for row, qi in zip(M, q):
            row.append(qi)
        M.append(q + [self.root_var])
        piv = _pivots([row[:] for row in M])
        if piv is not None:
            return piv[-1]
        # U is singular (a noiseless copy), or the root is determined by u
        return gauss.mmse(np.asarray(M), len(live), range(len(live)))

    def _chain_pivots(self, alpha, perm):
        """Var(u_i | u of the encoders after i in perm), by 0-based leaf.

        One Cholesky of U in reversed-perm order gives every suffix at once.
        When U is singular (a noiseless copy) the Gaussian oracle gives each
        variance instead, 0 where u_i is fixed by the u's after it: the chain
        step of such an encoder, I(x_i; u_i | u after i), is 0.
        """
        order = [e - 1 for e in reversed(perm) if alpha[e - 1] > 0.0]
        piv = _pivots(self._u(alpha, order))
        if piv is None:
            U = np.asarray(self._u(alpha, order))
            piv = [gauss.mmse(U, j, range(j)) for j in range(len(order))]
            piv = [v if v > gauss.DEGENERATE_RTOL * U[j, j] else 0.0 for j, v in enumerate(piv)]
        return dict(zip(order, piv))

    def chain_value(self, alpha, perm, weights) -> float:
        """Weighted sum rate at the chain vertex of ``perm`` (may be +inf)."""
        cond = self._chain_pivots(alpha, perm)
        val = 0.0
        for enc in perm:
            w = weights[enc - 1]
            if w <= 0.0:
                break  # descending order: every later weight is zero too
            a = alpha[enc - 1]
            if a <= 0.0 or cond[enc - 1] == 0.0:
                continue
            noise = (1.0 - a * a) * self.leaf_var[enc - 1]
            if noise <= 0.0:
                return math.inf
            val += w * 0.5 * math.log(cond[enc - 1] / noise)
        return val

    def chain_rates(self, alpha, perm) -> np.ndarray:
        """All vertex increments for ``perm`` (math.inf on degenerate steps)."""
        cond = self._chain_pivots(alpha, perm)
        rates = np.zeros(self.m)
        dead = False
        for enc in perm:
            a = alpha[enc - 1]
            if dead:
                rates[enc - 1] = math.inf
                continue
            if a <= 0.0 or cond[enc - 1] == 0.0:
                continue
            noise = (1.0 - a * a) * self.leaf_var[enc - 1]
            if noise <= 0.0:
                rates[enc - 1] = math.inf
                dead = True  # every later prefix has infinite rank
                continue
            rates[enc - 1] = max(0.5 * math.log(cond[enc - 1] / noise), 0.0)
        return rates

    def repair(self, direction, d):
        """Scale a direction onto the distortion-d boundary; None if it can't reach.

        Along alpha = t u, with s = 1/t^2, U / t^2 = V^(1/2) (C + s I) V^(1/2)
        where V holds the leaf variances and C = D_u (R - I) D_u for the leaf
        correlations R. With C = Q diag(lam) Q^T and c = Q^T D_u rho, the
        distortion is root_var - h(s), h(s) = sum_k c_k^2 / (lam_k + s): a
        secular equation. h is a Stieltjes function, so 1/h is concave and
        Newton on 1/h from s = 1 (t = 1) rises monotonically to the root;
        every iterate keeps the distortion at or below d. NaN coordinates
        count as zero; an infinite one cannot be scaled (None).

        The eigendecomposition calls numpy's ``eigh_lo`` gufunc, the LAPACK
        ``dsyevd`` on the lower triangle behind ``np.linalg.eigh``, without
        eigh's wrapper cost; scipy is not needed. The gufunc reports a failure
        as NaN eigenvalues, and the repair raises ``np.linalg.LinAlgError`` on
        them as eigh does.
        """
        live = [i for i in self.real if direction[i] > 0.0]  # NaN compares false
        mx = max((direction[i] for i in live), default=0.0)
        if not 1e-12 < mx < math.inf:
            return None
        g = self.root_var - d
        if g <= 0.0:
            return [0.0] * self.m  # the silent channel already meets d
        u = [direction[i] / mx for i in live]
        R = self._corr_off
        lam, Q = eigh_lo(
            [[ui * uj * R[i][j] for j, uj in zip(live, u)] for i, ui in zip(live, u)]
        )
        lam = lam.tolist()
        if any(map(math.isnan, lam)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        c2 = (np.dot([ui * self._rho[i] for i, ui in zip(live, u)], Q) ** 2).tolist()
        h, dh = _secular(lam, c2, 1.0)
        if h < g:
            return None  # even t = 1 leaves the distortion above d
        s = 1.0
        for _ in range(_NEWTON_CAP):
            step = h * (h - g) / (g * dh)
            s += step
            if step <= _NEWTON_STEP_RTOL * s:
                break
            h, dh = _secular(lam, c2, s)
        t = 1.0 / math.sqrt(s)
        alpha = [0.0] * self.m
        for i, ui in zip(live, u):
            alpha[i] = t * ui
        return alpha


class InnerSolution(NamedTuple):
    value: float
    alpha: np.ndarray
    rates: np.ndarray
    distortion: float
    perm: tuple[int, ...]


def _silent_meets(ctx: ChannelContext, d) -> bool:
    """True when the silent channel (alpha = 0) meets d; raises when no channel can."""
    check_distortion(d)
    if ctx.root_var == 0.0 or d >= ctx.root_var:
        return True
    if d <= ctx.d_floor * (1 + 1e-12):
        raise DomainError(
            f"distortion {d} is at or below the all-observations MMSE "
            f"{ctx.d_floor:.6e}",
            code="infeasible-distortion",
        )
    return False


def _chain_search(ctx: ChannelContext, d, perm, weights, repairs: dict, **search):
    """Best channel on the distortion-d boundary for the chain vertex of ``perm``.

    Minimizes ``chain_value`` over directions scaled onto the boundary by
    ``repair``, with ``multi_start`` and its keyword budget ``search``.
    ``repairs`` maps ``tuple(direction)`` to ``repair(direction, d)`` (None
    included); a direction found there is not repaired again, and each new
    one is added. The repair is a pure function of the direction at fixed d,
    so a caller may share one dict between searches at the same d.
    Returns (alpha, value), or None when no start reached a finite value.
    """

    def repaired(x):
        key = tuple(x)
        if key not in repairs:
            repairs[key] = ctx.repair(x, d)
        return repairs[key]

    def objective(x):
        rep = repaired(x)
        if rep is None:
            return math.inf
        return ctx.chain_value(rep, perm, weights)

    best_x, best_f = multi_start(objective, ctx.m, ctx.real, **search)
    if not math.isfinite(best_f):
        return None
    return repaired(best_x), best_f


def _check_warm(warm, m: int) -> list[float]:
    """A warm start as m floats, NaN entries as 0 (``repair`` reads them so);
    anything but one real number per leaf is refused (``bad-warm``)."""
    entries = list(warm) if isinstance(warm, Iterable) else []
    if len(entries) != m or not all(isinstance(v, numbers.Real) for v in entries):
        raise ModelError(f"a warm start must be {m} numbers, one per leaf", code="bad-warm")
    return [0.0 if math.isnan(v) else float(v) for v in entries]


def min_weighted_sum(
    tree: BinaryTreeSource,
    weights,
    d: float,
    *,
    starts: int = 16,
    seed: int = 0,
    warm=None,
    _ctx: ChannelContext | None = None,
) -> InnerSolution:
    """Minimize sum_i w_i R_i over channels meeting distortion d.

    The distortion constraint is active at any optimum (rates grow with every
    alpha), so the search runs over direction vectors, each scaled onto the
    boundary by ``ChannelContext.repair``; the rate vector is the chain
    vertex of the descending-weight permutation. Multi-start coordinate
    descent with ``starts`` starts drawn from ``seed`` (the sweep cap and
    stopping tolerance are ``_search``'s SWEEPS and TOL); results are
    deterministic for a fixed seed. ``warm``, a direction (m numbers,
    ``bad-warm``), joins the starts.
    ``starts`` must be an integer >= 1 (``bad-budget``) at any d.
    """
    starts = check_count(starts, "starts", code="bad-budget")
    ctx = _ctx if _ctx is not None else ChannelContext(tree)
    m = ctx.m
    w = check_weights(weights, m)
    warm = None if warm is None else _check_warm(warm, m)
    perm = weight_order(w)
    if _silent_meets(ctx, d):
        return InnerSolution(0.0, np.zeros(m), np.zeros(m), ctx.root_var, tuple(perm))
    extra = [warm] if warm is not None and max(warm) > 0 else []
    found = _chain_search(ctx, d, perm, w, {}, starts=starts, seed=seed, extra_starts=extra)
    if found is None:
        raise DomainError(
            "no feasible channel found for the requested distortion",
            code="infeasible-distortion",
        )
    alpha, value = found
    rates = ctx.chain_rates(alpha, perm)
    return InnerSolution(value, np.asarray(alpha), rates, ctx.distortion(alpha), tuple(perm))


def region_slice(
    tree: BinaryTreeSource,
    d: float,
    pair: tuple[int, int],
    *,
    points: int = 17,
    starts: int = 8,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Boundary polyline of the (R_a, R_b) slice at distortion d.

    The other encoders' rates are unconstrained, so the slice point at
    supporting weight lam minimizes lam R_a + (1 - lam) R_b over the region:
    it is the chain vertex of the weight vector with lam on a, 1 - lam on b
    and 0 elsewhere, i.e. of the chain [a, b, rest] when lam >= 1/2 and
    [b, a, rest] otherwise, read at a and b. Sweeps lam over [0, 1], runs the
    chain-vertex search of ``min_weighted_sum`` at each (same distortion
    guards, the lighter SLICE_* budget), and keeps the Pareto points; points
    are achievable by construction. The weights' searches start from one
    seeded pool and meet on the same golden-section points, so they share
    one memo of repaired directions: each direction is repaired once per
    slice. A point is kept only if it lowers R_b by more than SLICE_TOL.
    ``pair`` is two integers (``bad-pair`` otherwise, at any m): with two or
    more encoders, two distinct positions 1..m of real encoders. With a
    single encoder the slice degenerates to one threshold point, whatever
    the two integers. ``points`` and ``starts`` must be integers >= 1
    (``bad-budget``) at any d.
    """
    points = check_count(points, "points", code="bad-budget")
    starts = check_count(starts, "starts", code="bad-budget")
    try:
        a, b = (operator.index(v) for v in pair)
    except (TypeError, ValueError):
        raise ModelError(f"pair must be two integers, not {pair!r}", code="bad-pair") from None
    ctx = ChannelContext(tree)
    m = ctx.m
    if m > 1:
        if not (1 <= a <= m and 1 <= b <= m) or a == b:
            raise ModelError("pair must be two distinct encoder positions", code="bad-pair")
        if (a - 1) in ctx.padding or (b - 1) in ctx.padding:
            raise ModelError("pair encoders must not be padding", code="bad-pair")
    if _silent_meets(ctx, d):
        return [(0.0, 0.0)]
    if m == 1:
        return [(0.5 * math.log(ctx.root_var / d), 0.0)]

    rest = [i for i in range(1, m + 1) if i not in (a, b)]
    repairs = {}  # every weight's search starts from the same seeded pool
    out = []
    lambdas = [j / (points - 1) for j in range(points)] if points > 1 else [0.5]
    for lam in lambdas:
        perm = [a, b] + rest if lam >= 0.5 else [b, a] + rest
        w = [0.0] * m
        w[a - 1], w[b - 1] = lam, 1.0 - lam
        found = _chain_search(
            ctx, d, perm, w, repairs, starts=starts, seed=seed,
            sweeps=SLICE_SWEEPS, golden_iters=SLICE_GOLDEN_ITERS, tol=SLICE_TOL,
        )
        if found is None:
            continue
        rates = ctx.chain_rates(found[0], perm)
        ra, rb = float(rates[a - 1]), float(rates[b - 1])
        if math.isfinite(ra) and math.isfinite(rb):
            out.append((ra, rb))

    # Pareto-filter and order by R_a; a point must lower R_b by more than the
    # search tolerance, or it is the same boundary point found twice
    out.sort()
    front = []
    best_rb = math.inf
    for ra, rb in out:
        if rb < best_rb - SLICE_TOL:
            front.append((ra, rb))
            best_rb = rb
    return front
