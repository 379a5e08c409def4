"""Tests for Gauss-Markov tree structure of observed Gaussians.

Three layers:

* ``markov_graph``: which conditional-independence graph do the variables
  satisfy (zeros of the precision matrix), and is it a forest? Its exact
  twin reads fixtures entered as Fractions free of any float tolerance, by
  plain Gauss-Jordan on tiny matrices (zero pivots skipped, no other care).
* ``check_embed_conditions``: the two correlation-triple conditions that are
  necessary for embeddability into some Gauss-Markov tree with the observed
  variables at (a subset of) the nodes, and sufficient at N = 3.
* ``embed3`` / ``converse_witness``: for three variables, either build the
  hidden-star embedding explicitly or exhibit a relabeling whose regression
  coefficients certify impossibility.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ModelError
from .gauss import check_cov
from .trees import MarkovTree, TreeNode

__all__ = [
    "markov_graph",
    "markov_graph_exact",
    "check_embed_conditions",
    "embed3",
    "converse_witness",
    "TripleViolation",
    "Witness",
]

PRECISION_TOL = 1e-9  # relative threshold for a precision entry to count as an edge
_COND_TOL = 1e-12  # slack of the triple conditions on unit-variance correlations


def _is_forest(adj: np.ndarray) -> bool:
    """Cycle check via union-find on the undirected edge set."""
    n = adj.shape[0]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if adj[i, j]:
                ri, rj = find(i), find(j)
                if ri == rj:
                    return False
                parent[ri] = rj
    return True


def _rat_matrix(entries) -> list[list[Fraction]]:
    """Deep-copy a square matrix into Fractions (accepts str/int/Fraction)."""
    M = [[Fraction(e) for e in row] for row in entries]
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix is not square")
    return M


def _rat_inv(M) -> list[list[Fraction]]:
    """Exact inverse via Gauss-Jordan; raises ZeroDivisionError when singular."""
    n = len(M)
    aug = [
        [Fraction(M[i][j]) for j in range(n)]
        + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular over the rationals")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [v / p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def markov_graph(K) -> tuple[np.ndarray, np.ndarray, bool]:
    """Gaussian Markov graph read off the precision matrix, float path.

    Edge (i, j) present iff |precision_ij| exceeds PRECISION_TOL times the
    largest absolute precision entry. Returns (precision matrix, boolean
    adjacency, is_forest), mirroring markov_graph_exact. Raises DomainError for
    singular K (the precision matrix must exist).
    """
    M = check_cov(K, "markov_graph input")
    n = M.shape[0]
    try:
        P = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        raise DomainError("covariance is singular", code="singular-covariance")
    top = float(np.max(np.abs(P)))
    if not math.isfinite(top) or top == 0.0:
        raise DomainError("covariance is singular", code="singular-covariance")
    # reject numerically singular inputs that inv() happened to survive
    if np.linalg.cond(M) > 1e14:
        raise DomainError("covariance is singular", code="singular-covariance")
    adj = np.abs(P) > PRECISION_TOL * top
    np.fill_diagonal(adj, False)
    adj = adj | adj.T
    return P, adj, _is_forest(adj)


def markov_graph_exact(entries) -> tuple[list[list[Fraction]], np.ndarray, bool]:
    """Exact-rational twin of markov_graph.

    ``entries`` is a square matrix of Fraction-convertible values. Returns
    (precision matrix as Fractions, boolean adjacency, is_forest); an edge is
    any exactly nonzero off-diagonal precision entry.
    """
    M = _rat_matrix(entries)
    try:
        P = _rat_inv(M)
    except ZeroDivisionError:
        raise DomainError("covariance is singular", code="singular-covariance")
    n = len(P)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and P[i][j] != 0:
                adj[i, j] = True
    return P, adj, _is_forest(adj)


class TripleViolation(NamedTuple):
    triple: tuple[int, int, int]  # (i, center j, k), 0-based positions
    condition: str  # "magnitude" or "sign"
    value: float


def _correlations(M: np.ndarray) -> np.ndarray:
    """Unit-variance correlations of a covariance that check_cov returned."""
    d = np.sqrt(np.diag(M))
    with np.errstate(divide="ignore", invalid="ignore"):
        R = M / np.outer(d, d)
    R[~np.isfinite(R)] = 0.0  # zero-variance coordinates are independent constants
    np.fill_diagonal(R, 1.0)
    return np.clip(R, -1.0, 1.0)


def _violations(R: np.ndarray) -> list[TripleViolation]:
    """The triple conditions of check_embed_conditions on correlations R."""
    n = R.shape[0]
    out = []
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(n):
                if j == i or j == k:
                    continue
                gap = abs(R[i, k]) - abs(R[i, j] * R[j, k])
                if gap < -_COND_TOL:
                    out.append(TripleViolation((i, j, k), "magnitude", float(gap)))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                prod = R[i, j] * R[j, k] * R[i, k]
                if prod < -_COND_TOL:
                    out.append(TripleViolation((i, j, k), "sign", float(prod)))
    return out


def check_embed_conditions(K) -> list[TripleViolation]:
    """Necessary correlation conditions for living on a Gauss-Markov tree.

    After normalizing to unit variances, every triple must satisfy
    |rho_ik| >= |rho_ij rho_jk| for each choice of center j, and the product
    rho_ij rho_jk rho_ik must be nonnegative, each up to _COND_TOL. Returns
    the violations (empty means the conditions hold; for N = 3 that settles
    embeddability, for larger N it is necessary only).
    """
    return _violations(_correlations(check_cov(K, "embeddability input")))


def embed3(K, labels=("x1", "x2", "x3")) -> MarkovTree:
    """Embed three jointly Gaussian variables into a hidden-star tree.

    Returns a MarkovTree with a unit-variance latent root "x0" and the three
    inputs as children; tree_to_cov of the result restricted to the inputs
    reproduces K. Raises DomainError("not-embeddable") when the triple
    conditions fail.
    """
    M = check_cov(K, "embed3 input")
    if M.shape != (3, 3):
        raise ModelError("embed3 expects a 3x3 covariance", code="bad-shape")
    R = _correlations(M)
    bad = _violations(R)
    if bad:
        raise DomainError(
            f"triple conditions violated: {bad[0]}", code="not-embeddable"
        )
    r12, r13, r23 = R[0, 1], R[0, 2], R[1, 2]
    zeros = [abs(v) == 0.0 for v in (r12, r13, r23)]

    if all(zeros):
        a = [0.0, 0.0, 0.0]
    elif sum(zeros) == 2:
        # two vanishing correlations share a variable; it sits alone
        if not zeros[2]:  # r23 nonzero -> x1 isolated
            s = math.sqrt(abs(r23))
            a = [0.0, s, math.copysign(s, r23)]
        elif not zeros[1]:  # r13 nonzero -> x2 isolated
            s = math.sqrt(abs(r13))
            a = [s, 0.0, math.copysign(s, r13)]
        else:  # r12 nonzero -> x3 isolated
            s = math.sqrt(abs(r12))
            a = [s, math.copysign(s, r12), 0.0]
    elif sum(zeros) == 1:
        # one zero among three nonzero pairs contradicts the star equations;
        # the magnitude condition already rejected it
        raise DomainError("triple conditions violated", code="not-embeddable")
    else:
        a = [
            math.copysign(math.sqrt(abs(r12 * r13 / r23)), r23),
            math.copysign(math.sqrt(abs(r12 * r23 / r13)), r13),
            math.copysign(math.sqrt(abs(r13 * r23 / r12)), r12),
        ]

    root = "x0" if "x0" not in labels else "__latent__"
    nodes = [TreeNode(root, None)]
    for t, lab in enumerate(labels):
        sd = math.sqrt(M[t, t])
        coef = a[t] * sd
        noise = max(M[t, t] - coef**2, 0.0)
        nodes.append(TreeNode(lab, root, coef, noise))
    return MarkovTree(tuple(nodes), 1.0, frozenset(labels))


class Witness(NamedTuple):
    """Regression-coefficient certificate that no tree embedding exists.

    ``target`` is regressed on the other two variables (0-based positions);
    coefficient product times their covariance is strictly negative, which no
    Gauss-Markov tree allows.
    """

    target: int
    pair: tuple[int, int]
    coefficients: tuple[float, float]
    pair_cov: float

    @property
    def product(self) -> float:
        return self.coefficients[0] * self.coefficients[1] * self.pair_cov


def converse_witness(K) -> Witness | None:
    """Search the three relabelings for a negative-product witness.

    Returns None when the triple conditions hold (embeddable case). When they
    fail, tries each variable as the regression target and returns the first
    relabeling whose two LLSE coefficients a_i, a_j against the remaining
    pair satisfy a_i * a_j * E[x_i x_j] < 0.
    """
    M = check_cov(K, "converse input")
    if M.shape != (3, 3):
        raise ModelError("converse_witness expects a 3x3 covariance", code="bad-shape")
    if not _violations(_correlations(M)):
        return None
    scale = float(np.max(np.abs(M)))
    for t in range(3):
        i, j = [v for v in range(3) if v != t]
        A = np.array([[M[i, i], M[i, j]], [M[i, j], M[j, j]]])
        det = A[0, 0] * A[1, 1] - A[0, 1] ** 2
        if det <= 1e-14 * max(scale, 1.0) ** 2:
            continue  # perfectly correlated pair: coefficients are not unique
        rhs = np.array([M[t, i], M[t, j]])
        ai, aj = np.linalg.solve(A, rhs)
        if ai * aj * M[i, j] < 0:
            return Witness(t, (i, j), (float(ai), float(aj)), float(M[i, j]))
    return None
