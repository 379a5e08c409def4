"""Finite-dimensional Gaussian algebra: the oracle layer for everything else.

All information quantities are returned in nats; conversion to bits happens
only at the presentation layer. Conditioning is implemented with
pseudo-inverses so that exactly degenerate blocks (duplicated variables,
zero-noise copies) are legal inputs, and mutual information is extended-real:
``math.inf`` is returned when conditioning collapses the joint law onto a
lower-dimensional set while both marginals keep full rank.

Index-based operations (``conditional_cov``, ``gaussian_cmi``, ...) take a
plain square ndarray plus integer position sets; ``Cov`` merely pairs such a
matrix with variable labels for I/O purposes.
"""

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ModelError, check_count

__all__ = [
    "Cov",
    "conditional_cov",
    "gaussian_cmi",
    "llse_coefficients",
    "mmse",
    "sample_gaussian",
]

# Relative singular-value / eigenvalue cutoff for treating a direction as
# exactly degenerate. Chosen so that zero-noise duplicate nodes are caught
# while honest near-singular channels still evaluate to finite values.
DEGENERATE_RTOL = 1e-10

_SYM_RTOL = 1e-12


class Cov(NamedTuple):
    """A labeled covariance matrix."""

    labels: tuple[str, ...]
    matrix: np.ndarray

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def submatrix(self, labels: Sequence[str]) -> "Cov":
        idx = [self.index(l) for l in labels]
        return Cov(tuple(labels), self.matrix[np.ix_(idx, idx)].copy())


def check_cov(matrix, name: str = "covariance") -> np.ndarray:
    """Validate symmetry / PSD-ness (to tolerance) and return a symmetrized copy.

    Raises ModelError (``bad-covariance``) when the matrix is not square, has
    a non-finite entry, is materially asymmetric, has a negative diagonal
    entry, or has an eigenvalue below -1e-10 times the largest diagonal entry.
    """
    K = np.asarray(matrix, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ModelError(f"{name} must be square, got shape {K.shape}", code="bad-covariance")
    if not np.isfinite(K).all():
        raise ModelError(f"{name} has a non-finite entry", code="bad-covariance")
    scale = float(np.max(np.abs(K))) if K.size else 0.0
    if scale > 0 and float(np.max(np.abs(K - K.T))) > _SYM_RTOL * scale:
        raise ModelError(f"{name} is not symmetric within tolerance", code="bad-covariance")
    K = 0.5 * (K + K.T)
    diag = np.diag(K)
    if K.size and float(diag.min()) < 0:
        raise ModelError(f"{name} has a negative diagonal entry", code="bad-covariance")
    if K.size:
        floor = -1e-10 * max(float(diag.max()), 0.0)
        w = np.linalg.eigvalsh(K)
        if float(w.min()) < floor:
            raise ModelError(
                f"{name} is not positive semidefinite: min eigenvalue {w.min():.3e}",
                code="bad-covariance",
            )
    return K


def _as_index_list(idx, n: int, name: str) -> list[int]:
    out = []
    for i in idx:
        j = int(i)
        if j != i or not (0 <= j < n):
            raise IndexError(f"{name} contains invalid position {i!r} for size {n}")
        out.append(j)
    if len(set(out)) != len(out):
        raise IndexError(f"{name} contains duplicate positions")
    return out


def _llse(K, targets, observers, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(W, err) of the linear least-squares estimate of ``targets`` from
    ``observers``, which the caller's messages call ``name``."""
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    t = _as_index_list(targets, n, "targets")
    o = _as_index_list(observers, n, name)
    if set(t) & set(o):
        raise ValueError(f"targets and {name} must be disjoint")
    if not o:
        return np.zeros((len(t), 0)), K[np.ix_(t, t)].copy()
    Koo = K[np.ix_(o, o)]
    Kto = K[np.ix_(t, o)]
    W = Kto @ np.linalg.pinv(Koo, rcond=DEGENERATE_RTOL, hermitian=True)
    err = K[np.ix_(t, t)] - W @ Kto.T
    return W, 0.5 * (err + err.T)


def conditional_cov(K, targets, given) -> np.ndarray:
    """Covariance of ``targets`` after an exact observation of ``given``.

    This is the Schur complement K_tt - K_tg K_gg^+ K_gt, which equals the
    error covariance of the linear least-squares estimate. The observed block
    is inverted through a pseudo-inverse, so redundant (exactly correlated)
    observations are harmless.
    """
    return _llse(K, targets, given, "given")[1]


def llse_coefficients(K, targets, observers) -> tuple[np.ndarray, np.ndarray]:
    """Linear least-squares estimation of ``targets`` from ``observers``.

    Returns (W, err) where the estimate is x_t ~= W @ x_o and err is the
    error covariance (same value conditional_cov would report).
    """
    return _llse(K, targets, observers, "observers")


def mmse(K, target: int, observers) -> float:
    """Scalar MMSE of one variable given a set of others (nonnegative)."""
    err = conditional_cov(K, [target], observers)
    return max(float(err[0, 0]), 0.0)


def _positive_eig_basis(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-directions of S with eigenvalues above the degeneracy cutoff."""
    w, U = np.linalg.eigh(S)
    top = float(w.max(initial=0.0))
    keep = w > DEGENERATE_RTOL * top if top > 0 else np.zeros(w.shape, dtype=bool)
    return w[keep], U[:, keep]


def gaussian_cmi(K, A, B, C=()) -> float:
    """I(x_A; x_B | x_C) in nats for jointly Gaussian x with covariance K.

    May return ``math.inf``: that happens exactly when, given C, the joint law
    of (A, B) is singular although neither marginal is (for example when one
    set contains a noiseless copy of the other). Directions of A or B that C
    determines almost surely carry no information and are projected out first,
    which keeps zero-noise dummy nodes from poisoning the determinants.

    The computation is symmetrized: swapping A and B returns the bit-identical
    value.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    a = _as_index_list(A, n, "A")
    b = _as_index_list(B, n, "B")
    c = _as_index_list(C, n, "C")
    if (set(a) & set(b)) or (set(a) & set(c)) or (set(b) & set(c)):
        raise ValueError("A, B, C must be pairwise disjoint")
    if not a or not b:
        return 0.0
    if tuple(sorted(b)) < tuple(sorted(a)):
        a, b = b, a

    S = conditional_cov(K, a + b, c)
    # the information is the same in any units: measure each variable in its
    # own standard deviation, so that small variances keep their relative
    # accuracy through the eigen-decompositions below
    sd = np.sqrt(np.diag(K)[a + b])
    sd[sd == 0.0] = 1.0
    S = S / np.outer(sd, sd)
    na = len(a)
    Saa = S[:na, :na]
    Sbb = S[na:, na:]
    Sab = S[:na, na:]

    wa, Ua = _positive_eig_basis(Saa)
    wb, Ub = _positive_eig_basis(Sbb)
    if wa.size == 0 or wb.size == 0:
        return 0.0

    # Whiten each marginal; the joint becomes a correlation matrix whose
    # log-determinant is -2 times the mutual information.
    Ta = Ua / np.sqrt(wa)
    Tb = Ub / np.sqrt(wb)
    R = Ta.T @ Sab @ Tb
    k = wa.size + wb.size
    J = np.eye(k)
    J[: wa.size, wa.size:] = R
    J[wa.size:, : wa.size] = R.T
    w = np.linalg.eigvalsh(J)
    if float(w.min()) <= DEGENERATE_RTOL * float(w.max()):
        return math.inf
    return max(0.0, -0.5 * float(np.sum(np.log(w))))


def sample_gaussian(K, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` iid vectors from N(0, K); deterministic per seed.

    Returns an array of shape (count, dim). The factor comes from an
    eigendecomposition with negative eigenvalues clipped at zero, so exactly
    singular covariances (constants, duplicated coordinates) sample fine.
    ``count`` must be an integer >= 1 (``bad-samples``).
    """
    K = check_cov(K)
    count = check_count(count, "count")
    w, U = np.linalg.eigh(K)
    root = U * np.sqrt(np.clip(w, 0.0, None))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, K.shape[0]))
    return z @ root.T
