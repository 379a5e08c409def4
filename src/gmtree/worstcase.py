"""Distortion robustness of Gaussian codes under non-Gaussian tree sources.

The linear estimator derived from the Gaussian joint is applied, coefficients
unchanged, to samples of an alternate source with the same tree covariance
(the innovations are merely moment-matched, not Gaussian). Its empirical
mean-square error must then agree with the Gaussian MMSE, because linear
estimation only sees second moments. ``llse_equivalence_check`` runs that
comparison as a Monte Carlo experiment.

The draws are cut into shards of ``SHARD_SIZE`` samples, each with its own
spawned seed, so the streams are fixed by the seed, ``SHARD_SIZE`` and
``_shards.BLOCK``, not by the thread count. The shards of one call run on
worker threads. Each shard runs inline in blocks of ``BLOCK`` samples: a
block draws the root's innovations, then each noisy node's in heap order,
then each leaf's channel normals, into one reused state array and one
scratch array, and its error and moment sums are added to the shard's in
block order (a shard of one block draws as a whole-shard draw would). The
shards' sums are merged in shard order, so the report does not depend on how
many threads ran them. A callable innovation sampler may therefore run on
several threads at once, each call with its own generator; each call must
return a 1-d array of that many real numbers (``bad-distribution``), and a
draw that makes the sums non-finite is a ``sampler-mismatch``.
"""

import math
from dataclasses import dataclass
from functools import partial
from statistics import NormalDist

import numpy as np

from ._shards import BLOCK, map_shards
from .errors import DomainError, ModelError, check_count
from .gauss import llse_coefficients
from .inner import build_joint, _check_alpha
from .trees import BinaryTreeSource

__all__ = ["llse_equivalence_check", "alternate_sampler", "LlseReport"]

SHARD_SIZE = 250_000

_SQRT3 = math.sqrt(3.0)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _innov_uniform(rng, size):
    return rng.uniform(-_SQRT3, _SQRT3, size)


def _innov_laplace(rng, size):
    return rng.laplace(0.0, _INV_SQRT2, size)


def _innov_signmix(rng, size):
    sign = rng.integers(0, 2, size) * 2.0 - 1.0
    return _INV_SQRT2 * (sign + rng.standard_normal(size))


def _innov_gaussian(rng, size):
    return rng.standard_normal(size)


_SAMPLERS = {
    "uniform": _innov_uniform,
    "laplace": _innov_laplace,
    "signmix": _innov_signmix,
    "gaussian": _innov_gaussian,
}


def alternate_sampler(dist):
    """Resolve a zero-mean unit-variance innovation sampler by name."""
    if callable(dist):
        return dist
    try:
        return _SAMPLERS[dist]
    except KeyError:
        raise ModelError(
            f"unknown innovation distribution {dist!r}; choose from "
            + ", ".join(sorted(_SAMPLERS)),
            code="bad-distribution",
        ) from None


@dataclass(frozen=True)
class LlseReport:
    """Monte Carlo comparison of Gaussian MMSE against alternate-source LLSE."""

    dist: str
    samples: int
    gaussian_mmse: float
    empirical_mse: float
    se: float
    cov_max_dev: float  # worst leaf/root second-moment deviation, in SE units

    @property
    def gap(self) -> float:
        return self.empirical_mse - self.gaussian_mmse

    @property
    def passed(self) -> bool:
        return abs(self.gap) <= 3.0 * self.se


def _draw(innov, rng, size: int) -> np.ndarray:
    """One block's innovations; a sampler must return ``size`` real numbers
    as a 1-d array (``bad-distribution``)."""
    z = innov(rng, size)
    if not isinstance(z, np.ndarray) or z.shape != (size,) or z.dtype.kind not in "fiu":
        raise ModelError(
            f"an innovation sampler must return a 1-d array of {size} real numbers, "
            f"not {type(z).__name__} of shape {np.shape(z)}",
            code="bad-distribution",
        )
    return z


def _llse_shard(rng, size: int, tree, innov, heap, a, chan_sd, w) -> np.ndarray:
    """Error sums and node-moment sums of one shard, streamed through blocks.

    Returns [sum e, sum e^2, then sum p, sum p^2 for each moment] with e the
    squared estimation error of the root and p the product of two of the
    root and leaf states, the moments in row order of the upper triangle.

    A block's node states follow the Gaussian source's recursion with
    alternate iid innovations (zero mean, unit variance) at every node with
    noise; they sit by heap index in the state array, whose row 0 takes the
    residual.
    """
    m = tree.leaf_count
    n = min(size, BLOCK)
    state, scratch = np.empty((2 * m, n)), np.empty((2, n))
    pairs = [(heap[r], heap[c]) for r in range(len(heap)) for c in range(r, len(heap))]
    sums = np.zeros(2 + 2 * len(pairs))
    # a non-finite or overflowing draw turns the sums to inf or NaN, which
    # the caller refuses as sampler-mismatch; numpy need not warn on the way
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, size, n):
            k = min(n, size - lo)
            x = state[:, :k]
            u, tmp = scratch[:, :k]
            np.multiply(_draw(innov, rng, k), math.sqrt(tree.root_var), out=x[1])
            for node in range(2, 2 * m):
                np.multiply(x[node // 2], tree.heap_alpha[node], out=x[node])
                nv = tree.heap_noise[node]
                if nv > 0.0:
                    x[node] += np.multiply(_draw(innov, rng, k), math.sqrt(nv), out=tmp)
            resid = x[0]  # becomes sum_i w_i u_i, u_i = a_i leaf_i + channel noise
            for i in range(m):
                ui = resid if i == 0 else u
                rng.standard_normal(out=ui)
                ui *= chan_sd[i]
                ui += np.multiply(x[heap[1 + i]], a[i], out=tmp)
                ui *= w[i]
                if i:
                    resid += ui
            np.subtract(x[1], resid, out=resid)
            resid *= resid
            block = [resid.sum()]
            resid *= resid
            block.append(resid.sum())
            for r, c in pairs:
                np.multiply(x[r], x[c], out=u)
                block.append(u.sum())
                u *= u
                block.append(u.sum())
            sums += block
    return sums


def llse_equivalence_check(
    tree: BinaryTreeSource,
    alpha,
    dist="uniform",
    samples: int = 1_000_000,
    seed: int = 0,
) -> LlseReport:
    """Check that the Gaussian-design linear estimator keeps its distortion.

    The estimator of the root from the quantized leaves is computed once from
    the Gaussian joint; samples are then drawn from the alternate source (the
    quantization noises stay Gaussian) and pushed through the identical
    coefficients. Agreement within 3 standard errors is a pass. The leaf and
    root second moments are themselves checked, so a miscalibrated sampler
    raises instead of producing a misleading failure: the k = nm(nm+1)/2
    moments of the root and the nm - 1 leaves form one family-wise test at
    the level of a single 3-SE test (Bonferroni, each moment against
    z_(1 - 0.00135/k)). ``cov_max_dev`` reports the largest deviation
    itself. ``samples`` must be an integer >= 2 (``bad-samples``): one sample
    has no standard error. The gate keeps its nominal level only at large
    counts, since the SEs are themselves estimated from the draws: over 300
    seeds the Gaussian sampler raised on 67% of calls at 2 samples, 32% at
    5, 9% at 20, 1.3% at 100 and 0.3% at 1000.
    """
    if check_count(samples, "samples") < 2:
        raise ModelError("samples must be at least 2: a standard error needs two samples",
                         code="bad-samples")
    innov = alternate_sampler(dist)
    name = dist if isinstance(dist, str) else getattr(dist, "__name__", "custom")
    a = _check_alpha(tree, alpha)
    joint = build_joint(tree, a)
    m = tree.leaf_count
    u_idx = list(range(2 * m - 1, 3 * m - 1))  # u_1..u_m follow the 2m - 1 nodes
    W, err_cov = llse_coefficients(joint.matrix, [0], u_idx)  # the root is row 0
    gaussian_mmse = max(float(err_cov[0, 0]), 0.0)
    w = np.asarray(W)[0]

    leaf_sd = [math.sqrt(tree.var(v)) for v in tree.leaves()]
    chan_sd = [leaf_sd[i] * math.sqrt(max(1.0 - a[i] * a[i], 0.0)) for i in range(m)]

    # the root and the leaves by heap index; the joint holds node n in row n - 1
    heap = [1] + [tree.index(v) for v in tree.leaves()]
    mom_idx = [n - 1 for n in heap]
    K = np.asarray(joint.matrix)[np.ix_(mom_idx, mom_idx)]
    nm = len(mom_idx)

    parts = map_shards(
        partial(_llse_shard, tree=tree, innov=innov, heap=heap, a=a, chan_sd=chan_sd, w=w),
        samples, SHARD_SIZE, seed)
    pairs = [(r, c) for r in range(nm) for c in range(r, nm)]
    mom = np.zeros((len(pairs), 2))  # per moment: sum of products, of their squares
    for p in parts:
        mom += p[2:].reshape(-1, 2)
    err = math.fsum(p[0] for p in parts), math.fsum(p[1] for p in parts)
    if not (all(map(math.isfinite, err)) and np.isfinite(mom).all()):
        raise DomainError(
            "alternate sampler drew a value that is not a finite number",
            code="sampler-mismatch",
        )
    mse = err[0] / samples
    var = max(err[1] / samples - mse * mse, 0.0)
    se = math.sqrt(var / samples)

    dev = 0.0
    for (r, c), (total, sq) in zip(pairs, mom):
        mean = total / samples
        mvar = max(sq / samples - mean * mean, 0.0)
        mse_se = math.sqrt(mvar / samples)
        if mse_se > 0.0:
            dev = max(dev, abs(mean - K[r, c]) / mse_se)
        elif abs(mean - K[r, c]) > 1e-12:
            dev = math.inf
    # a 3-SE test on each of the k moments raises on a correct sampler up to k
    # times as often as one test; Bonferroni keeps the family at one test's level
    limit = NormalDist().inv_cdf(1.0 - NormalDist().cdf(-3.0) / len(pairs))
    if dev > limit:
        raise DomainError(
            f"alternate sampler covariance is off by {dev:.1f} standard errors",
            code="sampler-mismatch",
        )
    return LlseReport(name, samples, gaussian_mmse, mse, se, float(dev))
