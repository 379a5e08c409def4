"""Nested-lattice coding of a difference source versus separate quantization.

Two terminals see x1, x2: jointly Gaussian, common variance sigma2 and
correlation fixed at rho = 1 - 1/(2 sigma2) so the difference x3 = x1 - x2 is
standard normal. Each terminal rounds to the fine lattice 2^(-n) Z and
transmits the result modulo the coarse lattice 2^m Z, which costs n + m bits;
the decoder reconstructs x3 from the modular difference. The empirical MSE of
that scheme is compared against a closed-form bound, and against the minimal
sum rate any scheme built on separately quantizing x1 and x2 must pay to hit
the same distortion. The former is constant in sigma2. The latter has the
closed form 1/2 log1p((1 - rho^2 + 2a) / a^2) at a = d / (2 sigma2 (1 - d))
(``separation_min_sum_rate``) and grows like 1/2 log sigma2, without bound.

Monte Carlo work is cut into shards of ``SHARD_SIZE`` draws, each with its
own spawned seed, so the streams are fixed by the seed and ``SHARD_SIZE``,
not by the thread count. The shards of one call run on worker threads; their
partial sums are merged with exact (``math.fsum``) or integer sums, so the
estimates do not depend on how many threads ran them. Within a shard, one
variate is drawn whole and the other streams through cache-sized blocks
(``_pair_blocks``), whose arithmetic runs on a helper thread when a CPU is
free for it (``_shards.run_blocks``). The squared errors land in one
shard-sized array and are summed once over it, and the wrap count is an
integer sum, so neither the block size nor the helper changes a bit.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from ._shards import BLOCK, map_shards, run_blocks
from .errors import DomainError, ModelError, check_distortion, check_finite

__all__ = [
    "LatticePair",
    "lattice_encode",
    "lattice_decode",
    "lattice_mc_distortion",
    "lattice_tail_prob",
    "lattice_analytic_bound",
    "lattice_sum_rate",
    "separation_min_sum_rate",
    "divergence_report",
    "McEstimate",
    "DivergenceReport",
]

SHARD_SIZE = 1_000_000


@dataclass(frozen=True)
class LatticePair:
    """Fine step 2^(-n), coarse period 2^m."""

    n: int
    m: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and isinstance(self.m, int)):
            raise ModelError("lattice exponents must be integers", code="bad-lattice")
        if self.n < 0 or self.m < 0:
            raise ModelError("lattice exponents must be nonnegative", code="bad-lattice")


def _fine(x, n: int):
    """Round the array x to the fine lattice 2^(-n) Z in place and return it.

    Half-steps round toward +inf, a fixed tie rule.
    """
    x *= 2.0**n
    x += 0.5
    np.floor(x, out=x)
    x *= 2.0 ** (-n)
    return x


def _mod_cell(v, m: int, tmp):
    """Reduce the array v into [-2^(m-1), 2^(m-1)) in place and return it.

    v - 2^m floor((v + 2^(m-1)) / 2^m), with ``tmp`` as scratch of v's shape.
    Every step is exact on fine-lattice points, so there it equals
    np.mod(v + 2^(m-1), 2^m) - 2^(m-1) bit for bit.
    """
    k = np.add(v, 2.0 ** (m - 1), out=tmp)
    k *= 2.0 ** (-m)
    np.floor(k, out=k)
    k *= 2.0**m
    v -= k
    return v


def lattice_encode(x: float, lp: LatticePair) -> float:
    """Fine-lattice point of x reduced into [-2^(m-1), 2^(m-1))."""
    check_finite(x, "sample")
    v = np.array([x], dtype=float)
    return float(_mod_cell(_fine(v, lp.n), lp.m, np.empty(1))[0])


def lattice_decode(u1: float, u2: float, lp: LatticePair) -> float:
    """Modular difference of the two messages, same cell and tie rule."""
    check_finite(u1, "message")
    check_finite(u2, "message")
    return float(_mod_cell(np.array([u1 - u2], dtype=float), lp.m, np.empty(1))[0])


def lattice_sum_rate(lp: LatticePair) -> float:
    """Total rate of the two-terminal scheme in nats: 2(n+m) log 2."""
    return 2.0 * (lp.n + lp.m) * math.log(2.0)


def lattice_analytic_bound(lp: LatticePair) -> float:
    """Closed-form distortion guarantee, uniform over sigma2."""
    tail = 2.0 * (3.0 + 2.0**lp.m) * math.exp(-(2.0 ** (2 * lp.m - 3)))
    return (2.0**-lp.n + math.sqrt(tail)) ** 2


class McEstimate(NamedTuple):
    value: float
    se: float
    samples: int


def _rho(sigma2: float) -> float:
    check_finite(sigma2, "sigma2")
    if sigma2 <= 0.5:
        raise DomainError(
            "sigma2 must exceed 1/2 for the coupled correlation", code="sigma2-out-of-range"
        )
    return 1.0 - 1.0 / (2.0 * sigma2)


def _pair_blocks(rng, size: int, sigma2: float, overlap: bool, kernel):
    """The shard's x2 array and ``kernel(x1, x2, z1, tmp)`` of each block.

    x1 = a z0 + z1/2, x2 = a z0 - z1/2: variance sigma2, difference exactly
    z1. z0 is drawn whole, then z1 block by block into two reused buffers,
    which is the same stream as two whole draws. x2 is computed into z0's
    array, so each block's x2 is a slice of the returned array and what
    ``kernel`` writes there stays; ``x1``, ``z1`` and the scratch ``tmp`` are
    block buffers. ``overlap`` runs the kernels on a helper thread
    (``run_blocks``).
    """
    x2 = rng.standard_normal(size)
    n = min(size, BLOCK)
    z1, x1, tmp = (np.empty(n), np.empty(n)), np.empty(n), np.empty(n)
    a = math.sqrt(sigma2 - 0.25)

    def fill(slot, lo, hi):
        rng.standard_normal(out=z1[slot][: hi - lo])

    def work(slot, lo, hi):
        k = hi - lo
        z, t, y2 = z1[slot][:k], tmp[:k], x2[lo:hi]
        y2 *= a
        np.multiply(z, 0.5, out=t)
        y1 = np.add(y2, t, out=x1[:k])
        y2 -= t
        return kernel(y1, y2, z, t)

    return x2, run_blocks(fill, work, size, overlap)


def _mc_block(x1, x2, x3, tmp, lp: LatticePair) -> None:
    """Write the squared reconstruction error of x3 = x1 - x2 into x2."""
    u1 = _mod_cell(_fine(x1, lp.n), lp.m, tmp)
    u2 = _mod_cell(_fine(x2, lp.n), lp.m, tmp)
    u1 -= u2
    err = np.subtract(x3, _mod_cell(u1, lp.m, tmp), out=u2)
    err *= err


def _mc_shard(rng, size: int, sigma2: float, lp: LatticePair, overlap: bool):
    # summed once over the shard: per-block partial sums would round differently
    err, _ = _pair_blocks(rng, size, sigma2, overlap, partial(_mc_block, lp=lp))
    total = float(err.sum())
    err *= err
    return total, float(err.sum())


def lattice_mc_distortion(
    sigma2: float, lp: LatticePair, samples: int = 1_000_000, seed: int = 0
) -> McEstimate:
    """Empirical MSE of the modular-difference reconstruction of x1 - x2."""
    _rho(sigma2)
    parts = map_shards(
        partial(_mc_shard, sigma2=sigma2, lp=lp), samples, SHARD_SIZE, seed, streamed=True)
    mean = math.fsum(p[0] for p in parts) / samples
    var = max(math.fsum(p[1] for p in parts) / samples - mean * mean, 0.0)
    return McEstimate(mean, math.sqrt(var / samples), samples)


def _tail_block(x1, x2, x3, tmp, lp: LatticePair) -> int:
    diff = _fine(x1, lp.n)
    diff -= _fine(x2, lp.n)
    np.abs(diff, out=diff)
    return int(np.count_nonzero(diff >= 2.0 ** (lp.m - 1)))


def _tail_shard(rng, size: int, sigma2: float, lp: LatticePair, overlap: bool) -> int:
    _, hits = _pair_blocks(rng, size, sigma2, overlap, partial(_tail_block, lp=lp))
    return sum(hits)


def lattice_tail_prob(
    sigma2: float, lp: LatticePair, samples: int = 10_000_000, seed: int = 0
) -> McEstimate:
    """Empirical frequency of the wrap event |fine(x1) - fine(x2)| >= 2^(m-1)."""
    _rho(sigma2)
    hits = map_shards(
        partial(_tail_shard, sigma2=sigma2, lp=lp), samples, SHARD_SIZE, seed, streamed=True)
    p = sum(hits) / samples
    return McEstimate(p, math.sqrt(max(p * (1.0 - p), 0.0) / samples), samples)


def _sep_terms(sigma2: float):
    rho = _rho(sigma2)
    # (1+a)(1+b) - rho^2 expanded as (1-rho^2) + a + b + ab, stable for tiny a, b
    one_m_rho2 = (1.0 / (2.0 * sigma2)) * (2.0 - 1.0 / (2.0 * sigma2))
    return rho, one_m_rho2


def _sep_rate(a: float, b: float, one_m_rho2: float) -> float:
    return 0.5 * (math.log(one_m_rho2 + a + b + a * b) - math.log(a) - math.log(b))


def _sep_distortion(a: float, b: float, sigma2: float, rho: float, one_m_rho2: float) -> float:
    num = 2.0 * (1.0 + rho) + a + b
    den = 4.0 * sigma2 * (one_m_rho2 + a + b + a * b)
    return 1.0 - num / den


def separation_min_sum_rate(sigma2: float, d: float, *, seed: int = 0) -> float:
    """Minimal helper sum rate of separate Gaussian quantization at distortion d.

    The two quantizer qualities are noise-to-signal ratios (a, b) > 0; the sum
    rate falls and the distortion of the difference estimate rises as they
    grow, so the optimum sits on the distortion boundary. There, with
    s = a + b, p = ab, q = 2(1 + rho) + s and kappa = 4 sigma2 (1 - d), the
    boundary reads (1 - rho^2) + s + p = q / kappa, so p is linear in s and

        R = 1/2 log(q / ((1 - kappa) q + kappa (1 + rho)^2)),

    which increases in s. Real ratios need p <= s^2 / 4. For 0 < d < 1 the
    quadratic s^2 / 4 - p(s) is negative at s = 0 and has one positive root,
    so the least feasible s is that root, where s^2 = 4p and a = b: the
    symmetric boundary point

        a = b = d / (2 sigma2 (1 - d)),   R = 1/2 log1p((1 - rho^2 + 2a) / a^2).

    As sigma2 grows, 1 - rho^2 ~ 1/sigma2 and a ~ 1/sigma2, so R grows like
    1/2 log sigma2. ``seed`` has no effect; it is accepted so callers that
    pass one keep working.
    """
    _, one_m_rho2 = _sep_terms(sigma2)
    check_distortion(d)
    if d >= 1.0:
        return 0.0
    a = d / (2.0 * sigma2 * (1.0 - d))
    if a > 1e-150:
        return 0.5 * math.log1p((one_m_rho2 + 2.0 * a) / (a * a))
    # a^2 would leave the float range; the log1p argument exceeds 2 / a > 1e150
    # there, so log1p equals its log to within the float precision
    log_a = math.log(d) - math.log(2.0) - math.log(sigma2) - math.log1p(-d)
    return 0.5 * math.log(one_m_rho2 + 2.0 * a) - log_a


@dataclass(frozen=True)
class DivergenceRow:
    sigma2: float
    separation_rate: float
    lattice_rate: float
    lattice_mse: float
    lattice_se: float


@dataclass(frozen=True)
class DivergenceReport:
    target_distortion: float
    analytic_bound: float
    rows: tuple

    @property
    def separation_monotone(self) -> bool:
        rates = [r.separation_rate for r in self.rows]
        return all(x < y for x, y in zip(rates, rates[1:]))

    @property
    def lattice_within_target(self) -> bool:
        return all(r.lattice_mse <= self.target_distortion for r in self.rows)


def divergence_report(
    sigma2_grid,
    d: float,
    lp: LatticePair,
    *,
    samples: int = 200_000,
    seed: int = 0,
) -> DivergenceReport:
    """Side-by-side rates and distortions over a grid of source variances.

    The lattice scheme must already guarantee the target distortion through
    its analytic bound; its rate column is constant while the separation
    column grows with sigma2.
    """
    grid = [float(s) for s in sigma2_grid]
    if not grid:
        raise ModelError("sigma2 grid is empty", code="bad-grid")
    check_finite(d, "distortion")
    bound = lattice_analytic_bound(lp)
    if bound > d:
        raise DomainError(
            f"lattice guarantee {bound:.3e} exceeds target distortion {d}",
            code="lattice-bound-exceeds-target",
        )
    rate = lattice_sum_rate(lp)
    rows = []
    for j, s2 in enumerate(grid):
        sep = separation_min_sum_rate(s2, d)
        mc = lattice_mc_distortion(s2, lp, samples=samples, seed=seed + j)
        rows.append(DivergenceRow(s2, sep, rate, mc.value, mc.se))
    return DivergenceReport(d, bound, tuple(rows))
