"""Both bounds against the quadratic Gaussian CEO problem on star trees.

A star is a hidden centre x (the root, variance s2) with k observed leaves
y_i = a_i x + z_i, Var(z_i) = N_i; write n_i = N_i / a_i^2 for leaf i's noise
in units of x. ``binarize`` turns a star into a complete binary tree with
copy edges (k >= 3) and padding leaves (k = 3 and 5-7), so a star reaches the
converse's copy-edge coefficients, its padding and its cut loop. The CEO
region is known in closed form (Oohama, IEEE Trans. IT 2005; Prabhakaran,
Tse and Ramchandran, ISIT 2004): R is achievable at distortion D iff some
r >= 0 has

    1/D <= 1/s2 + sum_i (1 - e^(-2 r_i)) / n_i, and for every nonempty A,
    R(A) >= sum_(i in A) r_i + 1/2 log(1/D) - 1/2 log(1/s2 + sum_(i not in A) (1 - e^(-2 r_i)) / n_i).

Both are written here from that statement, with no heap code.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from gmtree import ChannelContext, MarkovTree, TreeNode, binarize, min_weighted_sum, rd_out_min_weighted

SIGMA2, ALPHA, NOISE = 1.3, 0.8, 0.4  # the symmetric stars


def _star(s2, a, noise):
    nodes = [TreeNode("x", None)] + [
        TreeNode(f"y{i}", "x", float(ai), float(ni)) for i, (ai, ni) in enumerate(zip(a, noise))
    ]
    tree, leaf_map = binarize(MarkovTree(tuple(nodes), s2, frozenset(n.id for n in nodes[1:])))
    return tree, [leaf_map[f"y{i}"] for i in range(len(a))]


def _distortion(tree, f):
    """The distortion a share f of the way from d_floor to the root variance."""
    floor = ChannelContext(tree).d_floor
    return floor + f * (tree.root_var - floor)


def _leaf_weights(tree, pos, w):
    out = [0.0] * tree.leaf_count
    for p, wi in zip(pos, w):
        out[p - 1] = wi
    return out


def _symmetric_sum_rate(k, s2, n, d):
    """Oohama's minimum sum rate of k encoders with equal noise n = N / a^2."""
    return 0.5 * math.log(s2 / d) + 0.5 * k * math.log(k * d * s2 / (k * d * s2 - n * (s2 - d)))


def _ceo_min_weighted(s2, n, d, w):
    """min w.R over the CEO region, one SLSQP program over (r, R)."""
    k = len(n)
    inv_n = np.asarray(n, dtype=float) ** -1
    w = np.asarray(w, dtype=float)

    def gain(r, out):  # 1/s2 + sum over the leaves not in A, and its r-gradient
        e = np.exp(-2.0 * r)
        g = 1.0 / s2 + float(np.sum((1.0 - e) * inv_n * out))
        return g, 2.0 * e * inv_n * out

    every = np.ones(k)
    cons = [{
        "type": "ineq",
        "fun": lambda z: gain(z[:k], every)[0] - 1.0 / d,
        "jac": lambda z: np.concatenate([gain(z[:k], every)[1], np.zeros(k)]),
    }]
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(k), size):
            ind = np.zeros(k)
            ind[list(subset)] = 1.0

            def fun(z, ind=ind):
                g, _ = gain(z[:k], 1.0 - ind)
                return ind @ z[k:] - ind @ z[:k] + 0.5 * math.log(d) + 0.5 * math.log(g)

            def jac(z, ind=ind):
                g, dg = gain(z[:k], 1.0 - ind)
                return np.concatenate([-ind + 0.5 * dg / g, ind])

            cons.append({"type": "ineq", "fun": fun, "jac": jac})
    # start from equal noise-quantization rates that meet D, with every bound slack
    r0 = 1.0
    while gain(np.full(k, r0), every)[0] < 1.0 / d:
        r0 *= 2.0
    z0 = np.concatenate([np.full(k, r0), np.full(k, r0 + math.log(s2 / d))])
    res = minimize(
        lambda z: float(w @ z[k:]),
        z0,
        jac=lambda z: np.concatenate([np.zeros(k), w]),
        bounds=[(0.0, None)] * (2 * k),
        constraints=cons,
        method="SLSQP",
        options={"ftol": 1e-12, "maxiter": 500},
    )
    assert res.success, res.message
    return float(res.fun)


@pytest.mark.parametrize("k", range(2, 8))
def test_symmetric_star_converse_is_oohamas_sum_rate(k):
    a, noise = [ALPHA] * k, [NOISE] * k
    tree, pos = _star(SIGMA2, a, noise)
    d = _distortion(tree, 0.5)
    want = _symmetric_sum_rate(k, SIGMA2, NOISE / ALPHA**2, d)
    sol = rd_out_min_weighted(tree, _leaf_weights(tree, pos, [1.0] * k), d)
    assert sol.converged
    assert abs(sol.value - want) <= 1e-11 * want


@pytest.mark.parametrize("k", range(2, 6))
def test_symmetric_star_inner_is_oohamas_sum_rate(k):
    a, noise = [ALPHA] * k, [NOISE] * k
    tree, pos = _star(SIGMA2, a, noise)
    d = _distortion(tree, 0.5)
    want = _symmetric_sum_rate(k, SIGMA2, NOISE / ALPHA**2, d)
    got = min_weighted_sum(tree, _leaf_weights(tree, pos, [1.0] * k), d, starts=4).value
    assert abs(got - want) <= 1e-11 * want


@pytest.mark.parametrize("k", range(2, 6))
def test_asymmetric_star_converse_is_the_ceo_minimum(k):
    # 200 such stars (seeds 0-49 at each k) agreed to 2.5e-12 relative
    for seed in range(25):
        rng = np.random.default_rng(100 * k + seed)
        s2 = float(rng.uniform(0.5, 2.0))
        a = rng.uniform(0.4, 0.95, k)
        noise = rng.uniform(0.1, 1.0, k)
        w = rng.uniform(0.1, 1.0, k)
        tree, pos = _star(s2, a, noise)
        d = _distortion(tree, float(rng.uniform(0.2, 0.8)))
        want = _ceo_min_weighted(s2, noise / (a * a), d, w)
        sol = rd_out_min_weighted(tree, _leaf_weights(tree, pos, w), d)
        assert sol.converged, seed
        assert abs(sol.value - want) <= 1e-11 * want, (seed, sol.value, want)
