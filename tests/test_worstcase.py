import math
from statistics import NormalDist

import numpy as np
import pytest

from gmtree import (
    DomainError,
    ModelError,
    _shards,
    alternate_sampler,
    build_joint,
    llse_coefficients,
    llse_equivalence_check,
)
from conftest import random_binary_tree, small_tree  # noqa: F401


def test_builtin_innovations_are_standardized():
    rng = np.random.default_rng(0)
    for name in ("uniform", "laplace", "signmix", "gaussian"):
        draw = alternate_sampler(name)
        z = draw(rng, 200_000)
        assert abs(float(z.mean())) < 0.01
        assert abs(float((z * z).mean()) - 1.0) < 0.02


def test_unknown_distribution_rejected():
    with pytest.raises(ModelError):
        alternate_sampler("cauchy")


def test_callable_sampler_passthrough():
    f = lambda rng, size: rng.normal(0.0, 1.0, size)
    assert alternate_sampler(f) is f


def test_gaussian_control_agrees(small_tree):
    rep = llse_equivalence_check(small_tree, [0.8, 0.6], "gaussian",
                                 samples=200_000, seed=1)
    assert rep.passed
    assert abs(rep.gap) <= 3 * rep.se
    assert rep.samples == 200_000
    assert rep.gaussian_mmse > 0


def test_each_alternate_source_matches_gaussian_mmse(small_tree):
    for name, seed in (("uniform", 2), ("laplace", 3), ("signmix", 4)):
        rep = llse_equivalence_check(small_tree, [0.8, 0.6], name,
                                     samples=400_000, seed=seed)
        assert rep.passed, (name, rep.gap, rep.se)
        assert rep.cov_max_dev <= 3.0


def test_deeper_tree_uniform():
    t = random_binary_tree(3, 77)
    rng = np.random.default_rng(5)
    a = rng.uniform(0.3, 0.9, t.leaf_count)
    rep = llse_equivalence_check(t, a, "uniform", samples=300_000, seed=6)
    assert rep.passed


def test_mismatched_sampler_is_flagged(small_tree):
    bad = lambda rng, size: rng.normal(0.0, 1.4, size)  # variance 1.96
    with pytest.raises(DomainError) as ei:
        llse_equivalence_check(small_tree, [0.8, 0.6], bad,
                               samples=100_000, seed=7)
    assert ei.value.code == "sampler-mismatch"


def test_report_is_deterministic(small_tree):
    a = llse_equivalence_check(small_tree, [0.7, 0.7], "laplace",
                               samples=60_000, seed=11)
    b = llse_equivalence_check(small_tree, [0.7, 0.7], "laplace",
                               samples=60_000, seed=11)
    assert a.empirical_mse == b.empirical_mse
    assert a.se == b.se


def test_sample_count_validation(small_tree):
    for samples in (0, -5, 2.5, 1000.0, "1000"):
        with pytest.raises(ModelError) as err:
            llse_equivalence_check(small_tree, [0.8, 0.6], "uniform",
                                   samples=samples, seed=0)
        assert err.value.code == "bad-samples"


def test_alpha_validation(small_tree):
    with pytest.raises(ModelError):
        llse_equivalence_check(small_tree, [1.5, 0.6], "uniform",
                               samples=1000, seed=0)


def _ref_llse(tree, a, innov, samples, seed, shard_size=250_000):
    """Serial, out-of-place check: (empirical MSE, se, cov_max_dev)."""
    m = tree.leaf_count
    joint = build_joint(tree, a)
    W, _ = llse_coefficients(joint.matrix, [0], list(range(2 * m - 1, 3 * m - 1)))
    w = np.asarray(W)[0]
    chan_sd = [math.sqrt(tree.var(v)) * math.sqrt(max(1.0 - a[i] * a[i], 0.0))
               for i, v in enumerate(tree.leaves())]
    heap = [1] + [tree.index(v) for v in tree.leaves()]
    K = np.asarray(joint.matrix)[np.ix_([n - 1 for n in heap], [n - 1 for n in heap])]
    nm = len(heap)
    err_sum, err_sq = [], []
    mom_sum = np.zeros((nm, nm))
    mom_sq = np.zeros((nm, nm))
    done = 0
    seq = np.random.SeedSequence(seed)
    while done < samples:
        size = min(shard_size, samples - done)
        rng = np.random.default_rng(seq.spawn(1)[0])
        x = [None, math.sqrt(tree.root_var) * innov(rng, size)]
        for n in range(2, 2 * m):
            val = tree.heap_alpha[n] * x[n // 2]
            if tree.heap_noise[n] > 0.0:
                val = val + math.sqrt(tree.heap_noise[n]) * innov(rng, size)
            x.append(val)
        vecs = [x[n] for n in heap]
        u = [a[i] * vecs[1 + i] + chan_sd[i] * rng.standard_normal(size) for i in range(m)]
        e = (vecs[0] - sum(w[i] * u[i] for i in range(m))) ** 2
        err_sum.append(float(e.sum()))
        err_sq.append(float((e * e).sum()))
        for r in range(nm):
            for c in range(r, nm):
                prod = vecs[r] * vecs[c]
                mom_sum[r, c] += float(prod.sum())
                mom_sq[r, c] += float((prod * prod).sum())
        done += size
    mse = math.fsum(err_sum) / samples
    se = math.sqrt(max(math.fsum(err_sq) / samples - mse * mse, 0.0) / samples)
    dev = 0.0
    for r in range(nm):
        for c in range(r, nm):
            mean = mom_sum[r, c] / samples
            mom_se = math.sqrt(max(mom_sq[r, c] / samples - mean * mean, 0.0) / samples)
            dev = max(dev, abs(mean - K[r, c]) / mom_se)
    return mse, se, dev


@pytest.mark.parametrize("cpus", [1, 4])
def test_report_equals_the_serial_out_of_place_reference(monkeypatch, small_tree, cpus):
    # 600k samples: two full shards and a partial one, run on 1 or on 4 threads
    monkeypatch.setattr(_shards, "_cpus", lambda: cpus)
    deep = random_binary_tree(3, 77)
    deep_alpha = [float(x) for x in np.random.default_rng(5).uniform(0.3, 0.9, 4)]
    custom = lambda rng, size: rng.normal(0.0, 1.0, size)  # noqa: E731
    for tree, alpha, dist in ((small_tree, [0.8, 0.6], "laplace"),
                              (small_tree, [0.7, 0.5], custom),
                              (deep, deep_alpha, "uniform")):
        rep = llse_equivalence_check(tree, alpha, dist, samples=600_000, seed=4)
        want = _ref_llse(tree, alpha, alternate_sampler(dist), 600_000, 4)
        assert (rep.empirical_mse, rep.se, rep.cov_max_dev) == want


def test_sampler_gate_is_family_wise():
    # depth 3 checks 15 moments; a 3-SE gate on each would raise here on a
    # correct sampler, the Bonferroni gate at z_(1 - 0.00135/15) does not
    t = random_binary_tree(3, 77)
    a = np.random.default_rng(5).uniform(0.3, 0.9, t.leaf_count)
    rep = llse_equivalence_check(t, a, "gaussian", samples=50_000, seed=137)
    assert 3.0 < rep.cov_max_dev < NormalDist().inv_cdf(1.0 - NormalDist().cdf(-3.0) / 15)
