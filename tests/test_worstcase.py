import math
import tracemalloc
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


B = _shards.BLOCK


def _ref_llse(tree, a, innov, samples, seed, shard_size=250_000, block=B):
    """Serial, out-of-place check: (empirical MSE, se, cov_max_dev), or
    "sampler-mismatch" where the covariance gate fires. Each shard runs in
    blocks of ``block`` samples whose sums are added in block order; a shard
    of one block is the whole-shard draw."""
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
        shard = min(shard_size, samples - done)
        rng = np.random.default_rng(seq.spawn(1)[0])
        shard_err, shard_sq = 0.0, 0.0
        shard_mom, shard_mom_sq = np.zeros((nm, nm)), np.zeros((nm, nm))
        for lo in range(0, shard, block):
            size = min(block, shard - lo)
            x = [None, math.sqrt(tree.root_var) * innov(rng, size)]
            for n in range(2, 2 * m):
                val = tree.heap_alpha[n] * x[n // 2]
                if tree.heap_noise[n] > 0.0:
                    val = val + math.sqrt(tree.heap_noise[n]) * innov(rng, size)
                x.append(val)
            vecs = [x[n] for n in heap]
            u = [a[i] * vecs[1 + i] + chan_sd[i] * rng.standard_normal(size) for i in range(m)]
            e = (vecs[0] - sum(w[i] * u[i] for i in range(m))) ** 2
            shard_err += float(e.sum())
            shard_sq += float((e * e).sum())
            for r in range(nm):
                for c in range(r, nm):
                    prod = vecs[r] * vecs[c]
                    shard_mom[r, c] += float(prod.sum())
                    shard_mom_sq[r, c] += float((prod * prod).sum())
        err_sum.append(shard_err)
        err_sq.append(shard_sq)
        mom_sum += shard_mom
        mom_sq += shard_mom_sq
        done += shard
    mse = math.fsum(err_sum) / samples
    se = math.sqrt(max(math.fsum(err_sq) / samples - mse * mse, 0.0) / samples)
    dev = 0.0
    for r in range(nm):
        for c in range(r, nm):
            mean = mom_sum[r, c] / samples
            mom_se = math.sqrt(max(mom_sq[r, c] / samples - mean * mean, 0.0) / samples)
            if mom_se > 0.0:
                dev = max(dev, abs(mean - K[r, c]) / mom_se)
            elif abs(mean - K[r, c]) > 1e-12:
                dev = math.inf
    k = nm * (nm + 1) // 2
    if dev > NormalDist().inv_cdf(1.0 - NormalDist().cdf(-3.0) / k):
        return "sampler-mismatch"
    return mse, se, dev


def _report(tree, alpha, dist, samples, seed):
    try:
        rep = llse_equivalence_check(tree, alpha, dist, samples=samples, seed=seed)
    except DomainError as err:
        return err.code
    return rep.empirical_mse, rep.se, rep.cov_max_dev


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_report_equals_the_serial_out_of_place_reference(monkeypatch, small_tree, cpus):
    # up to one block is the whole-shard draw (one sample has no moment SE, so
    # the gate fires); 600k is two full shards and a partial one, 1M four full
    # ones; on 1 CPU they run in turn, on 2 or 4 on a thread pool
    monkeypatch.setattr(_shards, "_cpus", lambda: cpus)
    deep = random_binary_tree(3, 77)
    deep_alpha = [float(x) for x in np.random.default_rng(5).uniform(0.3, 0.9, 4)]
    custom = lambda rng, size: rng.normal(0.0, 1.0, size)  # noqa: E731
    for samples in (1, B - 1, B, B + 1, 3 * B + 5, 600_000, 1_000_000):
        seed = samples % 11
        for tree, alpha, dist in ((small_tree, [0.8, 0.6], "laplace"),
                                  (small_tree, [0.7, 0.5], custom),
                                  (deep, deep_alpha, "uniform")):
            want = _ref_llse(tree, alpha, alternate_sampler(dist), samples, seed)
            assert _report(tree, alpha, dist, samples, seed) == want, samples


def test_a_million_sample_llse_call_peaks_below_12_mib(monkeypatch, small_tree):
    # two shards at a time; the whole-shard arrays peaked at 22.9 MiB
    monkeypatch.setattr(_shards, "_cpus", lambda: 2)
    args = (small_tree, [0.8, 0.6], "laplace")
    llse_equivalence_check(*args, samples=1_000_000, seed=1)  # numpy's lazy set-up
    tracemalloc.start()
    try:
        llse_equivalence_check(*args, samples=1_000_000, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


@pytest.mark.parametrize("draw", [
    lambda rng, size: rng.standard_normal(10),
    lambda rng, size: rng.standard_normal((size, 1)),
    lambda rng, size: list(rng.standard_normal(size)),
    lambda rng, size: rng.standard_normal(size) * 1j,
], ids=["short", "column", "list", "complex"])
def test_a_sampler_of_the_wrong_shape_or_type_is_refused(small_tree, draw):
    with pytest.raises(ModelError) as err:
        llse_equivalence_check(small_tree, [0.8, 0.6], draw, samples=2000)
    assert err.value.code == "bad-distribution"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e300])
def test_a_non_finite_sampler_is_a_mismatch(small_tree, bad):
    # every moment comparison with NaN is false: the covariance gate alone
    # would let it through; ±inf and 1e300 (whose square overflows) reach
    # NaN or inf in the block arithmetic, which must raise no numpy warning
    with pytest.raises(DomainError) as err:
        llse_equivalence_check(small_tree, [0.8, 0.6], lambda rng, size: np.full(size, bad),
                               samples=2000)
    assert err.value.code == "sampler-mismatch"


def test_report_fields_are_plain_floats(small_tree):
    rep = llse_equivalence_check(small_tree, [0.8, 0.6], "uniform", samples=2000)
    for v in (rep.gaussian_mmse, rep.empirical_mse, rep.se, rep.cov_max_dev):
        assert type(v) is float


def test_sampler_gate_is_family_wise():
    # depth 3 checks 15 moments; a 3-SE gate on each would raise here on a
    # correct sampler, the Bonferroni gate at z_(1 - 0.00135/15) does not
    t = random_binary_tree(3, 77)
    a = np.random.default_rng(5).uniform(0.3, 0.9, t.leaf_count)
    rep = llse_equivalence_check(t, a, "gaussian", samples=50_000, seed=137)
    assert 3.0 < rep.cov_max_dev < NormalDist().inv_cdf(1.0 - NormalDist().cdf(-3.0) / 15)
