import math
import threading
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from gmtree import (
    DivergenceReport,
    DomainError,
    LatticePair,
    ModelError,
    divergence_report,
    lattice_analytic_bound,
    lattice_decode,
    lattice_encode,
    lattice_mc_distortion,
    lattice_sum_rate,
    lattice_tail_prob,
    separation_min_sum_rate,
)
from gmtree import _shards
from gmtree import lattice as lattice_mod
from gmtree.lattice import _fine, _mod_cell, _sep_distortion, _sep_rate, _sep_terms


def test_pair_validation():
    LatticePair(0, 0)
    with pytest.raises(ModelError):
        LatticePair(-1, 2)
    with pytest.raises(ModelError):
        LatticePair(2, -1)
    with pytest.raises(ModelError):
        LatticePair(2.5, 1)


def test_encode_worked_examples():
    assert lattice_encode(0.3, LatticePair(2, 1)) == 0.25
    # fine point already inside the cell is a fixed point
    assert lattice_encode(0.5, LatticePair(2, 3)) == 0.5
    # half-step ties round toward +inf
    assert lattice_encode(0.125, LatticePair(2, 3)) == 0.25
    assert lattice_encode(-0.125, LatticePair(2, 3)) == 0.0
    for bad in (math.nan, math.inf):
        with pytest.raises(ModelError) as err:
            lattice_encode(bad, LatticePair(2, 1))
        assert err.value.code == "bad-number"


def test_encode_output_range_and_idempotence():
    lp = LatticePair(3, 2)
    rng = np.random.default_rng(7)
    xs = rng.normal(0, 5, 4000)
    us = np.array([lattice_encode(x, lp) for x in xs])
    assert np.all(us >= -2.0) and np.all(us < 2.0)
    # outputs are fine-lattice points, so re-encoding fixes them
    again = np.array([lattice_encode(u, lp) for u in us])
    assert np.array_equal(us, again)


def test_fine_quantizer_error_radius():
    # |x - Q_i(x)| <= 2^(-(n+1)) over a large random sweep
    rng = np.random.default_rng(11)
    for n in (0, 2, 5):
        xs = rng.normal(0, 3, 100_000)
        err = np.abs(xs - _fine(xs.copy(), n))
        assert float(err.max()) <= 2.0 ** (-(n + 1)) + 1e-15


def test_decode_worked_examples():
    assert lattice_decode(0.25, 1.75, LatticePair(2, 1)) == 0.5
    assert lattice_decode(0.75, 0.75, LatticePair(4, 2)) == 0.0


def test_decode_recovers_quantized_difference_without_wrap():
    lp = LatticePair(4, 3)
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(3000):
        x1, x2 = rng.normal(0, 1.2, 2)
        f1, f2 = (float(f) for f in _fine(np.array([x1, x2]), lp.n))
        if abs(f1 - f2) >= 2.0 ** (lp.m - 1):
            continue
        hits += 1
        u1 = lattice_encode(x1, lp)
        u2 = lattice_encode(x2, lp)
        assert lattice_decode(u1, u2, lp) == pytest.approx(f1 - f2, abs=1e-12)
    assert hits > 2500


def test_mod_cell_window():
    lp_m = 2
    vs = np.linspace(-9, 9, 2001)
    out = _mod_cell(vs.copy(), lp_m, np.empty_like(vs))
    assert np.all(out >= -2.0) and np.all(out < 2.0)
    # congruence: difference is a multiple of the period
    k = (vs - out) / 4.0
    assert np.allclose(k, np.round(k), atol=1e-12)


def test_mc_distortion_determinism_and_se():
    lp = LatticePair(6, 3)
    a = lattice_mc_distortion(100.0, lp, samples=50_000, seed=42)
    b = lattice_mc_distortion(100.0, lp, samples=50_000, seed=42)
    assert a.value == b.value and a.se == b.se
    c = lattice_mc_distortion(100.0, lp, samples=50_000, seed=43)
    assert c.value != a.value
    assert a.se > 0 and a.samples == 50_000


def test_mc_shard_merge_is_size_consistent():
    # crossing the shard boundary must not bias the estimate
    lp = LatticePair(5, 3)
    small = lattice_mc_distortion(1e4, lp, samples=200_000, seed=5)
    big = lattice_mc_distortion(1e4, lp, samples=1_200_000, seed=5)
    assert abs(small.value - big.value) <= 4 * (small.se + big.se)


def _ref_shards(samples, seed, shard_size=1_000_000):
    sizes = [shard_size] * (samples // shard_size)
    if samples % shard_size:
        sizes.append(samples % shard_size)
    for size, ss in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        yield size, np.random.default_rng(ss)


def _ref_fine(x, n):
    return np.floor(x * 2.0**n + 0.5) * 2.0 ** (-n)


def _ref_mod_cell(v, m):
    half = 2.0 ** (m - 1)
    return np.mod(v + half, 2.0**m) - half


def _ref_draw_pair(rng, size, sigma2):
    a = math.sqrt(sigma2 - 0.25)
    z0 = rng.standard_normal(size)
    z1 = rng.standard_normal(size)
    return a * z0 + 0.5 * z1, a * z0 - 0.5 * z1, z1


def _ref_mc(sigma2, lp, samples, seed):
    # serial, out-of-place estimator: fresh arrays and np.mod cells
    tot, tot2 = [], []
    for size, rng in _ref_shards(samples, seed):
        x1, x2, x3 = _ref_draw_pair(rng, size, sigma2)
        u1 = _ref_mod_cell(_ref_fine(x1, lp.n), lp.m)
        u2 = _ref_mod_cell(_ref_fine(x2, lp.n), lp.m)
        err = (x3 - _ref_mod_cell(u1 - u2, lp.m)) ** 2
        tot.append(float(err.sum()))
        tot2.append(float((err * err).sum()))
    mean = math.fsum(tot) / samples
    var = max(math.fsum(tot2) / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)


def _ref_tail(sigma2, lp, samples, seed):
    hits = []
    for size, rng in _ref_shards(samples, seed):
        x1, x2, _ = _ref_draw_pair(rng, size, sigma2)
        diff = _ref_fine(x1, lp.n) - _ref_fine(x2, lp.n)
        hits.append(int(np.count_nonzero(np.abs(diff) >= 2.0 ** (lp.m - 1))))
    p = math.fsum(hits) / samples
    return p, math.sqrt(max(p * (1.0 - p), 0.0) / samples)


@pytest.mark.parametrize("cpus", [1, 4])
def test_estimates_equal_the_serial_out_of_place_reference(monkeypatch, cpus):
    # 2.5M samples: two full shards and a half one, run on 1 or on 4 threads
    monkeypatch.setattr(_shards, "_cpus", lambda: cpus)
    for sigma2, lp, seed in ((1e4, LatticePair(8, 4), 3), (1e2, LatticePair(3, 2), 4)):
        got = lattice_mc_distortion(sigma2, lp, samples=2_500_000, seed=seed)
        assert (got.value, got.se) == _ref_mc(sigma2, lp, 2_500_000, seed)
    for lp, seed in ((LatticePair(8, 2), 5), (LatticePair(6, 3), 6)):
        got = lattice_tail_prob(100.0, lp, samples=2_500_000, seed=seed)
        assert (got.value, got.se) == _ref_tail(100.0, lp, 2_500_000, seed)
    # one partial shard runs inline
    got = lattice_mc_distortion(1e6, LatticePair(8, 4), samples=300_000, seed=8)
    assert (got.value, got.se) == _ref_mc(1e6, LatticePair(8, 4), 300_000, 8)


def _whole_pair(rng, size, sigma2):
    # the whole-array shards that the block streaming replaced, kept verbatim
    x2 = rng.standard_normal(size)
    x2 *= math.sqrt(sigma2 - 0.25)
    z1 = rng.standard_normal(size)
    tmp = np.multiply(z1, 0.5)
    x1 = x2 + tmp
    x2 -= tmp
    return x1, x2, z1, tmp


def _whole_mc_shard(rng, size, sigma2, lp):
    x1, x2, x3, tmp = _whole_pair(rng, size, sigma2)
    u1 = _mod_cell(_fine(x1, lp.n), lp.m, tmp)
    u2 = _mod_cell(_fine(x2, lp.n), lp.m, tmp)
    u1 -= u2
    err = np.subtract(x3, _mod_cell(u1, lp.m, tmp), out=u1)
    err *= err
    sq = np.multiply(err, err, out=u2)
    return float(err.sum()), float(sq.sum())


def _whole_tail_shard(rng, size, sigma2, lp):
    x1, x2, _, _ = _whole_pair(rng, size, sigma2)
    diff = _fine(x1, lp.n)
    diff -= _fine(x2, lp.n)
    np.abs(diff, out=diff)
    return int(np.count_nonzero(diff >= 2.0 ** (lp.m - 1)))


def _whole_mc(sigma2, lp, samples, seed):
    parts = [_whole_mc_shard(rng, size, sigma2, lp) for size, rng in _ref_shards(samples, seed)]
    mean = math.fsum(p[0] for p in parts) / samples
    var = max(math.fsum(p[1] for p in parts) / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)


def _whole_tail(sigma2, lp, samples, seed):
    p = sum(_whole_tail_shard(rng, size, sigma2, lp) for size, rng in _ref_shards(samples, seed))
    p /= samples
    return p, math.sqrt(max(p * (1.0 - p), 0.0) / samples)


B = _shards.BLOCK


@pytest.mark.parametrize("samples", [1, B - 1, B, B + 1, 3 * B + 5, 1_000_000, 2_000_000, 2_500_000])
def test_block_streams_equal_the_whole_array_shards(monkeypatch, samples):
    # on 1 CPU everything runs inline; one shard on 2 or 4 CPUs, and two
    # shards on 4, stream with a helper thread; other splits run blocks inline
    seed = samples % 11
    want = {}
    for sigma2 in (1e2, 1e4, 1e6):
        for lp in (LatticePair(8, 4), LatticePair(8, 2), LatticePair(8, 3)):
            want[sigma2, lp] = (_whole_mc(sigma2, lp, samples, seed),
                                _whole_tail(sigma2, lp, samples, seed))
    for cpus in (1, 2, 4):
        monkeypatch.setattr(_shards, "_cpus", lambda: cpus)
        for (sigma2, lp), (mc, tail) in want.items():
            got = lattice_mc_distortion(sigma2, lp, samples=samples, seed=seed)
            assert (got.value, got.se) == mc
            got = lattice_tail_prob(sigma2, lp, samples=samples, seed=seed)
            assert (got.value, got.se) == tail


@pytest.mark.parametrize("samples", [B + 1, 1_000_000, 2_000_000, 2_500_000])
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_a_call_runs_at_most_one_thread_per_cpu(monkeypatch, samples, cpus):
    # threads the call starts and has alive at once, seen from every block's
    # kernel: at most one per CPU, and one fewer while the caller draws
    monkeypatch.setattr(_shards, "_cpus", lambda: cpus)
    base = threading.active_count()
    peak, started = [0], []
    fine = lattice_mod._fine

    def counting_fine(x, n):
        peak[0] = max(peak[0], threading.active_count() - base)
        return fine(x, n)

    start = threading.Thread.start

    def counting_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(lattice_mod, "_fine", counting_fine)
    monkeypatch.setattr(threading.Thread, "start", counting_start)
    shards = -(-samples // lattice_mod.SHARD_SIZE)
    workers = min(shards, cpus)
    helpers = workers if 2 * workers <= cpus else 0  # every shard here has 2+ blocks
    for call in (lattice_mc_distortion, lattice_tail_prob):
        call(1e4, LatticePair(8, 4), samples=samples, seed=1)
        assert peak[0] <= (cpus - 1 if shards == 1 else cpus)
        assert threading.active_count() == base
    assert len(started) == 2 * ((workers if workers > 1 else 0) + helpers)
    if cpus == 1:
        assert started == []


@pytest.mark.parametrize("call", [lattice_mc_distortion, lattice_tail_prob])
def test_a_million_sample_call_peaks_below_12_mib(call):
    # the whole-array shards peaked at 30.5 MiB: four 8 MB arrays
    call(1e4, LatticePair(8, 4), samples=1_000_000, seed=1)  # numpy's lazy set-up
    tracemalloc.start()
    try:
        call(1e4, LatticePair(8, 4), samples=1_000_000, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


@pytest.mark.parametrize("n, m", [(1, 0), (0, 3), (3, 1), (8, 4), (5, 6)])
def test_floor_cell_equals_mod_cell_on_the_fine_lattice(n, m):
    # every fine-lattice point of [-3 * 2^m, 3 * 2^m], so the cell edges
    # +-2^(m-1), their neighbours and negatives are all on the grid
    k = np.arange(-3 * 2 ** (m + n), 3 * 2 ** (m + n) + 1)
    v = k * 2.0 ** (-n)
    assert np.any(v == -(2.0 ** (m - 1))) and np.any(v == 2.0 ** (m - 1))
    got = _mod_cell(v.copy(), m, np.empty_like(v))
    want = _ref_mod_cell(v, m)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))  # sign of 0 too


def test_mc_n0_rounding_error():
    # with no fine resolution the scheme is plain rounding of a unit normal
    est = lattice_mc_distortion(1e6, LatticePair(0, 8), samples=200_000, seed=9)
    assert est.value <= 0.25
    assert est.value > 0.05


def test_mc_rejects_bad_inputs():
    with pytest.raises(DomainError):
        lattice_mc_distortion(0.5, LatticePair(4, 2), samples=1000, seed=0)
    with pytest.raises(DomainError):
        lattice_mc_distortion(-3.0, LatticePair(4, 2), samples=1000, seed=0)
    with pytest.raises(ModelError):
        lattice_mc_distortion(10.0, LatticePair(4, 2), samples=0, seed=0)


@pytest.mark.parametrize("sigma2", [math.nan, math.inf, -math.inf])
def test_non_finite_sigma2_is_refused(sigma2):
    # NaN passes the `<= 1/2` range check; it used to give a 0.0 tail estimate
    lp = LatticePair(8, 3)
    for call in (
        lambda: lattice_mc_distortion(sigma2, lp, samples=1000),
        lambda: lattice_tail_prob(sigma2, lp, samples=1000),
        lambda: separation_min_sum_rate(sigma2, 0.5),
    ):
        with pytest.raises(ModelError) as err:
            call()
        assert err.value.code == "bad-number"


@pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
def test_non_finite_distortion_is_refused(d):
    with pytest.raises(ModelError) as err:
        separation_min_sum_rate(10.0, d)
    assert err.value.code == "bad-number"
    with pytest.raises(ModelError) as err:
        divergence_report([10.0], d, LatticePair(8, 4), samples=1000)
    assert err.value.code == "bad-number"


@pytest.mark.parametrize("samples", [2.5, 1000.0, "1000", None, 0, -3])
def test_sample_count_must_be_a_positive_integer(samples):
    lp = LatticePair(8, 4)
    for call in (lattice_mc_distortion, lattice_tail_prob):
        with pytest.raises(ModelError) as err:
            call(10.0, lp, samples=samples)
        assert err.value.code == "bad-samples"


def test_sample_count_accepts_integer_types():
    lp = LatticePair(8, 4)
    want = lattice_mc_distortion(10.0, lp, samples=3000, seed=4)
    assert lattice_mc_distortion(10.0, lp, samples=np.int64(3000), seed=4) == want


def test_analytic_bound_value_and_monotonicity():
    want = (2.0 ** -8 + math.sqrt(2 * 19 * math.exp(-32.0))) ** 2
    assert lattice_analytic_bound(LatticePair(8, 4)) == pytest.approx(want, rel=1e-15)
    for m in range(5):
        vals = [lattice_analytic_bound(LatticePair(n, m)) for n in range(9)]
        assert all(x >= y for x, y in zip(vals, vals[1:]))
    for n in range(5):
        vals = [lattice_analytic_bound(LatticePair(n, m)) for m in range(2, 9)]
        assert all(x >= y for x, y in zip(vals, vals[1:]))
    # vanishes in the joint limit
    assert lattice_analytic_bound(LatticePair(60, 10)) < 1e-30


def test_mse_below_bound_on_grid():
    # thinned version of the uniform-in-sigma2 property
    for sigma2 in (1e2, 1e6):
        for n, m in ((4, 3), (6, 3), (8, 4)):
            lp = LatticePair(n, m)
            est = lattice_mc_distortion(sigma2, lp, samples=100_000, seed=21)
            assert est.value <= lattice_analytic_bound(lp)


def test_sum_rate_formula():
    assert lattice_sum_rate(LatticePair(8, 4)) == pytest.approx(24 * math.log(2.0))
    assert lattice_sum_rate(LatticePair(0, 0)) == 0.0


def test_tail_probability_bound():
    est = lattice_tail_prob(100.0, LatticePair(6, 2), samples=300_000, seed=13)
    assert est.value <= 2 * math.exp(-2.0) + 3 * est.se
    assert est.se > 0


def test_separation_terms_against_direct_formulas():
    # closed forms evaluated the straightforward way, moderate sigma2 only
    sigma2 = 50.0
    rho, omr = _sep_terms(sigma2)
    assert rho == pytest.approx(1 - 1 / (2 * sigma2), rel=1e-15)
    assert omr == pytest.approx(1 - rho * rho, rel=1e-12)
    for a, b in ((0.5, 0.5), (2.0, 0.3), (10.0, 1.0)):
        want_rate = 0.5 * math.log((1 - rho * rho) / (a * b) + 1 / a + 1 / b + 1)
        want_dist = 1 - (2 * (1 + rho) + a + b) / (
            (4 * (1 + a) * (1 + b) - 4 * rho * rho) * sigma2
        )
        assert _sep_rate(a, b, omr) == pytest.approx(want_rate, rel=1e-12)
        assert _sep_distortion(a, b, sigma2, rho, omr) == pytest.approx(
            want_dist, rel=1e-12)


def test_separation_vacuous_and_infeasible():
    assert separation_min_sum_rate(100.0, 1.0) == 0.0
    assert separation_min_sum_rate(100.0, 1.5) == 0.0
    with pytest.raises(DomainError):
        separation_min_sum_rate(100.0, 0.0)
    with pytest.raises(DomainError):
        separation_min_sum_rate(100.0, -0.2)
    with pytest.raises(DomainError):
        separation_min_sum_rate(0.3, 0.5)


def test_separation_rate_vanishes_near_unit_distortion():
    # the helpers may run ever noisier as the target loosens, so the optimal
    # sum rate decays to zero, though only on the scale of sigma2*(1-d)
    vals = [separation_min_sum_rate(100.0, d)
            for d in (0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert vals[-1] < 1e-6


def test_separation_strictly_increasing_in_sigma2():
    rates = [separation_min_sum_rate(s, 0.5) for s in (10.0, 1e3, 1e6)]
    assert rates[0] < rates[1] < rates[2]
    # conservative growth floor per decade past 1e3
    assert rates[2] - rates[1] >= 0.3 * 3


@pytest.mark.parametrize("sigma2, d", [
    (1e3, 0.5), (0.75, 0.2), (10.0, 0.9), (1e5, 0.3)])
def test_separation_matches_log_grid_oracle(sigma2, d):
    # brute grid in (log a, log b) at step 1e-2 upper-bounds the optimum and
    # should sit within a grid cell of it
    got = separation_min_sum_rate(sigma2, d)
    rho, omr = _sep_terms(sigma2)
    grid = np.arange(-18.0, 2.0, 1e-2)
    ea = np.exp(grid)
    best = math.inf
    for a in ea:
        # one grid row at a time: _sep_distortion is plain arithmetic, so it
        # takes the row of b as an array; the rate is _sep_rate on arrays
        ok = _sep_distortion(a, ea, sigma2, rho, omr) <= d
        if ok.any():
            b = ea[ok]
            rate = 0.5 * (np.log(omr + a + b + a * b) - math.log(a) - np.log(b))
            best = min(best, float(rate.min()))
    assert got <= best + 1e-9
    assert got >= best - 0.05


def _decimal_symmetric_rate(sigma2: float, d: float) -> Decimal:
    # rate at the symmetric boundary point a = b, with a found by bisection on
    # the distortion itself, 1 - (2(1+rho) + 2a) / (4 sigma2 ((1+a)^2 - rho^2)),
    # which increases in a; 50 digits beyond the scale of a >= d / (2 sigma2)
    with localcontext() as ctx:
        ctx.prec = 50 + max(0, math.ceil(math.log10(2.0 * sigma2) - math.log10(d)))
        s2, dd = Decimal(sigma2), Decimal(d)
        rho = 1 - 1 / (2 * s2)

        def dist(a):
            return 1 - (2 * (1 + rho) + 2 * a) / (4 * s2 * ((1 + a) ** 2 - rho * rho))

        hi = Decimal(1)
        while dist(hi) < dd:
            hi *= 2
        while dist(hi / 2) >= dd:
            hi /= 2
        lo = hi / 2  # dist(lo) < d <= dist(hi)
        for _ in range(400):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if dist(mid) < dd else (lo, mid)
        a = (lo + hi) / 2
        return (((1 + a) ** 2 - rho * rho) / (a * a)).ln() / 2


@pytest.mark.parametrize("sigma2, d", [
    (0.51, 1.0 - 1e-12), (0.51, 0.5), (0.5000001, 1e-12), (2.0, 1e-6),
    (1e3, 0.5), (1e6, 0.999), (1e12, 1e-12), (1e12, 1.0 - 1e-12), (1e12, 1e-300)])
def test_separation_matches_50_digit_reference(sigma2, d):
    # the least rate sits at a = b (the grid oracle and the symmetric scan
    # check that independently); here the float value must match the exact
    # symmetric boundary rate to within a few ulps, also where a^2 underflows
    want = _decimal_symmetric_rate(sigma2, d)
    got = separation_min_sum_rate(sigma2, d)
    assert abs((Decimal(got) - want) / want) <= Decimal("1e-14")


def test_separation_symmetric_restriction_is_upper_bound():
    sigma2, d = 1e4, 0.5
    opt = separation_min_sum_rate(sigma2, d)
    rho, omr = _sep_terms(sigma2)
    # symmetric scan a = b
    best = math.inf
    for la in np.arange(-16.0, 2.0, 5e-3):
        a = math.exp(la)
        if _sep_distortion(a, a, sigma2, rho, omr) <= d:
            best = min(best, _sep_rate(a, a, omr))
    assert best >= opt - 1e-9


def test_divergence_report_contents():
    lp = LatticePair(8, 4)
    rep = divergence_report([10.0, 1e3, 1e6], 0.5, lp, samples=60_000, seed=2)
    assert isinstance(rep, DivergenceReport)
    assert len(rep.rows) == 3
    assert rep.separation_monotone
    assert rep.lattice_within_target
    rates = [row.separation_rate for row in rep.rows]
    assert rates[0] < rates[1] < rates[2]
    for row in rep.rows:
        assert row.lattice_rate == pytest.approx(lattice_sum_rate(lp))
        assert row.lattice_mse <= 0.5
        assert row.lattice_mse <= lattice_analytic_bound(lp)


def test_divergence_report_guards():
    with pytest.raises(ModelError):
        divergence_report([], 0.5, LatticePair(8, 4))
    with pytest.raises(DomainError):
        # bound at n=0, m=1 is far above the target distortion
        divergence_report([10.0], 1e-3, LatticePair(0, 1), samples=1000)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lattice_decode_refuses_non_finite_messages(bad):
    for u1, u2 in ((bad, 0.0), (0.0, bad)):
        with pytest.raises(ModelError) as err:
            lattice_decode(u1, u2, LatticePair(8, 4))
        assert err.value.code == "bad-number"
