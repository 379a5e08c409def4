import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmtree import (
    BinaryTreeSource,
    ChannelContext,
    DomainError,
    MarkovTree,
    ModelError,
    binarize,
    build_joint,
    equality_rates,
    f_node,
    fixture_path,
    frd_contains,
    gaussian_cmi,
    load_model,
    matchup_verify,
    max_root_rate,
    min_weighted_sum,
    rank_f,
    rd_out_min_weighted,
    rd_out_subset_bound,
    reroot,
    telescope_f,
    weight_order,
)
from gmtree.outer import _OuterEval
from conftest import random_binary_tree, random_general_tree, small_tree  # noqa: F401


def _feasible_d(tree, frac):
    ctx = ChannelContext(tree)
    return ctx.d_floor + frac * (tree.root_var - ctx.d_floor)


def test_f_node_limits(small_tree):
    assert f_node(small_tree, (1, 1), 0.0, 0.0) == 0.0
    cap = f_node(small_tree, (1, 1), math.inf, math.inf)
    assert cap == max_root_rate(small_tree)
    assert f_node(small_tree, (1, 1), 1.0, 0.5) < cap
    with pytest.raises(ModelError):
        f_node(small_tree, (2, 1), 0.1, 0.1)  # leaves have no children
    with pytest.raises(DomainError):
        f_node(small_tree, (1, 1), -0.3, 0.0)


def test_f_node_monotone_and_concave_in_each_rate(small_tree):
    vals = [f_node(small_tree, (1, 1), r, 0.7) for r in (0.0, 0.4, 0.8, 1.6, math.inf)]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    # concavity along the first coordinate
    a, b, c = (f_node(small_tree, (1, 1), r, 0.7) for r in (0.2, 0.5, 0.8))
    assert b >= 0.5 * (a + c) - 1e-12


def test_equality_rates_saturate_every_internal_cap():
    for trial in range(8):
        L = 2 + trial % 2
        t = random_binary_tree(L, 50 + trial)
        rng = np.random.default_rng(trial)
        a = rng.uniform(0.05, 0.95, t.leaf_count)
        r = equality_rates(t, a)
        for k in range(1, L):
            for i in range(1, 2 ** (k - 1) + 1):
                l, rr = BinaryTreeSource.children((k, i))
                cap = f_node(t, (k, i), r[l], r[rr])
                assert abs(r[(k, i)] - cap) < 1e-9


def test_equality_rates_witness_membership_at_achieved_distortion():
    t = random_binary_tree(3, 99)
    rng = np.random.default_rng(9)
    a = rng.uniform(0.1, 0.9, 4)
    r = equality_rates(t, a)
    ctx = ChannelContext(t)
    d = ctx.distortion(a)
    assert frd_contains(t, r, d, tol=1e-8)
    # tightening the distortion target below the root pin breaks membership
    assert not frd_contains(t, r, d * math.exp(-0.02), tol=1e-10)


def test_frd_membership_basics(small_tree):
    r = {n: 0.0 for n in small_tree.nodes()}
    assert not frd_contains(small_tree, r, 0.4)  # root pin unmet
    assert frd_contains(small_tree, r, small_tree.root_var * 1.01)
    bad = dict(r)
    bad[(1, 1)] = 1.0  # exceeds the internal cap at zero leaf rates
    assert not frd_contains(small_tree, bad, small_tree.root_var * 1.01)
    with pytest.raises(ModelError):
        frd_contains(small_tree, {(1, 1): 0.0}, 0.5)


def test_telescope_modes_and_bases(small_tree):
    r = {(1, 1): 0.2, (2, 1): 0.7, (2, 2): 0.4}
    # node fully inside A bottoms out at its own rate in both modes
    assert telescope_f(small_tree, (2, 1), [1], r, "both") == 0.7
    assert telescope_f(small_tree, (2, 1), [1], r, "only") == 0.7
    # node fully outside A: kept in 'both', zeroed in 'only'
    assert telescope_f(small_tree, (2, 2), [1], r, "both") == 0.4
    assert telescope_f(small_tree, (2, 2), [1], r, "only") == 0.0
    # mixed node recurses through the cap function
    want_both = f_node(small_tree, (1, 1), 0.7, 0.4)
    want_only = f_node(small_tree, (1, 1), 0.7, 0.0)
    assert abs(telescope_f(small_tree, (1, 1), [1], r, "both") - want_both) < 1e-14
    assert abs(telescope_f(small_tree, (1, 1), [1], r, "only") - want_only) < 1e-14
    with pytest.raises(ModelError):
        telescope_f(small_tree, (1, 1), [1], r, "sideways")


def test_subset_bound_single_encoder_expansion(small_tree):
    r = {(1, 1): 0.25, (2, 1): 0.8, (2, 2): 0.5}
    # ancestors of {1}: the root and leaf 1; credit telescopes the complement
    want = (r[(1, 1)] - f_node(small_tree, (1, 1), 0.0, r[(2, 2)])) + (r[(2, 1)] - 0.0)
    got = rd_out_subset_bound(small_tree, r, [1])
    assert abs(got - want) < 1e-14
    assert rd_out_subset_bound(small_tree, r, []) == 0.0


def test_subset_bound_full_set_sums_all_rates(small_tree):
    r = {(1, 1): 0.25, (2, 1): 0.8, (2, 2): 0.5}
    # complement empty: every telescope goes to zero, rows add raw rates
    want = sum(r.values())
    assert abs(rd_out_subset_bound(small_tree, r, [1, 2]) - want) < 1e-14


def _leaves_of(tree, node):
    k, i = node
    span = 2 ** (tree.depth - k)
    return set(range((i - 1) * span + 1, i * span + 1))


def _ref_telescope(tree, node, kept, r, only):
    """Straight from the definition: a node wholly inside ``kept`` gives its
    own rate, one wholly outside its own rate or 0, a mixed one recurses."""
    leaves = _leaves_of(tree, node)
    if leaves <= kept:
        return r[node]
    if not leaves & kept:
        return 0.0 if only else r[node]
    l, rr = BinaryTreeSource.children(node)
    return f_node(tree, node, _ref_telescope(tree, l, kept, r, only),
                  _ref_telescope(tree, rr, kept, r, only))


def _ref_subset_bound(tree, r, A):
    # zero-noise nodes carry q, not a rate, and are no rows
    comp = set(range(1, tree.leaf_count + 1)) - A
    return sum(r[n] - _ref_telescope(tree, n, comp, r, True)
               for n in tree.nodes() if _leaves_of(tree, n) & A and tree.noise_var.get(n) != 0.0)


def _all_subsets(m):
    return [set(A) for size in range(m + 1) for A in itertools.combinations(range(1, m + 1), size)]


def test_subset_bounds_and_telescopes_match_recursive_reference():
    # figure_tree reduced at x1 has depth 5, padding and zero-noise copy
    # edges; its 2^16 subsets are sampled: every subset of the real leaves,
    # alone and with half the padding, plus random subsets of all leaves
    figure, _ = binarize(reroot(load_model(fixture_path("figure_tree")), "x1"))
    assert figure.depth == 5 and 0.0 in figure.noise_var.values()
    rng = np.random.default_rng(0)
    m = figure.leaf_count
    real = sorted(set(range(1, m + 1)) - figure.padding)
    half = set(sorted(figure.padding)[::2])
    sampled = [{e for j, e in enumerate(real) if bits >> j & 1} for bits in range(2 ** len(real))]
    sampled += [A | half for A in sampled]
    sampled += [set(np.flatnonzero(rng.random(m) < 0.5) + 1) for _ in range(32)]
    cases = [(random_binary_tree(L, 80 + L), _all_subsets(2 ** (L - 1))) for L in (1, 2, 3, 4)]
    for tree, subsets in cases + [(figure, sampled)]:
        r = {n: float(v) for n, v in zip(tree.nodes(), rng.uniform(0.0, 1.5, len(tree.nodes())))}
        r[tree.nodes()[-1]] = 0.0
        for A in subsets:
            assert abs(rd_out_subset_bound(tree, r, A) - _ref_subset_bound(tree, r, A)) <= 1e-14
            for node in tree.nodes():
                for mode in ("both", "only"):
                    want = _ref_telescope(tree, node, A, r, mode == "only")
                    assert abs(telescope_f(tree, node, A, r, mode) - want) <= 1e-14


def _draw_edges(draw, L):
    """alpha and noise of a depth-L tree; about one edge in four is a
    zero-noise edge with alpha in [1e-3, 1]."""
    alpha, noise = {}, {}
    for k in range(2, L + 1):
        for i in range(1, 2 ** (k - 1) + 1):
            if draw(st.integers(0, 3)) == 0:
                alpha[(k, i)], noise[(k, i)] = draw(st.floats(1e-3, 1.0)), 0.0
            else:
                alpha[(k, i)] = draw(st.floats(0.2, 0.95))
                noise[(k, i)] = draw(st.floats(0.05, 1.0))
    return alpha, noise


@st.composite
def identity_cases(draw):
    """A tree of depth 2-4 with zero-noise edges, a channel and weights."""
    L = draw(st.integers(2, 4))
    alpha, noise = _draw_edges(draw, L)
    tree = BinaryTreeSource(L, draw(st.floats(0.5, 2.0)), alpha, noise)
    m = tree.leaf_count
    a = [draw(st.floats(0.05, 0.95)) for _ in range(m)]
    w = [draw(st.floats(0.0, 1.0)) for _ in range(m)]
    return tree, a, w


@settings(max_examples=60, deadline=None)
@given(identity_cases())
def test_equality_rates_meet_the_chain_vertex_exactly(case):
    # at equality rates the weighted outer bound is the inner chain value,
    # for any channel: the nested suffix sets of the ascending weight order
    tree, a, w = case
    r = equality_rates(tree, a)
    perm = weight_order(w)
    sigma = list(reversed(perm))
    total, prev = 0.0, 0.0
    for j, s in enumerate(sigma):
        total += (w[s - 1] - prev) * rd_out_subset_bound(tree, r, sigma[j:])
        prev = w[s - 1]
    assert abs(total - ChannelContext(tree).chain_value(a, perm, w)) <= 1e-12
    for leaf, ai in zip(tree.leaves(), a):
        var, noise = tree.var(leaf), tree.noise_var[leaf]
        if noise == 0.0:  # a zero-noise leaf's slot holds q
            want = tree.alpha[leaf] ** 2 * ai * ai / ((1 - ai * ai) * var)
        else:
            want = 0.5 * math.log((ai * ai * noise + (1 - ai * ai) * var) / ((1 - ai * ai) * var))
        assert abs(r[leaf] - want) <= 1e-12


def _identity_trees():
    """Six random trees at each of depths 2-4, and figure_tree reduced at x1
    and at b: 12 padding leaves of 16, with copy edges."""
    fig = load_model(fixture_path("figure_tree"))
    return ([random_binary_tree(L, seed) for L in (2, 3, 4) for seed in range(6)]
            + [binarize(reroot(fig, target))[0] for target in ("x1", "b")])


@pytest.mark.parametrize("k, tree", list(enumerate(_identity_trees())))
def test_equality_rates_meet_the_rank_function_on_every_subset(k, tree):
    # the outer bound at equality rates is the inner rank function, exactly,
    # on every nonempty set of real leaves. The 1e-14 absolute term covers
    # ranks near 0: against a 50-digit reference, a singleton rank of 1.2e-3
    # (alpha 0.052, k = 13) is off by 2.3e-12 relative (2.7e-15) in the bound
    # and by 3e-16 relative in rank_f
    m = tree.leaf_count
    rng = np.random.default_rng(k)
    a = [0.0 if i in tree.padding else float(rng.uniform(0.05, 0.95)) for i in range(1, m + 1)]
    r = equality_rates(tree, a)
    joint = build_joint(tree, a)
    real = [i for i in range(1, m + 1) if i not in tree.padding]
    for size in range(1, len(real) + 1):
        for A in itertools.combinations(real, size):
            want = rank_f(joint, A)
            assert abs(rd_out_subset_bound(tree, r, A) - want) <= 1e-12 * want + 1e-14, A


def test_pinned_root_meets_the_distortion_on_a_padded_tree():
    # figure_tree reduced at x1 has zero-noise copy edges and padding; the
    # program's rates meet the root bound and every cap
    tree, _ = binarize(reroot(load_model(fixture_path("figure_tree")), "x1"))
    for frac in (0.2, 0.5, 0.8):
        d = _feasible_d(tree, frac)
        sol = rd_out_min_weighted(tree, [1.0] * tree.leaf_count, d)
        assert sol.converged
        assert abs(sol.rates[(1, 1)] - 0.5 * math.log(tree.root_var / d)) <= 1e-12
        assert frd_contains(tree, sol.rates, d)


def test_subset_bound_of_achievable_point_is_below_sum_rate():
    # validity: the bound on subset A never exceeds what the inner code pays
    for trial in range(6):
        t = random_binary_tree(2, 700 + trial)
        d = _feasible_d(t, 0.4)
        sol = min_weighted_sum(t, [1.0, 1.0], d, starts=8)
        r = equality_rates(t, sol.alpha)
        for A in ([1], [2], [1, 2]):
            lhs = rd_out_subset_bound(t, r, A)
            rhs = sum(sol.rates[i - 1] for i in A)
            assert lhs <= rhs + 1e-7


def test_outer_value_single_helper_is_root_pin():
    t = BinaryTreeSource(2, 1.0, {(2, 1): 0.9, (2, 2): 1.0},
                         {(2, 1): 0.19, (2, 2): 0.0}, {2})
    d = 0.6
    sol = rd_out_min_weighted(t, [1.0, 0.0], d)
    # weight only on the single real encoder: bound equals its ancestor chain
    assert sol.value > 0
    assert abs(sol.rates[(1, 1)] - 0.5 * math.log(1.0 / d)) < 1e-9


def _reduced_trees():
    """Every reroot of the figure tree with every observation subset, and
    every reroot of seeded random general trees, through ``binarize``."""
    models = []
    fig = load_model(fixture_path("figure_tree"))
    obs = sorted(fig.observations)
    for k in range(1, len(obs) + 1):
        models += [MarkovTree(fig.nodes, fig.root_var, sub)
                   for sub in itertools.combinations(obs, k)]
    models += [random_general_tree(seed, 1 + seed % 4) for seed in range(30)]
    out = []
    for model in models:
        for v in model.ids:
            try:
                out.append(binarize(reroot(model, v))[0])
            except DomainError:
                continue  # rerooting at a zero-variance node is ill-posed
    return out


def test_root_rate_supremum_is_the_inner_distortion_floor():
    # the outer guard (the composed caps' supremum) and the inner guard (the
    # Gaussian MMSE from the real leaves) refuse the same distortions
    trees = [random_binary_tree(L, s) for L in (2, 3, 4) for s in range(30)]
    reduced = _reduced_trees()
    assert sum(t.padding != frozenset() for t in reduced) > 100
    infinite = 0
    for t in trees + reduced:
        floor, top = ChannelContext(t).d_floor, max_root_rate(t)
        if floor == 0.0:
            assert top == math.inf
            infinite += 1
        else:
            want = 0.5 * math.log(t.root_var / floor)
            assert abs(top - want) <= 1e-12 * abs(want)
    assert infinite > 10  # observed roots, through copy edges


def test_outer_never_exceeds_inner():
    for trial in range(6):
        L = 2 + trial % 2
        t = random_binary_tree(L, 40 + trial)
        d = _feasible_d(t, 0.35)
        rng = np.random.default_rng(trial)
        w = list(rng.uniform(0.2, 1.0, t.leaf_count))
        iv = min_weighted_sum(t, w, d, starts=10).value
        sol = rd_out_min_weighted(t, w, d)
        assert sol.value <= iv + 1e-8
        assert frd_contains(t, sol.rates, d)
        assert abs(sol.rates[(1, 1)] - 0.5 * math.log(t.root_var / d)) <= 1e-12


def test_a_zero_weight_encoder_is_known(small_tree):
    # weight 0 on encoder 1: its rate is free, so its leaf is held at +inf;
    # a direction pinned to the root rate was worth 0.06 nats here against an
    # inner value of 1e-9
    d, w = 0.5, [0.0, 1.0]
    sol = rd_out_min_weighted(small_tree, w, d)
    assert sol.rates[(2, 1)] == math.inf
    assert sol.value <= min_weighted_sum(small_tree, w, d, starts=8).value + 1e-8
    assert frd_contains(small_tree, sol.rates, d)


def test_outer_guards(small_tree):
    with pytest.raises(DomainError):
        rd_out_min_weighted(small_tree, [1.0, 1.0], 0.0)
    with pytest.raises(DomainError):
        rd_out_min_weighted(small_tree, [1.0, 1.0], 1e-9)
    with pytest.raises(ModelError):
        rd_out_min_weighted(small_tree, [1.0], 0.5)
    assert rd_out_min_weighted(small_tree, [1.0, 1.0], 5.0).value == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_outer_refuses_non_finite_numbers(small_tree, bad):
    r = {n: 0.0 for n in small_tree.nodes()}
    for call in (
        lambda: rd_out_min_weighted(small_tree, [1.0, 1.0], bad),
        lambda: frd_contains(small_tree, r, bad),
    ):
        with pytest.raises(ModelError) as err:
            call()
        assert err.value.code == "bad-number"
    with pytest.raises(ModelError) as err:
        rd_out_min_weighted(small_tree, [bad, 1.0], 0.5)
    assert err.value.code == "bad-weights"


def _recovered_channel(tree, rates):
    """The test channel whose equality rates are ``rates`` on the leaves:
    a^2 = (e^(2r) - 1) V / (N + (e^(2r) - 1) V) at a noisy leaf, and
    a^2 = q V / (alpha^2 + q V) at a zero-noise leaf (its slot holds q)."""
    a = []
    for leaf in tree.leaves():
        v, noise, x = tree.var(leaf), tree.noise_var[leaf], rates[leaf]
        if x == math.inf:
            a.append(1.0)
        elif noise == 0.0:
            a.append(math.sqrt(x * v / (tree.alpha[leaf] ** 2 + x * v)))
        else:
            e = math.expm1(2.0 * x) * v
            a.append(math.sqrt(e / (noise + e)))
    return a


def _assert_achieved(tree, w, d, sol):
    # the program's value is the chain value of the channel recovered from
    # its leaf rates, and that channel meets d: the converse is achieved
    a = _recovered_channel(tree, sol.rates)
    ctx = ChannelContext(tree)
    assert abs(ctx.chain_value(a, weight_order(w), w) - sol.value) <= 1e-9 * abs(sol.value)
    assert abs(ctx.distortion(a) - d) <= 1e-9


def test_outer_free_parameterization_agrees(small_tree):
    # the program ranges over all feasible rates, not a manifold of them,
    # and its optimum is an achievable point
    d = 0.45
    w = [1.0, 0.8]
    _assert_achieved(small_tree, w, d, rd_out_min_weighted(small_tree, w, d))


def test_outer_free_parameterization_agrees_deeper():
    t = random_binary_tree(3, 123)
    d = _feasible_d(t, 0.5)
    w = [1.0, 0.6, 0.9, 0.3]
    _assert_achieved(t, w, d, rd_out_min_weighted(t, w, d))


def test_outer_free_validates_weights():
    t = random_binary_tree(3, 123)
    d = _feasible_d(t, 0.5)
    for w in ([1.0, 0.6], [1.0, 0.6, 0.9, 0.3, 0.5, 0.2]):
        with pytest.raises(ModelError) as err:
            rd_out_min_weighted(t, w, d)
        assert err.value.code == "bad-weights"
    with pytest.raises(DomainError) as err:
        rd_out_min_weighted(t, [1.0, -0.6, 0.9, 0.3], d)
    assert err.value.code == "bad-weights"


# bench ``reduced`` seed 0 model 7: three real leaves (1 a zero-noise copy of
# node (3, 1)) and five padding leaves; an outer value of 0.179652 was seen
# here against the inner value 0.168394
REDUCED_SEED0_MODEL7 = BinaryTreeSource(
    4, 0.6977193322304428,
    {(2, 1): 1.0151329348700284, (2, 2): 1.0, (3, 1): 0.5461788327684456,
     (3, 2): 0.8340003376261892, (3, 3): 1.0, (3, 4): 1.0, (4, 1): 1.0,
     (4, 2): 0.6167122051516034, (4, 3): 0.8116259320307055, (4, 4): 1.0,
     (4, 5): 1.0, (4, 6): 1.0, (4, 7): 1.0, (4, 8): 1.0},
    {(2, 1): 0.19588776262414875, (2, 2): 0.0, (3, 1): 0.5256883297915991,
     (3, 2): 0.6576708735182665, (3, 3): 0.0, (3, 4): 0.0, (4, 1): 0.0,
     (4, 2): 0.29851998074948455, (4, 3): 0.3346415551992863, (4, 4): 0.0,
     (4, 5): 0.0, (4, 6): 0.0, (4, 7): 0.0, (4, 8): 0.0},
    {4, 5, 6, 7, 8},
)


def test_outer_stays_below_inner_on_a_reduced_copy_edge_tree():
    tree, d = REDUCED_SEED0_MODEL7, 0.641158464585543
    w = [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    sol = rd_out_min_weighted(tree, w, d)
    assert sol.value <= min_weighted_sum(tree, w, d).value + 1e-8
    assert frd_contains(tree, sol.rates, d)
    assert abs(sol.rates[(1, 1)] - 0.5 * math.log(tree.root_var / d)) <= 1e-12


def test_zero_noise_child_is_perturbed_not_fatal():
    t = BinaryTreeSource(2, 1.0, {(2, 1): 1.0, (2, 2): 0.7},
                         {(2, 1): 0.0, (2, 2): 0.51})
    v = f_node(t, (1, 1), 0.5, 0.5)
    assert math.isfinite(v) and v > 0
    d = 0.5
    sol = rd_out_min_weighted(t, [1.0, 1.0], d)
    iv = min_weighted_sum(t, [1.0, 1.0], d, starts=8).value
    assert sol.value <= iv + 1e-8


def test_a_zero_noise_leaf_with_alpha_0_carries_nothing():
    # x_1 is the constant 0: its q is held at 0 rather than left free, so
    # the value is that of the tree with leaf 1 as padding
    alpha, noise = {(2, 1): 0.0, (2, 2): 0.7}, {(2, 1): 0.0, (2, 2): 0.51}
    got = rd_out_min_weighted(BinaryTreeSource(2, 1.0, alpha, noise), [1.0, 1.0], 0.8)
    want = rd_out_min_weighted(BinaryTreeSource(2, 1.0, alpha, noise, {1}), [0.0, 1.0], 0.8)
    assert got.rates[(2, 1)] == 0.0
    assert abs(got.value - want.value) <= 1e-9 * want.value


def test_matchup_report_fields(small_tree):
    d = 0.5
    rep = matchup_verify(small_tree, d, [[1.0, 1.0], [0.3, 1.0]], starts=8)
    assert len(rep.rows) == 2
    assert rep.max_gap <= 1e-4
    assert rep.passed
    assert rep.distortion == d


@st.composite
def jacobian_cases(draw):
    """A tree of depth 1-4 with padding leaves and zero-noise edges, and
    slots on its internal nodes and real leaves (padding leaves at 0)."""
    L = draw(st.integers(1, 4))
    alpha, noise = _draw_edges(draw, L)
    m = 2 ** (L - 1)
    padding = draw(st.sets(st.integers(1, m), max_size=m - 1))
    tree = BinaryTreeSource(L, draw(st.floats(0.5, 2.0)), alpha, noise, padding)
    r = [0.0] * (2 * m)
    for n in range(1, 2 * m):
        if n - m + 1 not in padding:
            r[n] = draw(st.floats(0.05, 1.5))
    return tree, r


def _central(fn, r, n, h=1e-6):
    up, down = list(r), list(r)
    up[n] += h
    down[n] -= h
    return (fn(up) - fn(down)) / (2 * h)


@settings(max_examples=40, deadline=None)
@given(jacobian_cases())
@example((BinaryTreeSource(1, 1.3, {}, {}), [0.0, 0.4]))  # the root is the leaf
def test_bound_and_cap_jacobians_match_central_differences(case):
    # the convex program's jacobians: every subset bound of the real leaves
    # and every internal cap, in every rate the program moves
    tree, r = case
    ev = _OuterEval(tree)
    m = ev.m
    moved = list(range(1, m)) + [m + i - 1 for i in ev.real]
    for A in _all_subsets(len(ev.real))[1:]:
        plan = ev.plan(frozenset(ev.real[i - 1] for i in A))
        value, grad = ev.bound_grad(plan, r)
        assert value == ev.bound(plan, r)
        for n in moved:
            want = _central(lambda v: ev.bound(plan, v), r, n)
            assert abs(grad[n] - want) <= 1e-7 * (1 + abs(want))
    for n in range(1, m):
        value, d1, d2 = ev.cap(n, r[2 * n], r[2 * n + 1])
        assert value == ev.cap(n, r[2 * n], r[2 * n + 1])[0]
        for child, d in ((2 * n, d1), (2 * n + 1, d2)):
            if child in moved:
                want = _central(lambda v: ev.cap(n, v[2 * n], v[2 * n + 1])[0], r, child)
                assert abs(d - want) <= 1e-7 * (1 + abs(want))


@pytest.mark.parametrize("node", [(1, 1), (2, 1), (2, 2)])
def test_rate_checks_refuse_nan_and_accept_inf(small_tree, node):
    # a NaN rate used to pass membership and give NaN bounds
    r = {(1, 1): 0.3, (2, 1): 0.5, (2, 2): 0.4}
    r[node] = math.nan
    for call in (
        lambda: frd_contains(small_tree, r, 0.9),
        lambda: rd_out_subset_bound(small_tree, r, [1]),
        lambda: telescope_f(small_tree, (1, 1), [1], r),
    ):
        with pytest.raises(ModelError) as err:
            call()
        assert err.value.code == "bad-number"
    r[node] = math.inf
    assert isinstance(frd_contains(small_tree, r, 0.9), bool)
    assert not math.isnan(rd_out_subset_bound(small_tree, r, [1]))
    assert not math.isnan(telescope_f(small_tree, (1, 1), [1], r, "only"))


def test_equality_rates_refuse_a_nan_channel(small_tree):
    with pytest.raises(ModelError) as err:
        equality_rates(small_tree, [math.nan, 0.5])
    assert err.value.code == "bad-channel"


def test_matchup_verify_refuses_an_empty_weight_list(small_tree):
    with pytest.raises(ModelError) as err:
        matchup_verify(small_tree, 0.5, [])
    assert err.value.code == "bad-weights"


@pytest.mark.parametrize("d", [0.5, 2.0])
@pytest.mark.parametrize("starts", [0, -2, 2.5])
def test_matchup_verify_checks_its_budget_on_entry(small_tree, d, starts):
    with pytest.raises(ModelError) as err:
        matchup_verify(small_tree, d, [[1.0, 1.0]], starts=starts)
    assert err.value.code == "bad-budget"
