import itertools
import math

import numpy as np
import pytest

from gmtree import (
    BinaryTreeSource,
    Cov,
    DomainError,
    MarkovTree,
    ModelError,
    TreeNode,
    binarize,
    binary_cov,
    binary_to_obj,
    fit_tree_params,
    fixture_path,
    load_model,
    reroot,
    sample_tree,
    to_markov_tree,
    tree_to_cov,
    validate_markov,
)
from conftest import random_binary_tree, random_general_tree, small_tree  # noqa: F401


def chain3() -> MarkovTree:
    return MarkovTree(
        (
            TreeNode("a", None),
            TreeNode("b", "a", 0.8, 0.36),
            TreeNode("c", "b", 0.5, 0.75),
        ),
        1.0,
        frozenset({"c"}),
    )


def test_tree_to_cov_chain_values():
    cov = tree_to_cov(chain3())
    K = np.asarray(cov.matrix)
    i, j, k = cov.index("a"), cov.index("b"), cov.index("c")
    assert abs(K[i, i] - 1.0) < 1e-15
    assert abs(K[j, j] - 1.0) < 1e-15
    assert abs(K[k, k] - 1.0) < 1e-15
    assert abs(K[i, j] - 0.8) < 1e-15
    assert abs(K[j, k] - 0.5) < 1e-15
    assert abs(K[i, k] - 0.4) < 1e-15  # correlations multiply along the path


def test_markov_tree_validation_errors():
    with pytest.raises(ModelError):
        MarkovTree((TreeNode("a", None), TreeNode("a", "a", 0.5, 1.0)), 1.0, frozenset())
    with pytest.raises(ModelError):
        MarkovTree((TreeNode("a", "b"),), 1.0, frozenset())
    with pytest.raises(ModelError):
        MarkovTree((TreeNode("a", None), TreeNode("b", "a", 0.5, -1.0)), 1.0, frozenset())
    with pytest.raises(ModelError):
        MarkovTree((TreeNode("a", None),), 1.0, frozenset({"zzz"}))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["root_var", "alpha", "noise_var"])
def test_constructors_refuse_non_finite_parameters(where, bad):
    # NaN slips through every `< 0` check and used to crash the solvers later
    root_var, alpha, noise = 1.0, 0.9, 0.19
    if where == "root_var":
        root_var = bad
    elif where == "alpha":
        alpha = bad
    else:
        noise = bad
    with pytest.raises(ModelError) as err:
        BinaryTreeSource(
            2, root_var, {(2, 1): alpha, (2, 2): 0.7}, {(2, 1): noise, (2, 2): 0.51}
        )
    assert err.value.code == "bad-number"
    with pytest.raises(ModelError) as err:
        MarkovTree(
            (TreeNode("a", None), TreeNode("b", "a", alpha, noise)), root_var, frozenset({"b"})
        )
    assert err.value.code == "bad-number"


def test_validate_markov_accepts_tree_covariance():
    tree = chain3()
    cov = tree_to_cov(tree)
    topo = {"a": None, "b": "a", "c": "b"}
    assert validate_markov(topo, cov) == []


def test_validate_markov_flags_wrong_topology():
    tree = chain3()
    cov = tree_to_cov(tree)
    # pretending c hangs off a directly breaks conditional independence
    bad = {"a": None, "b": "a", "c": "a"}
    assert validate_markov(bad, cov) != []


def test_fit_tree_params_round_trip():
    tree = chain3()
    cov = tree_to_cov(tree)
    fitted = fit_tree_params(cov, {"a": None, "b": "a", "c": "b"}, {"c"})
    refit = tree_to_cov(fitted)
    idx = [refit.index(l) for l in cov.labels]
    G = np.asarray(refit.matrix)[np.ix_(idx, idx)]
    assert np.max(np.abs(G - np.asarray(cov.matrix))) < 1e-12


def test_sample_tree_matches_covariance():
    tree = chain3()
    cov = tree_to_cov(tree)
    X = sample_tree(tree, 300_000, seed=4)
    emp = X.T @ X / X.shape[0]
    assert np.max(np.abs(emp - np.asarray(cov.matrix))) < 0.02


@pytest.mark.parametrize("count", [0, -3, 2.5])
def test_sample_tree_refuses_a_bad_count_with_a_code(count):
    with pytest.raises(ModelError) as err:
        sample_tree(chain3(), count, 0)
    assert err.value.code == "bad-samples"


def test_reroot_preserves_covariance_and_orders_children():
    tree = chain3()
    rr = reroot(tree, "c")
    assert rr.root == "c"
    assert [n.id for n in rr.nodes] == ["c", "b", "a"]
    a, b = tree_to_cov(tree), tree_to_cov(rr)
    ia = [a.index(l) for l in ("a", "b", "c")]
    ib = [b.index(l) for l in ("a", "b", "c")]
    assert np.max(
        np.abs(np.asarray(a.matrix)[np.ix_(ia, ia)] - np.asarray(b.matrix)[np.ix_(ib, ib)])
    ) < 1e-12


def test_reroot_at_root_is_identity():
    tree = chain3()
    assert reroot(tree, "a") is tree


def test_reroot_zero_variance_target_keeps_covariance():
    # the target is a constant: independence is representable either way up
    tree = MarkovTree(
        (TreeNode("a", None), TreeNode("b", "a", 0.0, 0.0)), 1.0, frozenset({"b"})
    )
    rr = reroot(tree, "b")
    cov = tree_to_cov(rr)
    i, j = cov.index("a"), cov.index("b")
    assert abs(cov.matrix[i][i] - 1.0) < 1e-12
    assert abs(cov.matrix[j][j]) < 1e-12
    assert abs(cov.matrix[i][j]) < 1e-12


def test_binary_tree_indexing_helpers():
    assert BinaryTreeSource.parent((3, 3)) == (2, 2)
    assert BinaryTreeSource.children((2, 2)) == ((3, 3), (3, 4))
    t = random_binary_tree(3, 0)
    assert t.leaf_count == 4
    assert len(t.nodes()) == 7
    assert t.leaves() == [(3, 1), (3, 2), (3, 3), (3, 4)]


def test_node_var_walks_ancestor_path():
    # the heap layout against the labelled covariance, on random complete
    # trees and on reductions of the figure tree (copy edges and padding)
    sources = [random_binary_tree(L, L) for L in range(1, 6)]
    fig = load_model(fixture_path("figure_tree"))
    for v in fig.ids:
        try:
            sources.append(binarize(reroot(fig, v))[0])
        except DomainError:
            continue  # rerooting at a zero-variance node is ill-posed
    assert len(sources) > 5
    for t in sources:
        cov = binary_cov(t)
        assert t.heap_noise[1] == t.root_var
        for node in t.nodes():
            n = t.index(node)
            assert cov.index(f"x{node[0]}_{node[1]}") == n - 1
            if n > 1:
                assert t.heap_alpha[n] == t.alpha[node]
                assert t.heap_noise[n] == t.noise_var[node]
                assert t.index(BinaryTreeSource.parent(node)) == n // 2
            assert t.var(node) == cov.matrix[n - 1][n - 1]


@pytest.mark.parametrize("node", [(0, 1), (1, 5), (-3, 2), (5, 1), (2, 7)])
def test_nodes_outside_the_tree_are_unknown(small_tree, node):
    with pytest.raises(ModelError) as err:
        small_tree.var(node)
    assert err.value.code == "unknown-node"


def test_to_markov_tree_labels_and_observations():
    t = random_binary_tree(2, 3)
    mt = to_markov_tree(t)
    assert mt.root == "x1_1"
    assert mt.observations == frozenset({"x2_1", "x2_2"})


def test_binarize_keeps_original_tree_when_already_binary():
    mt = to_markov_tree(random_binary_tree(3, 8))
    bt, leaf_map = binarize(mt)
    src = tree_to_cov(mt)
    dst = binary_cov(bt)
    names = sorted(mt.observations) + ["x1_1"]
    si = [src.index(v) for v in names]
    di = [
        dst.index(f"x{bt.depth}_{leaf_map[v]}") if v in leaf_map else dst.index("x1_1")
        for v in names
    ]
    dev = np.max(
        np.abs(np.asarray(src.matrix)[np.ix_(si, si)] - np.asarray(dst.matrix)[np.ix_(di, di)])
    )
    assert dev < 1e-12
    assert sorted(leaf_map.values()) == sorted(set(leaf_map.values()))


def test_binarize_spreads_wide_nodes():
    # a root with five observed children cannot fit in two slots per level
    nodes = [TreeNode("r", None)] + [
        TreeNode(f"y{j}", "r", 0.6, 0.64) for j in range(1, 6)
    ]
    mt = MarkovTree(tuple(nodes), 1.0, frozenset(f"y{j}" for j in range(1, 6)))
    bt, leaf_map = binarize(mt)
    assert set(leaf_map) == mt.observations
    src = tree_to_cov(mt)
    dst = binary_cov(bt)
    keep = ["r"] + sorted(mt.observations)
    si = [src.index(v) for v in keep]
    di = [dst.index("x1_1")] + [
        dst.index(f"x{bt.depth}_{leaf_map[v]}") for v in keep[1:]
    ]
    dev = np.max(
        np.abs(np.asarray(src.matrix)[np.ix_(si, si)] - np.asarray(dst.matrix)[np.ix_(di, di)])
    )
    assert dev < 1e-12


def test_binarize_prunes_unreachable_branches():
    # observation set {c}: the d-branch is irrelevant and must not widen the tree
    mt = MarkovTree(
        (
            TreeNode("a", None),
            TreeNode("b", "a", 0.9, 0.19),
            TreeNode("c", "b", 0.9, 0.19),
            TreeNode("d", "a", 0.9, 0.19),
            TreeNode("e", "d", 0.9, 0.19),
        ),
        1.0,
        frozenset({"c"}),
    )
    bt, leaf_map = binarize(mt)
    assert bt.depth == 3  # a -> b -> c chain
    assert leaf_map == {"c": 1}


def test_padding_leaves_are_copies():
    mt = MarkovTree(
        (
            TreeNode("a", None),
            TreeNode("b", "a", 0.7, 0.51),
        ),
        1.0,
        frozenset({"b"}),
    )
    bt, leaf_map = binarize(mt)
    assert leaf_map == {"b": 1}
    assert bt.padding == frozenset({2})
    # padding leaf carries a copy channel
    assert bt.alpha[(2, 2)] == 1.0
    assert bt.noise_var[(2, 2)] == 0.0


# ---------------------------------------------------------------------------
# the reduction pinned with == against a serial reference: a copy of the
# earlier two-pass binarize (a depth pass, then a placement pass with explicit
# padding slots) and of the per-call topology scans it read


def _ref_order(tree):
    kids = {n.id: [] for n in tree.nodes}
    for n in tree.nodes:
        if n.parent is not None:
            kids[n.parent].append(n.id)
    root = next(n.id for n in tree.nodes if n.parent is None)
    order, queue = [], [root]
    while queue:
        v = queue.pop(0)
        order.append(v)
        queue.extend(kids[v])
    return order


def _ref_tree_to_cov(tree):
    ids = [n.id for n in tree.nodes]
    pos = {v: i for i, v in enumerate(ids)}
    K = np.zeros((len(ids), len(ids)))
    by_id = {nd.id: nd for nd in tree.nodes}
    for v in _ref_order(tree):
        i, nd = pos[v], by_id[v]
        if nd.parent is None:
            K[i, i] = tree.root_var
            continue
        p = pos[nd.parent]
        row = nd.alpha * K[p, :]
        K[i, :] = row
        K[:, i] = row
        K[i, i] = nd.alpha**2 * K[p, p] + nd.noise_var
    return K


def _ref_sample_tree(tree, count, seed):
    rng = np.random.default_rng(seed)
    pos = {n.id: i for i, n in enumerate(tree.nodes)}
    by_id = {nd.id: nd for nd in tree.nodes}
    out = np.empty((count, len(tree.nodes)))
    for v in _ref_order(tree):
        z = rng.standard_normal(count)
        nd = by_id[v]
        if nd.parent is None:
            out[:, pos[v]] = math.sqrt(tree.root_var) * z
        else:
            out[:, pos[v]] = nd.alpha * out[:, pos[nd.parent]] + math.sqrt(nd.noise_var) * z
    return out


def _ref_reroot_order(tree, new_root):
    """The node order and parent map that reroot refits to."""
    old_parent = {n.id: n.parent for n in tree.nodes}
    old_kids = {n.id: [] for n in tree.nodes}
    for n in tree.nodes:
        if n.parent is not None:
            old_kids[n.parent].append(n.id)
    new_parent, order = {new_root: None}, []

    def visit(v):
        order.append(v)
        nbrs = [u for u in old_kids[v] if u != new_parent[v]]
        if old_parent[v] is not None and old_parent[v] != new_parent[v]:
            nbrs.append(old_parent[v])
        for u in nbrs:
            new_parent[u] = v
            visit(u)

    visit(new_root)
    return order, new_parent


def _ref_slots(queue, observed):
    load = (1 if observed else 0) + len(queue)
    if load <= 2:
        slots = [("self", None)] if observed else []
        slots.extend(("child", c) for c in queue)
        while len(slots) < 2:
            slots.append(("pad", None))
        return slots
    if observed:
        return [("self", None), ("spread", queue)]
    h = (len(queue) + 1) // 2
    return [("spread", queue[:h]), ("spread", queue[h:])]


def _ref_binarize(tree, obs):
    parent = {n.id: n.parent for n in tree.nodes}
    root = next(v for v, p in parent.items() if p is None)
    keep = {root}
    for o in obs:
        v = o
        while v is not None:
            keep.add(v)
            v = parent[v]
    kids = {v: tuple(n.id for n in tree.nodes if n.parent == v and n.id in keep)
            for v in keep}
    by_id = {n.id: n for n in tree.nodes}

    def req(v, queue, observed):
        if not queue:
            return 0
        best = 0
        for kind, payload in _ref_slots(queue, observed):
            if kind == "child":
                best = max(best, 1 + req(payload, kids[payload], payload in obs))
            elif kind == "spread":
                best = max(best, 1 + req(v, payload, False))
            else:
                best = max(best, 1)
        return best

    L = 1 + req(root, kids[root], root in obs)
    alpha, noise, leaf_map = {}, {}, {}

    def place(v, queue, observed, k, i):
        if k == L:
            if observed:
                leaf_map[v] = i
            return
        for s, (kind, payload) in enumerate(_ref_slots(queue, observed)):
            key = (k + 1, 2 * i - 1 + s)
            if kind == "child":
                alpha[key], noise[key] = by_id[payload].alpha, by_id[payload].noise_var
                place(payload, kids[payload], payload in obs, *key)
            else:
                alpha[key], noise[key] = 1.0, 0.0
                if kind == "self":
                    place(v, (), True, *key)
                elif kind == "spread":
                    place(v, payload, False, *key)
                else:
                    place(v, (), False, *key)

    place(root, kids[root], root in obs, 1, 1)
    taken = set(leaf_map.values())
    padding = frozenset(i for i in range(1, 2 ** (L - 1) + 1) if i not in taken)
    return BinaryTreeSource(L, tree.root_var, alpha, noise, padding), leaf_map


def _pinned_cases():
    cases = []
    for seed in range(300):
        tree = random_general_tree(seed, 1 + seed % 6)
        cases.append(tree)
        cases.append(reroot(tree, tree.ids[(7 * seed) % len(tree.ids)]))
    for w in range(1, 12):
        kids = tuple(TreeNode(f"y{j}", "r", 0.6, 0.64) for j in range(w))
        seen = frozenset(n.id for n in kids)
        cases.append(MarkovTree((TreeNode("r", None),) + kids, 1.0, seen))
        cases.append(MarkovTree((TreeNode("r", None),) + kids, 1.0, seen | {"r"}))
    fig = load_model(fixture_path("figure_tree"))
    for v in fig.ids:
        try:
            cases.append(reroot(fig, v))
        except DomainError:
            continue
    return cases


def test_reduction_equals_the_two_pass_reference():
    cases = _pinned_cases()
    assert len(cases) > 600
    for tree in cases:
        bt, leaf_map = binarize(tree)
        ref, ref_map = _ref_binarize(tree, tree.observations)
        assert binary_to_obj(bt) == binary_to_obj(ref)
        assert leaf_map == ref_map and list(leaf_map) == list(ref_map)
        assert bt == ref
        assert np.array_equal(tree_to_cov(tree).matrix, _ref_tree_to_cov(tree))
        assert np.array_equal(sample_tree(tree, 4, 3), _ref_sample_tree(tree, 4, 3))
    # a subset of the observations, as the tree's observation set
    fig = reroot(load_model(fixture_path("figure_tree")), "x1")
    for k in range(1, 5):
        for sub in itertools.combinations(sorted(fig.observations), k):
            bt, leaf_map = binarize(MarkovTree(fig.nodes, fig.root_var, sub))
            ref, ref_map = _ref_binarize(fig, frozenset(sub))
            assert binary_to_obj(bt) == binary_to_obj(ref) and leaf_map == ref_map


def test_reroot_equals_the_reference_refit():
    for tree in _pinned_cases()[:600:2] + [load_model(fixture_path("figure_tree"))]:
        for v in tree.ids:
            if v == tree.root:
                continue  # returned as it is
            order, new_parent = _ref_reroot_order(tree, v)
            want = fit_tree_params(
                tree_to_cov(tree).submatrix(order), new_parent, tree.observations,
                check=False)
            try:
                got = reroot(tree, v)
            except DomainError:
                continue
            assert got.nodes == want.nodes and got.root_var == want.root_var
            assert got.observations == want.observations


def test_topology_is_kept_from_validation():
    tree = MarkovTree(
        (TreeNode("c", "a", 0.5, 0.75), TreeNode("a", None), TreeNode("d", "b", 0.3, 0.9),
         TreeNode("b", "a", 0.8, 0.36), TreeNode("e", "a", 0.1, 0.99)),
        1.0, frozenset({"d"}))
    assert tree.root == "a"
    assert tree.parent == {"c": "a", "a": None, "d": "b", "b": "a", "e": "a"}
    assert {v: [c.id for c in k] for v, k in tree.kids.items()} == {
        "c": [], "a": ["c", "b", "e"], "d": [], "b": ["d"], "e": []}
    assert [n.id for n in tree.order] == ["a", "c", "b", "e", "d"]
    assert tree.children("a") == ["c", "b", "e"]
    assert tree.children("zzz") == []
    # the kept fields take no part in equality
    same = MarkovTree(tree.nodes, 1.0, frozenset({"d"}))
    assert same == tree and hash(same) == hash(tree)


@pytest.mark.parametrize("topology, code", [
    ({"a": None, "b": "c", "c": "b"}, "bad-topology"),  # a cycle off the root
    ({"a": None, "b": None, "c": "a"}, "bad-root"),
    ({"a": None, "b": "a", "c": "z"}, "bad-parent"),
    ({"a": "b", "b": "c", "c": "a"}, "bad-root"),
])
def test_topology_is_refused_by_the_tree_validation(topology, code):
    cov = Cov(("a", "b", "c"), np.eye(3))
    for call in (
        lambda: validate_markov(topology, cov),
        lambda: fit_tree_params(cov, topology),
        lambda: fit_tree_params(cov, topology, check=False),
    ):
        with pytest.raises(ModelError) as err:
            call()
        assert err.value.code == code


def test_validate_markov_lists_violations_per_branch():
    # star at b over a, c, d: a and c correlate given b, and so do c and d
    labels = ("a", "b", "c", "d")
    K = np.eye(4) + 0.5 * (np.ones((4, 4)) - np.eye(4))
    got = validate_markov({"b": None, "a": "b", "c": "b", "d": "c"}, Cov(labels, K))
    # given b: a vs {c, d}; given c: d vs {a, b}
    assert [(v, a, b) for v, a, b, _ in got] == [
        ("b", "a", "c"), ("b", "a", "d"), ("c", "d", "a"), ("c", "d", "b")]
    assert all(abs(pc - (0.5 - 0.25)) < 1e-12 for *_, pc in got)


@pytest.mark.parametrize("depth", [0, 2.5, math.nan, math.inf, "3"])
def test_binary_depth_must_be_a_positive_integer(depth):
    with pytest.raises(ModelError) as err:
        BinaryTreeSource(depth, 1.0)
    assert err.value.code == "bad-depth"
