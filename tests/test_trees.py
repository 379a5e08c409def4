import math

import numpy as np
import pytest

from gmtree import (
    BinaryTreeSource,
    DomainError,
    MarkovTree,
    ModelError,
    TreeNode,
    binarize,
    binary_cov,
    fit_tree_params,
    fixture_path,
    load_model,
    reroot,
    sample_tree,
    to_markov_tree,
    tree_to_cov,
    validate_markov,
)
from conftest import random_binary_tree, small_tree  # noqa: F401


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
