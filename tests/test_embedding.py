from fractions import Fraction

import numpy as np
import pytest

from gmtree import (
    DomainError,
    check_embed_conditions,
    converse_witness,
    embed3,
    markov_graph,
    markov_graph_exact,
    tree_to_cov,
)
from gmtree import embedding as embedding_mod
from gmtree.rational import rat_inv, rat_matmul, rat_identity


def all_quarter():
    q = Fraction(1, 4)
    return [[1, q, q], [q, 1, q], [q, q, 1]]


def star_half_quarter():
    h, q = Fraction(1, 2), Fraction(1, 4)
    return [
        [1, h, h, h],
        [h, 1, q, q],
        [h, q, 1, q],
        [h, q, q, 1],
    ]


def test_exact_precision_of_equicorrelated_matrix():
    P, adj, forest = markov_graph_exact(all_quarter())
    expect = [
        [Fraction(10, 9), Fraction(-2, 9), Fraction(-2, 9)],
        [Fraction(-2, 9), Fraction(10, 9), Fraction(-2, 9)],
        [Fraction(-2, 9), Fraction(-2, 9), Fraction(10, 9)],
    ]
    assert P == expect
    assert not forest
    assert adj.sum() == 6  # every off-diagonal pair connected


def test_exact_precision_of_star_matrix():
    P, adj, forest = markov_graph_exact(star_half_quarter())
    expect = [
        [Fraction(2), Fraction(-2, 3), Fraction(-2, 3), Fraction(-2, 3)],
        [Fraction(-2, 3), Fraction(4, 3), Fraction(0), Fraction(0)],
        [Fraction(-2, 3), Fraction(0), Fraction(4, 3), Fraction(0)],
        [Fraction(-2, 3), Fraction(0), Fraction(0), Fraction(4, 3)],
    ]
    assert P == expect
    assert forest
    # leaves touch only the hub
    assert adj[1, 2] == adj[1, 3] == adj[2, 3] == False  # noqa: E712


def test_rational_inverse_is_exact():
    M = star_half_quarter()
    P = rat_inv(M)
    assert rat_matmul(M, P) == rat_identity(4)


def test_float_graph_agrees_with_exact():
    for M in (all_quarter(), star_half_quarter()):
        Mf = np.array([[float(v) for v in row] for row in M])
        P_f, adj_f, forest_f = markov_graph(Mf)
        P_e, adj_e, forest_e = markov_graph_exact(M)
        assert np.array_equal(adj_f, adj_e)
        assert forest_f == forest_e
        dev = np.abs(P_f - np.array([[float(v) for v in r] for r in P_e]))
        assert float(dev.max()) < 1e-12


def test_markov_graph_rejects_singular_input():
    K = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DomainError):
        markov_graph(K)


def _random_corr3(rng):
    # random star parameters guarantee embeddability when used directly
    while True:
        A = rng.standard_normal((3, 4))
        K = A @ A.T
        d = np.sqrt(np.diag(K))
        if np.all(d > 1e-6):
            return K / np.outer(d, d)


def test_embed3_round_trip_on_random_passing_instances():
    rng = np.random.default_rng(21)
    done = 0
    while done < 200:
        K = _random_corr3(rng)
        if check_embed_conditions(K):
            continue
        tree = embed3(K)
        cov = tree_to_cov(tree)
        idx = [cov.index(f"x{i}") for i in (1, 2, 3)]
        G = np.asarray(cov.matrix)[np.ix_(idx, idx)]
        assert np.max(np.abs(G - K)) < 1e-12
        done += 1


def test_embed3_star_has_latent_hub():
    K = np.array([[1.0, 0.25, 0.25], [0.25, 1.0, 0.25], [0.25, 0.25, 1.0]])
    tree = embed3(K)
    root = tree.root
    assert root not in ("x1", "x2", "x3")
    assert sorted(tree.children(root)) == ["x1", "x2", "x3"]


def test_embed3_scales_with_variances():
    K = np.array([[4.0, 1.0, 1.0], [1.0, 9.0, 2.25], [1.0, 2.25, 25.0]])
    tree = embed3(K)
    cov = tree_to_cov(tree)
    idx = [cov.index(f"x{i}") for i in (1, 2, 3)]
    G = np.asarray(cov.matrix)[np.ix_(idx, idx)]
    assert np.max(np.abs(G - K)) < 1e-12


def test_embed3_handles_two_zero_correlations():
    K = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    tree = embed3(K)
    cov = tree_to_cov(tree)
    idx = [cov.index(f"x{i}") for i in (1, 2, 3)]
    G = np.asarray(cov.matrix)[np.ix_(idx, idx)]
    assert np.max(np.abs(G - K)) < 1e-12


def test_sign_violation_is_caught_and_witnessed():
    r = 0.3
    K = np.array([[1.0, r, -r], [r, 1.0, r], [-r, r, 1.0]])
    violations = check_embed_conditions(K)
    assert any(v.condition == "sign" for v in violations)
    w = converse_witness(K)
    assert w is not None
    assert w.product < 0


def test_magnitude_violation_is_caught_and_witnessed():
    K = np.array([[1.0, 0.8, 0.8], [0.8, 1.0, 0.5], [0.8, 0.5, 1.0]])
    violations = check_embed_conditions(K)
    assert any(v.condition == "magnitude" for v in violations)
    w = converse_witness(K)
    assert w is not None
    assert w.product < 0


def test_witness_absent_when_conditions_hold():
    K = np.array([[1.0, 0.25, 0.25], [0.25, 1.0, 0.25], [0.25, 0.25, 1.0]])
    assert converse_witness(K) is None


def test_embed3_raises_on_violation():
    K = np.array([[1.0, 0.8, 0.8], [0.8, 1.0, 0.5], [0.8, 0.5, 1.0]])
    with pytest.raises(DomainError):
        embed3(K)


@pytest.mark.parametrize("fn", [check_embed_conditions, embed3, converse_witness])
@pytest.mark.parametrize("K", [
    [[1.0, 0.25, 0.25], [0.25, 1.0, 0.25], [0.25, 0.25, 1.0]],
    [[1.0, 0.8, 0.8], [0.8, 1.0, 0.5], [0.8, 0.5, 1.0]],
])
def test_each_public_call_validates_its_input_once(monkeypatch, fn, K):
    calls = []
    check = embedding_mod.check_cov

    def counted(*args):
        calls.append(args[1])
        return check(*args)

    monkeypatch.setattr(embedding_mod, "check_cov", counted)
    try:
        fn(np.array(K))
    except DomainError:
        pass  # embed3 refuses the second matrix after validating it
    assert len(calls) == 1, calls
