import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtree import (
    Cov, ModelError, conditional_cov, gaussian_cmi, llse_coefficients, mmse, sample_gaussian)
from gmtree.gauss import check_cov
from conftest import random_psd


def _cmi_by_logdet(K, A, B, C):
    # straight determinant route, valid when every block is well-conditioned
    def ld(idx):
        if not idx:
            return 0.0
        return float(np.linalg.slogdet(K[np.ix_(idx, idx)])[1])

    A, B, C = list(A), list(B), list(C)
    return 0.5 * (ld(A + C) + ld(B + C) - ld(A + B + C) - ld(C))


def test_conditional_cov_is_schur_complement():
    K = np.array([[2.0, 0.8, 0.3], [0.8, 1.5, 0.2], [0.3, 0.2, 1.0]])
    S = conditional_cov(K, [0], [1, 2])
    Kgg = K[1:, 1:]
    expect = K[0, 0] - K[0, 1:] @ np.linalg.solve(Kgg, K[1:, 0])
    assert abs(S[0, 0] - expect) < 1e-12


def test_conditional_cov_handles_redundant_observations():
    # observing the same variable twice must not blow up
    K = np.array(
        [[1.0, 0.5, 0.5], [0.5, 1.0, 1.0], [0.5, 1.0, 1.0]]
    )
    S = conditional_cov(K, [0], [1, 2])
    assert abs(S[0, 0] - (1.0 - 0.25)) < 1e-10


def test_conditional_cov_rejects_overlap():
    K = np.eye(3)
    with pytest.raises(ValueError):
        conditional_cov(K, [0], [0, 1])


def test_mmse_decreases_with_more_observations():
    K = random_psd(4, 11)
    e1 = mmse(K, 0, [1])
    e2 = mmse(K, 0, [1, 2])
    e3 = mmse(K, 0, [1, 2, 3])
    assert e1 >= e2 - 1e-12 >= e3 - 2e-12


def test_llse_coefficients_match_normal_equations():
    K = random_psd(5, 5)
    W, err = llse_coefficients(K, [0, 1], [2, 3, 4])
    Koo = K[2:, 2:]
    Kto = K[:2, 2:]
    assert np.allclose(W, Kto @ np.linalg.inv(Koo), atol=1e-10)
    assert np.allclose(err, K[:2, :2] - W @ Kto.T, atol=1e-10)


def test_cmi_matches_logdet_route_on_generic_matrix():
    K = random_psd(6, 3) + np.eye(6)
    got = gaussian_cmi(K, [0, 1], [2, 3], [4, 5])
    want = _cmi_by_logdet(K, [0, 1], [2, 3], [4, 5])
    assert abs(got - want) < 1e-10


def test_cmi_empty_sets_and_independence():
    K = np.eye(4)
    assert gaussian_cmi(K, [], [1], [2]) == 0.0
    assert gaussian_cmi(K, [0], [], []) == 0.0
    assert abs(gaussian_cmi(K, [0], [1])) < 1e-12


def test_cmi_symmetry_is_bit_exact():
    K = random_psd(5, 9) + 0.5 * np.eye(5)
    a = gaussian_cmi(K, [0, 3], [1, 4], [2])
    b = gaussian_cmi(K, [1, 4], [0, 3], [2])
    assert a == b


def test_cmi_deterministic_relation_is_infinite():
    # x2 = x0 + x1 exactly, so (x0, x1) pins x2 and the information diverges
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    K = A @ A.T
    assert gaussian_cmi(K, [0, 1], [2]) == math.inf
    assert math.isfinite(gaussian_cmi(K, [0], [2]))


def test_cmi_ignores_degenerate_but_independent_direction():
    # x2 duplicates x1; conditioning on both must behave like conditioning on one
    K = np.array(
        [
            [1.0, 0.5, 0.5],
            [0.5, 1.0, 1.0],
            [0.5, 1.0, 1.0],
        ]
    )
    one = gaussian_cmi(K, [0], [1])
    both = gaussian_cmi(K, [0], [1, 2])
    assert math.isfinite(one)
    assert abs(one - both) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_cmi_nonnegative_on_random_instances(seed):
    K = random_psd(5, seed) + 1e-3 * np.eye(5)
    v = gaussian_cmi(K, [0, 1], [2, 3], [4])
    assert v >= 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_cmi_chain_rule(seed):
    K = random_psd(5, seed) + np.eye(5)
    lhs = gaussian_cmi(K, [0], [1, 2, 3])
    rhs = gaussian_cmi(K, [0], [1]) + gaussian_cmi(K, [0], [2, 3], [1])
    assert abs(lhs - rhs) < 1e-9


def test_sample_gaussian_moments_and_determinism():
    K = np.array([[1.0, 0.6], [0.6, 2.0]])
    X = sample_gaussian(K, 200_000, seed=12)
    emp = X.T @ X / X.shape[0]
    assert np.max(np.abs(emp - K)) < 0.05
    Y = sample_gaussian(K, 200_000, seed=12)
    assert np.array_equal(X, Y)


def test_cov_label_lookup():
    cov = Cov(("a", "b"), np.eye(2))
    assert cov.index("b") == 1
    sub = cov.submatrix(["b"])
    assert sub.labels == ("b",)
    assert sub.matrix.shape == (1, 1)


@pytest.mark.parametrize("K", [
    [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]],  # symmetric, not PSD
    [[1.0, 0.5], [0.0, 1.0]],  # asymmetric
    [[-1.0, 0.0], [0.0, 1.0]],  # negative variance
    [[1.0, math.nan], [math.nan, 1.0]],
    [1.0, 2.0],  # not a matrix
])
def test_check_cov_refusals_are_coded(K):
    with pytest.raises(ModelError) as err:
        check_cov(K)
    assert err.value.code == "bad-covariance"


@pytest.mark.parametrize("count", [0, -1, 2.5])
def test_sample_gaussian_refuses_a_bad_count_with_a_code(count):
    with pytest.raises(ModelError) as err:
        sample_gaussian(np.eye(2), count, 0)
    assert err.value.code == "bad-samples"
