"""The input rules of gmtree.errors, and one property over every entry point:
fed NaN, +-inf, 0, -1 or 2.5 in any one numeric argument, a public call
returns a value with no NaN in it or raises a GmtreeError with its own code;
no other exception escapes."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtree import (
    BinaryTreeSource,
    GmtreeError,
    LatticePair,
    MarkovTree,
    ModelError,
    RankFunction,
    TreeNode,
    divergence_report,
    equality_rates,
    frd_contains,
    lattice_decode,
    lattice_encode,
    lattice_mc_distortion,
    lattice_tail_prob,
    llse_equivalence_check,
    matchup_verify,
    min_weighted_sum,
    polymatroid_audit,
    rd_out_min_weighted,
    region_slice,
    sample_gaussian,
    sample_tree,
    separation_min_sum_rate,
    tabulate_rank,
    to_markov_tree,
    tree_to_cov,
    weight_order,
)
from gmtree.errors import check_count, check_finite, check_tolerance

VALUES = [math.nan, math.inf, -math.inf, 0, -1, 2.5]
LP = LatticePair(8, 4)
ALPHA = {(2, 1): 0.9, (2, 2): 0.7}
NOISE = {(2, 1): 0.19, (2, 2): 0.51}
TREE = BinaryTreeSource(2, 1.0, ALPHA, NOISE)


ZERO_RATES = {v: 0.0 for v in TREE.nodes()}
# an entropy-like (submodular) table: the supermodular inequality fails twice
SUBMODULAR = RankFunction(2, {frozenset(): 0.0, frozenset({1}): 1.0,
                              frozenset({2}): 1.0, frozenset({1, 2}): 1.5})


def _solve(tree):
    return min_weighted_sum(tree, [1.0] * tree.leaf_count, 0.5, starts=1)


def _chain(root_var=1.0, alpha=0.8, noise=0.36):
    return tree_to_cov(MarkovTree(
        (TreeNode("r", None), TreeNode("x", "r", alpha, noise)), root_var, {"x"})).matrix


# one call per numeric argument of a public entry point, the argument last
CALLS = {
    "inner distortion": lambda v: min_weighted_sum(TREE, [1.0, 1.0], v, starts=1),
    "slice distortion": lambda v: region_slice(TREE, v, (1, 2), points=2, starts=1),
    "outer distortion": lambda v: rd_out_min_weighted(TREE, [1.0, 1.0], v),
    "separation distortion": lambda v: separation_min_sum_rate(10.0, v),
    "divergence distortion": lambda v: divergence_report([10.0], v, LP, samples=1000),
    "inner weight": lambda v: min_weighted_sum(TREE, [v, 1.0], 0.5, starts=1),
    "outer weight": lambda v: rd_out_min_weighted(TREE, [v, 1.0], 0.5),
    "order weight": lambda v: weight_order([v, 1.0]),
    "rank alpha": lambda v: tabulate_rank(TREE, [v, 0.5]),
    "equality alpha": lambda v: equality_rates(TREE, [v, 0.5]),
    "llse alpha": lambda v: llse_equivalence_check(TREE, [v, 0.5], samples=1000),
    "separation sigma2": lambda v: separation_min_sum_rate(v, 0.5),
    "lattice sigma2": lambda v: lattice_mc_distortion(v, LP, samples=1000),
    "lattice samples": lambda v: lattice_mc_distortion(10.0, LP, samples=v),
    "tail samples": lambda v: lattice_tail_prob(10.0, LP, samples=v),
    "tree samples": lambda v: sample_tree(to_markov_tree(TREE), v, 0),
    "gaussian samples": lambda v: sample_gaussian(np.eye(2), v, 0),
    "llse samples": lambda v: llse_equivalence_check(TREE, [0.8, 0.6], samples=v),
    "inner starts": lambda v: min_weighted_sum(TREE, [1.0, 1.0], 0.5, starts=v),
    "inner warm entry": lambda v: min_weighted_sum(TREE, [1.0, 1.0], 0.5, starts=1, warm=[v, 1.0]),
    "inner warm start": lambda v: min_weighted_sum(TREE, [1.0, 1.0], 0.5, starts=1, warm=[v, v]),
    "slice starts": lambda v: region_slice(TREE, 0.5, (1, 2), points=2, starts=v),
    "matchup starts": lambda v: matchup_verify(TREE, 0.5, [[1.0, 1.0]], starts=v),
    "slice points": lambda v: region_slice(TREE, 0.5, (1, 2), points=v, starts=1),
    "binary depth": lambda v: _solve(BinaryTreeSource(v, 1.0)),
    "binary root variance": lambda v: _solve(BinaryTreeSource(2, v, ALPHA, NOISE)),
    "binary edge alpha": lambda v: _solve(BinaryTreeSource(2, 1.0, {**ALPHA, (2, 1): v}, NOISE)),
    "binary noise": lambda v: _solve(BinaryTreeSource(2, 1.0, ALPHA, {**NOISE, (2, 1): v})),
    "markov root variance": lambda v: _chain(root_var=v),
    "markov alpha": lambda v: _chain(alpha=v),
    "markov noise": lambda v: _chain(noise=v),
    "lattice sample": lambda v: lattice_encode(v, LP),
    "lattice message": lambda v: lattice_decode(v, 0.0, LP),
    "matchup tol": lambda v: matchup_verify(TREE, 0.5, [[1.0, 1.0]], starts=1, tol=v),
    "membership tol": lambda v: frd_contains(TREE, ZERO_RATES, 0.5, tol=v),
    "audit tol": lambda v: polymatroid_audit(SUBMODULAR, tol=v),
}


def _has_nan(x) -> bool:
    if isinstance(x, (float, np.floating)):
        return math.isnan(x)
    if isinstance(x, np.ndarray):
        return x.dtype.kind == "f" and bool(np.isnan(x).any())
    if isinstance(x, dict):
        return any(_has_nan(v) for v in x.values())
    if isinstance(x, (list, tuple)):
        return any(_has_nan(v) for v in x)
    if dataclasses.is_dataclass(x):
        return any(_has_nan(getattr(x, f.name)) for f in dataclasses.fields(x))
    return False


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=20, deadline=None)
@given(value=st.sampled_from(VALUES))
def test_a_bad_number_gives_a_value_or_a_coded_error(name, value):
    try:
        out = CALLS[name](value)
    except GmtreeError as err:
        assert err.code not in ("error", "model-error", "domain-error"), (name, value, err)
        return
    assert not _has_nan(out), (name, value, out)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, "1.0", None, 1j])
def test_check_finite_refuses_what_is_not_a_finite_number(x):
    with pytest.raises(ModelError) as err:
        check_finite(x, "x")
    assert err.value.code == "bad-number"
    check_finite(-1e308, "x")
    check_finite(np.float32(2.5), "x")


@pytest.mark.parametrize("n", [0, -1, 2.5, 3.0, "3", None, math.nan])
@pytest.mark.parametrize("code", ["bad-samples", "bad-budget"])
def test_check_count_takes_integers_of_at_least_one(n, code):
    with pytest.raises(ModelError) as err:
        check_count(n, "n", code=code)
    assert err.value.code == code
    assert "positive" in str(err.value)
    assert check_count(np.int64(3), "n") == 3 and check_count(True, "n") == 1


@pytest.mark.parametrize("name", ["matchup tol", "membership tol", "audit tol"])
@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
def test_a_tolerance_is_a_finite_number_of_at_least_zero(name, tol):
    # at tol=nan the zero rates used to pass membership at d = 0.5, and the
    # audit reported a spurious "empty" violation in place of the two real ones
    with pytest.raises(ModelError) as err:
        CALLS[name](tol)
    assert err.value.code == ("bad-tolerance" if tol == -1.0 else "bad-number")


def test_a_zero_tolerance_is_taken():
    assert CALLS["matchup tol"](0.0).tol == 0.0
    assert CALLS["membership tol"](0.0) is False
    assert [v[0] for v in CALLS["audit tol"](0.0)] == ["supermodular"] * 2
    check_tolerance(0)
    check_tolerance(np.float64(1e-9))
