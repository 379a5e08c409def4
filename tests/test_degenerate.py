"""Degenerate structure: distortions at and next to both ends of the feasible
range, on trees whose edges are partly or wholly zero-noise copy edges, and a
reroot at a zero-variance node. Every call returns finite numbers or raises a
GmtreeError with its own code; no other exception, no NaN and no
RuntimeWarning (which the pytest configuration turns into a failure)."""

import dataclasses
import math

import numpy as np
import pytest

from gmtree import (
    BinaryTreeSource,
    ChannelContext,
    GmtreeError,
    MarkovTree,
    TreeNode,
    binarize,
    matchup_verify,
    min_weighted_sum,
    rd_out_min_weighted,
    region_slice,
    reroot,
    tree_to_cov,
)

TREES = 12  # per (depth, copy share) cell


def _tree(depth: int, share: float, seed: int) -> BinaryTreeSource:
    """A random binary tree whose edges are copy edges (alpha 1, noise 0)
    with probability ``share``."""
    rng = np.random.default_rng(seed)
    alpha, noise = {}, {}
    for k in range(2, depth + 1):
        for i in range(1, 2 ** (k - 1) + 1):
            a, n = float(rng.uniform(0.2, 0.95)), float(rng.uniform(0.05, 1.0))
            copy = rng.uniform() < share
            alpha[(k, i)], noise[(k, i)] = (1.0, 0.0) if copy else (a, n)
    return BinaryTreeSource(depth, float(rng.uniform(0.5, 2.0)), alpha, noise)


def _distortions(tree: BinaryTreeSource) -> list[float]:
    ctx = ChannelContext(tree)
    lo, hi = ctx.d_floor, ctx.root_var
    ds = [lo, lo * (1 + 1e-13), lo * (1 + 1e-9), 0.5 * (lo + hi), hi * (1 - 1e-13), hi]
    return [d for d in ds if d > 0]


def _numbers(x):
    """Every float in a solver result."""
    if isinstance(x, (float, np.floating)):
        yield float(x)
    elif isinstance(x, np.ndarray):
        yield from map(float, x.ravel())
    elif isinstance(x, dict):
        for v in x.values():
            yield from _numbers(v)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from _numbers(v)
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from _numbers(getattr(x, f.name))


def _value_or_code(call):
    """The call's result, or None when it raised a coded GmtreeError."""
    try:
        out = call()
    except GmtreeError as err:
        assert err.code not in ("error", "model-error", "domain-error"), err
        return None
    assert not any(map(math.isnan, _numbers(out))), out
    return out


# a depth-1 tree is its root alone, with no edge to copy
CELLS = [(1, 0.0)] + [(depth, share) for depth in (2, 3) for share in (0.0, 0.5, 1.0)]


def _solve_all(tree: BinaryTreeSource, seed: int) -> None:
    """The four solvers at every distortion of ``_distortions``."""
    m = tree.leaf_count
    w = [float(v) for v in np.random.default_rng(seed).uniform(0.1, 1.0, m)]
    for d in _distortions(tree):
        inner = _value_or_code(lambda: min_weighted_sum(tree, w, d, starts=2, seed=seed))
        outer = _value_or_code(lambda: rd_out_min_weighted(tree, w, d))
        report = _value_or_code(
            lambda: matchup_verify(tree, d, [w, [1.0] * m], starts=2, seed=seed))
        points = _value_or_code(
            lambda: region_slice(tree, d, (1, m), points=3, starts=1, seed=seed))
        if inner is not None:
            assert math.isfinite(inner.value) and math.isfinite(inner.distortion)
        if outer is not None:
            assert math.isfinite(outer.value)
        if report is not None:
            assert all(map(math.isfinite, _numbers(report.rows)))
        if points is not None:
            assert points and all(map(math.isfinite, _numbers(points)))


@pytest.mark.parametrize("depth, share", CELLS)
def test_solvers_at_the_ends_of_the_distortion_range(depth, share):
    for s in range(TREES):
        _solve_all(_tree(depth, share, 100 * depth + s), s)


@pytest.mark.parametrize("seed", range(3))
def test_reroot_at_a_zero_variance_node(seed):
    # z has alpha 0 and noise 0, so it is the constant 0, and it has children;
    # the observations are then rerooted at through it
    rng = np.random.default_rng(seed)
    a, n = rng.uniform(0.3, 0.9, 4), rng.uniform(0.1, 0.6, 4)
    nodes = (
        TreeNode("r", None),
        TreeNode("z", "r", 0.0, 0.0),
        TreeNode("y", "r", float(a[0]), float(n[0])),
        TreeNode("c1", "z", float(a[1]), float(n[1])),
        TreeNode("c2", "z", float(a[2]), float(n[2])),
        TreeNode("c3", "c1", float(a[3]), float(n[3])),
    )
    tree = MarkovTree(nodes, float(rng.uniform(0.5, 2.0)), frozenset({"y", "c2", "c3"}))
    at_z = _value_or_code(lambda: reroot(tree, "z"))
    if at_z is None:
        return
    K = tree_to_cov(tree)
    assert np.allclose(tree_to_cov(at_z).submatrix(K.labels).matrix, K.matrix, rtol=0, atol=1e-12)
    for target in ("z", "y", "c2", "c3"):
        moved = _value_or_code(lambda: reroot(at_z, target))
        if moved is not None:
            _solve_all(binarize(moved)[0], seed)
