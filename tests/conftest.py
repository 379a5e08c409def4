import numpy as np
import pytest

from gmtree import BinaryTreeSource, MarkovTree, TreeNode


def random_binary_tree(
    L: int,
    seed: int,
    *,
    alpha_lo: float = 0.2,
    alpha_hi: float = 0.95,
    noise_lo: float = 0.05,
    noise_hi: float = 1.0,
) -> BinaryTreeSource:
    rng = np.random.default_rng(seed)
    alpha, noise = {}, {}
    for k in range(2, L + 1):
        for i in range(1, 2 ** (k - 1) + 1):
            alpha[(k, i)] = float(rng.uniform(alpha_lo, alpha_hi))
            noise[(k, i)] = float(rng.uniform(noise_lo, noise_hi))
    return BinaryTreeSource(L, float(rng.uniform(0.5, 2.0)), alpha, noise)


def random_general_tree(seed: int, n_obs: int) -> MarkovTree:
    """Random Gauss-Markov tree on n_obs + 2 or n_obs + 3 nodes, root v0,
    with n_obs observations drawn from all the nodes."""
    rng = np.random.default_rng(seed)
    n = n_obs + int(rng.integers(2, 4))
    nodes = [TreeNode("v0", None)] + [
        TreeNode(f"v{j}", f"v{int(rng.integers(0, j))}",
                 float(rng.uniform(0.5, 0.95)), float(rng.uniform(0.1, 0.6)))
        for j in range(1, n)]
    obs = frozenset(f"v{k}" for k in rng.permutation(n)[:n_obs])
    return MarkovTree(tuple(nodes), float(rng.uniform(0.5, 2.0)), obs)


def random_psd(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n + 2))
    K = A @ A.T / (n + 2)
    return 0.5 * (K + K.T)


@pytest.fixture
def small_tree() -> BinaryTreeSource:
    return BinaryTreeSource(
        2, 1.0, {(2, 1): 0.9, (2, 2): 0.7}, {(2, 1): 0.19, (2, 2): 0.51}
    )
