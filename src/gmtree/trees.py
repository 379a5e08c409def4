"""Gauss-Markov tree models and the many-help-one reduction.

Two representations live here:

* ``MarkovTree``: an arbitrary rooted tree generated by
  x_child = alpha * x_parent + noise, with a designated observation set.
  The order of the ``nodes`` tuple is meaningful: it is the covariance label
  order and, within a shared parent, the child order used by ``binarize``.
* ``BinaryTreeSource``: a complete binary tree of depth L whose 2^(L-1)
  level-L leaves are the encoder observations, named (level, position) at
  the API and held in the one heap layout that its docstring states.

``reroot`` re-hangs a tree at a new node by refitting parameters from the
covariance (numerically robust, and exact for exact inputs up to float
arithmetic), and ``binarize`` pads/pushes observations down to distinct
leaves of a minimal-depth complete binary tree using almost-surely-identical
copy edges (alpha 1, noise 0).
"""

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, ModelError
from .gauss import Cov, check_cov

__all__ = [
    "TreeNode",
    "MarkovTree",
    "BinaryTreeSource",
    "tree_to_cov",
    "fit_tree_params",
    "validate_markov",
    "sample_tree",
    "reroot",
    "binarize",
    "binary_cov",
    "to_markov_tree",
]

NodeId = tuple[int, int]


def _check_param(v, what: str, variance: bool = False):
    """Refuse NaN and +-inf (NaN would pass a `< 0` test), and negative variances."""
    if not math.isfinite(v):
        raise ModelError(f"{what} is not a finite number: {v!r}", code="bad-number")
    if variance and v < 0:
        raise ModelError(f"negative {what}", code="negative-variance")


@dataclass(frozen=True)
class TreeNode:
    id: str
    parent: str | None
    alpha: float = 0.0
    noise_var: float = 0.0


@dataclass(frozen=True)
class MarkovTree:
    """Rooted Gauss-Markov tree; the root row's alpha/noise_var are ignored."""

    nodes: tuple[TreeNode, ...]
    root_var: float
    observations: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "observations", frozenset(self.observations))
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ModelError("duplicate node ids", code="duplicate-node")
        roots = [n.id for n in self.nodes if n.parent is None]
        if len(roots) != 1:
            raise ModelError(
                f"tree must have exactly one root, found {len(roots)}",
                code="bad-root",
            )
        idset = set(ids)
        for n in self.nodes:
            if n.parent is not None and n.parent not in idset:
                raise ModelError(f"unknown parent {n.parent!r}", code="bad-parent")
            _check_param(n.alpha, f"alpha at {n.id!r}")
            _check_param(n.noise_var, f"noise variance at {n.id!r}", variance=True)
        _check_param(self.root_var, "root variance", variance=True)
        missing = self.observations - idset
        if missing:
            raise ModelError(
                f"observations not in tree: {sorted(missing)}", code="bad-observation"
            )
        # reachability doubles as the acyclicity check
        if len(self._bfs_order()) != len(self.nodes):
            raise ModelError("tree is not connected/acyclic", code="bad-topology")

    @property
    def root(self) -> str:
        return next(n.id for n in self.nodes if n.parent is None)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    def node(self, node_id: str) -> TreeNode:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def children(self, node_id: str) -> list[str]:
        return [n.id for n in self.nodes if n.parent == node_id]

    def _bfs_order(self) -> list[str]:
        kids: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for n in self.nodes:
            if n.parent is not None and n.parent in kids:
                kids[n.parent].append(n.id)
        order, queue = [], [self.root]
        while queue:
            v = queue.pop(0)
            order.append(v)
            queue.extend(kids[v])
        return order


def tree_to_cov(tree: MarkovTree) -> Cov:
    """Covariance induced by the recursion x_child = alpha x_parent + noise."""
    ids = tree.ids
    pos = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    K = np.zeros((n, n))
    by_id = {nd.id: nd for nd in tree.nodes}
    for v in tree._bfs_order():
        i = pos[v]
        if v == tree.root:
            K[i, i] = tree.root_var
            continue
        nd = by_id[v]
        p = pos[nd.parent]
        row = nd.alpha * K[p, :]
        K[i, :] = row
        K[:, i] = row
        K[i, i] = nd.alpha**2 * K[p, p] + nd.noise_var
    return Cov(ids, K)


def validate_markov(topology: Mapping[str, str | None], K: Cov, tol: float = 1e-9):
    """Check that K satisfies the conditional-independence pattern of a tree.

    ``topology`` maps node id -> parent id (None for the root). For every
    node, any two variables from different branches (child subtrees and the
    through-parent complement) must have zero partial covariance given the
    node, to absolute tolerance. Returns the list of violations as tuples
    (node, a, b, partial_covariance); empty means consistent.
    """
    labels = list(K.labels)
    if set(topology) != set(labels):
        raise ModelError("topology ids do not match covariance labels", code="bad-topology")
    M = K.matrix
    pos = {v: i for i, v in enumerate(labels)}
    kids: dict[str, list[str]] = {v: [] for v in labels}
    root = None
    for v, p in topology.items():
        if p is None:
            root = v
        else:
            kids[p].append(v)
    if root is None:
        raise ModelError("topology has no root", code="bad-root")

    def subtree(v: str) -> set[str]:
        out, stack = set(), [v]
        while stack:
            u = stack.pop()
            out.add(u)
            stack.extend(kids[u])
        return out

    violations = []
    allset = set(labels)
    for v in labels:
        groups = [subtree(c) for c in kids[v]]
        rest = allset - subtree(v)
        if rest:
            groups.append(rest)
        iv = pos[v]
        vv = M[iv, iv]
        for gi in range(len(groups)):
            for gj in range(gi + 1, len(groups)):
                for a in sorted(groups[gi]):
                    for b in sorted(groups[gj]):
                        ia, ib = pos[a], pos[b]
                        if vv > 0:
                            pc = M[ia, ib] - M[ia, iv] * M[iv, ib] / vv
                        else:
                            pc = M[ia, ib]
                        if abs(pc) > tol:
                            violations.append((v, a, b, float(pc)))
    return violations


def fit_tree_params(
    K: Cov,
    topology: Mapping[str, str | None],
    observations: Iterable[str] = (),
    check: bool = True,
) -> MarkovTree:
    """Fit edge coefficients and noise variances of a given topology to K.

    alpha_child = Cov(child, parent) / Var(parent) (zero when the parent is
    degenerate) and noise = Var(child) - alpha^2 Var(parent). With a Markov-
    consistent K this inverts tree_to_cov.
    """
    if check:
        bad = validate_markov(topology, K)
        if bad:
            raise ModelError(
                f"covariance violates the tree Markov conditions at {len(bad)} pairs "
                f"(first: {bad[0]})",
                code="markov-violation",
            )
    M = K.matrix
    pos = {v: i for i, v in enumerate(K.labels)}
    floor = -1e-10 * max(float(np.max(np.diag(M))), 1.0)
    nodes = []
    root_var = 0.0
    for v in K.labels:
        p = topology[v]
        iv = pos[v]
        if p is None:
            root_var = float(M[iv, iv])
            nodes.append(TreeNode(v, None))
            continue
        ip = pos[p]
        vp = float(M[ip, ip])
        alpha = float(M[iv, ip]) / vp if vp > 0 else 0.0
        noise = float(M[iv, iv]) - alpha**2 * vp
        if noise < floor:
            raise ModelError(
                f"fitted noise variance at {v!r} is negative ({noise:.3e})",
                code="negative-variance",
            )
        nodes.append(TreeNode(v, p, alpha, max(noise, 0.0)))
    return MarkovTree(tuple(nodes), root_var, frozenset(observations))


def sample_tree(tree: MarkovTree, count: int, seed: int) -> np.ndarray:
    """Sample the generative recursion; columns follow tree.ids order."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    pos = {v: i for i, v in enumerate(tree.ids)}
    by_id = {nd.id: nd for nd in tree.nodes}
    out = np.empty((count, len(tree.ids)))
    for v in tree._bfs_order():
        z = rng.standard_normal(count)
        if v == tree.root:
            out[:, pos[v]] = math.sqrt(tree.root_var) * z
        else:
            nd = by_id[v]
            out[:, pos[v]] = nd.alpha * out[:, pos[nd.parent]] + math.sqrt(nd.noise_var) * z
    return out


def reroot(tree: MarkovTree, new_root: str) -> MarkovTree:
    """Re-hang the tree at ``new_root`` without changing the joint law.

    Parameters are refit from the covariance rather than inverted edge by
    edge. The output nodes are listed in depth-first order from the new root
    with each node's former children preceding its former parent, which is
    the child order downstream reduction steps rely on.
    """
    ids = set(tree.ids)
    if new_root not in ids:
        raise ModelError(f"unknown node {new_root!r}", code="unknown-node")
    if new_root == tree.root:
        return tree

    old_parent = {n.id: n.parent for n in tree.nodes}
    old_kids: dict[str, list[str]] = {n.id: [] for n in tree.nodes}
    for n in tree.nodes:
        if n.parent is not None:
            old_kids[n.parent].append(n.id)

    # Orient away from the new root; former children first, former parent last.
    new_parent: dict[str, str | None] = {new_root: None}
    order: list[str] = []

    def visit(v: str):
        order.append(v)
        nbrs = [u for u in old_kids[v] if u != new_parent[v]]
        if old_parent[v] is not None and old_parent[v] != new_parent[v]:
            nbrs.append(old_parent[v])
        for u in nbrs:
            new_parent[u] = v
            visit(u)

    visit(new_root)

    K = tree_to_cov(tree)
    Kord = K.submatrix(order)
    fitted = fit_tree_params(Kord, new_parent, tree.observations, check=False)
    back = tree_to_cov(fitted)
    scale = max(float(np.max(np.abs(Kord.matrix))), 1.0)
    if float(np.max(np.abs(back.matrix - Kord.matrix))) > 1e-10 * scale:
        raise DomainError(
            "rerooting is ill-posed here (a zero-variance node breaks the "
            "edge re-orientation)",
            code="reroot-ill-posed",
        )
    return fitted


# ---------------------------------------------------------------------------
# complete binary tree sources


@dataclass(frozen=True)
class BinaryTreeSource:
    """Complete binary Gauss-Markov tree of depth L, leaves at level L.

    ``alpha`` and ``noise_var`` are keyed by (level, position) for levels
    2..L. ``padding`` lists leaf positions whose encoder rate is pinned to
    zero (they carry no observation).

    The heap layout, which every kernel reads instead of (level, position)
    keys: node (k, i) has heap index n = 2^(k-1) + i - 1 (``index``), so the
    root is 1, node n has children 2n and 2n + 1 and parent n // 2, and leaf
    i of m = 2^(L-1) is m + i - 1. ``nodes()`` lists the nodes in heap
    order, which is also the order of ``binary_cov``: node n is its row
    n - 1. ``heap_alpha[n]`` and ``heap_noise[n]`` are the edge coefficient
    and noise variance into node n; the root (n = 1) has coefficient 0 and
    noise ``root_var``, and entry 0 is unused.
    """

    depth: int
    root_var: float
    alpha: dict = field(default_factory=dict)
    noise_var: dict = field(default_factory=dict)
    padding: frozenset = frozenset()
    heap_alpha: list = field(init=False, repr=False, compare=False)
    heap_noise: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "padding", frozenset(self.padding))
        if self.depth < 1:
            raise ModelError("depth must be >= 1", code="bad-depth")
        _check_param(self.root_var, "root variance", variance=True)
        edges = self.nodes()[1:]
        if set(self.alpha) != set(edges) or set(self.noise_var) != set(edges):
            raise ModelError(
                "alpha/noise_var must cover exactly levels 2..L", code="bad-topology"
            )
        for key in edges:
            _check_param(self.alpha[key], f"alpha at {key}")
            _check_param(self.noise_var[key], f"noise variance at {key}", variance=True)
        bad = [i for i in self.padding if not 1 <= i <= self.leaf_count]
        if bad:
            raise ModelError(f"padding positions out of range: {bad}", code="bad-padding")
        heap_alpha = [0.0, 0.0] + [self.alpha[v] for v in edges]
        heap_noise = [0.0, self.root_var] + [self.noise_var[v] for v in edges]
        object.__setattr__(self, "heap_alpha", heap_alpha)
        object.__setattr__(self, "heap_noise", heap_noise)

    @property
    def leaf_count(self) -> int:
        return 2 ** (self.depth - 1)

    def nodes(self) -> list[NodeId]:
        """Every node (k, i) in heap order: ``nodes()[n - 1]`` has index n."""
        return [
            (k, i) for k in range(1, self.depth + 1) for i in range(1, 2 ** (k - 1) + 1)
        ]

    def leaves(self) -> list[NodeId]:
        return [(self.depth, i) for i in range(1, self.leaf_count + 1)]

    def index(self, node) -> int:
        """Heap index of node (k, i); ``unknown-node`` if it is not in the tree."""
        k, i = node
        if not (1 <= k <= self.depth and 1 <= i <= 2 ** (k - 1)):
            raise ModelError(f"invalid node {node} for depth {self.depth}", code="unknown-node")
        return 2 ** (k - 1) + i - 1

    @staticmethod
    def parent(node: NodeId) -> NodeId:
        k, i = node
        return (k - 1, (i + 1) // 2)

    @staticmethod
    def children(node: NodeId) -> tuple[NodeId, NodeId]:
        k, i = node
        return ((k + 1, 2 * i - 1), (k + 1, 2 * i))

    def var(self, node: NodeId) -> float:
        n = self.index(node)
        v = self.root_var
        # walk down from the root's child along the ancestor path of n
        for shift in range(n.bit_length() - 2, -1, -1):
            a = n >> shift
            v = self.heap_alpha[a] ** 2 * v + self.heap_noise[a]
        return v


def to_markov_tree(tree: BinaryTreeSource) -> MarkovTree:
    """View a BinaryTreeSource as a generic MarkovTree (labels xK_I, heap order)."""
    labels = [f"x{k}_{i}" for k, i in tree.nodes()]
    nodes = [TreeNode(labels[0], None)] + [
        TreeNode(labels[n - 1], labels[n // 2 - 1], tree.heap_alpha[n], tree.heap_noise[n])
        for n in range(2, 2 * tree.leaf_count)
    ]
    obs = frozenset(
        labels[tree.index(v) - 1] for v in tree.leaves() if v[1] not in tree.padding
    )
    return MarkovTree(tuple(nodes), tree.root_var, obs)


def binary_cov(tree: BinaryTreeSource) -> Cov:
    """Covariance over all nodes in heap order: node n is row n - 1."""
    return tree_to_cov(to_markov_tree(tree))


# ---------------------------------------------------------------------------
# binarization (push observations down to distinct leaves of a complete tree)

_SELF = "self"
_SPREAD = "spread"
_PAD = "pad"


def _slots(v: str, queue: tuple[str, ...], observed: bool):
    """The two child slots under a binary node hosting original node v.

    Each slot is (kind, payload): ('child', original id), ('self'/'pad',
    copy of v continuing down), or ('spread', remaining queue) when v has
    more pending children than fit. Observation chains take the left slot.
    """
    load = (1 if observed else 0) + len(queue)
    if load <= 2:
        slots = []
        if observed:
            slots.append((_SELF, None))
        slots.extend(("child", c) for c in queue)
        while len(slots) < 2:
            slots.append((_PAD, None))
        return slots
    if observed:
        return [(_SELF, None), (_SPREAD, queue)]
    h = (len(queue) + 1) // 2
    return [(_SPREAD, queue[:h]), (_SPREAD, queue[h:])]


def binarize(tree: MarkovTree, observations: Iterable[str] | None = None):
    """Reduce a rooted tree to a complete binary source of minimal depth.

    The root must be the reconstruction target. Nodes not on a path between
    the root and an observation are dropped first (they cannot affect the
    joint law of the remaining nodes). Observations end up at distinct
    leaves via copy chains (alpha 1, noise 0); all other leaves are padding
    with rates pinned to zero.

    Returns (BinaryTreeSource, leaf_map) where leaf_map sends each original
    observation id to its leaf position at level L.
    """
    obs = frozenset(tree.observations if observations is None else observations)
    if not obs:
        raise ModelError("binarize needs a nonempty observation set", code="bad-observation")
    unknown = obs - set(tree.ids)
    if unknown:
        raise ModelError(f"observations not in tree: {sorted(unknown)}", code="bad-observation")

    root = tree.root
    parent = {n.id: n.parent for n in tree.nodes}
    keep = {root}
    for o in obs:
        v = o
        while v is not None:
            keep.add(v)
            v = parent[v]
    kids: dict[str, tuple[str, ...]] = {}
    for v in tree.ids:
        if v in keep:
            kids[v] = tuple(c for c in tree.children(v) if c in keep)
    by_id = {n.id: n for n in tree.nodes}

    def req(v: str, queue: tuple[str, ...], observed: bool) -> int:
        if not queue:
            return 0
        best = 0
        for kind, payload in _slots(v, queue, observed):
            if kind == "child":
                depth = 1 + req(payload, kids[payload], payload in obs)
            elif kind == _SPREAD:
                depth = 1 + req(v, payload, False)
            else:
                depth = 1
            best = max(best, depth)
        return best

    L = 1 + req(root, kids[root], root in obs)
    if L == 1 and root not in obs:
        raise ModelError("no observation reachable from the root", code="bad-observation")

    alpha: dict[NodeId, float] = {}
    noise: dict[NodeId, float] = {}
    leaf_map: dict[str, int] = {}

    def place(v: str, queue: tuple[str, ...], observed: bool, k: int, i: int):
        if k == L:
            assert not queue, "pending children left at leaf level"
            if observed:
                leaf_map[v] = i
            return
        for s, (kind, payload) in enumerate(_slots(v, queue, observed)):
            key = (k + 1, 2 * i - 1 + s)
            if kind == "child":
                nd = by_id[payload]
                alpha[key], noise[key] = nd.alpha, nd.noise_var
                place(payload, kids[payload], payload in obs, *key)
            else:
                alpha[key], noise[key] = 1.0, 0.0
                if kind == _SELF:
                    place(v, (), True, *key)
                elif kind == _SPREAD:
                    place(v, payload, False, *key)
                else:
                    place(v, (), False, *key)

    place(root, kids[root], root in obs, 1, 1)

    taken = set(leaf_map.values())
    padding = frozenset(i for i in range(1, 2 ** (L - 1) + 1) if i not in taken)
    src = BinaryTreeSource(L, tree.root_var, alpha, noise, padding)
    return src, leaf_map
