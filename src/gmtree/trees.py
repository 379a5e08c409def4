"""Gauss-Markov tree models and the many-help-one reduction.

Two representations live here:

* ``MarkovTree``: an arbitrary rooted tree generated by
  x_child = alpha * x_parent + noise, with a designated observation set.
  The order of the ``nodes`` tuple is meaningful: it is the covariance label
  order and, within a shared parent, the child order used by ``binarize``.
  Its topology (parents, children, breadth-first order) is found once, when
  the tree is validated, and kept on the tree.
* ``BinaryTreeSource``: a complete binary tree of depth L whose 2^(L-1)
  level-L leaves are the encoder observations, named (level, position) at
  the API and held in the one heap layout that its docstring states.

``reroot`` re-hangs a tree at a new node by refitting parameters from the
covariance (numerically robust, and exact for exact inputs up to float
arithmetic), and ``binarize`` pushes observations down to distinct leaves
of a minimal-depth complete binary tree in one walk; copy edges (alpha 1,
noise 0) fill every node the walk leaves.
"""

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, ModelError, check_count, check_finite
from .gauss import Cov

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
MARKOV_TOL = 1e-9  # largest partial covariance validate_markov reads as zero


def _check_param(v, what: str, variance: bool = False):
    """Refuse a number that is not finite, and a negative variance."""
    check_finite(v, what)
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
    """Rooted Gauss-Markov tree; the root row's alpha/noise_var are ignored.

    Validation walks the tree once and keeps what it finds: ``parent`` maps
    each id to its parent id (None at the root), ``kids`` maps each id to its
    child nodes in node order, and ``order`` holds the nodes breadth first
    from the root, children in node order.
    """

    nodes: tuple[TreeNode, ...]
    root_var: float
    observations: frozenset = frozenset()
    parent: dict = field(init=False, repr=False, compare=False)
    kids: dict = field(init=False, repr=False, compare=False)
    order: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "observations", frozenset(self.observations))
        parent = {n.id: n.parent for n in self.nodes}
        if len(parent) != len(self.nodes):
            raise ModelError("duplicate node ids", code="duplicate-node")
        roots = [n for n in self.nodes if n.parent is None]
        if len(roots) != 1:
            raise ModelError(
                f"tree must have exactly one root, found {len(roots)}",
                code="bad-root",
            )
        kids: dict[str, list[TreeNode]] = {v: [] for v in parent}
        for n in self.nodes:
            if n.parent is not None and n.parent not in parent:
                raise ModelError(f"unknown parent {n.parent!r}", code="bad-parent")
            _check_param(n.alpha, f"alpha at {n.id!r}")
            _check_param(n.noise_var, f"noise variance at {n.id!r}", variance=True)
            if n.parent is not None:
                kids[n.parent].append(n)
        _check_param(self.root_var, "root variance", variance=True)
        missing = self.observations - parent.keys()
        if missing:
            raise ModelError(
                f"observations not in tree: {sorted(missing)}", code="bad-observation"
            )
        order = roots
        for nd in order:  # grows as it goes: breadth first from the root
            order.extend(kids[nd.id])
        # reachability doubles as the acyclicity check
        if len(order) != len(self.nodes):
            raise ModelError("tree is not connected/acyclic", code="bad-topology")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "kids", {v: tuple(c) for v, c in kids.items()})
        object.__setattr__(self, "order", tuple(order))

    @property
    def root(self) -> str:
        return self.order[0].id

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    def children(self, node_id: str) -> list[str]:
        return [c.id for c in self.kids.get(node_id, ())]


def tree_to_cov(tree: MarkovTree) -> Cov:
    """Covariance induced by the recursion x_child = alpha x_parent + noise."""
    ids = tree.ids
    pos = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    K = np.zeros((n, n))
    for nd in tree.order:
        i = pos[nd.id]
        if nd.parent is None:
            K[i, i] = tree.root_var
            continue
        p = pos[nd.parent]
        row = nd.alpha * K[p, :]
        K[i, :] = row
        K[:, i] = row
        K[i, i] = nd.alpha**2 * K[p, p] + nd.noise_var
    return Cov(ids, K)


def _shape(topology: Mapping[str, str | None], labels) -> MarkovTree:
    """The parent map ``topology`` (node id -> parent id, None at the root)
    over ``labels`` as a parameter-free MarkovTree, whose validation walk
    refuses two roots, an unknown parent and a cycle."""
    if set(topology) != set(labels):
        raise ModelError("topology ids do not match covariance labels", code="bad-topology")
    return MarkovTree(tuple(TreeNode(v, p) for v, p in topology.items()), 0.0)


def validate_markov(topology: Mapping[str, str | None], K: Cov):
    """Check that K satisfies the conditional-independence pattern of a tree.

    ``topology`` maps node id -> parent id (None for the root). For every
    node, any two variables from different branches (child subtrees and the
    through-parent complement) must have zero partial covariance given the
    node, to absolute tolerance MARKOV_TOL. Returns the list of violations
    as tuples (node, a, b, partial_covariance); empty means consistent.
    """
    shape = _shape(topology, K.labels)
    M = K.matrix
    pos = {v: i for i, v in enumerate(K.labels)}
    below: dict[str, set[str]] = {}  # each node's subtree, children first
    for nd in reversed(shape.order):
        below[nd.id] = {nd.id}.union(*(below[c.id] for c in shape.kids[nd.id]))

    violations = []
    allset = set(K.labels)
    for v in K.labels:
        groups = [below[c.id] for c in shape.kids[v]]
        rest = allset - below[v]
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
                        if abs(pc) > MARKOV_TOL:
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
    consistent K this inverts tree_to_cov. The topology is checked as in
    ``validate_markov``; ``check`` adds the Markov conditions.
    """
    parent = _shape(topology, K.labels).parent
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
        p = parent[v]
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
    """Sample the generative recursion; columns follow tree.ids order.

    ``count`` must be an integer >= 1 (``bad-samples``).
    """
    count = check_count(count, "count")
    rng = np.random.default_rng(seed)
    pos = {v: i for i, v in enumerate(tree.ids)}
    out = np.empty((count, len(tree.ids)))
    for nd in tree.order:
        z = rng.standard_normal(count)
        if nd.parent is None:
            out[:, pos[nd.id]] = math.sqrt(tree.root_var) * z
        else:
            out[:, pos[nd.id]] = nd.alpha * out[:, pos[nd.parent]] + math.sqrt(nd.noise_var) * z
    return out


def reroot(tree: MarkovTree, new_root: str) -> MarkovTree:
    """Re-hang the tree at ``new_root`` without changing the joint law.

    Parameters are refit from the covariance rather than inverted edge by
    edge. The output nodes are listed in depth-first order from the new root
    with each node's former children preceding its former parent, which is
    the child order downstream reduction steps rely on.
    """
    if new_root not in tree.parent:
        raise ModelError(f"unknown node {new_root!r}", code="unknown-node")
    if new_root == tree.root:
        return tree

    # Orient away from the new root; former children first, former parent last.
    new_parent: dict[str, str | None] = {new_root: None}
    order: list[str] = []

    def visit(v: str):
        order.append(v)
        nbrs = [u.id for u in tree.kids[v] if u.id != new_parent[v]]
        if tree.parent[v] is not None and tree.parent[v] != new_parent[v]:
            nbrs.append(tree.parent[v])
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
        check_count(self.depth, "depth", code="bad-depth")
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


def _slots(queue: tuple[TreeNode, ...], observed: bool):
    """The child slots under a binary node hosting an original node v.

    Each slot is (kind, payload): ('child', original node), ('self', None)
    for the copy chain that carries v's own observation down, or ('spread',
    remaining queue) when v has more pending children than fit. Observation
    chains take the left slot. A slot not listed is left empty.
    """
    if (1 if observed else 0) + len(queue) <= 2:
        slots = [(_SELF, None)] if observed else []
        return slots + [("child", c) for c in queue]
    if observed:
        return [(_SELF, None), (_SPREAD, queue)]
    h = (len(queue) + 1) // 2
    return [(_SPREAD, queue[:h]), (_SPREAD, queue[h:])]


def binarize(tree: MarkovTree):
    """Reduce a rooted tree to a complete binary source of minimal depth.

    The root must be the reconstruction target, and ``tree.observations``
    are the encoders' nodes. Nodes not on a path between the root and an
    observation are dropped first (they cannot affect the joint law of the
    remaining nodes). One walk lays the kept nodes out
    from the root and returns the deepest level L it reaches; every binary
    node it leaves empty is a copy edge (alpha 1, noise 0). An observation
    whose copy chain starts at node (k, i) sits on the leftmost leaf below
    it, position (i - 1) 2^(L - k) + 1; all other leaves are padding with
    rates pinned to zero.

    Returns (BinaryTreeSource, leaf_map) where leaf_map sends each original
    observation id to its leaf position at level L.
    """
    obs = tree.observations
    if not obs:
        raise ModelError("binarize needs a nonempty observation set", code="bad-observation")

    keep = {tree.root}
    for v in obs:
        while v not in keep:
            keep.add(v)
            v = tree.parent[v]
    kids = {v: tuple(c for c in tree.kids[v] if c.id in keep) for v in keep}
    edges: dict[NodeId, TreeNode] = {}  # binary node -> original node on its edge
    starts: dict[str, NodeId] = {}  # observation -> first node of its copy chain

    def place(v: str, queue: tuple[TreeNode, ...], observed: bool, k: int, i: int) -> int:
        if not queue:
            if observed:
                starts[v] = (k, i)
            return k
        deepest = k + 1
        for s, (kind, payload) in enumerate(_slots(queue, observed)):
            key = (k + 1, 2 * i - 1 + s)
            if kind == "child":
                edges[key] = payload
                deepest = max(deepest, place(payload.id, kids[payload.id], payload.id in obs, *key))
            elif kind == _SPREAD:
                deepest = max(deepest, place(v, payload, False, *key))
            else:
                starts[v] = key
        return deepest

    root = tree.root
    L = place(root, kids[root], root in obs, 1, 1)
    alpha: dict[NodeId, float] = {}
    noise: dict[NodeId, float] = {}
    for k in range(2, L + 1):
        for i in range(1, 2 ** (k - 1) + 1):
            nd = edges.get((k, i))
            alpha[k, i], noise[k, i] = (nd.alpha, nd.noise_var) if nd is not None else (1.0, 0.0)
    leaf_map = {v: (i - 1) * 2 ** (L - k) + 1 for v, (k, i) in starts.items()}
    padding = frozenset(range(1, 2 ** (L - 1) + 1)) - frozenset(leaf_map.values())
    src = BinaryTreeSource(L, tree.root_var, alpha, noise, padding)
    return src, leaf_map
