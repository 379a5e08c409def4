"""Model file schema: parsing and serialization.

A model file is a JSON object carrying exactly one of:

- ``{"covariance": {"labels": [...], "matrix": [[...]]}}``
- ``{"tree": {"nodes": [{"id", "parent", "alpha", "noise_var"}],
   "root_var", "observations"}}``
- ``{"binary_tree": {"depth", "root_var",
   "nodes": [{"level", "pos", "alpha", "noise_var"}], "padding"}}``

Numbers may be JSON numbers or decimal strings; strings also admit exact
rationals ("1/4"), which the covariance path preserves so graph structure can
be decided without rounding. The binary tree's ``depth``, ``level``, ``pos``
and ``padding`` entries are positions: JSON integers >= 1. Extra top-level
keys are ignored, so emitted reports that embed a model re-parse unchanged.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ModelError, check_count
from .gauss import Cov
from .trees import BinaryTreeSource, MarkovTree, TreeNode

__all__ = [
    "CovarianceModel",
    "to_fraction",
    "parse_model",
    "load_model",
    "cov_to_obj",
    "tree_to_obj",
    "binary_to_obj",
]

_MODEL_KEYS = ("covariance", "tree", "binary_tree")


def to_fraction(v) -> Fraction:
    """Exact value of a schema number (JSON number or decimal/rational string)."""
    try:
        if isinstance(v, bool):
            raise TypeError
        if isinstance(v, str):
            return Fraction(v)
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, float):
            return Fraction(repr(v))
    except (ValueError, ZeroDivisionError, TypeError):
        pass
    raise ModelError(f"not a number: {v!r}", code="bad-number")


def _float(v) -> float:
    """Float value of a schema number; one beyond the float range is refused."""
    x = to_fraction(v)
    try:
        return float(x)
    except OverflowError:
        raise ModelError(f"number beyond the float range: {v!r}", code="bad-number") from None


def fmt(x) -> str:
    """Schema text for a number; exact for Fractions, round-tripping for floats."""
    if isinstance(x, Fraction):
        return str(x)
    return repr(float(x))


@dataclass(frozen=True)
class CovarianceModel:
    labels: tuple
    entries: tuple  # tuple of tuples of Fraction

    def cov(self) -> Cov:
        M = np.array([[float(x) for x in row] for row in self.entries])
        return Cov(self.labels, M)


def _require(obj, key, code="bad-model"):
    if not isinstance(obj, dict) or key not in obj:
        raise ModelError(f"missing required field {key!r}", code=code)
    return obj[key]


def _parse_covariance(obj) -> CovarianceModel:
    labels = _require(obj, "labels")
    matrix = _require(obj, "matrix")
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise ModelError("labels must be a list of strings", code="bad-model")
    if len(set(labels)) != len(labels):
        raise ModelError("duplicate labels", code="bad-model")
    n = len(labels)
    if not isinstance(matrix, list) or len(matrix) != n or any(
        not isinstance(r, list) or len(r) != n for r in matrix
    ):
        raise ModelError("matrix must be square and match labels", code="bad-model")
    ent = tuple(tuple(to_fraction(v) for v in row) for row in matrix)
    for row in matrix:
        for v in row:
            _float(v)  # cov() must be able to convert every entry
    for i in range(n):
        for j in range(i):
            if ent[i][j] != ent[j][i]:
                raise ModelError("matrix must be symmetric", code="bad-model")
    return CovarianceModel(tuple(labels), ent)


def _parse_tree(obj) -> MarkovTree:
    nodes_raw = _require(obj, "nodes")
    root_var = _float(_require(obj, "root_var"))
    obs = _require(obj, "observations")
    if not isinstance(nodes_raw, list) or not nodes_raw:
        raise ModelError("tree needs a nonempty node list", code="bad-model")
    if not isinstance(obs, list) or not all(isinstance(v, str) for v in obs):
        raise ModelError("observations must be a list of node ids", code="bad-model")
    nodes = []
    for nd in nodes_raw:
        node_id = _require(nd, "id")
        parent = nd.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise ModelError("parent must be a node id or null", code="bad-model")
        if parent is None:
            nodes.append(TreeNode(node_id, None))
        else:
            nodes.append(
                TreeNode(
                    node_id,
                    parent,
                    _float(_require(nd, "alpha")),
                    _float(_require(nd, "noise_var")),
                )
            )
    return MarkovTree(tuple(nodes), root_var, frozenset(obs))


def _parse_binary(obj) -> BinaryTreeSource:
    depth = _require(obj, "depth")
    root_var = _float(_require(obj, "root_var"))
    alpha, noise = {}, {}
    for nd in _require(obj, "nodes"):
        key = tuple(check_count(_require(nd, k), k, code="bad-model") for k in ("level", "pos"))
        alpha[key] = _float(_require(nd, "alpha"))
        noise[key] = _float(_require(nd, "noise_var"))
    padding = frozenset(check_count(i, "padding", code="bad-model") for i in obj.get("padding", []))
    return BinaryTreeSource(depth, root_var, alpha, noise, padding)


def parse_model(obj):
    """Dispatch a decoded JSON object to the matching model type."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as e:
            raise ModelError(f"invalid JSON: {e}", code="bad-json") from e
    if not isinstance(obj, dict):
        raise ModelError("model must be a JSON object", code="bad-model")
    present = [k for k in _MODEL_KEYS if k in obj]
    if len(present) != 1:
        raise ModelError(
            "model must contain exactly one of " + ", ".join(_MODEL_KEYS),
            code="bad-model",
        )
    key = present[0]
    if key == "covariance":
        return _parse_covariance(obj[key])
    if key == "tree":
        return _parse_tree(obj[key])
    return _parse_binary(obj[key])


def load_model(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ModelError(f"cannot read model file {path}: {e}", code="bad-model") from e
    return parse_model(text)


def cov_to_obj(source) -> dict:
    """Schema object for a covariance (CovarianceModel, Cov, or labels+array)."""
    if isinstance(source, CovarianceModel):
        labels, rows = source.labels, source.entries
    else:
        labels = source.labels
        rows = source.matrix
    return {
        "covariance": {
            "labels": list(labels),
            "matrix": [[fmt(v) for v in row] for row in rows],
        }
    }


def tree_to_obj(tree: MarkovTree) -> dict:
    nodes = []
    for nd in tree.nodes:
        if nd.parent is None:
            nodes.append({"id": nd.id, "parent": None})
        else:
            nodes.append(
                {
                    "id": nd.id,
                    "parent": nd.parent,
                    "alpha": fmt(nd.alpha),
                    "noise_var": fmt(nd.noise_var),
                }
            )
    return {
        "tree": {
            "nodes": nodes,
            "root_var": fmt(tree.root_var),
            "observations": sorted(tree.observations),
        }
    }


def binary_to_obj(tree: BinaryTreeSource) -> dict:
    nodes = [
        {
            "level": k,
            "pos": i,
            "alpha": fmt(tree.alpha[(k, i)]),
            "noise_var": fmt(tree.noise_var[(k, i)]),
        }
        for k, i in tree.nodes()[1:]
    ]
    return {
        "binary_tree": {
            "depth": tree.depth,
            "root_var": fmt(tree.root_var),
            "nodes": nodes,
            "padding": sorted(tree.padding),
        }
    }
