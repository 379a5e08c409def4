import json
from fractions import Fraction

import numpy as np
import pytest

from gmtree import (
    BinaryTreeSource,
    CovarianceModel,
    MarkovTree,
    ModelError,
    TreeNode,
    binary_to_obj,
    cov_to_obj,
    fixture_path,
    load_model,
    parse_model,
    to_fraction,
    tree_to_cov,
    tree_to_obj,
)
from gmtree.modelio import fmt


def test_to_fraction_accepts_schema_numbers():
    assert to_fraction("1/4") == Fraction(1, 4)
    assert to_fraction("0.25") == Fraction(1, 4)
    assert to_fraction("1e-3") == Fraction(1, 1000)
    assert to_fraction("-7/3") == Fraction(-7, 3)
    assert to_fraction(3) == Fraction(3)
    assert to_fraction(0.5) == Fraction(1, 2)
    # repr round trip keeps the exact binary float
    assert to_fraction(0.1) == Fraction(repr(0.1))


def test_to_fraction_rejects_junk():
    for bad in ("abc", "1/0", None, True, [1], "1//2"):
        with pytest.raises(ModelError):
            to_fraction(bad)


def test_fmt_round_trips():
    assert fmt(Fraction(1, 3)) == "1/3"
    assert fmt(Fraction(2)) == "2"
    assert to_fraction(fmt(0.1)) == Fraction(repr(0.1))


def test_parse_covariance_exact():
    obj = {"covariance": {"labels": ["a", "b"],
                          "matrix": [["1", "1/4"], ["1/4", "1"]]}}
    m = parse_model(obj)
    assert isinstance(m, CovarianceModel)
    assert m.entries[0][1] == Fraction(1, 4)
    c = m.cov()
    assert c.labels == ("a", "b")
    assert c.matrix[0][1] == 0.25


def test_parse_covariance_validation():
    with pytest.raises(ModelError):
        parse_model({"covariance": {"labels": ["a", "b"],
                                    "matrix": [["1", "0"], ["0.1", "1"]]}})  # asymmetric
    with pytest.raises(ModelError):
        parse_model({"covariance": {"labels": ["a"], "matrix": [["1", "0"]]}})
    with pytest.raises(ModelError):
        parse_model({"covariance": {"labels": ["a", "a"],
                                    "matrix": [["1", "0"], ["0", "1"]]}})
    with pytest.raises(ModelError):
        parse_model({"covariance": {"labels": "ab",
                                    "matrix": [["1", "0"], ["0", "1"]]}})


def test_parse_model_key_discipline():
    with pytest.raises(ModelError):
        parse_model({})
    with pytest.raises(ModelError):
        parse_model({"covariance": {"labels": [], "matrix": []},
                     "tree": {"nodes": [], "root_var": "1", "observations": []}})
    with pytest.raises(ModelError):
        parse_model([1, 2])
    with pytest.raises(ModelError):
        parse_model("{not json")
    # unknown extra top-level keys are ignored so emitted reports re-parse
    m = parse_model({"covariance": {"labels": ["a"], "matrix": [["1"]]},
                     "note": "anything", "max_dev": 0.0})
    assert isinstance(m, CovarianceModel)


def test_parse_tree_and_round_trip():
    obj = {"tree": {"nodes": [
        {"id": "r", "parent": None},
        {"id": "u", "parent": "r", "alpha": "0.8", "noise_var": "0.36"},
        {"id": "v", "parent": "r", "alpha": "1/2", "noise_var": "3/4"},
    ], "root_var": "1", "observations": ["u", "v"]}}
    t = parse_model(obj)
    assert isinstance(t, MarkovTree)
    assert t.root_var == 1.0
    again = parse_model(tree_to_obj(t))
    assert tree_to_cov(again).matrix == pytest.approx(tree_to_cov(t).matrix)
    assert again.observations == t.observations


def test_parse_binary_and_round_trip():
    src = BinaryTreeSource(2, 2.0, {(2, 1): 0.9, (2, 2): 1.0},
                           {(2, 1): 0.19, (2, 2): 0.0}, {2})
    again = parse_model(binary_to_obj(src))
    assert isinstance(again, BinaryTreeSource)
    assert again.depth == src.depth
    assert again.root_var == src.root_var
    assert again.alpha == src.alpha
    assert again.noise_var == src.noise_var
    assert again.padding == src.padding


def test_parse_binary_validation():
    with pytest.raises(ModelError):
        parse_model({"binary_tree": {"depth": 0, "root_var": "1", "nodes": []}})
    with pytest.raises(ModelError):
        parse_model({"binary_tree": {"root_var": "1", "nodes": []}})


def _binary_obj(level=2, pos=1, padding=()):
    return {"binary_tree": {"depth": 2, "root_var": "1", "padding": list(padding), "nodes": [
        {"level": level, "pos": pos, "alpha": "0.9", "noise_var": "0.19"},
        {"level": 2, "pos": 2, "alpha": "0.7", "noise_var": "0.51"},
    ]}}


@pytest.mark.parametrize("obj", [
    _binary_obj(level="x"), _binary_obj(level=2.7), _binary_obj(level=2.0),
    _binary_obj(level=None), _binary_obj(pos="1"), _binary_obj(pos=0),
    _binary_obj(padding=["x"]), _binary_obj(padding=[1.5]), _binary_obj(padding=[-1]),
])
def test_binary_positions_must_be_integers(obj):
    # "x" was a bare ValueError; 2.7 was truncated to 2 and parsed
    with pytest.raises(ModelError) as e:
        parse_model(obj)
    assert e.value.code == "bad-model"
    assert parse_model(_binary_obj(padding=[2])).padding == {2}


@pytest.mark.parametrize("obj", [
    {"covariance": {"labels": ["a", "b"], "matrix": [["1", "1e400"], ["1e400", "1"]]}},
    {"tree": {"nodes": [{"id": "r", "parent": None},
                        {"id": "x", "parent": "r", "alpha": "0.5", "noise_var": "-1e400"}],
              "root_var": "1", "observations": ["x"]}},
    {"binary_tree": {"depth": 1, "root_var": "1e400", "nodes": []}},
])
def test_number_beyond_float_range_is_bad_number(obj):
    with pytest.raises(ModelError) as e:
        parse_model(obj)
    assert e.value.code == "bad-number"


def test_cov_to_obj_accepts_plain_cov():
    t = MarkovTree((TreeNode("r", None), TreeNode("x", "r", 0.5, 0.75)),
                   1.0, frozenset(["x"]))
    c = tree_to_cov(t)
    obj = cov_to_obj(c)
    m = parse_model(obj)
    assert np.allclose(np.array(m.cov().matrix), np.array(c.matrix))


def test_load_model_and_fixtures(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"covariance": {"labels": ["a"], "matrix": [["1"]]}}))
    m = load_model(str(p))
    assert m.labels == ("a",)
    with pytest.raises(ModelError):
        load_model(str(tmp_path / "missing.json"))
    # bundled fixtures parse through the same path
    allq = load_model(fixture_path("allquarter3"))
    assert isinstance(allq, CovarianceModel)
    assert all(v == Fraction(1, 4) for i, row in enumerate(allq.entries)
               for j, v in enumerate(row) if i != j)
    fig = load_model(fixture_path("figure_tree"))
    assert isinstance(fig, MarkovTree)
    assert sorted(fig.observations) == ["x1", "x2", "x3", "x4"]
    star = load_model(fixture_path("star4"))
    assert star.entries[1][2] == Fraction(1, 4)
    with pytest.raises(KeyError):
        fixture_path("nope")
