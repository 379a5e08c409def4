import json
import math
import os
import subprocess
import sys

import pytest

from gmtree import fixture_path

PKG = [sys.executable, "-m", "gmtree"]


def run_cli(*args, env_extra=None):
    env = {**os.environ, **(env_extra or {})}
    return subprocess.run(PKG + list(args), capture_output=True, text=True, env=env)


def write_model(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_usage_errors():
    r = run_cli("frobnicate")
    assert r.returncode == 2
    r = run_cli()
    assert r.returncode == 2
    r = run_cli("inner", "--tree", "x.json")  # missing -d
    assert r.returncode == 2


def test_missing_model_file_is_input_error():
    r = run_cli("embed-check", "/nonexistent/m.json")
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert err["code"] == "bad-model"


def test_embed_check_allquarter_summary():
    r = run_cli("embed-check", fixture_path("allquarter3"))
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["summary"] == "not a forest; embeddable via embed3"
    assert out["is_forest"] is False
    # exact rational precision entries survive to the report
    assert out["precision"][0][0] == "10/9"


def test_embed_check_forest(tmp_path):
    p = write_model(tmp_path, "f.json", {
        "covariance": {"labels": ["a", "b", "c"],
                       "matrix": [["1", "1/2", "0"],
                                  ["1/2", "1", "0"],
                                  ["0", "0", "1"]]}})
    out = json.loads(run_cli("embed-check", p).stdout)
    assert out["summary"] == "markov graph is a forest"
    assert out["is_forest"] is True


def test_embed_check_not_embeddable_has_witness(tmp_path):
    p = write_model(tmp_path, "bad.json", {
        "covariance": {"labels": ["a", "b", "c"],
                       "matrix": [["1", "0.3", "-0.3"],
                                  ["0.3", "1", "0.3"],
                                  ["-0.3", "0.3", "1"]]}})
    r = run_cli("embed-check", p)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["summary"] == "not a forest; not embeddable"
    assert out["witness"]["product"] < 0
    assert out["violations"]


def test_embed_check_undecided_for_larger(tmp_path):
    p = write_model(tmp_path, "four.json", {
        "covariance": {"labels": ["a", "b", "c", "d"],
                       "matrix": [["1", "1/4", "1/4", "1/4"],
                                  ["1/4", "1", "1/4", "1/4"],
                                  ["1/4", "1/4", "1", "1/4"],
                                  ["1/4", "1/4", "1/4", "1"]]}})
    out = json.loads(run_cli("embed-check", p).stdout)
    assert out["summary"] == "not a forest; embeddability undecided for N > 3"


def test_embed3_output_reparses_and_rechecks(tmp_path):
    r = run_cli("embed3", fixture_path("allquarter3"))
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["cov_max_dev"] <= 1e-12
    assert len(out["tree"]["nodes"]) == 4  # latent hub plus the three variables
    p = write_model(tmp_path, "star.json", out)
    # with the hub made explicit the joint covariance graph is the star itself
    r2 = run_cli("embed-check", p)
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["summary"] == "markov graph is a forest"


def test_embed3_rejects_non_embeddable(tmp_path):
    p = write_model(tmp_path, "bad.json", {
        "covariance": {"labels": ["a", "b", "c"],
                       "matrix": [["1", "0.3", "-0.3"],
                                  ["0.3", "1", "0.3"],
                                  ["-0.3", "0.3", "1"]]}})
    r = run_cli("embed3", p)
    assert r.returncode == 1
    assert json.loads(r.stderr)["code"] == "not-embeddable"


def test_reduce_figure_fixture(tmp_path):
    r = run_cli("reduce", fixture_path("figure_tree"), "--target", "x1")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["leaf_map"] == {"x1": 1, "x2": 9, "x3": 13, "x4": 14}
    assert out["cov_max_dev"] <= 1e-10
    assert out["binary_tree"]["depth"] == 5
    # output feeds the bound solvers directly
    p = write_model(tmp_path, "reduced.json", out)
    ri = run_cli("inner", "--tree", p, "-d", "0.5", "--starts", "4")
    assert ri.returncode == 0
    val = json.loads(ri.stdout)["value_nats"]
    assert val == pytest.approx(0.5 * math.log(2.0), abs=1e-6)


def test_number_beyond_float_range_is_input_error(tmp_path):
    p = write_model(tmp_path, "huge.json",
                    {"binary_tree": {"depth": 1, "root_var": "1e400", "nodes": []}})
    r = run_cli("inner", "--tree", p, "-d", "0.5")
    assert r.returncode == 2
    assert json.loads(r.stderr)["code"] == "bad-number"


def test_reduce_unknown_target():
    r = run_cli("reduce", fixture_path("figure_tree"), "--target", "zzz")
    assert r.returncode == 2
    assert json.loads(r.stderr)["code"] == "unknown-node"


def test_inner_weights_and_output_shape():
    # four values, one per observation in sorted id order
    r = run_cli("inner", "--tree", fixture_path("figure_tree"), "-d", "0.5",
                "--weights", "1,0.5,1,0.5", "--starts", "4")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["value_bits"] == pytest.approx(out["value_nats"] / math.log(2.0))
    assert len(out["rates_nats"]) == len(out["alpha"])
    assert out["achieved_distortion"] <= 0.5 + 1e-9
    bad = run_cli("inner", "--tree", fixture_path("figure_tree"), "-d", "0.5",
                  "--weights", "1,2,3")
    assert bad.returncode == 2
    assert json.loads(bad.stderr)["code"] == "bad-weights"


def test_inner_infeasible_distortion_exit_code():
    r = run_cli("inner", "--tree", fixture_path("figure_tree"), "-d", "0")
    assert r.returncode == 1
    assert json.loads(r.stderr)["code"] == "infeasible-distortion"


@pytest.mark.parametrize("cmd", ["inner", "outer", "region-slice"])
def test_non_finite_distortion_is_input_error(cmd):
    pair = ["--pair", "x1,x2"] if cmd == "region-slice" else []
    for d in ("nan", "inf"):
        r = run_cli(cmd, "--tree", fixture_path("figure_tree"), "-d", d, *pair)
        assert r.returncode == 2
        assert r.stdout == ""
        assert json.loads(r.stderr)["code"] == "bad-number"


@pytest.mark.parametrize("cmd", ["inner", "outer"])
def test_non_finite_weights_are_input_errors(cmd):
    r = run_cli(cmd, "--tree", fixture_path("figure_tree"), "-d", "0.6",
                "--weights", "nan,1,1,1")
    assert r.returncode == 2
    assert json.loads(r.stderr)["code"] == "bad-weights"


def test_outer_matches_inner_on_fixture():
    ri = run_cli("inner", "--tree", fixture_path("figure_tree"), "-d", "0.6",
                 "--starts", "6")
    ro = run_cli("outer", "--tree", fixture_path("figure_tree"), "-d", "0.6")
    assert ri.returncode == 0 and ro.returncode == 0
    iv = json.loads(ri.stdout)["value_nats"]
    ov = json.loads(ro.stdout)["value_nats"]
    assert ov <= iv + 1e-6
    assert iv - ov <= 5e-3


def test_outer_rates_cover_all_nodes():
    # figure tree binarizes to depth 3 with its 4 observations as leaves
    r = run_cli("outer", "--tree", fixture_path("figure_tree"), "-d", "0.6")
    out = json.loads(r.stdout)
    levels = {(row["level"], row["pos"]) for row in out["rates"]}
    assert levels == {(k, i) for k in range(1, 4) for i in range(1, 2 ** (k - 1) + 1)}


def test_verify_matchup_report():
    r = run_cli("verify-matchup", "--tree", fixture_path("figure_tree"),
                "-d", "0.5", "--weights-grid", "2", "--starts", "6")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert len(out["rows"]) == 2
    assert out["passed"] is True
    assert out["max_gap"] <= out["tol"]


TWO_ENCODER = {"binary_tree": {
    "depth": 2, "root_var": "1",
    "nodes": [
        {"level": 2, "pos": 1, "alpha": "0.9", "noise_var": "0.19"},
        {"level": 2, "pos": 2, "alpha": "0.7", "noise_var": "0.51"},
    ],
}}


@pytest.mark.parametrize("level", ["x", 2.7])
def test_non_integer_binary_level_is_input_error(tmp_path, level):
    # "x" printed a ValueError traceback with exit 1; 2.7 was read as level 2
    obj = json.loads(json.dumps(TWO_ENCODER))
    obj["binary_tree"]["nodes"][0]["level"] = level
    r = run_cli("inner", "--tree", write_model(tmp_path, "bad.json", obj), "-d", "0.5")
    assert r.returncode == 2
    assert r.stdout == ""
    assert json.loads(r.stderr)["code"] == "bad-model"


def test_outer_diagnostics_of_the_convex_solve(tmp_path):
    p = write_model(tmp_path, "two.json", TWO_ENCODER)
    runs = [run_cli("outer", "--tree", p, "-d", "0.55") for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout  # no wall times: the output is deterministic
    diag = json.loads(runs[0].stdout)["diagnostics"]
    assert set(diag) == {"iterations", "converged", "subsets"}
    assert diag["converged"] is True
    assert isinstance(diag["iterations"], int) and diag["iterations"] >= 1
    assert diag["subsets"] == 3  # every nonempty subset of two encoders


def test_outer_diagnostics_on_a_copy_edge_tree(tmp_path):
    # the figure tree reduced at x1 has zero-noise copy edges and padding
    reduced = run_cli("reduce", fixture_path("figure_tree"), "--target", "x1")
    p = write_model(tmp_path, "reduced.json", json.loads(reduced.stdout))
    r = run_cli("outer", "--tree", p, "-d", "0.6")
    assert r.returncode == 0
    assert json.loads(r.stdout)["diagnostics"]["converged"] is True
    ri = run_cli("inner", "--tree", p, "-d", "0.6")
    assert ri.returncode == 0
    assert json.loads(r.stdout)["value_nats"] <= json.loads(ri.stdout)["value_nats"] + 1e-8


def test_region_slice_csv(tmp_path):
    dest = tmp_path / "slice.csv"
    p = write_model(tmp_path, "two.json", TWO_ENCODER)
    r = run_cli("region-slice", "--tree", p, "-d", "0.55", "--pair", "1,2",
                "--points", "9", "--starts", "6", "--out", str(dest))
    assert r.returncode == 0
    lines = dest.read_text().strip().splitlines()
    assert lines[0] == "ra_nats,rb_nats,ra_bits,rb_bits"
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    # a genuine trade-off survives the Pareto filter with several corners
    assert len(rows) >= 4
    ra = [row[0] for row in rows]
    rb = [row[1] for row in rows]
    assert all(x <= y + 1e-9 for x, y in zip(ra, ra[1:]))
    assert all(x >= y - 1e-9 for x, y in zip(rb, rb[1:]))
    for row in rows:
        assert row[2] == pytest.approx(row[0] / math.log(2.0), abs=1e-12)


def test_region_slice_labels_resolve_through_leaf_map(tmp_path):
    # helpers left unconstrained can cover the target, so the slice collapses
    r = run_cli("region-slice", "--tree", fixture_path("figure_tree"),
                "-d", "0.5", "--pair", "x1,x4", "--points", "3", "--starts", "4")
    assert r.returncode == 0
    assert r.stdout.startswith("ra_nats,rb_nats")
    byidx = run_cli("region-slice", "--tree", fixture_path("figure_tree"),
                    "-d", "0.5", "--pair", "1,4", "--points", "3", "--starts", "4")
    assert byidx.stdout == r.stdout
    bad = run_cli("region-slice", "--tree", fixture_path("figure_tree"),
                  "-d", "0.5", "--pair", "x1,zz")
    assert bad.returncode == 2
    assert json.loads(bad.stderr)["code"] == "bad-pair"


def test_region_slice_refuses_unreachable_distortion():
    # the figure tree's all-observations MMSE is 0.334
    for d in ("0.2", "0"):
        r = run_cli("region-slice", "--tree", fixture_path("figure_tree"), "-d", d,
                    "--pair", "x1,x2", "--points", "3", "--starts", "1")
        assert r.returncode == 1
        assert r.stdout == ""
        assert json.loads(r.stderr)["code"] == "infeasible-distortion"


def test_region_slice_rejects_unused_solver_flags():
    r = run_cli("region-slice", "--tree", fixture_path("figure_tree"),
                "-d", "0.5", "--pair", "1,4", "--iters", "5")
    assert r.returncode == 2


def test_lattice_json():
    r = run_cli("lattice", "--sigma2", "100", "-n", "6", "-m", "3",
                "--samples", "20000", "--seed", "5")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["within_bound"] is True
    assert out["sum_rate_nats"] == pytest.approx(18 * math.log(2.0))
    assert out["se"] > 0


def test_lattice_rejects_small_sigma2():
    r = run_cli("lattice", "--sigma2", "0.4", "-n", "6", "-m", "3",
                "--samples", "1000")
    assert r.returncode == 1
    assert json.loads(r.stderr)["code"] == "sigma2-out-of-range"


@pytest.mark.parametrize("argv", [
    ["lattice", "--sigma2", "nan", "-n", "8", "-m", "4", "--samples", "1000"],
    ["lattice", "--sigma2", "inf", "-n", "8", "-m", "4", "--samples", "1000"],
    ["divergence", "--sigma2-grid", "10", "-d", "nan", "-n", "8", "-m", "4",
     "--samples", "1000"],
    ["divergence", "--sigma2-grid", "10,inf", "-d", "0.5", "-n", "8", "-m", "4",
     "--samples", "1000"],
])
def test_non_finite_lattice_inputs_are_input_errors(argv):
    # a NaN sigma2 used to exit 0 with "mse": NaN, which is not JSON
    r = run_cli(*argv)
    assert r.returncode == 2
    assert r.stdout == ""
    assert json.loads(r.stderr)["code"] == "bad-number"


def test_main_leaves_the_host_logging_alone():
    # in a fresh interpreter, so no test harness handler is on the root logger
    code = (
        "import logging, sys\n"
        "from gmtree import cli\n"
        "root = logging.getLogger()\n"
        "before = (list(root.handlers), root.level)\n"
        "status = cli.main(['lattice', '--sigma2', '10', '-n', '8', '-m', '4',\n"
        "                   '--samples', '1000'])\n"
        "assert status == 0\n"
        "assert (list(root.handlers), root.level) == before, (root.handlers, root.level)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def _scipy_after(*argvs):
    """The scipy modules a fresh interpreter holds after ``import gmtree,
    gmtree.cli`` and a ``cli.main`` run on each argv in turn."""
    code = (
        "import contextlib, io, json, sys\n"
        "import gmtree, gmtree.cli\n"
        f"for argv in {list(argvs)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert gmtree.cli.main(argv) == 0, argv\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


def test_import_loads_no_scipy():
    assert _scipy_after() == []


def test_inner_side_commands_load_no_scipy():
    fig = fixture_path("figure_tree")
    assert _scipy_after(
        ["reduce", fig, "--target", "x1"],
        ["inner", "--tree", fig, "-d", "0.5", "--starts", "1"],
        ["region-slice", "--tree", fig, "-d", "0.5", "--pair", "x1,x2",
         "--points", "3", "--starts", "1"],
        ["embed-check", fixture_path("allquarter3")],
    ) == []


def test_outer_loads_scipy_at_its_first_solve():
    mods = _scipy_after(["outer", "--tree", fixture_path("figure_tree"), "-d", "0.6"])
    assert "scipy.optimize" in mods


def test_divergence_csv_and_json(tmp_path):
    dest = tmp_path / "div.csv"
    r = run_cli("divergence", "--sigma2-grid", "10,1e3,1e6", "-d", "0.5",
                "-n", "8", "-m", "4", "--samples", "20000", "--out", str(dest))
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["separation_monotone"] is True
    assert out["lattice_within_target"] is True
    lines = dest.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("sigma2,")


def test_worst_case_cli():
    r = run_cli("worst-case", "--tree", fixture_path("figure_tree"),
                "--dist", "uniform", "--samples", "60000", "--seed", "3")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["passed"] is True
    assert abs(out["gap"]) <= 3 * out["se"]


def test_seed_determinism():
    a = run_cli("inner", "--tree", fixture_path("figure_tree"), "-d", "0.5",
                "--starts", "4", "--seed", "9")
    b = run_cli("inner", "--tree", fixture_path("figure_tree"), "-d", "0.5",
                "--starts", "4", "--seed", "9")
    assert a.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize("cmd", ["inner", "outer", "verify-matchup", "region-slice"])
@pytest.mark.parametrize("flag", ["--tol", "--iters"])
def test_removed_search_flags_are_usage_errors(cmd, flag):
    args = [cmd, "--tree", fixture_path("figure_tree"), "-d", "0.6", flag, "5"]
    if cmd == "region-slice":
        args += ["--pair", "x1,x2"]
    r = run_cli(*args)
    assert r.returncode == 2
    assert "unrecognized arguments" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("cmd, flag", [
    ("inner", "--starts"),
    ("verify-matchup", "--weights-grid"), ("region-slice", "--points"),
])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_non_positive_search_budget_is_input_error(cmd, flag, value):
    args = [cmd, "--tree", fixture_path("figure_tree"), "-d", "0.6", flag, value]
    if cmd == "region-slice":
        args += ["--pair", "x1,x2"]
    r = run_cli(*args)
    assert r.returncode == 2
    assert "positive" in r.stderr
    assert r.stdout == ""


LATTICE_ARGS = ["lattice", "--sigma2", "10", "-n", "8", "-m", "4", "--samples", "1000"]
SLICE_ARGS = ["region-slice", "--tree", fixture_path("figure_tree"), "-d", "0.5",
              "--pair", "x1,x2", "--points", "3", "--starts", "1"]
INNER_ARGS = ["inner", "--tree", fixture_path("figure_tree"), "-d", "0.5"]


@pytest.mark.parametrize("argv, env", [
    (LATTICE_ARGS, {"GMTREE_STARTS": "0", "GMTREE_ITERS": "0", "GMTREE_TOL": "abc"}),
    (SLICE_ARGS, {"GMTREE_TOL": "abc", "GMTREE_ITERS": "0"}),
    (INNER_ARGS, {"GMTREE_SEED": "9", "GMTREE_STARTS": "0", "GMTREE_TOL": "abc"}),
])
def test_bad_env_default_of_an_absent_option_is_ignored(argv, env):
    # no option reads the environment: GMTREE_* values, good or bad, change nothing
    r = run_cli(*argv, env_extra=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout == run_cli(*argv).stdout


NON_PSD = {"covariance": {"labels": ["x1", "x2", "x3"], "matrix": [
    ["1", "9/10", "-9/10"], ["9/10", "1", "9/10"], ["-9/10", "9/10", "1"]]}}


@pytest.mark.parametrize("cmd", ["embed-check", "embed3"])
def test_non_psd_covariance_is_input_error(tmp_path, cmd):
    r = run_cli(cmd, write_model(tmp_path, "nonpsd.json", NON_PSD))
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stderr)["code"] == "bad-covariance"
    assert r.stdout == ""


def test_nan_channel_is_input_error():
    r = run_cli("worst-case", "--tree", fixture_path("figure_tree"),
                "--alpha", "nan,0.5,0.5,0.5", "--samples", "1000")
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stderr)["code"] == "bad-channel"


@pytest.mark.parametrize("cmd, flag", [
    ("inner", "--starts"), ("verify-matchup", "--starts"),
    ("verify-matchup", "--weights-grid"), ("region-slice", "--points"),
    ("region-slice", "--starts"),
])
def test_non_positive_budget_is_refused_where_no_search_runs(cmd, flag):
    # d = 2 is above figure_tree's root variance: the silent channel meets it
    args = [cmd, "--tree", fixture_path("figure_tree"), "-d", "2", flag, "0"]
    if cmd == "region-slice":
        args += ["--pair", "x1,x2"]
    r = run_cli(*args)
    assert r.returncode == 2
    assert json.loads(r.stderr)["code"] == "bad-budget"
    assert "positive" in r.stderr
    assert r.stdout == ""


def test_main_builds_its_parser_once(monkeypatch, capsys):
    from gmtree import cli

    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    model = fixture_path("allquarter3")
    out = []
    try:
        for cmd in ("embed-check", "embed3", "embed-check"):
            assert cli.main([cmd, model]) == 0
            out.append(capsys.readouterr().out)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert out[0] == out[2] and out[0] != out[1]
