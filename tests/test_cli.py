"""Command-line behaviour: where --out-root may appear, and configs that are
invalid or cannot be built, which validate, run and batch each end with exit
2 and a message."""

import argparse
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml

from geodescent import cli, objectives
from geodescent.geometry import Sphere
from geodescent.harness import ConfigError, build_objective, load_config, run_experiment


def _write(path, **over):
    cfg = {
        "manifold": {"kind": "hyperboloid", "n": 2, "kappa": 1.0},
        "objective": {"kind": "squared_distance", "seed": 3,
                      "target_distance": 0.8, "domain_radius": 2.0},
        "algorithm": {"kind": "rgd"},
        "run": {"k_max": 20, "x0_seed": 5, "x0_distance": 1.0},
        "output": {"trace": f"{path.stem}.jsonl", "report": f"{path.stem}.json"},
    }
    cfg.update(over)
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return str(path)


def _unbuildable(path):
    # loads, but a sphere ball of radius 2 has diameter above pi
    return _write(path, manifold={"kind": "sphere", "n": 2},
                  objective={"kind": "frechet_mean", "seed": 1, "domain_radius": 2.0})


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_out_root_before_or_after_the_subcommand(tmp_path, before):
    cfg = _write(tmp_path / "a.yaml")
    root = str(tmp_path / "out")
    argv = ["--out-root", root, "run", cfg] if before else ["run", cfg, "--out-root", root]
    assert cli.main(argv) == 0
    assert sorted(os.listdir(root)) == ["a.json", "a.jsonl"]


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    # the parser is kept for the process; --out-root still parses before
    # and after the subcommand on every later call
    cfg = _write(tmp_path / "a.yaml")
    assert cli.main(["--out-root", str(tmp_path / "first"), "validate", cfg]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv, root in [(["--out-root", str(tmp_path / "before"), "run", cfg], "before"),
                       (["run", cfg, "--out-root", str(tmp_path / "after")], "after")]:
        assert cli.main(argv) == 0
        assert sorted(os.listdir(tmp_path / root)) == ["a.json", "a.jsonl"]
    assert built == []


def test_out_root_after_the_subcommand_wins(tmp_path):
    cfg = _write(tmp_path / "a.yaml")
    first, second = str(tmp_path / "first"), str(tmp_path / "second")
    assert cli.main(["--out-root", first, "run", cfg, "--out-root", second]) == 0
    assert os.path.exists(os.path.join(second, "a.json"))
    assert not os.path.exists(first)


def test_unbuildable_config_is_a_config_error(tmp_path):
    cfg = load_config(_unbuildable(tmp_path / "bad.yaml"))
    with pytest.raises(ConfigError, match="GeometryError"):
        run_experiment(cfg, str(tmp_path / "out"))


def test_run_reports_an_unbuildable_config(tmp_path, capsys):
    cfg = _unbuildable(tmp_path / "bad.yaml")
    assert cli.main(["validate", cfg]) == 2
    assert "invalid: " in capsys.readouterr().out
    assert cli.main(["--out-root", str(tmp_path / "out"), "run", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_validate_builds_without_writing(tmp_path, monkeypatch, capsys):
    # a Frechet mean builds its reference minimizer, which run caches on disk
    cfg = _write(tmp_path / "fm.yaml", objective={"kind": "frechet_mean", "seed": 1})
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    assert cli.main(["--out-root", str(tmp_path / "out"), "validate", cfg]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_the_default_rayleigh_diagonal_fits_any_sphere(tmp_path, capsys):
    # the default diag has one entry per ambient coordinate: 2, 1, 0.5, 0.25 on S^3
    cfg = _write(tmp_path / "s3.yaml", manifold={"kind": "sphere", "n": 3},
                 objective={"kind": "sphere_rayleigh"})
    assert cli.main(["validate", cfg]) == 0
    assert capsys.readouterr().out == "ok\n"
    root = str(tmp_path / "out")
    assert cli.main(["--out-root", root, "run", cfg]) == 0
    assert sorted(os.listdir(root)) == ["s3.json", "s3.jsonl"]
    with open(os.path.join(root, "s3.json")) as fh:
        assert "diag" not in json.load(fh)["config"]["objective"]
    for n in (2, 3):
        Q = build_objective({"kind": "sphere_rayleigh"}, Sphere(n)).Q
        assert np.diag(Q).tolist() == [2.0, 1.0, 0.5, 0.25][:n + 1]


def test_batch_continues_past_an_unbuildable_config(tmp_path, capsys):
    configs = tmp_path / "configs"
    configs.mkdir()
    _unbuildable(configs / "a_bad.yaml")
    _write(configs / "b_good.yaml")
    root = tmp_path / "out"
    assert cli.main(["--out-root", str(root), "batch", str(configs)]) == 2
    out = capsys.readouterr().out
    assert "a_bad.yaml] exit 2" in out and "b_good.yaml] exit 0" in out
    assert (root / "b_good.json").exists()


def test_a_reference_minimizer_that_does_not_converge_is_a_config_error(
        tmp_path, monkeypatch, capsys):
    # the real solver takes 200,000 steps on this config before it gives up;
    # cut to one step, it gives up at once, through the same error
    solve = objectives.reference_minimize
    monkeypatch.setattr(objectives, "reference_minimize",
                        lambda obj, x0: solve(obj, x0, max_iter=1))
    configs = tmp_path / "configs"
    configs.mkdir()
    cfg = _write(configs / "a_far.yaml",
                 objective={"kind": "frechet_mean", "seed": 0, "num_points": 5,
                            "spread": 3.0, "domain_radius": 100000.0})
    _write(configs / "b_good.yaml")
    root = str(tmp_path / "out")
    message = "cannot build the experiment: ReferenceMinimizationError: reference minimization"
    assert cli.main(["validate", cfg]) == 2
    out, err = capsys.readouterr()
    assert out.startswith(f"invalid: {message}") and "Traceback" not in out + err
    assert cli.main(["--out-root", root, "run", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert cli.main(["--out-root", root, "batch", str(configs)]) == 2
    out = capsys.readouterr().out
    assert "a_far.yaml] exit 2" in out and "b_good.yaml] exit 0" in out


@pytest.mark.parametrize("oracle", ["bogus", "cubic_newton", "accelerated"])
def test_validate_rejects_an_unknown_oracle(tmp_path, capsys, oracle):
    cfg = _write(tmp_path / "acc.yaml",
                 algorithm={"kind": "accelerated", "mode": "strongly", "oracle": oracle,
                            "eta": 0.005})
    assert cli.main(["validate", cfg]) == 2
    assert "invalid: algorithm.oracle must be one of" in capsys.readouterr().out


_RUN = {"k_max": 20, "x0_seed": 5, "x0_distance": 1.0}


@pytest.mark.parametrize("over, message", [
    ({"algorithm": {"kind": "rgd", "eta": None}}, "cannot build the experiment: TypeError"),
    ({"run": {**_RUN, "x0_distance": None}}, "cannot build the experiment: TypeError"),
    ({"algorithm": {"kind": "rgd", "eta": True}}, "algorithm.eta must be a positive number"),
    ({"algorithm": {"kind": "cubic_newton", "M": True}}, "algorithm.M must be a positive number"),
    ({"run": {**_RUN, "k_max": True}}, "run.k_max must be a positive integer"),
    ({"run": {**_RUN, "k_max": 0}}, "run.k_max must be a positive integer"),
    ({"objective": {"kind": "squared_distance", "seed": None}},
     "objective.seed must be a nonnegative integer"),
    ({"run": {**_RUN, "x0_seed": None}}, "run.x0_seed must be a nonnegative integer"),
    ({"run": {**_RUN, "x0_seed": True}}, "run.x0_seed must be a nonnegative integer"),
    ({"run": {**_RUN, "x0_seed": 1.5}}, "run.x0_seed must be a nonnegative integer"),
    ({"algorithm": {"kind": "cubic_newton", "rho_seed": "7"}},
     "algorithm.rho_seed must be a nonnegative integer"),
    ({"algorithm": {"kind": "proximal", "tol_prox": 0}},
     "algorithm.tol_prox must be a positive number"),
    ({"algorithm": {"kind": "proximal", "tol_prox": -1e-9}},
     "algorithm.tol_prox must be a positive number"),
    ({"algorithm": {"kind": "proximal", "tol_prox": True}},
     "algorithm.tol_prox must be a positive number"),
], ids=["eta-null", "x0_distance-null", "eta-true", "M-true", "k_max-true", "k_max-zero",
        "seed-null", "x0_seed-null", "x0_seed-true", "x0_seed-float", "rho_seed-string",
        "tol_prox-zero", "tol_prox-negative", "tol_prox-true"])
def test_null_and_boolean_numbers_are_config_errors(tmp_path, capsys, over, message):
    _assert_config_error(tmp_path, capsys, over, message)


@pytest.mark.parametrize("over, message", [
    ({"manifold": {"kind": "hyperboloid", "n": -1}}, "manifold.n must be a positive integer"),
    ({"manifold": {"kind": "hyperboloid", "n": 2.5}}, "manifold.n must be a positive integer"),
    ({"run": [1, 2]}, "missing or malformed section 'run'"),
    ({"output": {"trace": "."}}, "output.trace must be a file path"),
], ids=["n-negative", "n-float", "run-list", "trace-directory"])
def test_bad_dimension_section_or_output_path_is_a_config_error(tmp_path, capsys, over, message):
    _assert_config_error(tmp_path, capsys, over, message)


_H2 = {"kind": "hyperboloid", "n": 2}
_SQDIST = {"kind": "squared_distance", "seed": 3}


@pytest.mark.parametrize("over, message", [
    ({"objective": {**_SQDIST, "target_distance": True}},
     "objective.target_distance must be a nonnegative number"),
    ({"objective": {**_SQDIST, "target_distance": -0.5}},
     "objective.target_distance must be a nonnegative number"),
    ({"objective": {**_SQDIST, "domain_radius": "2"}},
     "objective.domain_radius must be a positive number"),
    ({"objective": {**_SQDIST, "domain_radius": 0.0}},
     "objective.domain_radius must be a positive number"),
    ({"objective": {"kind": "frechet_mean", "seed": 1, "spread": float("inf")}},
     "objective.spread must be a nonnegative number"),
    ({"run": {**_RUN, "x0_distance": True}}, "run.x0_distance must be a nonnegative number"),
    ({"run": {**_RUN, "x0_distance": float("nan")}},
     "run.x0_distance must be a nonnegative number"),
    ({"run": {**_RUN, "domain_radius": float("nan")}},
     "run.domain_radius must be a positive number"),
    ({"run": {**_RUN, "domain_radius": float("inf")}},
     "run.domain_radius must be a positive number"),
    ({"manifold": {**_H2, "kappa": float("nan")}}, "manifold.kappa must be a positive number"),
    ({"manifold": {**_H2, "kappa": True}}, "manifold.kappa must be a positive number"),
    ({"manifold": {"kind": "sphere", "n": 2, "radius": -1.0},
      "objective": {"kind": "sphere_rayleigh"}}, "manifold.radius must be a positive number"),
], ids=["target_distance-true", "target_distance-negative", "domain_radius-string",
        "domain_radius-zero", "spread-inf", "x0_distance-true", "x0_distance-nan",
        "run-domain_radius-nan", "run-domain_radius-inf", "kappa-nan", "kappa-true",
        "radius-negative"])
def test_geometric_numbers_out_of_range_are_config_errors(tmp_path, capsys, over, message):
    _assert_config_error(tmp_path, capsys, over, message)


_FRECHET = {"kind": "frechet_mean", "seed": 1}


@pytest.mark.parametrize("over, message", [
    ({"algorithm": {"kind": "rgd", "etta": 0.1}},
     "unknown key algorithm.etta for algorithm.kind 'rgd'"),
    ({"run": {"k_mx": 4}}, "unknown key run.k_mx"),
    ({"objective": {**_SQDIST, "diag": [1.0, 2.0, 3.0]}},
     "unknown key objective.diag for objective.kind 'squared_distance'"),
    ({"algorithm": {"kind": "cubic_newton", "mode": "strongly"}},
     "unknown key algorithm.mode for algorithm.kind 'cubic_newton'"),
    ({"objective": {**_FRECHET, "num_points": True}},
     "objective.num_points must be a positive integer"),
    ({"objective": {**_FRECHET, "num_points": 2.5}},
     "objective.num_points must be a positive integer"),
    ({"objective": {**_FRECHET, "num_points": 0}},
     "objective.num_points must be a positive integer"),
    ({"objective": {**_FRECHET, "num_points": -3}},
     "objective.num_points must be a positive integer"),
    ({"manifold": {"kind": "euclidean", "n": 2},
      "objective": {"kind": "quadratic", "b": [0.0, 0.0, 0.0]}},
     "objective.b must be a list of 2 numbers"),
    ({"run": {**_RUN, "x0": [1.0, 0.0]}}, "run.x0 must be a list of 3 numbers"),
    ({"objective": {**_SQDIST, "domain_center": "bogus"}},
     "objective.domain_center must be one of ('origin', 'target'), got 'bogus'"),
], ids=["etta", "k_mx", "diag-on-squared_distance", "mode-on-cubic_newton",
        "num_points-true", "num_points-float", "num_points-zero", "num_points-negative",
        "b-length", "x0-length", "domain_center-bogus"])
def test_unread_keys_and_unchecked_values_are_config_errors(tmp_path, capsys, over, message):
    _assert_config_error(tmp_path, capsys, over, message)


@pytest.mark.parametrize("over, message", [
    ({"manifold": {"kind": "sphere", "n": 2, "radius": None},
      "objective": {"kind": "sphere_rayleigh"}}, "cannot build the experiment: TypeError"),
    ({"manifold": {"kind": "hyperboloid", "n": 2, "kappa": None}},
     "cannot build the experiment: TypeError"),
    # numpy refuses the Minkowski signature's length at once, allocating nothing
    ({"manifold": {"kind": "hyperboloid", "n": 2**62}}, "cannot build the experiment: ValueError"),
    # the curvature 1/radius^2 overflows, or underflows to a division by zero
    ({"manifold": {"kind": "sphere", "n": 2, "radius": 1e300},
      "objective": {"kind": "sphere_rayleigh"}}, "cannot build the experiment: OverflowError"),
    ({"manifold": {"kind": "sphere", "n": 2, "radius": 1e-300},
      "objective": {"kind": "sphere_rayleigh"}},
     "cannot build the experiment: ZeroDivisionError"),
], ids=["radius-null", "kappa-null", "n-too-large", "radius-1e300", "radius-1e-300"])
def test_a_manifold_that_cannot_be_built_is_a_config_error(tmp_path, capsys, over, message):
    # load_config builds the manifold for the vector lengths; it leaves these
    # to the experiment's builder, which reports them as it does a null eta
    _assert_config_error(tmp_path, capsys, over, message)


def test_quadratic_scales_that_are_not_positive_are_a_config_error(tmp_path, capsys):
    # the config table takes any finite numbers; the objective refuses them
    _assert_config_error(tmp_path, capsys,
                         {"manifold": {"kind": "euclidean", "n": 2},
                          "objective": {"kind": "quadratic", "scales": [1.0, -1.0]}},
                         "cannot build the experiment: ValueError: "
                         "quadratic scales must be positive")


def test_a_missing_k_max_is_a_warning_of_run_and_validate(tmp_path, capsys):
    cfg = _write(tmp_path / "a.yaml", run={"x0_seed": 5, "x0_distance": 1.0})
    warning = "warning: run.k_max missing, defaulting to 1000\n"
    assert cli.main(["validate", cfg]) == 0
    assert capsys.readouterr().out == warning + "ok\n"
    root = tmp_path / "out"
    assert cli.main(["--out-root", str(root), "run", cfg]) == 0
    assert capsys.readouterr().err == warning
    assert json.loads((root / "a.json").read_text())["k_max"] == 1000


def test_an_absolute_output_path_is_written_where_it_points(tmp_path):
    trace = tmp_path / "elsewhere" / "t.jsonl"
    cfg = _write(tmp_path / "a.yaml", output={"trace": str(trace), "report": "a.json"})
    root = tmp_path / "out"
    assert cli.main(["--out-root", str(root), "run", cfg]) == 0
    assert sorted(os.listdir(root)) == ["a.json"]
    assert len(cli.load_trace(trace).records) == 21


def test_compare_of_traces_from_different_x0_exits_2(tmp_path, capsys):
    root = tmp_path / "out"
    for name, seed in [("a", 5), ("b", 6)]:
        cfg = _write(tmp_path / f"{name}.yaml", run={**_RUN, "x0_seed": seed})
        assert cli.main(["--out-root", str(root), "run", cfg]) == 0
    capsys.readouterr()
    argv = ["--out-root", str(root), "compare", str(root / "a.jsonl"), str(root / "b.jsonl")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: traces start from different x0\n"


def test_an_overflow_in_a_run_ends_in_its_error_without_a_numpy_warning(tmp_path, capsys):
    # eta * grad f reaches ~1e300 and the proximal residual overflows to nan
    cfg = _write(tmp_path / "a.yaml", objective={"kind": "squared_distance"},
                 algorithm={"kind": "proximal", "eta": 1.0e300}, run={"k_max": 5})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["--out-root", str(tmp_path / "out"), "run", cfg]) == 1
    assert "error: ProximalSolverError: optimality residual nan is not finite " \
           "at inner iteration 1" in capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_a_certificate_constant_that_overflows_is_reported(tmp_path, capsys):
    # validate accepts rho = 1e-300; the cubic certificate's
    # (theta + rho/2 + M)^(-3/2) overflows once the run starts
    cfg = _write(tmp_path / "a.yaml", algorithm={"kind": "cubic_newton", "rho": 1e-300})
    assert cli.main(["validate", cfg]) == 0
    capsys.readouterr()
    root = tmp_path / "out"
    assert cli.main(["--out-root", str(root), "run", cfg]) == 1
    out, err = capsys.readouterr()
    assert "error: OverflowError" in err and "Traceback" not in out + err
    report = json.loads((root / "a.json").read_text())
    assert report["exit_code"] == 1
    assert [e.split(":")[0] for e in report["errors"]] == ["OverflowError"]


def _assert_config_error(tmp_path, capsys, over, message):
    """validate, run and batch each reject the config with exit 2 and
    ``message``, not a traceback, and batch goes on to a good config after it."""
    configs = tmp_path / "configs"
    configs.mkdir()
    bad = _write(configs / "a_bad.yaml", **over)
    _write(configs / "b_good.yaml")
    assert cli.main(["validate", bad]) == 2
    out, err = capsys.readouterr()
    assert f"invalid: {message}" in out and "Traceback" not in out + err
    root = tmp_path / "out"
    assert cli.main(["--out-root", str(root), "run", bad]) == 2
    out, err = capsys.readouterr()
    assert f"config error: {message}" in err and "Traceback" not in out + err
    assert cli.main(["--out-root", str(root), "batch", str(configs)]) == 2
    out = capsys.readouterr().out
    assert "a_bad.yaml] exit 2" in out and "b_good.yaml] exit 0" in out
    assert (root / "b_good.json").exists() and not (root / "a_bad.json").exists()


def test_unwritable_output_and_missing_config_exit_2(tmp_path, capsys):
    configs = tmp_path / "configs"
    configs.mkdir()
    bad = _write(configs / "a_bad.yaml")
    _write(configs / "b_good.yaml")
    root = tmp_path / "out"
    (root / "a_bad.json").mkdir(parents=True)  # the report path is a directory
    assert cli.main(["--out-root", str(root), "run", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "a_bad.json" in err
    assert cli.main(["--out-root", str(root), "batch", str(configs)]) == 2
    out = capsys.readouterr().out
    assert "a_bad.yaml] exit 2" in out and "b_good.yaml] exit 0" in out
    missing = str(tmp_path / "missing.yaml")
    assert cli.main(["validate", missing]) == 2
    assert "invalid: cannot read the config" in capsys.readouterr().out
    assert cli.main(["--out-root", str(root), "run", missing]) == 2
    assert "config error: cannot read the config" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing", "file"])
def test_batch_of_a_missing_directory_or_a_file_exits_2(tmp_path, capsys, target):
    path = tmp_path / "missing" if target == "missing" else _write(tmp_path / "a.yaml")
    assert cli.main(["--out-root", str(tmp_path / "out"), "batch", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_importing_the_cli_loads_no_scipy():
    # geodescent does not depend on scipy: neither importing the CLI nor
    # running a cubic-Newton step, whose subproblem is solved in-house, loads it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, geodescent.cli\n"
        "from geodescent.descent import cubic_newton_step\n"
        "from geodescent.objectives import Quadratic\n"
        "obj = Quadratic([1.0, -2.0]).with_rho(1.0)\n"
        "x, s = cubic_newton_step(obj, obj.manifold.point([3.0, 4.0]), M=1.0, theta=0.5)\n"
        "assert obj.manifold.norm(obj.manifold.point([3.0, 4.0]), s) > 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_an_error_inside_a_run_is_not_taken_for_a_user_error(tmp_path, monkeypatch):
    # only the trace commands turn a ValueError into "error: ..." and exit 2
    def broken(cfg, out_root=None):
        raise ValueError("a fault in the library")

    monkeypatch.setattr(cli.harness, "run_experiment", broken)
    with pytest.raises(ValueError, match="a fault in the library"):
        cli.main(["--out-root", str(tmp_path / "out"), "run", _write(tmp_path / "a.yaml")])


_META = {"type": "meta", "schema": 1, "f_star": 0.0}
_ITER = {"type": "iter", "k": 0, "coords": [1.0, 0.0, 0.0], "f": 1.0, "grad_norm": 1.0,
         "slack": None}


@pytest.mark.parametrize("command, lines, message", [
    ("compare", [_META, {**_ITER, "k": None}], "line 2: iter record has no integer k"),
    ("compare", [_META, {k: v for k, v in _ITER.items() if k != "k"}],
     "line 2: iter record has no integer k"),
    ("fit", [_META, _ITER, {**_ITER, "k": 1.0}], "line 3: iter record has no integer k"),
    ("export", [_META, [_ITER]], "line 2: not a JSON object"),
    ("export", [_META, _ITER, "iter"], "line 3: not a JSON object"),
    ("fit", [{**_META, "f_star": "x"}, _ITER], "line 1: f_star is neither a number nor null"),
    ("compare", [{**_META, "f_star": True}, _ITER], "line 1: f_star is neither"),
    ("compare", [_META, {**_ITER, "f": "x"}], "line 2: f is neither a number nor null"),
    # export converts the other columns, and names the record that fails
    ("export", [_META, _ITER, {**_ITER, "k": 1, "grad_norm": "x"}],
     "iter record k=1: grad_norm is neither a number nor null"),
    ("export", [_META, {**_ITER, "slack": [1.0]}], "iter record k=0: slack is neither"),
    ("export", [_META, {**_ITER, "delta": {"a": 1.0}}], "iter record k=0: delta is neither"),
    ("export", [_META, {**_ITER, "E": 10**400}], "iter record k=0: E is neither"),
], ids=["k-null", "k-missing", "k-float", "list", "string", "f_star-string", "f_star-bool",
        "f-string", "grad_norm-string", "slack-list", "delta-object", "E-huge-int"])
def test_a_malformed_trace_record_exits_2_naming_its_line(tmp_path, capsys, command, lines,
                                                          message):
    trace = tmp_path / "a.jsonl"
    trace.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
    argv = {"fit": ["fit", str(trace), "--from", "0", "--to", "1"],
            "compare": ["compare", str(trace), str(trace)],
            "export": ["export", str(trace), str(tmp_path / "a.csv")]}[command]
    assert cli.main(["--out-root", str(tmp_path / "out")] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {trace}: ") and message in err


@pytest.mark.parametrize("command", ["fit", "compare"])
def test_fit_and_compare_read_only_k_and_f(tmp_path, capsys, command):
    trace = tmp_path / "a.jsonl"
    recs = [_META] + [{**_ITER, "k": k, "f": 2.0 ** -k, "grad_norm": "x", "slack": [k]}
                      for k in range(12)]
    trace.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    argv = {"fit": ["fit", str(trace), "--from", "1", "--to", "11"],
            "compare": ["compare", str(trace), str(trace)]}[command]
    assert cli.main(["--out-root", str(tmp_path / "out")] + argv) == 0
    assert capsys.readouterr().err == ""
    with pytest.raises(ValueError, match=r"a\.jsonl: iter record k=0: grad_norm is neither"):
        cli.load_trace(trace).column("grad_norm")


def test_compare_of_two_traces_with_one_file_name_keeps_both(tmp_path, capsys):
    # two runs with the default output names, in two roots
    traces = []
    for name, algorithm in [("a", {"kind": "rgd"}), ("b", {"kind": "proximal", "eta": 0.5})]:
        root = tmp_path / name
        assert cli.main(["--out-root", str(root), "run",
                         _write(tmp_path / f"{name}.yaml", algorithm=algorithm, output={})]) == 0
        traces.append(str(root / "trace.jsonl"))
    capsys.readouterr()
    out = tmp_path / "cmp"
    assert cli.main(["--out-root", str(out), "compare", *traces]) == 0
    assert sorted(os.listdir(out)) == ["comparison.csv", "trace-1.dat", "trace-2.dat"]
    csv = (out / "comparison.csv").read_text().splitlines()
    assert csv[0] == "k,gap_trace-1,gap_trace-2"
    gaps = np.array([row.split(",")[1:] for row in csv[1:]], dtype=float)
    assert np.any(gaps[:, 0] != gaps[:, 1])
    for j, name in enumerate(["trace-1.dat", "trace-2.dat"]):
        dat = np.loadtxt(out / name)
        np.testing.assert_array_equal(dat[: len(gaps), 1], gaps[:, j])


@pytest.mark.parametrize("command", ["fit", "compare"])
def test_fit_and_compare_of_a_trace_with_no_iteration_records_exit_2(tmp_path, capsys,
                                                                      command):
    # what a run killed before its first block of records leaves
    trace = tmp_path / "a.jsonl"
    trace.write_text(json.dumps(_META) + "\n")
    argv = {"fit": ["fit", str(trace), "--from", "1", "--to", "3"],
            "compare": ["compare", str(trace), str(trace)]}[command]
    assert cli.main(["--out-root", str(tmp_path / "out")] + argv) == 2
    assert capsys.readouterr().err == f"error: {trace}: no iteration records\n"
    # export still writes the header
    assert cli.main(["export", str(trace), str(tmp_path / "a.csv")]) == 0
    assert (tmp_path / "a.csv").read_text() == "k,f,grad_norm,slack\n"


@pytest.mark.parametrize("run", [
    {"k_max": 5, "x0_distance": 50.0},
    {"k_max": 5, "x0": [float(np.cosh(3.0)), float(np.sinh(3.0)), 0.0]},
], ids=["x0_distance", "x0"])
def test_a_start_point_outside_the_domain_is_a_config_error(tmp_path, capsys, run):
    # the squared distance's domain has radius 2
    _assert_config_error(tmp_path, capsys, {"run": run},
                         "cannot build the experiment: ValueError: the start point")


@pytest.mark.parametrize("eta, kappa, message", [
    ("1e-3", "1.0", "algorithm.eta must be a positive number, got '1e-3'"),
    ("1.0e-3", "1.0e200", "manifold.kappa must be a positive number, got '1.0e200'"),
    ("1.0e-3", "1.0e+2", None),
], ids=["eta", "kappa", "dot-and-sign"])
def test_every_config_type_error_shows_the_value_it_got(tmp_path, capsys, eta, kappa, message):
    # YAML 1.1 reads an exponent without a dot and a sign as a string
    path = tmp_path / "a.yaml"
    path.write_text(f"manifold: {{kind: hyperboloid, n: 2, kappa: {kappa}}}\n"
                    "objective: {kind: squared_distance, seed: 3}\n"
                    f"algorithm: {{kind: rgd, eta: {eta}}}\nrun: {{k_max: 5}}\n")
    assert cli.main(["validate", str(path)]) == (2 if message else 0)
    assert capsys.readouterr().out == (f"invalid: {message}\n" if message else "ok\n")
