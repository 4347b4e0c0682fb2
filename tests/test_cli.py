"""Command-line behaviour: where --out-root may appear, and configs that pass
validation but cannot be built."""

import os

import pytest
import yaml

from geodescent import cli
from geodescent.harness import ConfigError, load_config, run_experiment


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
