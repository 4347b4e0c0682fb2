import itertools
import json
import os

import numpy as np
import pytest
import yaml

from geodescent import cli
from geodescent.harness import (
    Comparison,
    ConfigError,
    ConfigWarning,
    RateFit,
    compare_report,
    fit_power_law,
    fit_rate,
    load_config,
    run_experiment,
)
from geodescent.traces import load_trace, trace_to_csv, write_plot_data


def _write_cfg(path, **over):
    cfg = {
        "manifold": {"kind": "hyperboloid", "n": 2, "kappa": 1.0},
        "objective": {"kind": "squared_distance", "seed": 3,
                      "target_distance": 0.8, "domain_radius": 2.0},
        "algorithm": {"kind": "rgd"},
        "run": {"k_max": 60, "x0_seed": 5, "x0_distance": 1.0},
        "output": {"trace": "t.jsonl", "report": "r.json"},
    }
    for key, val in over.items():
        if val is None:
            cfg.pop(key, None)
        else:
            cfg[key] = val
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return path


# ---------------------------------------------------------------------------
# config loading


def test_load_minimal_config(tmp_path):
    p = _write_cfg(tmp_path / "a.yaml")
    cfg = load_config(p)
    assert cfg.run["k_max"] == 60
    assert cfg.output["trace"] == "t.jsonl"
    assert len(cfg.config_hash) == 16


def test_missing_k_max_defaults_with_warning(tmp_path):
    p = _write_cfg(tmp_path / "a.yaml", run={"x0_seed": 5})
    with pytest.warns(ConfigWarning):
        cfg = load_config(p)
    assert cfg.run["k_max"] == 1000


def test_strongly_mode_with_nonconvex_objective_rejected(tmp_path):
    p = _write_cfg(
        tmp_path / "a.yaml",
        manifold={"kind": "sphere", "n": 2, "radius": 1.0},
        objective={"kind": "sphere_rayleigh"},
        algorithm={"kind": "accelerated", "mode": "strongly"},
    )
    with pytest.raises(ConfigError) as ei:
        load_config(p)
    assert any("strongly" in v for v in ei.value.violations)


def test_all_violations_collected(tmp_path):
    p = _write_cfg(tmp_path / "a.yaml",
                   manifold={"kind": "torus"},
                   objective={"kind": "mystery"},
                   algorithm={"kind": "sgd", "eta": -1.0})
    with pytest.raises(ConfigError) as ei:
        load_config(p)
    assert len(ei.value.violations) >= 4


def test_parse_error(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("manifold: [unclosed\n  - ::bad")
    with pytest.raises(ConfigError):
        load_config(p)


# ---------------------------------------------------------------------------
# experiments


def test_run_experiment_quadratic_rgd(tmp_path):
    p = _write_cfg(
        tmp_path / "a.yaml",
        manifold={"kind": "euclidean", "n": 2},
        objective={"kind": "quadratic", "b": [0.5, -0.5]},
        run={"k_max": 100, "x0_seed": 5, "x0_distance": 2.0},
    )
    res = run_experiment(load_config(p), str(tmp_path))
    assert res.exit_code == 0
    g = res.report["guarantees"]
    assert g["certificate"]["pass"] is True
    assert g["gconvex_envelope"]["pass"] is True
    assert g["min_grad_envelope"]["pass"] is True
    assert g["graddom_envelope"]["pass"] in (True, None)
    assert res.report["schema"] == 1
    assert os.path.exists(res.trace_path) and os.path.exists(res.report_path)
    data = load_trace(res.trace_path)
    assert len(data.records) == 101
    assert data.meta["f_star"] == 0.0


def test_run_experiment_accelerated_strongly(tmp_path):
    p = _write_cfg(
        tmp_path / "a.yaml",
        algorithm={"kind": "accelerated", "mode": "strongly", "oracle": "rgd",
                   "eta": 0.005},
        run={"k_max": 80, "x0_seed": 5, "x0_distance": 1.0},
    )
    res = run_experiment(load_config(p), str(tmp_path))
    assert res.exit_code == 0
    assert res.report["guarantees"]["product_rate_bound"]["pass"] is True
    xi_table = res.report["xi_convergence"]
    assert xi_table["first_k_within_0.1"] is not None
    assert abs(xi_table["final"] - xi_table["target"]) < 1e-2
    data = load_trace(res.trace_path)
    assert "xi" in data.records[1]
    assert "E" in data.records[0]


def test_report_counts_delta_fixed_points_stopped_at_the_cap(tmp_path, monkeypatch):
    from geodescent import acceleration as acc

    calls = []  # (x_prev, realized rate) of every oracle-mode call
    rate = acc.distortion_rate

    def observed(m, x_prev, *args, **kwargs):
        r = rate(m, x_prev, *args, **kwargs)
        if kwargs.get("mode") == acc.ORACLE:
            calls.append((x_prev, r))
        return r

    monkeypatch.setattr(acc, "distortion_rate", observed)
    p = _write_cfg(
        tmp_path / "a.yaml",
        algorithm={"kind": "accelerated", "mode": "strongly", "oracle": "rgd",
                   "eta": 0.05, "delta_mode": "oracle"},
        run={"k_max": 40, "x0_seed": 5, "x0_distance": 1.0},
    )
    res = run_experiment(load_config(p), str(tmp_path))
    # one iteration's fixed point shares x_prev; it stopped at the cap if it
    # took 60 steps and its last two rates still differ
    capped = 0
    for _, group in itertools.groupby(calls, key=lambda call: id(call[0])):
        rs = [r for _, r in group]
        capped += len(rs) == 60 and abs(rs[-1] - rs[-2]) > 1e-12 * max(1.0, rs[-2])
    block = res.report["delta_fixed_point"]
    assert block["capped_iterations"] == capped > 0
    assert block["worst_mismatch"] > 1e-12
    assert res.exit_code == 0


def test_run_experiment_bad_eta_nonzero_exit(tmp_path):
    # eta > 2/L: the certified descent constant is nonpositive
    p = _write_cfg(tmp_path / "a.yaml", algorithm={"kind": "rgd", "eta": 50.0})
    res = run_experiment(load_config(p), str(tmp_path))
    assert res.exit_code == 1
    assert any("descent constant" in e for e in res.report["errors"])


def test_run_experiment_frechet_reference_cache(tmp_path):
    p = _write_cfg(
        tmp_path / "a.yaml",
        objective={"kind": "frechet_mean", "seed": 7, "num_points": 4,
                   "spread": 0.5, "domain_radius": 2.0},
        run={"k_max": 30, "x0_seed": 5, "x0_distance": 0.8},
    )
    res1 = run_experiment(load_config(p), str(tmp_path))
    cache = os.listdir(tmp_path / "cache")
    assert len(cache) == 1
    res2 = run_experiment(load_config(p), str(tmp_path))
    assert res1.report["f_star"] == res2.report["f_star"]


def test_determinism_bit_identical(tmp_path):
    p = _write_cfg(tmp_path / "a.yaml")
    d1, d2 = tmp_path / "one", tmp_path / "two"
    run_experiment(load_config(p), str(d1))
    run_experiment(load_config(p), str(d2))
    assert (d1 / "t.jsonl").read_bytes() == (d2 / "t.jsonl").read_bytes()
    assert (d1 / "r.json").read_bytes() == (d2 / "r.json").read_bytes()


def test_domain_radius_above_objective_ball_rejected(tmp_path):
    p = _write_cfg(tmp_path / "a.yaml",
                   run={"k_max": 10, "domain_radius": 99.0})
    with pytest.raises(ConfigError):
        run_experiment(load_config(p), str(tmp_path))


# ---------------------------------------------------------------------------
# trace files


def test_crash_safety_truncation(tmp_path):
    p = _write_cfg(tmp_path / "a.yaml", run={"k_max": 20, "x0_seed": 5})
    res = run_experiment(load_config(p), str(tmp_path))
    blob = open(res.trace_path, "rb").read()
    full = load_trace(res.trace_path)
    for frac in (0.35, 0.6, 0.9):
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(blob[: int(len(blob) * frac)])
        partial = load_trace(cut)
        n = len(partial.records)
        assert 0 < n <= len(full.records)
        for a, b in zip(partial.records, full.records[:n]):
            assert a == b


def test_csv_export_and_plot_data(tmp_path):
    p = _write_cfg(tmp_path / "a.yaml", run={"k_max": 10, "x0_seed": 5})
    res = run_experiment(load_config(p), str(tmp_path))
    data = load_trace(res.trace_path)
    csv_path = tmp_path / "t.csv"
    trace_to_csv(data, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("k,f,grad_norm,slack")
    assert len(lines) == 12
    dat = tmp_path / "t.dat"
    write_plot_data(data, dat)
    rows = [ln.split() for ln in dat.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 11 and len(rows[0]) == 2
    assert int(rows[3][0]) == 3
    float(rows[3][1])


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_exact_power_laws():
    ks = np.arange(0, 200)
    gaps = np.zeros(200)
    gaps[1:] = 1.0 / ks[1:]
    fit = fit_power_law(gaps, 10, 150)
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0)
    gaps[1:] = 7.0 / ks[1:] ** 2
    fit = fit_power_law(gaps, 10, 150)
    assert fit.slope == pytest.approx(-2.0, abs=1e-9)
    assert fit.intercept == pytest.approx(np.log(7.0), abs=1e-9)


def test_fit_window_errors():
    gaps = np.ones(50)
    with pytest.raises(ValueError):
        fit_power_law(gaps, 10, 15)  # < 10 points
    with pytest.raises(ValueError):
        fit_power_law(gaps, 0, 30)
    with pytest.raises(ValueError):
        fit_power_law(gaps, 10, 80)  # beyond trace
    gaps[20] = 0.0
    with pytest.raises(ValueError):
        fit_power_law(gaps, 10, 30)  # underflow inside window


def test_rate_fit_invariants():
    with pytest.raises(ValueError):
        RateFit(-1.0, 0.0, 1.2, (10, 20))
    with pytest.raises(ValueError):
        RateFit(-1.0, 0.0, 0.5, (0, 20))


def test_fit_rate_from_trace_file(tmp_path):
    p = _write_cfg(
        tmp_path / "a.yaml",
        manifold={"kind": "euclidean", "n": 2},
        objective={"kind": "quadratic", "b": [0.0, 0.0], "scales": [1.0, 0.01]},
        algorithm={"kind": "accelerated", "mode": "gconvex", "oracle": "rgd"},
        run={"k_max": 400, "x0_seed": 5, "x0_distance": 2.0},
    )
    res = run_experiment(load_config(p), str(tmp_path))
    data = load_trace(res.trace_path)
    fit = fit_rate(data, 10, 400)
    assert fit.slope <= -1.9


# ---------------------------------------------------------------------------
# comparison


def test_compare_identical_traces(tmp_path):
    p = _write_cfg(tmp_path / "a.yaml", run={"k_max": 15, "x0_seed": 5})
    r1 = run_experiment(load_config(p), str(tmp_path / "d1"))
    r2 = run_experiment(load_config(p), str(tmp_path / "d2"))
    cmp = compare_report([load_trace(r1.trace_path), load_trace(r2.trace_path)])
    assert cmp.max_abs_diff == 0.0
    assert "gap_t1" in cmp.csv_text().splitlines()[0]


def test_compare_rgd_vs_accelerated_crossover(tmp_path):
    base = dict(
        manifold={"kind": "euclidean", "n": 2},
        objective={"kind": "quadratic", "b": [0.0, 0.0], "scales": [1.0, 0.01]},
        run={"k_max": 200, "x0_seed": 5, "x0_distance": 2.0},
    )
    p1 = _write_cfg(tmp_path / "rgd.yaml", algorithm={"kind": "rgd"}, **base)
    p2 = _write_cfg(tmp_path / "acc.yaml",
                    algorithm={"kind": "accelerated", "mode": "gconvex", "oracle": "rgd"},
                    **base)
    r1 = run_experiment(load_config(p1), str(tmp_path / "d1"))
    r2 = run_experiment(load_config(p2), str(tmp_path / "d2"))
    t1, t2 = load_trace(r1.trace_path), load_trace(r2.trace_path)
    cmp = compare_report([t1, t2], ["rgd", "accel"])
    cross = cmp.crossovers[1]
    assert cross is not None
    # independent scan of the same arrays
    g1, g2 = t1.gaps[:201], t2.gaps[:201]
    expected = next(k for k in range(201) if (g2[k:] < g1[k:]).all())
    assert cross == expected
    assert "crossover" in cmp.table_text()


def test_compare_rejects_mismatched_objectives(tmp_path):
    p1 = _write_cfg(tmp_path / "a.yaml", run={"k_max": 10, "x0_seed": 5})
    p2 = _write_cfg(tmp_path / "b.yaml",
                    objective={"kind": "squared_distance", "seed": 4,
                               "target_distance": 0.8, "domain_radius": 2.0},
                    run={"k_max": 10, "x0_seed": 5})
    r1 = run_experiment(load_config(p1), str(tmp_path / "d1"))
    r2 = run_experiment(load_config(p2), str(tmp_path / "d2"))
    with pytest.raises(ValueError):
        compare_report([load_trace(r1.trace_path), load_trace(r2.trace_path)])
    with pytest.raises(ValueError):
        compare_report([load_trace(r1.trace_path)])


# ---------------------------------------------------------------------------
# CLI


def test_cli_validate_and_run(tmp_path):
    p = _write_cfg(tmp_path / "a.yaml", run={"k_max": 30, "x0_seed": 5})
    assert cli.main(["validate", str(p)]) == 0
    assert cli.main(["--out-root", str(tmp_path), "run", str(p)]) == 0
    bad = tmp_path / "bad.yaml"
    bad.write_text("algorithm: {kind: sgd}\n")
    assert cli.main(["validate", str(bad)]) == 2
    assert cli.main(["--out-root", str(tmp_path), "run", str(bad)]) == 2


def test_cli_fit_and_export(tmp_path, capsys):
    p = _write_cfg(
        tmp_path / "a.yaml",
        manifold={"kind": "euclidean", "n": 2},
        objective={"kind": "quadratic", "b": [0.0, 0.0], "scales": [1.0, 0.01]},
        algorithm={"kind": "accelerated", "mode": "gconvex", "oracle": "rgd"},
        run={"k_max": 120, "x0_seed": 5, "x0_distance": 2.0},
    )
    assert cli.main(["--out-root", str(tmp_path), "run", str(p)]) == 0
    trace = str(tmp_path / "t.jsonl")
    capsys.readouterr()
    assert cli.main(["fit", trace, "--from", "10", "--to", "100"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["slope"] < -1.5
    assert cli.main(["fit", trace, "--from", "10", "--to", "11"]) == 2
    assert cli.main(["export", trace, str(tmp_path / "out.csv")]) == 0
    assert os.path.exists(tmp_path / "out.csv")


def test_cli_compare_and_batch(tmp_path):
    cfgdir = tmp_path / "cfgs"
    cfgdir.mkdir()
    _write_cfg(cfgdir / "a.yaml", output={"trace": "a.jsonl", "report": "a.json"},
               run={"k_max": 15, "x0_seed": 5})
    _write_cfg(cfgdir / "b.yaml", output={"trace": "b.jsonl", "report": "b.json"},
               run={"k_max": 15, "x0_seed": 5},
               algorithm={"kind": "proximal", "eta": 1.0})
    assert cli.main(["--out-root", str(tmp_path), "batch", str(cfgdir)]) == 0
    assert cli.main(["--out-root", str(tmp_path), "compare",
                     str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]) == 0
    assert os.path.exists(tmp_path / "comparison.csv")
    assert os.path.exists(tmp_path / "a.dat")
    empty = tmp_path / "cfgs_empty"
    empty.mkdir()
    assert cli.main(["--out-root", str(tmp_path), "batch", str(empty)]) == 2


def test_cli_output_root_env(tmp_path, monkeypatch):
    p = _write_cfg(tmp_path / "a.yaml", run={"k_max": 5, "x0_seed": 5})
    target = tmp_path / "env_root"
    monkeypatch.setenv("GEODESCENT_OUTPUT_ROOT", str(target))
    assert cli.main(["run", str(p)]) == 0
    assert os.path.exists(target / "t.jsonl")
