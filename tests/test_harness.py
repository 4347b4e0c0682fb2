import hashlib
import itertools
import json
import os

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodescent import cli, harness
from geodescent.descent import CubicNewton, certify, default_tolerance, run_descent
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
from geodescent.objectives import estimate_hessian_lipschitz
from geodescent.traces import load_trace, trace_to_csv, write_plot_data


# a Frechet mean whose realized distortion rate reaches about 1.007
OFF_GEODESIC = {"kind": "frechet_mean", "seed": 0, "num_points": 20, "spread": 1.0,
                "domain_radius": 2.0}


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
    # the schema accepts it; the start checks refuse it when it is built
    p = _write_cfg(
        tmp_path / "a.yaml",
        manifold={"kind": "sphere", "n": 2, "radius": 1.0},
        objective={"kind": "sphere_rayleigh"},
        algorithm={"kind": "accelerated", "mode": "strongly", "delta_mode": "oracle"},
    )
    with pytest.raises(ConfigError) as ei:
        harness._build_experiment(load_config(p))
    assert ei.value.violations == [
        "cannot build the experiment: ValueError: accelerated runs need a g-convex objective"]


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


@pytest.mark.parametrize("algorithm", [
    {"kind": "rgd"}, {"kind": "proximal", "eta": 1.0}, {"kind": "cubic_newton", "rho": 1.0},
], ids=["rgd", "proximal", "cubic"])
def test_the_certificate_verdict_is_certify_of_the_trace(tmp_path, algorithm):
    # the report reads the slacks run_descent recorded; certify recomputes them
    cfg = load_config(_write_cfg(tmp_path / "a.yaml", algorithm=algorithm))
    verdict = run_experiment(cfg, tmp_path / "out").report["guarantees"]["certificate"]
    _, obj, alg, _, dom, x0 = harness._build_experiment(cfg)
    trace = run_descent(alg, obj, x0, cfg.run["k_max"], dom)
    passed, worst = certify(trace, alg.certificate(obj), default_tolerance(trace.values[0]))
    assert (verdict["pass"], verdict["worst_slack"]) == (passed, worst)


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


def test_run_experiment_accelerated_proximal_oracle(tmp_path):
    p = _write_cfg(
        tmp_path / "a.yaml",
        algorithm={"kind": "accelerated", "mode": "strongly", "oracle": "proximal",
                   "eta": 0.002},
        run={"k_max": 40, "x0_seed": 11, "x0_distance": 0.9},
    )
    res = run_experiment(load_config(p), str(tmp_path))
    assert res.exit_code == 0 and res.report["errors"] == []
    assert res.report["guarantees"]["oracle_contract"]["pass"] is True
    assert res.report["guarantees"]["product_rate_bound"]["pass"] is True


def test_report_counts_delta_fixed_points_stopped_at_the_cap(tmp_path, monkeypatch):
    from geodescent import acceleration as acc

    calls = []  # (energy at the step's start, realized rate) of every candidate
    rate = acc._realized_rate

    def observed(m, x_new, drift, star_log, prev):
        r = rate(m, x_new, drift, star_log, prev)
        calls.append((prev, r))
        return r

    monkeypatch.setattr(acc, "_realized_rate", observed)
    # a Frechet mean: its iterates leave the geodesic through x0 and x*, so
    # the realized distortion rate moves between iterations and the fixed
    # point takes more than one step
    p = _write_cfg(
        tmp_path / "a.yaml",
        objective=OFF_GEODESIC,
        algorithm={"kind": "accelerated", "mode": "strongly", "oracle": "rgd",
                   "eta": 0.05, "delta_mode": "oracle"},
        run={"k_max": 40, "x0_seed": 5, "x0_distance": 1.0},
    )
    res = run_experiment(load_config(p), str(tmp_path))
    deltas = [r["delta"] for r in load_trace(res.trace_path).records]
    # one iteration's fixed point shares the energy at its start; its first
    # candidate uses the last recorded delta and each later one the previous
    # realized rate
    counts = {"converged": 0, "stalled": 0, "capped": 0}
    worst = 0.0
    groups = itertools.groupby(calls, key=lambda call: id(call[0]))
    for k, (_, group) in enumerate(groups, start=1):
        rs = [r for _, r in group]
        ds = [max(1.0, deltas[k - 1])] + rs[:-1]
        gaps = [abs(r - d) / max(1.0, d) for r, d in zip(rs, ds)]
        assert all(a > b > 1e-12 for a, b in zip(gaps, gaps[1:-1]))
        if gaps[-1] <= 1e-12:
            counts["converged"] += 1
        elif len(gaps) > 1 and gaps[-1] >= gaps[-2]:
            counts["stalled"] += 1
        else:
            assert len(gaps) == 60
            counts["capped"] += 1
        # the recorded delta is the one that produced the smallest gap
        kept = min(range(len(gaps)), key=gaps.__getitem__)
        assert deltas[k] == ds[kept]
        worst = max(worst, gaps[kept])
    assert k == len(deltas) - 1 == 40
    assert len(calls) > 40
    block = res.report["delta_fixed_point"]
    assert block["capped_iterations"] == counts["capped"]
    assert block["stalled_iterations"] == counts["stalled"]
    assert block["worst_mismatch"] == worst
    assert res.exit_code == 0


def test_report_counts_a_stalled_and_a_capped_fixed_point(tmp_path, monkeypatch):
    from geodescent import acceleration as acc

    # iteration 1 starts at delta = 1 and stalls on its fourth rate (relative
    # gaps 0.5, 0.1/1.5, 0.01/1.6, then 0.09/1.61), keeping delta = 1.6;
    # iteration 2 starts there, and its gaps, about 0.025 * 0.9^i, shrink
    # through all 60 candidates
    stall = [1.5, 1.6, 1.61, 1.7]
    cap = [2.0 - 0.4 * 0.9 ** (i + 1) for i in range(60)]
    rates = iter(stall + cap)

    monkeypatch.setattr(acc, "_realized_rate", lambda *args: next(rates))
    p = _write_cfg(
        tmp_path / "a.yaml",
        algorithm={"kind": "accelerated", "mode": "strongly", "oracle": "rgd",
                   "eta": 0.05, "delta_mode": "oracle"},
        run={"k_max": 2, "x0_seed": 5, "x0_distance": 1.0},
    )
    res = run_experiment(load_config(p), str(tmp_path))
    assert next(rates, None) is None
    deltas = [r["delta"] for r in load_trace(res.trace_path).records]
    assert deltas[1:] == [1.6, cap[58]]
    block = res.report["delta_fixed_point"]
    assert (block["stalled_iterations"], block["capped_iterations"]) == (1, 1)
    # the worst kept gap is the stalled iteration's, above the capped one's
    assert block["worst_mismatch"] == abs(1.61 - 1.6) / 1.6 > abs(cap[59] - cap[58]) / cap[58]


@pytest.mark.parametrize("algorithm, void", [
    ({"kind": "rgd"}, "graddom_envelope"),
    ({"kind": "accelerated", "mode": "strongly", "oracle": "rgd", "eta": 0.005},
     "product_rate_bound"),
], ids=["rgd", "accelerated-strongly"])
def test_check_that_examines_no_step_is_void(tmp_path, algorithm, void):
    # started at the minimizer, the envelope is below its floor from k = 1
    target = [float(np.cosh(0.8)), float(np.sinh(0.8)), 0.0]
    p = _write_cfg(
        tmp_path / "a.yaml",
        objective={"kind": "squared_distance", "target": target, "domain_radius": 2.0},
        algorithm=algorithm,
        run={"k_max": 5, "x0": target},
    )
    assert cli.main(["--out-root", str(tmp_path), "run", str(p)]) == 0

    def reject(name):
        raise ValueError(f"report holds {name}, which is not JSON")

    with open(tmp_path / "r.json") as fh:
        report = json.load(fh, parse_constant=reject)
    g = report["guarantees"][void]
    assert g["pass"] is None and g["worst_slack"] is None
    assert g["detail"].startswith("voided: no step examined")
    assert report["exit_code"] == 0


def test_domain_exit_voids_the_gconvex_envelope(tmp_path):
    # run.domain_radius shrinks the monitored ball below the objective's
    p = _write_cfg(tmp_path / "a.yaml",
                   run={"k_max": 40, "x0_seed": 5, "x0_distance": 0.25, "domain_radius": 0.5})
    res = run_experiment(load_config(p), str(tmp_path))
    assert res.exit_code == 0
    assert res.report["domain_exit"] == 2
    assert res.report["guarantees"]["gconvex_envelope"] == {
        "pass": None, "worst_slack": None, "detail": "voided: domain exit at k=2"}


def test_run_experiment_sphere_rayleigh(tmp_path):
    p = _write_cfg(tmp_path / "a.yaml", manifold={"kind": "sphere", "n": 2},
                   objective={"kind": "sphere_rayleigh"},
                   run={"k_max": 30, "x0_seed": 5, "x0_distance": 0.5})
    res = run_experiment(load_config(p), str(tmp_path))
    assert res.exit_code == 0
    assert res.report["guarantees"]["certificate"]["pass"] is True
    assert load_trace(res.trace_path).meta["manifold"] == {"kind": "sphere", "n": 2,
                                                           "radius": 1.0}


def test_run_experiment_bad_eta_nonzero_exit(tmp_path):
    # eta > 2/L: the certified descent constant is nonpositive, which the
    # build refuses before any trace or report is written
    p = _write_cfg(tmp_path / "a.yaml", algorithm={"kind": "rgd", "eta": 50.0})
    with pytest.raises(ConfigError, match="descent constant c must be finite and positive"):
        run_experiment(load_config(p), str(tmp_path))
    assert not (tmp_path / "t.jsonl").exists() and not (tmp_path / "r.json").exists()


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


# a Frechet mean under cubic Newton without rho caches both f* and rho
_CUBIC_FRECHET = {
    "objective": {"kind": "frechet_mean", "seed": 7, "num_points": 4,
                  "spread": 0.5, "domain_radius": 2.0},
    "algorithm": {"kind": "cubic_newton"},
    "run": {"k_max": 10, "x0_seed": 5, "x0_distance": 0.8},
}


def _count_estimates(monkeypatch):
    calls = []
    real = harness.estimate_hessian_lipschitz

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "estimate_hessian_lipschitz", counted)
    return calls


def _outputs(res):
    return open(res.trace_path, "rb").read(), open(res.report_path, "rb").read()


def _entries(root, prefix):
    return sorted(f for f in os.listdir(root / "cache") if f.startswith(prefix))


def test_cubic_rho_estimate_is_cached(tmp_path, monkeypatch):
    calls = _count_estimates(monkeypatch)
    p = _write_cfg(tmp_path / "a.yaml", **_CUBIC_FRECHET)
    first = run_experiment(load_config(p), str(tmp_path))
    assert len(calls) == 1
    cold = _outputs(first)
    assert len(_entries(tmp_path, "rho-")) == 1 and len(_entries(tmp_path, "fstar-")) == 1
    second = run_experiment(load_config(p), str(tmp_path))
    assert len(calls) == 1
    assert second.exit_code == 0
    assert _outputs(second) == cold


def test_rho_entries_are_keyed_by_objective_and_rho_seed(tmp_path, monkeypatch):
    # the key holds the estimator's seed, 0, as it did when configs set it,
    # so entries written then still hit
    calls = _count_estimates(monkeypatch)
    objectives = [_CUBIC_FRECHET["objective"], {**_CUBIC_FRECHET["objective"], "seed": 8}]
    for i, objective in enumerate(objectives):
        p = _write_cfg(tmp_path / f"{i}.yaml", **{**_CUBIC_FRECHET, "objective": objective})
        run_experiment(load_config(p), str(tmp_path))
    assert len(calls) == 2
    keys = [{"objective": objective, "manifold": "hyperboloid(n=2,kappa=1)", "rho_seed": 0,
             "n_samples": 200, "step_scale": 0.5, "floor": 1e-6} for objective in objectives]
    assert _entries(tmp_path, "rho-") == sorted(
        f"rho-{hashlib.sha256(json.dumps(k, sort_keys=True).encode()).hexdigest()[:16]}.json"
        for k in keys)


def test_explicit_rho_writes_no_rho_entry(tmp_path, monkeypatch):
    calls = _count_estimates(monkeypatch)
    p = _write_cfg(tmp_path / "a.yaml",
                   **{**_CUBIC_FRECHET, "algorithm": {"kind": "cubic_newton", "rho": 2.0}})
    assert run_experiment(load_config(p), str(tmp_path)).exit_code == 0
    assert calls == []
    assert _entries(tmp_path, "rho-") == []


def test_validate_of_a_cubic_config_writes_no_cache(tmp_path, monkeypatch, capsys):
    p = _write_cfg(tmp_path / "a.yaml", **_CUBIC_FRECHET)
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    assert cli.main(["--out-root", str(tmp_path / "out"), "validate", str(p)]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("prefix, damage", [
    ("fstar-", lambda text: text[: len(text) // 2]),
    ("fstar-", lambda text: json.dumps({"f_star": json.loads(text)["f_star"]})),
    ("fstar-", lambda text: json.dumps({**json.loads(text), "f_star": float("nan")})),
    ("rho-", lambda text: text[: len(text) // 2]),
    ("rho-", lambda text: json.dumps({"x_star": json.loads(text)["rho"]})),
    ("rho-", lambda text: json.dumps({"rho": float("nan")})),
    ("rho-", lambda text: json.dumps({"rho": -1.0})),
    ("rho-", lambda text: "[]"),
], ids=["fstar-truncated", "fstar-wrong-key", "fstar-nan",
        "rho-truncated", "rho-wrong-key", "rho-nan", "rho-negative", "rho-not-a-mapping"])
def test_bad_cache_entry_is_recomputed(tmp_path, prefix, damage):
    p = _write_cfg(tmp_path / "a.yaml", **_CUBIC_FRECHET)
    cold = _outputs(run_experiment(load_config(p), str(tmp_path / "cold")))
    root = tmp_path / "warm"
    run_experiment(load_config(p), str(root))
    (entry,) = _entries(root, prefix)
    path = root / "cache" / entry
    good = path.read_text()
    path.write_text(damage(good))
    assert cli.main(["--out-root", str(root), "run", str(p)]) == 0
    assert ((root / "t.jsonl").read_bytes(), (root / "r.json").read_bytes()) == cold
    assert path.read_text() == good
    assert len(os.listdir(root / "cache")) == 2


def test_building_a_cubic_config_leaves_the_objective_unchanged(tmp_path):
    p = _write_cfg(tmp_path / "a.yaml", **_CUBIC_FRECHET)
    _, obj, alg, _, _, _ = harness._build_experiment(load_config(p))
    assert obj.metadata.rho is None
    c = alg.certificate(obj).c
    # the same estimate declared on the objective instead
    rho = estimate_hessian_lipschitz(obj, np.random.default_rng(0))
    assert c == CubicNewton().certificate(obj.with_rho(rho)).c


def test_determinism_bit_identical(tmp_path):
    p = _write_cfg(tmp_path / "a.yaml")
    d1, d2 = tmp_path / "one", tmp_path / "two"
    run_experiment(load_config(p), str(d1))
    run_experiment(load_config(p), str(d2))
    assert (d1 / "t.jsonl").read_bytes() == (d2 / "t.jsonl").read_bytes()
    assert (d1 / "r.json").read_bytes() == (d2 / "r.json").read_bytes()


def test_report_file_is_its_sorted_indented_json(tmp_path):
    p = _write_cfg(tmp_path / "a.yaml")
    run_experiment(load_config(p), str(tmp_path))
    text = (tmp_path / "r.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_domain_radius_above_objective_ball_rejected(tmp_path):
    p = _write_cfg(tmp_path / "a.yaml",
                   run={"k_max": 10, "domain_radius": 99.0})
    with pytest.raises(ConfigError):
        run_experiment(load_config(p), str(tmp_path))


# ---------------------------------------------------------------------------
# trace files


def test_crash_safety_truncation(tmp_path):
    # a trace cut at any byte loads to a prefix of the full trace's records,
    # every complete line included, or, while the metadata line is
    # incomplete, raises the documented error
    p = _write_cfg(tmp_path / "a.yaml", run={"k_max": 20, "x0_seed": 5})
    res = run_experiment(load_config(p), str(tmp_path))
    blob = open(res.trace_path, "rb").read()
    full = load_trace(res.trace_path)
    meta_len = blob.index(b"\n")
    cut = tmp_path / "cut.jsonl"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, len(blob)))
    @example(0)
    @example(meta_len // 2)
    @example(meta_len - 1)
    @example(meta_len)
    @example(len(blob))
    def loads_a_prefix(offset):
        cut.write_bytes(blob[:offset])
        if offset < meta_len:
            with pytest.raises(ValueError, match="no metadata record"):
                load_trace(cut)
            return
        partial = load_trace(cut)
        n = len(partial.records)
        assert partial.meta == full.meta
        assert partial.records == full.records[:n]
        assert n >= blob[:offset].count(b"\n") - 1

    loads_a_prefix()
    # a line holding two values ends the prefix, as a cut line does
    lines = blob.split(b"\n")
    cut.write_bytes(b"\n".join(lines[:3] + [lines[3] + b" " + lines[4]] + lines[5:]))
    assert load_trace(cut).records == full.records[:2]


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
    cmp = compare_report([load_trace(r1.trace_path), load_trace(r2.trace_path)], ["t0", "t1"])
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
        compare_report([load_trace(r1.trace_path), load_trace(r2.trace_path)], ["a", "b"])
    with pytest.raises(ValueError):
        compare_report([load_trace(r1.trace_path)], ["a"])


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
