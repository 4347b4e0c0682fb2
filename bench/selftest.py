"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q bench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CLI = run._import_program()


def _config_bytes(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    workloads.write_configs(workloads.generate(workload, 7), tmp_path / "a")
    workloads.write_configs(workloads.generate(workload, 7), tmp_path / "b")
    workloads.write_configs(workloads.generate(workload, 8), tmp_path / "c")
    a, b, c = (_config_bytes(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_tracer_wraps_aliases_and_restores_them():
    from geodescent import acceleration, cli, descent, geometry, harness, objectives, traces

    originals = (descent.rgd_step, acceleration.rgd_step, harness.estimate_hessian_lipschitz,
                 cli.load_trace, geometry.Manifold.exp, objectives.FrechetMean.value)
    with Tracer():
        assert acceleration.rgd_step is descent.rgd_step is not originals[0]
        assert harness.estimate_hessian_lipschitz is objectives.estimate_hessian_lipschitz
        assert cli.load_trace is traces.load_trace is not originals[3]
        assert geometry.Manifold.exp is not originals[4]
    assert (descent.rgd_step, acceleration.rgd_step, harness.estimate_hessian_lipschitz,
            cli.load_trace, geometry.Manifold.exp, objectives.FrechetMean.value) == originals


def test_traced_and_untraced_traces_match(tmp_path):
    groups = workloads.generate("descent_sweep", 3)[:1] + workloads.generate("accel_sweep", 3)[:1]
    paths = workloads.write_configs(groups, tmp_path / "configs")
    os.makedirs(tmp_path / "csv")
    reference = {}
    passes = []
    for traced in (False, True):
        p = run._run_pass(CLI, groups, paths, str(tmp_path), traced)
        run._check_outputs(p, groups, str(tmp_path), reference)
        passes.append(p)
    assert passes[0].failures == {} and passes[1].failures == {}
    assert passes[0].digests == passes[1].digests
    runs = sum(len(g.experiments) for g in groups)
    commands = sum((len(g.experiments) > 1) + (g.fit is not None) + len(g.experiments)
                   for g in groups)
    assert passes[1].tracer.stats()["cli.main"]["calls"] == runs + run.POST_REPEATS * commands


@pytest.fixture(scope="module")
def traced_records():
    return {w: run.run_benchmark(w, 5, seconds=0, trace=True) for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_declared_metric_is_positive(traced_records, workload):
    rec = traced_records[workload]
    assert rec["failed"] == 0
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert rec["metrics"][m["name"]]["value"] > 0, m["name"]


def test_per_layer_counts_repeat_across_traced_runs(traced_records):
    recs = [traced_records["accel_sweep"], run.run_benchmark("accel_sweep", 5, seconds=0,
                                                              trace=True)]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in recs]
    assert recs[1]["failed"] == 0
    assert len(counts[0]) >= 9 and counts[0] == counts[1]
    assert recs[0]["facts"] == recs[1]["facts"]


def test_failed_experiment_counts_once(tmp_path):
    groups = workloads.generate("descent_sweep", 3)[:1]
    e = groups[0].experiments[0]
    e.config["run"]["k_max"] = -1          # rejected by the program: one failed experiment
    paths = workloads.write_configs(groups, tmp_path / "configs")
    os.makedirs(tmp_path / "csv")
    p = run._run_pass(CLI, groups, paths, str(tmp_path), False)
    run._check_outputs(p, groups, str(tmp_path), {})
    assert e.name in p.failures and len(p.failures[e.name]) > 1
    assert p.attempted == len(groups[0].experiments) + 2 + len(groups[0].experiments)


def test_command_prints_declared_metrics_last():
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
                           "accel_sweep", "--seed", "2", "--seconds", "0", "--trace", "0"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["end_to_end"]]
    assert list(last["metrics"]) == declared
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "descent_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_prints_medians_and_ratio(tmp_path, capsys):
    for name, values in (("a.jsonl", (1.0, 2.0, 3.0)), ("b.jsonl", (2.0, 4.0, 6.0))):
        with open(tmp_path / name, "w") as fh:
            for v in values:
                fh.write(json.dumps({"workload": "w", "metrics": {
                    "wall_s": {"value": v, "unit": "s"}}}) + "\n")
    assert run.compare(str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines() if "wall_s" in ln)
    assert "2 [1, 3] n=3" in line and "4 [2, 6] n=3" in line and line.rstrip().endswith("2.000")
