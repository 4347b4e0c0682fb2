"""The block trace writer: its bytes equal one encoded line per record, a
killed process leaves whole blocks, a run that raises leaves every record it
made, extras that are not numbers are refused, and both drivers hand every
record they make to the writer."""

import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from geodescent import descent, traces
from geodescent.acceleration import STRONGLY, gradient_oracle, run_accelerated
from geodescent.descent import GradientDescent, run_descent
from geodescent.harness import load_config, run_experiment
from geodescent.traces import BLOCK_SIZE, TRACE_SCHEMA, TraceWriter, _encode, load_trace
from helpers import make_sqdist_h2, point_at

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
META = {"kind": "descent", "f_star": 0.0, "x0": np.array([1.0, 0.0, 0.0])}
META_LINE = _encode({"type": "meta", "schema": TRACE_SCHEMA, "kind": "descent",
                     "f_star": 0.0, "x0": [1.0, 0.0, 0.0]}) + "\n"


def _descent_call(k):
    slack = None if k == 0 else [-0.25, float("nan"), 6.9e-127, -1e300][k % 4]
    return k, np.array([1.0 + k, 0.5 / (k + 1), -0.0]), 2.0 ** -k, 6.9e-127 * k, slack, {}


def _accel_call(k):
    k, coords, f, gn, slack, _ = _descent_call(k)
    extra = {"delta": 1.0, "xi": None if k % 3 else 0.5, "A": float(k), "B": np.float64(4.0),
             "E": float("nan") if k == 7 else 1e-300 * k, "d_xy": 6.9e-127, "d_xz": 0,
             "envelope": None if k % 2 else 2.0 ** -k}
    return k, coords, f, gn, slack, extra


def _expected_line(k, coords, f, gn, slack, extra):
    rec = {"type": "iter", "k": k, "coords": coords.tolist(), "f": f, "grad_norm": gn,
           "slack": slack}
    rec.update({key: v.item() if isinstance(v, np.generic) else v for key, v in extra.items()})
    return _encode(rec) + "\n"


@pytest.mark.parametrize("shape", [_descent_call, _accel_call], ids=["descent", "accelerated"])
@pytest.mark.parametrize("n", [0, 1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1,
                               2 * BLOCK_SIZE + 1])
def test_blocks_write_the_bytes_of_one_encoded_line_per_record(tmp_path, shape, n):
    path = tmp_path / "t.jsonl"
    calls = [shape(k) for k in range(n)]
    with TraceWriter(path, META) as writer:
        for call in calls:
            writer.record(*call)
    assert path.read_text() == META_LINE + "".join(_expected_line(*c) for c in calls)


def test_a_killed_process_leaves_the_metadata_and_whole_blocks(tmp_path):
    path = tmp_path / "t.jsonl"
    code = ("import os, sys\n"
            "from geodescent.traces import TraceWriter\n"
            "w = TraceWriter(sys.argv[1], {'f_star': 0.0})\n"
            "for k in range(300):\n"
            "    w.record(k, [1.0, 0.0, 0.0], 1.0 / (k + 1), 0.5, None if k == 0 else -0.1)\n"
            "os._exit(0)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert path.read_bytes().endswith(b"\n")
    assert list(load_trace(path).ks) == list(range(BLOCK_SIZE))


def _config(path, algorithm, k_max):
    cfg = {"manifold": {"kind": "hyperboloid", "n": 2, "kappa": 1.0},
           "objective": {"kind": "squared_distance", "seed": 3, "target_distance": 0.8,
                         "domain_radius": 2.0},
           "algorithm": algorithm,
           "run": {"k_max": k_max, "x0_seed": 5, "x0_distance": 1.0},
           "output": {"trace": "t.jsonl", "report": "r.json"}}
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return load_config(path)


def test_a_run_that_raises_keeps_every_record_it_made(tmp_path, monkeypatch):
    full = run_experiment(_config(tmp_path / "a.yaml", {"kind": "rgd"}, 400), tmp_path / "full")
    step, calls = descent.GradientDescent.step, []

    def failing_step(self, obj, x, grad=None):
        calls.append(None)
        if len(calls) == 300:  # the step to k = 300
            raise descent.ProximalSolverError("no step at k = 300")
        return step(self, obj, x, grad)

    monkeypatch.setattr(descent.GradientDescent, "step", failing_step)
    cut = run_experiment(_config(tmp_path / "a.yaml", {"kind": "rgd"}, 400), tmp_path / "cut")
    with open(full.trace_path) as fh:
        lines = fh.readlines()
    assert len(lines) == 402
    with open(cut.trace_path) as fh:
        assert fh.read() == "".join(lines[:301])
    assert cut.report["errors"] == ["ProximalSolverError: no step at k = 300"]
    assert cut.exit_code == 1


@pytest.mark.parametrize("bad", ["x", {"a": 1.0}, ["a", "b"]], ids=["str", "dict", "list"])
def test_an_extra_that_is_not_a_number_is_refused_and_not_written(tmp_path, bad):
    path = tmp_path / "t.jsonl"
    with TraceWriter(path, META) as writer:
        with pytest.raises(TypeError, match="trace field 'xi' must be None, a number"):
            writer.record(0, np.zeros(3), 1.0, 0.5, None, {"delta": 1.0, "xi": bad})
    assert path.read_text() == META_LINE


@pytest.mark.parametrize("bad", [np.array([1.0, 2.0]), np.array(1.0)], ids=["vector", "0-d"])
def test_an_array_extra_is_refused_and_not_written(tmp_path, bad):
    # export converts no list, so the writer takes no array
    path = tmp_path / "t.jsonl"
    with TraceWriter(path, META) as writer:
        with pytest.raises(TypeError, match="trace field 'xi' must be None, a number"):
            writer.record(0, np.zeros(3), 1.0, 0.5, None, {"delta": 1.0, "xi": bad})
    assert path.read_text() == META_LINE


def test_the_benchmark_hooks_exist_and_record_runs_once_per_iterate(tmp_path, monkeypatch):
    # the benchmark's tracer wraps these three through vars(TraceWriter)
    assert {"__init__", "record", "close"} <= set(vars(TraceWriter))
    record, count = TraceWriter.record, []

    def counted(self, *args):
        count.append(None)
        return record(self, *args)

    monkeypatch.setattr(traces.TraceWriter, "record", counted)
    for name, algorithm in [("rgd", {"kind": "rgd"}),
                            ("accel", {"kind": "accelerated", "mode": "strongly"})]:
        count.clear()
        res = run_experiment(_config(tmp_path / f"{name}.yaml", algorithm, 30), tmp_path / name)
        assert res.report["errors"] == []
        assert len(count) == 31


class _Recording:
    """A writer that keeps the arguments of every ``record`` call."""

    def __init__(self):
        self.calls = []

    def record(self, k, coords, f, grad_norm, slack=None, extra=None):
        self.calls.append((k, coords, f, grad_norm, slack, extra))


@pytest.mark.parametrize("accelerated", [False, True], ids=["descent", "accelerated"])
def test_the_drivers_hand_every_record_to_the_writer(accelerated):
    obj, k_max, writer = make_sqdist_h2(), 12, _Recording()
    x0 = point_at(obj.manifold, np.random.default_rng(0), obj.domain.center, 1.0)
    if accelerated:
        run = run_accelerated(obj, x0, k_max, STRONGLY, gradient_oracle(obj, 0.3), writer=writer)
        trace = run.trace
    else:
        trace = run_descent(GradientDescent(0.3), obj, x0, k_max, writer=writer)
    k, coords, f, grad_norm, slack, extra = (list(c) for c in zip(*writer.calls))
    assert k == list(range(k_max + 1)) and len(trace) == k_max + 1
    assert f == trace.values and grad_norm == trace.grad_norms
    assert slack == [None, *trace.per_step_violation]
    assert all(c is x.coords for c, x in zip(coords, trace.iterates))
    if accelerated:
        assert [e["E"] for e in extra] == [e.E for e in run.energies]
    else:
        assert extra == [None] * (k_max + 1)
