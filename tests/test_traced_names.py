"""The benchmark's per-layer metrics are spans of named library functions,
which ``bench/tracer.py`` wraps from outside.  A refactor that routes the
CLI around one of those names makes the benchmark stop reporting it; this
catches that in the test suite."""

import importlib.util
import json
from pathlib import Path

import yaml

from geodescent import cli

ROOT = Path(__file__).resolve().parent.parent


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _required_spans() -> set[str]:
    """``layer.function`` of every per-layer metric ``layer.function.quantity``."""
    with open(ROOT / "BENCHMARK.json") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    return {name.rsplit(".", 1)[0] for name in names if name.count(".") == 2}


def test_the_cli_calls_every_span_the_benchmark_reads(tmp_path):
    required = _required_spans()
    assert "descent.rgd_step" in required
    objective = {"kind": "frechet_mean", "seed": 1, "num_points": 20, "spread": 0.7,
                 "domain_radius": 2.0}
    traces = []
    for name, algorithm in (("rgd", {"kind": "rgd"}),
                            ("accel", {"kind": "accelerated", "mode": "strongly"})):
        config = tmp_path / f"{name}.yaml"
        config.write_text(yaml.safe_dump({
            "manifold": {"kind": "hyperboloid", "n": 2}, "objective": objective,
            "algorithm": algorithm, "run": {"k_max": 20, "x0_seed": 2},
            "output": {"trace": f"{name}.jsonl", "report": f"{name}.json"}}))
        traces.append(str(tmp_path / "out" / f"{name}.jsonl"))
    commands = [["--out-root", str(tmp_path / "out"), "run", str(tmp_path / "rgd.yaml")],
                ["--out-root", str(tmp_path / "out"), "run", str(tmp_path / "accel.yaml")],
                ["--out-root", str(tmp_path / "compare"), "compare", *traces],
                ["fit", traces[0], "--from", "2", "--to", "20"],
                ["export", traces[1], str(tmp_path / "accel.csv")]]
    with _tracer() as tracer:
        codes = [cli.main(argv) for argv in commands]
    assert codes == [0] * len(commands)
    called = set(tracer.stats())
    assert required <= called, f"never called: {sorted(required - called)}"
