"""The benchmark's per-layer metrics are spans of named library functions,
which ``bench/tracer.py`` wraps from outside.  A refactor that routes the
CLI around one of those names makes the benchmark stop reporting it, and
``bench/run.py --trace 1`` exit 1; this catches that in the test suite, on
each workload's seed-0 configs."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from geodescent import cli

ROOT = Path(__file__).resolve().parent.parent


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _required_spans() -> set[str]:
    """``layer.function`` of every per-layer metric ``layer.function.quantity``."""
    names = [m["name"] for m in _benchmark()["per_layer"]]
    return {name.rsplit(".", 1)[0] for name in names if name.count(".") == 2}


@pytest.mark.parametrize("workload", [w["name"] for w in _benchmark()["workloads"]])
def test_the_cli_calls_every_span_the_benchmark_reads(tmp_path, monkeypatch, workload):
    # the workload's seed-0 configs, then compare, fit and export on its
    # first group, as one benchmark pass runs them.  An untraced pass first
    # fills the output root's f* and rho cache, as the benchmark's warm-up
    # pass does, so a span called only on a cache miss does not count
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    required = _required_spans()
    assert "descent.rgd_step" in required
    groups = workloads.generate(workload, 0)
    paths = workloads.write_configs(groups, str(tmp_path / "configs"))
    out = str(tmp_path / "out")
    runs = [["--out-root", out, "run", path] for path in paths.values()]
    group = groups[0]
    traces = [str(tmp_path / "out" / e.config["output"]["trace"]) for e in group.experiments]
    name, k_from, k_to = group.fit
    commands = runs + [
        ["--out-root", str(tmp_path / "compare"), "compare", *traces],
        ["fit", str(tmp_path / "out" / "traces" / f"{name}.jsonl"),
         "--from", str(k_from), "--to", str(k_to)],
        ["export", traces[0], str(tmp_path / "export.csv")]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert [cli.main(argv) for argv in runs] == [0] * len(runs)
        with _tracer() as tracer:
            codes = [cli.main(argv) for argv in commands]
    assert codes == [0] * len(commands)
    called = set(tracer.stats())
    assert required <= called, f"never called: {sorted(required - called)}"
