"""Layered benchmark for geodescent.

Run one workload for a fixed time and print every metric by name and unit;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 bench/run.py --workload descent_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload accel_sweep --seed 1 --seconds 30 --trace 1 --out a.jsonl
    python3 bench/run.py --compare before.jsonl after.jsonl

A run is a closed loop in one process: it expands the seed into YAML
configs (``workloads.py``), times their set-up in fresh processes
(``setup_probe.py``), then repeats passes over the configs until
``--seconds`` have elapsed.  One pass runs every experiment through
``geodescent.cli.main([... "run", cfg])``, one after another, then
``compare``, ``fit`` and ``export`` on each group's traces, three times per
group; the median of the three is the group's time.  The first pass
is a warm-up and is not timed.  Every pass is checked: exit codes,
guarantee verdicts, report errors, trace lengths and trace digests, which
must match across passes.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the traced ones (``tracer.py``); its traces must match the
untraced ones byte for byte.  ``--out`` appends the full record (every
metric, environment and workload facts) to a JSON-lines file, and
``--compare`` prints medians, quartiles and ratios of two such files.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(CHECKOUT, "src")
OUT_DIR = os.path.join(CHECKOUT, ".bench_out")
SETUP_REPEATS = 3
POST_REPEATS = 3    # each group's post-processing per pass; the median counts
PROBE_TIMEOUT_S = 150

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

# span names that per-layer metrics are reported for
GEOMETRY_OPS = ("exp", "log", "distance", "norm", "inner", "orthonormal_basis")
OBJECTIVE_OPS = ("value", "gradient", "hessian")
DESCENT_STEPS = ("rgd_step", "proximal_step", "cubic_newton_step")
RUN_DESCENT_LABELS = ("rgd", "proximal", "cubic")


def _import_program():
    """Import geodescent from the checkout's ``src``, nowhere else."""
    if not os.path.isfile(os.path.join(SRC_DIR, "geodescent", "cli.py")):
        raise SystemExit(f"error: no geodescent sources under {SRC_DIR}")
    sys.path.insert(0, SRC_DIR)
    import geodescent.cli

    if not os.path.abspath(geodescent.cli.__file__).startswith(SRC_DIR + os.sep):
        raise SystemExit(f"error: imported geodescent from {geodescent.cli.__file__}")
    return geodescent.cli


# ---------------------------------------------------------------------------
# one pass


@dataclass
class Pass:
    """One pass.  Times are normalized (see ``calibrate``); ``raw_wall``
    keeps the wall-clock pass time."""

    traced: bool
    wall: float = 0.0
    post: float = 0.0
    raw_wall: float = 0.0
    scale: float = 1.0                               # normalized / wall seconds
    run_s: dict = field(default_factory=dict)        # experiment -> seconds
    kernel_s: list = field(default_factory=list)     # reference-kernel samples
    attempted: int = 0                               # experiments and commands run
    failures: dict = field(default_factory=dict)     # experiment or command -> messages
    loaded_bytes: int = 0
    digests: dict = field(default_factory=dict)      # experiment -> sha256 of its trace
    tracer: Tracer | None = None

    def fail(self, unit: str, msg: str):
        self.failures.setdefault(unit, []).append(msg)


def _call(cli, argv) -> tuple[int, str]:
    """Run one CLI command; returns (exit code, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed operation, not a benchmark crash
        return 99, traceback.format_exc()
    return code, err.getvalue().strip()


def _trace_path(root, e):
    return os.path.join(root, e.config["output"]["trace"])


def _postprocess(cli, g, root, p: Pass, ops: list):
    """``compare``, ``fit`` and ``export`` on one group's traces."""
    def command(unit, argv, inputs):
        code, err = _call(cli, argv)
        ops.append((unit, code, err))
        if code == 0:
            p.loaded_bytes += sum(os.path.getsize(t) for t in inputs)

    traces = [_trace_path(root, e) for e in g.experiments]
    if len(traces) > 1:
        command(f"compare {g.name}",
                ["--out-root", os.path.join(root, "compare", g.name), "compare", *traces],
                traces)
    if g.fit:
        name, k_from, k_to = g.fit
        fit_trace = os.path.join(root, "traces", f"{name}.jsonl")
        command(f"fit {name}", ["fit", fit_trace, "--from", str(k_from), "--to", str(k_to)],
                [fit_trace])
    for e, t in zip(g.experiments, traces):
        command(f"export {e.name}", ["export", t, os.path.join(root, "csv", f"{e.name}.csv")],
                [t])


def _run_pass(cli, groups, config_paths, root, traced: bool) -> Pass:
    p = Pass(traced)
    tracer = Tracer() if traced else None
    clock = time.perf_counter
    ops = []
    with tracer if tracer else contextlib.nullcontext():
        calibrate.sample_after(0.0, p.kernel_s)
        for g in groups:
            for e in g.experiments:
                t0 = clock()
                code, err = _call(cli, ["--out-root", root, "run", config_paths[e.name]])
                p.run_s[e.name] = clock() - t0
                calibrate.sample_after(p.run_s[e.name], p.kernel_s)
                ops.append((e.name, code, err))
        post_kernel: list[float] = []
        for g in groups:
            times = []
            for _ in range(POST_REPEATS):
                t0 = clock()
                _postprocess(cli, g, root, p, ops)
                times.append(clock() - t0)
            p.post += statistics.median(times)
            calibrate.sample_after(sum(times), post_kernel)
        p.kernel_s += post_kernel
    p.raw_wall = sum(p.run_s.values()) + p.post
    p.scale = calibrate.scale(p.kernel_s)
    p.run_s = {name: p.scale * t for name, t in p.run_s.items()}
    # Post-processing is a short stretch of many small commands.  Samples
    # taken after each group's commands track the host's speed during it
    # best: on the 2-core host described in calibrate.py, medians of 7
    # repeats on descent_sweep varied by 0.035 (IQR/median) this way, and by
    # 0.085 when scaled by samples taken only at its end.
    p.post *= calibrate.scale(post_kernel)
    p.wall = sum(p.run_s.values()) + p.post
    p.tracer = tracer
    p.attempted = len({unit for unit, _, _ in ops})
    for unit, code, err in ops:
        if code != 0:
            p.fail(unit, f"exit {code} {err}".strip())
    return p


def _check_outputs(p: Pass, groups, root, reference: dict):
    """Correctness gate on one pass's reports and traces."""
    for g in groups:
        for e in g.experiments:
            try:
                with open(os.path.join(root, e.config["output"]["report"])) as fh:
                    report = json.load(fh)
                with open(_trace_path(root, e), "rb") as fh:
                    blob = fh.read()
            except (OSError, ValueError) as err:
                p.fail(e.name, f"unreadable output ({err})")
                continue
            bad = [k for k, v in report["guarantees"].items() if v["pass"] is False]
            if bad:
                p.fail(e.name, f"guarantee failed: {', '.join(bad)}")
            if report["errors"]:
                p.fail(e.name, f"errors {report['errors']}")
            records = blob.count(b'"type": "iter"')
            if records != e.config["run"]["k_max"] + 1:
                p.fail(e.name, f"{records} trace records, "
                               f"expected {e.config['run']['k_max'] + 1}")
            digest = hashlib.sha256(blob).hexdigest()
            p.digests[e.name] = digest
            if reference.setdefault(e.name, digest) != digest:
                p.fail(e.name, "trace differs from another pass")


# ---------------------------------------------------------------------------
# set-up, facts and metrics


def _setup_probe(workload, seed, root, i) -> float:
    """Time set-up in a fresh process; probe 0 fills ``root/cache``."""
    probe_dir = os.path.join(root, "setup", str(i))
    cache = os.path.join(root, "cache") if i == 0 else os.path.join(probe_dir, "cache")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), "--workload", workload,
         "--seed", str(seed), "--dir", probe_dir, "--cache-dir", cache],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=CHECKOUT)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _workload_facts(groups, root) -> dict:
    """Iteration counts, moving-step ratios and trace bytes from one pass.

    A step moves when the recorded iterate differs from the previous one.
    Ratios are given per algorithm label and per (label, manifold kind)."""
    iters, moving, size, records = {}, {}, 0, 0
    for g in groups:
        for e in g.experiments:
            keys = (e.label, f"{e.label}.{e.config['manifold']['kind']}")
            for key in keys:
                iters[key] = iters.get(key, 0) + e.config["run"]["k_max"]
            prev = None
            with open(_trace_path(root, e)) as fh:
                for line in fh:
                    rec = json.loads(line)
                    if rec.get("type") != "iter":
                        continue
                    records += 1
                    if prev is not None and rec["coords"] != prev:
                        for key in keys:
                            moving[key] = moving.get(key, 0) + 1
                    prev = rec["coords"]
            size += os.path.getsize(_trace_path(root, e))
    by_label = {lb: n for lb, n in iters.items() if "." not in lb}
    steps = sum(by_label.values())
    return {"experiments": sum(len(g.experiments) for g in groups),
            "iterations": by_label, "steps": steps,
            "moving_step_ratio": sum(moving.get(lb, 0) for lb in by_label) / steps,
            "moving_step_ratio_by_label": {k: moving.get(k, 0) / n for k, n in iters.items()},
            "trace_bytes": size, "trace_records": records}


def _end_to_end(passes, groups, setup, facts, failed_ratio) -> dict:
    """Medians over the timed untraced passes (normalized seconds)."""
    timed = [p for p in passes[1:] if not p.traced]
    per_exp = {e.name: statistics.median([p.run_s[e.name] for p in timed])
               for g in groups for e in g.experiments}
    m = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median([p.wall for p in timed]), "s"),
        "us_per_iter": (1e6 * sum(per_exp.values()) / facts["steps"], "us"),
        "postprocess_s": (statistics.median([p.post for p in timed]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_ratio": (failed_ratio, "ratio"),
        "raw_wall_s": (statistics.median([p.raw_wall for p in timed]), "s"),
        "reference_kernel.ms": (
            1e3 * statistics.median([k for p in timed for k in p.kernel_s]), "ms"),
    }
    for label, n in sorted(facts["iterations"].items()):
        t = sum(per_exp[e.name] for g in groups for e in g.experiments if e.label == label)
        m[f"{label}.us_per_iter"] = (1e6 * t / n, "us")
    return m


def _cold_reference_stats(groups, root) -> tuple[Tracer, float]:
    """Trace one cold build of each distinct objective (fresh cache); returns
    the tracer and the factor that normalizes its times."""
    from geodescent import harness
    from geodescent.traces import build_manifold

    tracer = Tracer()
    cache = os.path.join(root, "cold-cache")
    kernel: list[float] = []
    calibrate.sample_after(0.0, kernel)
    t0 = time.perf_counter()
    with tracer:
        for manifold, objective in workloads.distinct_objectives(groups):
            harness.build_objective(objective, build_manifold(manifold), cache_dir=cache)
    calibrate.sample_after(time.perf_counter() - t0, kernel)
    return tracer, calibrate.scale(kernel)


def _per_layer(passes, facts, cold_build: tuple[Tracer, float]) -> dict:
    """Per-layer metrics from the traced passes and the traced cold build."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes[1:] if not p.traced]
    first = traced[0].tracer
    calls, total, self_s = {}, {}, {}
    for p in traced:
        for name, s in p.tracer.stats().items():
            calls[name] = calls.get(name, 0) + s["calls"]
            total[name] = total.get(name, 0.0) + p.scale * s["total_s"]
            self_s[name] = self_s.get(name, 0.0) + p.scale * s["self_s"]
    steps = facts["steps"]
    first_calls = {n: s["calls"] for n, s in first.stats().items()}
    label_steps = facts["iterations"]
    descent_steps = sum(label_steps.get(lb, 0) for lb in RUN_DESCENT_LABELS)
    accel_steps = steps - descent_steps
    m = {}

    # A metric of a function is reported only on workloads that call it.
    def per_call(name, metric, scale, unit):
        if calls.get(name):
            m[metric] = (scale * total[name] / calls[name], unit)

    def per_iter(name):
        if first_calls.get(name):
            m[f"{name}.calls_per_iter"] = (first_calls[name] / steps, "count")

    for op in GEOMETRY_OPS:
        per_iter(f"geometry.{op}")
        per_call(f"geometry.{op}", f"geometry.{op}.us_per_call", 1e6, "us")
    for op in OBJECTIVE_OPS:
        per_iter(f"objectives.{op}")
        per_call(f"objectives.{op}", f"objectives.{op}.us_per_call", 1e6, "us")
    cold, cold_scale = cold_build
    ref = cold.stats().get("objectives.reference_minimize")
    if ref:
        m["objectives.reference_minimize.s"] = (cold_scale * ref["total_s"] / ref["calls"], "s")
        m["objectives.reference_minimize.grad_calls"] = (
            cold.pair_calls("objectives.reference_minimize", "objectives.gradient") / ref["calls"],
            "count")
    per_call("objectives.estimate_hessian_lipschitz", "objectives.estimate_hessian_lipschitz.s",
             1.0, "s")
    for step in DESCENT_STEPS:
        per_call(f"descent.{step}", f"descent.{step}.us_per_call", 1e6, "us")
    if first_calls.get("descent.proximal_step"):
        m["descent.proximal_step.grad_calls_per_call"] = (
            first.pair_calls("descent.proximal_step", "objectives.gradient")
            / first_calls["descent.proximal_step"], "count")
    if descent_steps:
        m["descent.run_descent.self_us_per_iter"] = (
            1e6 * self_s.get("descent.run_descent", 0.0) / (descent_steps * len(traced)), "us")
    m["descent.moving_step_ratio"] = (facts["moving_step_ratio"], "ratio")
    per_iter("acceleration.accel_step")
    per_iter("acceleration.distortion_rate")
    per_call("acceleration.accel_step", "acceleration.accel_step.us_per_call", 1e6, "us")
    per_call("acceleration.energy", "acceleration.energy.us_per_call", 1e6, "us")
    if accel_steps:
        m["acceleration.run_accelerated.self_us_per_iter"] = (
            1e6 * self_s.get("acceleration.run_accelerated", 0.0) / (accel_steps * len(traced)),
            "us")
    per_call("harness.build_objective", "harness.build_objective.ms", 1e3, "ms")
    per_call("harness.build_algorithm", "harness.build_algorithm.ms", 1e3, "ms")
    lookups = calls.get("harness.reference_cache", 0)
    if lookups:
        misses = sum(p.tracer.pair_calls("harness.reference_cache", "objectives.reference_minimize")
                     for p in traced)
        m["harness.ref_cache.hit_ratio"] = ((lookups - misses) / lookups, "ratio")
    if calls.get("harness.run_experiment"):
        m["harness.run_experiment.self_ms"] = (
            1e3 * self_s["harness.run_experiment"] / calls["harness.run_experiment"], "ms")
    per_call("harness.compare_report", "harness.compare_report.ms", 1e3, "ms")
    per_call("harness.fit_rate", "harness.fit_rate.ms", 1e3, "ms")
    per_call("traces.record", "traces.record.us_per_call", 1e6, "us")
    m["traces.bytes_written_per_iter"] = (facts["trace_bytes"] / facts["trace_records"], "B")
    loaded_mb = sum(p.loaded_bytes for p in traced) / 1e6
    m["traces.load_trace.ms_per_mb"] = (1e3 * total.get("traces.load_trace", 0.0) / loaded_mb,
                                        "ms/MB")
    if calls.get("cli.main"):
        m["cli.main.self_ms"] = (1e3 * self_s["cli.main"] / calls["cli.main"], "ms")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for p in traced:
        for layer, s in p.tracer.layer_self().items():
            layer_self[layer] += p.scale * s
    busy = sum(layer_self.values())
    for layer in LAYERS:
        if layer_self[layer]:
            m[f"{layer}.self_share"] = (layer_self[layer] / busy, "ratio")
    traced_wall = statistics.median([p.wall for p in traced])
    m["tracing_overhead_ratio"] = (
        traced_wall / statistics.median([p.wall for p in untraced]) - 1.0, "ratio")
    return m


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit}


def _declared_metrics(trace: int) -> list[str]:
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


# ---------------------------------------------------------------------------
# entry points


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the full result record."""
    cli = _import_program()
    root = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    try:
        groups = workloads.generate(workload, seed)
        t_start = time.perf_counter()
        setup = [_setup_probe(workload, seed, root, 0)]
        config_paths = workloads.write_configs(groups, os.path.join(root, "configs"))
        os.makedirs(os.path.join(root, "csv"))
        cold = _cold_reference_stats(groups, root) if trace else None

        reference: dict[str, str] = {}
        passes: list[Pass] = []
        while True:
            # warm-up first; traced runs then alternate traced and untraced passes
            is_traced = trace and len(passes) % 2 == 1
            p = _run_pass(cli, groups, config_paths, root, is_traced)
            _check_outputs(p, groups, root, reference)
            passes.append(p)
            if len(passes) == 1:
                facts = _workload_facts(groups, root)
            elif len(setup) < SETUP_REPEATS:
                # spread the set-up samples over the run, between passes
                setup.append(_setup_probe(workload, seed, root, len(setup)))
            done = len(passes) >= (3 if trace else 2) and len(setup) == SETUP_REPEATS
            if done and time.perf_counter() - t_start >= seconds:
                break

        timed = [p for p in passes[1:] if not p.traced]
        # one failed experiment or command counts once per pass, whatever its reasons
        failed = sum(len(p.failures) for p in passes)
        attempted = sum(p.attempted for p in passes)
        failures = [f"pass {i}: {unit}: {msg}" for i, p in enumerate(passes)
                    for unit, msgs in p.failures.items() for msg in msgs]
        metrics = _end_to_end(passes, groups, setup, facts, failed / attempted)
        if trace:
            metrics.update(_per_layer(passes, facts, cold))
            first_traced = next(p for p in passes if p.traced)
            first_traced.tracer.save(os.path.join(root, "spans.npz"))
        return {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "passes": len(passes), "attempted": attempted, "failed": failed,
            "failures": failures[:20], "env": _environment(), "facts": facts,
            "samples": {"setup_s": setup,
                        "pass_s": [p.wall for p in timed],
                        "raw_pass_s": [p.raw_wall for p in timed],
                        "scale": [p.scale for p in timed],
                        "postprocess_s": [p.post for p in timed],
                        "run_s": {n: [p.run_s[n] for p in timed] for n in passes[0].run_s}},
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        spans = os.path.join(root, "spans.npz")
        if os.path.exists(spans):
            os.replace(spans, root + "-spans.npz")
        shutil.rmtree(root, ignore_errors=True)


def _quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def compare(path_a: str, path_b: str) -> int:
    """Print every metric per workload: both sides' median, quartiles and ratio."""
    sides = []
    for path in (path_a, path_b):
        by = {}
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    for name, mv in rec["metrics"].items():
                        by.setdefault((rec["workload"], name), (mv["unit"], []))[1].append(
                            mv["value"])
        sides.append(by)
    a, b = sides
    print(f"{'workload':<15} {'metric':<46} {'unit':<6} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B/A':>7}")
    for key in sorted(set(a) | set(b)):
        cells = []
        for side in (a, b):
            if key in side:
                q1, med, q3 = _quartiles(side[key][1])
                cells.append((med, f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(side[key][1])}"))
            else:
                cells.append((None, "-"))
        unit = (a.get(key) or b.get(key))[0]
        ratio = (f"{cells[1][0] / cells[0][0]:.3f}"
                 if cells[0][0] and cells[1][0] is not None else "-")
        print(f"{key[0]:<15} {key[1]:<46} {unit:<6} {cells[0][1]:>34} {cells[1][1]:>34} "
              f"{ratio:>7}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full result record to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two JSON-lines result files instead of running")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")

    rec = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

    print(f"env: {json.dumps(rec['env'], sort_keys=True)}")
    print(f"facts: {json.dumps(rec['facts'], sort_keys=True)}")
    print(f"passes: {rec['passes']}  attempted: {rec['attempted']}  failed: {rec['failed']}")
    for f in rec["failures"]:
        print(f"failure: {f}")
    for name, mv in rec["metrics"].items():
        print(f"{name:<52} {mv['value']:>14.6g} {mv['unit']}")
    declared = _declared_metrics(args.trace)
    missing = [n for n in declared if n not in rec["metrics"]]
    if missing:
        print(f"error: metrics not measured on {args.workload}: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {n: rec["metrics"][n] for n in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
