"""Digest every trace and report of a fixed golden set of experiments, and
compare two digest files.

The golden set is ``demos/configs``, the seed-0 configs of the three
benchmark workloads (``bench/workloads.py``) and the extra configs below:
proximal and cubic-Newton runs, accelerated runs with ``oracle: proximal``,
oracle-delta runs on the g-convex schedule, with the proximal oracle and on
a Fréchet mean off one geodesic, Fréchet means on a sphere cap, problems on
a sphere of radius 1.5, two runs whose reports hold a void check, an
accelerated run that leaves its domain, a proximal run whose inner solve
fails, a squared distance whose target overflows the hyperboloid's
coordinates, which fails to build, and five configs whose run constants
cannot hold (c >= 1/(2*mu), an objective that is not strongly g-convex in
strongly mode, an rgd eta above 2/L, a xi0 above sqrt(2*mu*c) and an
accelerated run on a nonconvex objective), which the start checks refuse
when they are built.

Usage::

    PYTHONPATH=src python3 scripts/trace_digests.py digests.json
    PYTHONPATH=src python3 scripts/trace_digests.py --no-counts tests/goldens.json
    python3 scripts/trace_digests.py --compare before.json after.json

The first form runs each config with the ``geodescent`` found on the path
(so ``PYTHONPATH=<checkout>/src`` digests another checkout) and writes, per
config, the sha256 of its trace, its report and its trace's metadata line
(x0, f* and the config), its exit code, its guarantee verdicts, its count
of iteration records, its ``f``, ``grad_norm`` and ``delta`` columns and the
rho it estimated (null where it estimated none), or for a config that fails
to build, exit code 2 and its violations, with no trace; under ``src_lines`` and
``src_module_lines`` the line count of that package's ``.py`` files, in
total and per module, and under ``src_options`` and ``src_module_options``
its count of options, in total and per module: the parameter defaults of
every function, method and lambda, plus the defaulted fields of every
``@dataclass``; and under ``src_option_names`` each option's name, such as
``descent.py:IterateTrace.record.slack`` or
``acceleration.py:run_accelerated.delta_mode``.  It then runs each config a
second time in the same output root, where the f* and rho cache entries of
the first run are warm, and exits 1 if any trace or report differs from the
cold run's.  The file holds one entry per line, so a diff of two digest
files shows which configs moved.
The second form leaves the counts out; it writes ``tests/goldens.json``,
which ``tests/test_goldens.py`` checks the tree against.  ``--compare``
prints both line counts and both option counts, each with the modules whose
counts differ (``n/a`` for a file written before they were recorded), the
option names removed and added, and lists the configs whose digests differ,
with the largest absolute difference in each column, whether the metadata
line is identical, both estimated rho and both record counts (``n/a`` for a
file written before the metadata line, rho or the count was recorded, or
with no trace) and whether any verdict, exit code or violation changed; it
exits 1 if one did or a config is missing.
"""

from __future__ import annotations

import argparse
import ast
import glob
import hashlib
import json
import os
import sys
import tempfile
from collections import Counter

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COLUMNS = ("f", "grad_norm", "delta")
# the digest file's keys for the line counts; config names all hold a "/"
SRC_LINES = "src_lines"
SRC_MODULE_LINES = "src_module_lines"
SRC_OPTIONS = "src_options"
SRC_MODULE_OPTIONS = "src_module_options"
SRC_OPTION_NAMES = "src_option_names"

_H2 = {"kind": "hyperboloid", "n": 2, "kappa": 1.0}
_S2R15 = {"kind": "sphere", "n": 2, "radius": 1.5}
_SQDIST = {"kind": "squared_distance", "seed": 3, "target_distance": 0.8, "domain_radius": 2.0}
_FRECHET = {"kind": "frechet_mean", "seed": 7, "num_points": 5, "spread": 0.5,
            "domain_radius": 1.0}
_RUN = {"k_max": 40, "x0_seed": 5, "x0_distance": 1.0}
_RUN_S = {"k_max": 40, "x0_seed": 5, "x0_distance": 0.5}

# name -> (manifold, objective, algorithm, run)
EXTRA = {
    "h2-sqdist.proximal-eta0.5": (_H2, _SQDIST, {"kind": "proximal", "eta": 0.5}, _RUN),
    "h2-sqdist.proximal-eta4": (_H2, _SQDIST, {"kind": "proximal", "eta": 4.0}, _RUN),
    "h2-sqdist.cubic-rho1": (_H2, _SQDIST, {"kind": "cubic_newton", "rho": 1.0}, _RUN),
    "h2-frechet.proximal": (_H2, _FRECHET, {"kind": "proximal", "eta": 1.0}, _RUN),
    "h2-frechet.cubic": (_H2, _FRECHET, {"kind": "cubic_newton"}, _RUN),
    "h2-sqdist.accel-proximal-strongly": (
        _H2, _SQDIST, {"kind": "accelerated", "mode": "strongly", "oracle": "proximal",
                       "eta": 0.5}, {**_RUN, "k_max": 60}),
    "h2-sqdist.accel-proximal-gconvex": (
        _H2, _SQDIST, {"kind": "accelerated", "mode": "gconvex", "oracle": "proximal",
                       "eta": 0.5}, {**_RUN, "k_max": 60}),
    # oracle delta on the schedules the seed-0 workloads leave out
    "h2-sqdist.accel-gconvex-oracle-delta": (
        _H2, _SQDIST, {"kind": "accelerated", "mode": "gconvex", "delta_mode": "oracle"},
        {**_RUN, "k_max": 60}),
    "h2-sqdist.accel-proximal-strongly-oracle-delta": (
        _H2, _SQDIST, {"kind": "accelerated", "mode": "strongly", "oracle": "proximal",
                       "eta": 0.5, "delta_mode": "oracle"}, {**_RUN, "k_max": 60}),
    # the iterates of a squared distance stay on the geodesic through x0 and
    # x*, where the realized distortion rate is 1; a Fréchet mean's leave it,
    # so this fixed point takes more than one step per iteration
    "h2-frechet20.accel-strongly-oracle-delta": (
        _H2, {"kind": "frechet_mean", "seed": 0, "num_points": 20, "spread": 1.0,
              "domain_radius": 2.0},
        {"kind": "accelerated", "mode": "strongly", "eta": 0.05, "delta_mode": "oracle"},
        {**_RUN, "k_max": 150}),
    # 2r + d exceeds pi*R here, so the proximal step's curvature bound
    # must not use the sphere's own curvature
    "s2-sqdist-wide.proximal": (
        {"kind": "sphere", "n": 2}, {**_SQDIST, "target_distance": 0.5, "domain_radius": 1.5},
        {"kind": "proximal", "eta": 1.0}, _RUN),
    "s2r1.5-rayleigh.rgd": (_S2R15, {"kind": "sphere_rayleigh"}, {"kind": "rgd"}, _RUN_S),
    "s2r1.5-rayleigh.proximal": (_S2R15, {"kind": "sphere_rayleigh"},
                                 {"kind": "proximal", "eta": 1.0}, _RUN_S),
    "s2r1.5-rayleigh.cubic": (_S2R15, {"kind": "sphere_rayleigh"}, {"kind": "cubic_newton"},
                              _RUN_S),
    "s2r1.5-sqdist.rgd": (_S2R15, {**_SQDIST, "target_distance": 0.5, "domain_radius": 1.0},
                          {"kind": "rgd"}, _RUN_S),
    "s2r1.5-sqdist.proximal": (_S2R15, {**_SQDIST, "target_distance": 0.5,
                                        "domain_radius": 1.0},
                               {"kind": "proximal", "eta": 1.0}, _RUN_S),
    "s2r1.5-sqdist.cubic": (_S2R15, {**_SQDIST, "target_distance": 0.5, "domain_radius": 1.0},
                            {"kind": "cubic_newton"}, _RUN_S),
    "s2r1.5-frechet.rgd": (_S2R15, _FRECHET, {"kind": "rgd"}, _RUN_S),
    "s2r1.5-frechet.cubic": (_S2R15, _FRECHET, {"kind": "cubic_newton"}, _RUN_S),
    # void checks: the iterate leaves a run ball smaller than the objective's
    # (gconvex_envelope), and a start at the minimizer leaves no envelope
    # above the floor (product_rate_bound)
    "h2-sqdist.rgd-domain-exit": (
        _H2, _SQDIST, {"kind": "rgd"}, {**_RUN, "x0_distance": 0.25, "domain_radius": 0.5}),
    # an accelerated run that leaves a wider ball, at k = 3
    "h2-sqdist.accel-strongly-domain-exit": (
        _H2, _SQDIST, {"kind": "accelerated", "mode": "strongly"},
        {**_RUN, "x0_distance": 0.25, "domain_radius": 0.7}),
    "h2-sqdist.accel-strongly-at-target": (
        _H2, {**_SQDIST, "domain_center": "target"}, {"kind": "accelerated", "mode": "strongly"},
        {**_RUN, "x0_distance": 0.0}),
    # eta * grad f overflows, so the first inner residual is NaN: exit 1 with
    # a ProximalSolverError in the report
    "h2-sqdist.proximal-eta1e300": (
        {"kind": "hyperboloid", "n": 2}, {"kind": "squared_distance"},
        {"kind": "proximal", "eta": 1.0e300}, {"k_max": 5}),
    # exp to a target at distance 1e3 overflows cosh: a config error, exit 2
    "h2-sqdist.far-target": (
        {"kind": "hyperboloid", "n": 2}, {"kind": "squared_distance", "target_distance": 1.0e3},
        {"kind": "rgd"}, {"k_max": 5}),
    # run constants that cannot hold, which the start checks refuse when the
    # config is built: config errors, exit 2
    "e2-sqdist.accel-strongly-c-too-large": (
        {"kind": "euclidean", "n": 2}, {"kind": "squared_distance"},
        {"kind": "accelerated", "mode": "strongly"}, {"k_max": 5}),
    "s2-sqdist.accel-strongly-not-strongly": (
        {"kind": "sphere", "n": 2}, {"kind": "squared_distance", "domain_radius": 1.2},
        {"kind": "accelerated", "mode": "strongly", "delta_mode": "oracle"}, {"k_max": 5}),
    "h2-sqdist.rgd-eta2": (
        {"kind": "hyperboloid", "n": 2}, {"kind": "squared_distance"},
        {"kind": "rgd", "eta": 2.0}, {"k_max": 5}),
    "h2-sqdist.accel-strongly-xi0-0.99": (
        {"kind": "hyperboloid", "n": 2}, {"kind": "squared_distance"},
        {"kind": "accelerated", "mode": "strongly", "xi0": 0.99}, {"k_max": 5}),
    "s2-rayleigh.accel-oracle-delta": (
        {"kind": "sphere", "n": 2}, {"kind": "sphere_rayleigh"},
        {"kind": "accelerated", "delta_mode": "oracle"}, {"k_max": 3, "x0_seed": 4}),
}


def _write_configs(directory: str) -> list[str]:
    """Write the golden set's configs under ``directory``; returns their paths."""
    import yaml

    sys.path.insert(0, os.path.join(REPO, "bench"))
    import workloads

    paths = sorted(glob.glob(os.path.join(REPO, "demos", "configs", "*.yaml")))
    for w in workloads.WORKLOADS:
        paths += sorted(workloads.write_configs(workloads.generate(w, 0),
                                                os.path.join(directory, w)).values())
    extra_dir = os.path.join(directory, "extra")
    os.makedirs(extra_dir)
    for name, (manifold, objective, algorithm, run) in EXTRA.items():
        path = os.path.join(extra_dir, f"{name}.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump({"manifold": manifold, "objective": objective,
                            "algorithm": algorithm, "run": run,
                            "output": {"trace": f"{name}.jsonl", "report": f"{name}.json"}},
                           fh, sort_keys=True)
        paths.append(path)
    return paths


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _src_lines(package_dir: str) -> dict[str, int]:
    """Lines in each of the package's ``.py`` files, as ``wc -l`` counts them."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(package_dir, "*.py"))):
        with open(path, "rb") as fh:
            counts[os.path.basename(path)] = fh.read().count(b"\n")
    return counts


def _src_options(package_dir: str) -> dict[str, list[str]]:
    """Names of the options in each of the package's ``.py`` files: the
    parameter defaults of its functions, methods and lambdas, and the
    defaulted fields of its ``@dataclass`` classes, each as the qualified
    name of its function or class, a dot and its own name."""
    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return (target.attr if isinstance(target, ast.Attribute)
                else getattr(target, "id", None)) == "dataclass"

    def options(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scope += getattr(node, "name", "<lambda>") + "."
            a = node.args
            positional = a.posonlyargs + a.args
            yield from (scope + p.arg for p in positional[len(positional) - len(a.defaults):])
            yield from (scope + p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                        if d is not None)
        elif isinstance(node, ast.ClassDef):
            scope += node.name + "."
            if any(map(is_dataclass, node.decorator_list)):
                yield from (scope + f.target.id for f in node.body
                            if isinstance(f, ast.AnnAssign) and f.value is not None)
        for child in ast.iter_child_nodes(node):
            yield from options(child, scope)

    names = {}
    for path in sorted(glob.glob(os.path.join(package_dir, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        module = os.path.basename(path)
        names[module] = [f"{module}:{name}" for name in options(tree, "")]
    return names


def _rho(root: str) -> float | None:
    """The rho estimated under the output root ``root``, or None if none was."""
    paths = glob.glob(os.path.join(root, "cache", "rho-*.json"))
    if not paths:
        return None
    (path,) = paths  # one algorithm per config, so at most one estimate
    with open(path) as fh:
        return json.load(fh)["rho"]


def digest(out_path: str, counts: bool = True) -> int:
    from geodescent import harness

    package_dir = os.path.dirname(harness.__file__)
    print(f"geodescent from {package_dir}", file=sys.stderr)
    digests = {}
    if counts:
        modules, options = _src_lines(package_dir), _src_options(package_dir)
        digests = {SRC_LINES: sum(modules.values()), SRC_MODULE_LINES: modules,
                   SRC_OPTIONS: sum(map(len, options.values())),
                   SRC_MODULE_OPTIONS: {k: len(v) for k, v in options.items()},
                   SRC_OPTION_NAMES: sorted(n for v in options.values() for n in v)}
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for path in _write_configs(os.path.join(tmp, "configs")):
            name = f"{os.path.basename(os.path.dirname(path))}/{os.path.basename(path)}"
            # each config gets its own output root, so no cache entry is shared
            # between configs; the second run reads the first run's entries
            root = os.path.join(tmp, "out", name)
            try:
                result = harness.run_experiment(harness.load_config(path), root)
            except harness.ConfigError as e:
                digests[name] = {"exit_code": 2, "violations": e.violations}
                print(f"{name}: exit 2", file=sys.stderr)
                continue
            columns = {c: [] for c in COLUMNS}
            with open(result.trace_path, "rb") as fh:
                meta, *records = fh.readlines()
                for line in records:
                    rec = json.loads(line)
                    for c in COLUMNS:
                        columns[c].append(rec.get(c))
            digests[name] = {
                "trace_sha256": _sha256(result.trace_path),
                "report_sha256": _sha256(result.report_path),
                "metadata_sha256": hashlib.sha256(meta).hexdigest(),
                "exit_code": result.exit_code,
                "verdicts": {g: v["pass"] for g, v in result.report["guarantees"].items()},
                "errors": result.report["errors"],
                "rho": _rho(root),
                "records": len(records),
                **columns,
            }
            warm = harness.run_experiment(harness.load_config(path), root)
            same = _files(digests[name]) == (_sha256(warm.trace_path), _sha256(warm.report_path),
                                             None)
            if not same:
                status = 1
            print(f"{name}: exit {result.exit_code}"
                  + ("" if same else "; warm-cache rerun DIFFERS"), file=sys.stderr)
    with open(out_path, "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(digests[key], sort_keys=True)}"
                                    for key in sorted(digests)) + "\n}\n")
    return status


def _max_abs_diff(a, b) -> float | None:
    pairs = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    if len(a) != len(b) or len(pairs) != sum(x is not None for x in a):
        return float("inf")
    return max((abs(x - y) for x, y in pairs), default=None)


def _files(d: dict) -> tuple:
    """What an entry's identity rests on: its trace and report, or the
    violations of a config that failed to build."""
    return d.get("trace_sha256"), d.get("report_sha256"), d.get("violations")


def compare(a_path: str, b_path: str) -> int:
    with open(a_path) as fh:
        a = json.load(fh)
    with open(b_path) as fh:
        b = json.load(fh)
    for label, total, per_module in (("lines", SRC_LINES, SRC_MODULE_LINES),
                                     ("options", SRC_OPTIONS, SRC_MODULE_OPTIONS)):
        totals = [d.pop(total, None) for d in (a, b)]
        print(f"src {label} " + " → ".join("n/a" if n is None else f"{n:,}" for n in totals))
        modules = [d.pop(per_module, None) for d in (a, b)]
        if None in modules:
            print("  per module n/a")
            continue
        for module in sorted(set(modules[0]) | set(modules[1])):
            counts = [m.get(module) for m in modules]
            if counts[0] != counts[1]:
                print(f"  {module} " + " → ".join("-" if n is None else f"{n:,}" for n in counts))
    names = [d.pop(SRC_OPTION_NAMES, None) for d in (a, b)]
    if None in names:
        print("option names n/a")
    else:
        before, after = map(Counter, names)
        for label, diff in (("removed", before - after), ("added", after - before)):
            print(f"options {label}: " + (", ".join(sorted(diff.elements())) or "none"))
    status = identical = 0
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            print(f"{name}: only in {a_path if name in a else b_path}")
            status = 1
            continue
        da, db = a[name], b[name]
        if _files(da) == _files(db):
            identical += 1
            continue
        diffs = {c: _max_abs_diff(da.get(c, []), db.get(c, [])) for c in COLUMNS}
        keys = ("verdicts", "exit_code", "errors", "violations")
        same = [da.get(k) for k in keys] == [db.get(k) for k in keys]
        if not same:
            status = 1
        traces = da.get("trace_sha256"), db.get("trace_sha256")
        changed = ("trace " + " → ".join("none" if t is None else "written" for t in traces)
                   if None in traces else "trace and report differ" if traces[0] != traces[1]
                   else "report differs")
        metas = da.get("metadata_sha256"), db.get("metadata_sha256")
        meta = ("n/a" if None in metas else "identical" if metas[0] == metas[1]
                else "DIFFERS")
        exit_code, rho, records = (
            " → ".join("n/a" if key not in d else repr(d[key]) for d in (da, db))
            for key in ("exit_code", "rho", "records"))
        diff = ", ".join(f"{c} {v:.3g}" for c, v in diffs.items() if v is not None)
        print(f"{name}: {changed}" + (f"; max |diff| {diff}" if diff else "")
              + f"; metadata {meta}; exit {exit_code}; rho {rho}; iter records {records}"
              + f"; verdicts, exit code and violations {'unchanged' if same else 'CHANGED'}")
    print(f"{identical} of {len(set(a) | set(b))} configs byte-identical")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("paths", nargs="+", metavar="PATH",
                    help="the digest file to write, or with --compare the two to compare")
    ap.add_argument("--compare", action="store_true",
                    help="compare two digest files instead of running the golden set")
    ap.add_argument("--no-counts", action="store_true",
                    help="leave out the line and option counts, as tests/goldens.json does")
    args = ap.parse_args(argv)
    if args.compare:
        if len(args.paths) != 2:
            ap.error("--compare takes two digest files")
        return compare(*args.paths)
    if len(args.paths) != 1:
        ap.error("give one output path")
    return digest(args.paths[0], counts=not args.no_counts)


if __name__ == "__main__":
    sys.exit(main())
