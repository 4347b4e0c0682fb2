"""Experiment configuration, execution, persistence and reporting.

Configs are YAML with five sections (manifold, objective, algorithm, run,
output).  ``run_experiment`` executes one config, streams the trace to a
JSON-lines file and writes a JSON report in which every guarantee the
config activates appears with a pass/fail verdict and its worst slack.
Runs are deterministic: the config's seeds expand through ``numpy`` default
generators and nothing else is random.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import operator
import os
import tempfile
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, takewhile

import numpy as np
import yaml

from geodescent import acceleration as accel
from geodescent import config
from geodescent import descent as desc
from geodescent.config import ORACLE_KINDS, SECTIONS, finite, value
from geodescent.geometry import DomainSpec, Manifold, TangentVector, in_domain
from geodescent.objectives import (
    NONCONVEX,
    RHO_FLOOR,
    RHO_STEP_SCALE,
    FrechetMean,
    Objective,
    Quadratic,
    SphereRayleigh,
    SquaredDistance,
    estimate_hessian_lipschitz,
)
from geodescent.traces import TraceData, TraceWriter, build_manifold, manifold_spec

__all__ = [
    "ConfigError",
    "ConfigWarning",
    "ExperimentConfig",
    "load_config",
    "build_objective",
    "build_algorithm",
    "run_experiment",
    "ExperimentResult",
    "RateFit",
    "fit_rate",
    "fit_power_law",
    "Comparison",
    "compare_report",
    "REPORT_SCHEMA",
    "OUTPUT_ROOT_ENV",
]

REPORT_SCHEMA = 1
OUTPUT_ROOT_ENV = "GEODESCENT_OUTPUT_ROOT"
# the bands |xi_k - sqrt(2*mu*c)| <= eps of the report's xi convergence table
XI_LEVELS = (1e-1, 1e-2, 1e-3, 1e-6)

# libyaml's loader where PyYAML was built with it: the same constructor and
# resolver as yaml.SafeLoader, so the same mapping
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# defaults written into the sections, so the report echoes and hashes them
_FILLED = (("run", "k_max"), ("output", "trace"), ("output", "report"))


class ConfigError(ValueError):
    """Invalid experiment config; ``violations`` lists every problem found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ConfigWarning(UserWarning):
    pass


@dataclass
class ExperimentConfig:
    manifold: dict
    objective: dict
    algorithm: dict
    run: dict
    output: dict

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in SECTIONS}

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config against ``config.SCHEMA``,
    collecting *all* violations."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as e:
        raise ConfigError([f"cannot read the config: {e}"]) from e
    except yaml.YAMLError as e:
        raise ConfigError([f"parse error: {e}"]) from e
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a mapping with sections"])

    violations = []
    sections = {}
    for name in SECTIONS:
        sec = raw.get(name)
        if sec is None and name in ("run", "output"):
            sec = {}  # optional sections
        if not isinstance(sec, dict):
            violations.append(f"missing or malformed section '{name}'")
            sec = {}
        sections[name] = dict(sec)
    if "k_max" not in sections["run"]:
        warnings.warn(f"run.k_max missing, defaulting to {value('run', {}, 'k_max')}",
                      ConfigWarning)
    for section, key in _FILLED:
        sections[section].setdefault(key, value(section, {}, key))

    # vector lengths are checked against the manifold once its section is valid
    dims = None
    if not (found := config.violations("manifold", sections["manifold"], None)):
        try:
            m = build_manifold(sections["manifold"])
            dims = (m.dim, m.ambient_dim)
        except (TypeError, ValueError, ArithmeticError):
            pass  # such as a null radius: _build_experiment reports it
    violations += found
    for name in SECTIONS[1:]:
        violations += config.violations(name, sections[name], dims)
    violations += _cross_section_violations(sections)
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(**sections)


def _cross_section_violations(sections) -> list[str]:
    """The rules that tie keys together, which the table's per-key types
    cannot state."""
    mkind, okind = sections["manifold"].get("kind"), sections["objective"].get("kind")
    out = sections["output"]
    rules = (
        (out.get("trace") == out.get("report"), "output.trace and output.report must differ"),
        (okind == "sphere_rayleigh" and mkind not in (None, "sphere"),
         "sphere_rayleigh requires manifold.kind = sphere"),
        (okind == "quadratic" and mkind not in (None, "euclidean"),
         "quadratic requires manifold.kind = euclidean"),
    )
    return [message for broken, message in rules if broken]


# ---------------------------------------------------------------------------
# builders


def _point_at(m: Manifold, rng, center, dist: float):
    # every x0 and target is drawn here: it keeps _random_tangent's row sums
    v = m.random_tangent(rng, center, 1.0)
    n = m.norm(center, v)
    u = m.orthonormal_basis(center)[0] if n < 1e-12 else v.coords / n
    p = m.exp(center, TangentVector(center, dist * u))
    if not np.isfinite(p.coords).all():
        raise ValueError(f"a point at distance {dist:g} overflows the coordinates of {m.key}")
    return p


def build_objective(spec: dict, manifold: Manifold, cache_dir=None) -> Objective:
    """Instantiate the configured objective; sample data comes from the
    spec's own seed so identical configs give identical objectives."""
    kind, get = spec["kind"], partial(value, "objective", spec)
    rng = np.random.default_rng(get("seed"))
    radius = float(get("domain_radius"))
    if kind == "quadratic":
        return Quadratic(spec["b"] if "b" in spec else [0.0] * manifold.dim, get("scales"),
                         domain_radius=radius)
    if kind == "squared_distance":
        target = get("target")
        target = manifold.point(target) if target is not None else _point_at(
            manifold, rng, manifold.origin(), float(get("target_distance")))
        center = target if get("domain_center") == "target" else manifold.origin()
        return SquaredDistance(manifold, target, domain=DomainSpec(center, radius))
    if kind == "frechet_mean":
        num = int(get("num_points"))
        spread = float(get("spread"))
        origin = manifold.origin()
        # num random_tangent draws at the origin in one: the same normal
        # stream and basis sums, whose results are tangent there already;
        # row by row, not coeff @ basis, whose BLAS sum rounds differently
        coeff = rng.normal(0.0, spread, size=(num, manifold.dim))
        tangents = np.zeros((num, manifold.ambient_dim))
        for c, b in zip(coeff.T, manifold.orthonormal_basis(origin)):
            tangents += c[:, None] * b
        obj = FrechetMean(manifold, manifold._exp_rows(origin.coords, tangents),
                          domain=DomainSpec(origin, radius), solve_reference=False)
        _attach_reference_solution(obj, spec, cache_dir)
        return obj
    if kind == "sphere_rayleigh":
        diag = spec["diag"] if "diag" in spec else 2.0 / 2.0 ** np.arange(manifold.ambient_dim)
        return SphereRayleigh(manifold, np.diag(diag))
    raise ConfigError([f"unknown objective kind {kind!r}"])


def _cached(cache_dir, name: str, key_spec: dict, compute, load):
    """``load(entry)`` of the JSON entry ``<cache_dir>/<name>-<key>.json``,
    keyed by the sha256 of ``key_spec``.  An entry that is missing, cannot be
    parsed or that ``load`` rejects (KeyError, TypeError, ValueError) is a
    miss: ``compute()`` makes a new one, which replaces the file atomically.
    Without a ``cache_dir`` nothing is read or written."""
    if cache_dir is None:
        return load(compute())
    key = hashlib.sha256(json.dumps(key_spec, sort_keys=True).encode()).hexdigest()[:16]
    path = os.path.join(cache_dir, f"{name}-{key}.json")
    try:
        with open(path) as fh:
            return load(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError):
        pass  # missing, truncated or invalid: recompute and replace it
    entry = compute()
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{name}-", suffix=".tmp", dir=cache_dir)
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(entry, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return load(entry)


def _attach_reference_solution(obj: Objective, spec: dict, cache_dir):
    """Reference minimizer for objectives without a closed form, cached on
    disk under the hash of the objective spec and manifold."""
    from geodescent.objectives import reference_minimize

    def solve():
        x_star = reference_minimize(obj, obj.domain.center)
        return {"x_star": x_star.coords.tolist(), "f_star": obj.value(x_star)}

    def attach(entry):
        if not finite(entry["f_star"]):
            raise ValueError("f_star must be a finite number")
        obj._set_solution(obj.manifold.point(entry["x_star"]), entry["f_star"])

    _cached(cache_dir, "fstar", {"objective": spec, "manifold": obj.manifold.key},
            solve, attach)


# the seed and arguments of the Hessian-Lipschitz estimate, part of its cache key
_RHO_ESTIMATOR = {"rho_seed": 0, "n_samples": 200, "step_scale": RHO_STEP_SCALE, "floor": RHO_FLOOR}


def _hessian_lipschitz(obj: Objective, objective_spec: dict, cache_dir) -> float:
    """Estimated rho of the objective, cached on disk under the hash of the
    objective spec, manifold and the estimator's seed and arguments."""
    def estimate():
        rng = np.random.default_rng(_RHO_ESTIMATOR["rho_seed"])
        return {"rho": estimate_hessian_lipschitz(obj, rng, _RHO_ESTIMATOR["n_samples"])}

    def read(entry):
        if not (finite(entry["rho"]) and entry["rho"] > 0):
            raise ValueError("rho must be a positive finite number")
        return float(entry["rho"])

    key = {"objective": objective_spec, "manifold": obj.manifold.key, **_RHO_ESTIMATOR}
    return _cached(cache_dir, "rho", key, estimate, read)


def build_algorithm(spec: dict, obj: Objective, objective_spec: dict, cache_dir):
    """Instantiate the configured descent algorithm; for the accelerated
    scheme, its oracle (``algorithm.oracle``, default rgd).  Cubic Newton
    without ``rho`` on an objective that declares none estimates it, read
    from or stored in ``cache_dir`` (None: neither) under ``objective_spec``
    (the config's objective section).  The objective is not changed."""
    kind, get = spec["kind"], partial(value, "algorithm", spec)
    if kind == "rgd":
        L = obj.metadata.L
        return desc.GradientDescent(float(get("eta") if "eta" in spec or not L else 1.0 / L))
    if kind == "proximal":
        return desc.ProximalPoint(float(get("eta")))
    if kind == "cubic_newton":
        rho = get("rho")
        if rho is None and obj.metadata.rho in (None, 0.0):
            rho = _hessian_lipschitz(obj, objective_spec, cache_dir)
        return desc.CubicNewton(get("M"), get("theta"), None if rho is None else float(rho))
    if kind == "accelerated":
        oracle = get("oracle")
        if oracle not in ORACLE_KINDS:
            raise ConfigError([f"unknown oracle kind {oracle!r}"])
        return build_algorithm({**spec, "kind": oracle}, obj, objective_spec, cache_dir)
    raise ConfigError([f"unknown algorithm kind {kind!r}"])


# ---------------------------------------------------------------------------
# guarantee checks


def _verdict(slacks, tol, detail=None):
    """One check's report entry from its per-step slacks (observed - bound),
    of which the largest decides.  The check is void, with ``detail`` saying
    why, when ``slacks`` is None (the check does not apply) or empty (it
    examined no step)."""
    if slacks is not None and not slacks:
        detail = "voided: no step examined" + (f" ({detail})" if detail else "")
    if not slacks:
        return {"pass": None, "worst_slack": None, "detail": detail}
    worst = max(slacks)
    return {"pass": bool(worst <= tol), "worst_slack": worst, "detail": detail}


def _above_floor(bounds, scale):
    """The leading bounds not below ``ENVELOPE_FLOOR * max(1, scale)``: an
    envelope checked past them is no longer numerically meaningful."""
    floor = desc.ENVELOPE_FLOOR * max(1.0, scale)
    return list(takewhile(lambda bound: not bound < floor, bounds))


def _check_gconvex_envelope(trace, cert, f_star, diam, tol):
    if trace.domain_exit is not None:
        return _verdict(None, tol, f"voided: domain exit at k={trace.domain_exit}")
    slacks = [trace.values[k] - f_star
              - desc.rate_bound_gconvex(cert.p, cert.c, diam, k, cert.direction)
              for k in range(1, len(trace))]
    return _verdict(slacks, tol, f"diam={diam:g}")


def _check_min_grad_envelope(trace, cert, f_star, tol):
    gap0 = trace.values[0] - f_star
    best = list(accumulate(trace.grad_norms, min))
    slacks = [best[k] - desc.rate_bound_nonconvex(cert.c, cert.p, gap0, k)
              for k in range(1, len(trace))]
    return _verdict(slacks, tol)


def _check_graddom_envelope(trace, cert, tau, f_star, tol):
    if cert.direction == desc.BACKWARD and cert.c > tau:
        return _verdict(None, tol, "skipped: backward envelope needs c <= tau")
    gap0 = trace.values[0] - f_star
    bounds = _above_floor((desc.rate_bound_graddom(cert.c, tau, k, cert.direction, gap0)
                           for k in range(1, len(trace))), gap0)
    slacks = [trace.values[k] - f_star - bound for k, bound in enumerate(bounds, 1)]
    return _verdict(slacks, tol, f"tau={tau:g}, horizon k<={len(bounds)}")


def _check_accel_gconvex(run, tol):
    delta_max = list(accumulate((s.delta for s in run.schedules), max, initial=1.0))
    slacks = [run.energies[k].f_gap
              - accel.accel_gconvex_bound(run.E0, run.c, run.diam, delta_max[k], k)
              for k in range(1, len(run.trace))]
    return _verdict(slacks, tol, f"delta_max={delta_max[-1]:g}")


def _check_energy_step(run, tol):
    slacks = [run.energies[k + 1].E - run.energies[k].E
              - (4.0 / run.c) * (1.0 - 1.0 / s.delta) * run.diam**2
              for k, s in enumerate(run.schedules)]
    return _verdict(slacks, tol)


def _check_product_rate(run, tol):
    prods = accumulate((1.0 - s.xi for s in run.schedules), operator.mul)
    bounds = _above_floor((prod * run.E0 for prod in prods), run.E0)
    slacks = [run.energies[k].f_gap - bound for k, bound in enumerate(bounds, 1)]
    return _verdict(slacks, tol, f"horizon k<={len(bounds)}")


def _xi_table(run):
    """Convergence table of the contraction factor toward sqrt(2*mu*c)."""
    xi = run.xi_seq
    firsts, slope = accel.xi_convergence_levels(xi, run.mu, run.c, XI_LEVELS)
    table = {f"first_k_within_{eps:g}": k for eps, k in zip(XI_LEVELS, firsts)}
    table.update({"target": math.sqrt(2.0 * run.mu * run.c), "final": xi[-1],
                  "log_deviation_slope": None if math.isnan(slope) else slope})
    return table


# ---------------------------------------------------------------------------
# experiment driver


@dataclass
class ExperimentResult:
    exit_code: int
    report: dict
    trace_path: str
    report_path: str


def _build_experiment(cfg: ExperimentConfig, cache_dir=None):
    """Build a config's manifold, objective, algorithm, its certificate from the
    run's start checks (``accel.check_start`` when accelerated), domain and x0 for
    ``validate`` and ``run_experiment``; a ValueError, TypeError (a null where a
    number belongs) or ArithmeticError becomes a ConfigError, with no numpy warning."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            manifold = build_manifold(cfg.manifold)
            obj = build_objective(cfg.objective, manifold, cache_dir)
            alg = build_algorithm(cfg.algorithm, obj, cfg.objective, cache_dir)
            get = partial(value, "algorithm", cfg.algorithm)
            cert = (accel.check_start(obj, get("mode"), alg, get("delta_mode"), get("xi0"))[0]
                    if cfg.algorithm["kind"] == "accelerated" else alg.certificate(obj))

            run = cfg.run
            radius = float(run["domain_radius"]) if "domain_radius" in run else obj.domain.radius
            if radius > obj.domain.radius + 1e-12:
                raise ConfigError(["run.domain_radius exceeds the objective's ball: "
                                   "declared constants would not apply"])
            dom = DomainSpec(obj.domain.center, radius)

            rng_x0 = np.random.default_rng(value("run", run, "x0_seed"))
            if "x0" in run:
                x0 = manifold.point(run["x0"])
            else:
                dist = float(run["x0_distance"]) if "x0_distance" in run else 0.5 * dom.radius
                x0 = _point_at(manifold, rng_x0, dom.center, dist)
            if not in_domain(dom, x0):
                raise ValueError("the start point (run.x0 or run.x0_distance) must lie inside the domain")
    except ConfigError:
        raise
    except (TypeError, ValueError, ArithmeticError) as e:
        raise ConfigError([f"cannot build the experiment: {type(e).__name__}: {e}"]) from e
    return manifold, obj, alg, cert, dom, x0


def run_experiment(cfg: ExperimentConfig, out_root: str) -> ExperimentResult:
    """Execute one experiment, with relative output paths under ``out_root``:
    run, stream the trace, check every activated guarantee and write the
    report.  Exit code 0 = all guarantees pass, 1 = some guarantee failed."""
    os.makedirs(out_root, exist_ok=True)
    manifold, obj, alg, cert, dom, x0 = _build_experiment(cfg, os.path.join(out_root, "cache"))
    k_max = int(value("run", cfg.run, "k_max"))
    sol = obj.known_solution
    f_star = sol.f_star if sol else None
    accelerated = cfg.algorithm["kind"] == "accelerated"

    trace_path = os.path.join(out_root, cfg.output["trace"])
    report_path = os.path.join(out_root, cfg.output["report"])
    for p in (trace_path, report_path):
        d = os.path.dirname(p)
        if d:
            os.makedirs(d, exist_ok=True)

    meta = {
        "kind": "accelerated" if accelerated else "descent",
        "manifold": manifold_spec(manifold),
        "objective": cfg.objective,
        "algorithm": cfg.algorithm,
        "f_star": f_star,
        "x0": x0.coords,
        "config_hash": cfg.config_hash,
    }

    guarantees = {}
    errors = []
    extra_report = {}

    # a value that overflows ends the run with a checked error, not a warning
    with TraceWriter(trace_path, meta) as writer, np.errstate(over="ignore", invalid="ignore"):
        try:
            if accelerated:
                get = partial(value, "algorithm", cfg.algorithm)
                run = accel.run_accelerated(obj, x0, k_max, get("mode"), alg, dom,
                                            delta_mode=get("delta_mode"), xi0=get("xi0"),
                                            writer=writer)
                trace = run.trace
                tol = desc.default_tolerance(trace.values[0])
                guarantees["oracle_contract"] = _verdict(trace.per_step_violation, tol,
                                                         f"c={run.c:g}")
                if run.mode == accel.GCONVEX:
                    guarantees["accel_gconvex_bound"] = _check_accel_gconvex(run, tol)
                    guarantees["energy_step_bound"] = _check_energy_step(run, tol)
                else:
                    guarantees["product_rate_bound"] = _check_product_rate(run, tol)
                    extra_report["xi_convergence"] = _xi_table(run)
                if run.delta_mode == accel.ORACLE:
                    extra_report["delta_fixed_point"] = {
                        "capped_iterations": run.delta_capped,
                        "stalled_iterations": run.delta_stalled,
                        "worst_mismatch": run.delta_mismatch}
            else:
                trace = desc.run_descent(alg, obj, x0, k_max, dom, writer)
                tol = desc.default_tolerance(trace.values[0])
                guarantees["certificate"] = _verdict(
                    trace.per_step_violation, tol, f"p={cert.p:g}, c={cert.c:g}, {cert.direction}")
                if f_star is not None:
                    guarantees["min_grad_envelope"] = _check_min_grad_envelope(trace, cert, f_star, tol)
                    if obj.metadata.convexity_class != NONCONVEX:
                        guarantees["gconvex_envelope"] = _check_gconvex_envelope(
                            trace, cert, f_star, dom.diameter, tol)
                    if obj.metadata.grad_dom is not None:
                        guarantees["graddom_envelope"] = _check_graddom_envelope(
                            trace, cert, obj.metadata.grad_dom[0], f_star, tol)
        except (desc.ProximalSolverError, desc.SubsolverError,
                accel.OracleViolationError, ValueError, ArithmeticError) as e:
            errors.append(f"{type(e).__name__}: {e}")
            trace = None

    report = {
        "schema": REPORT_SCHEMA,
        "config": cfg.as_dict(),
        "config_hash": meta["config_hash"],
        "errors": errors,
        "guarantees": guarantees,
        "f_star": f_star,
    }
    report.update(extra_report)
    if trace is not None:
        report["k_max"] = len(trace) - 1
        report["final_value"] = trace.values[-1]
        report["final_grad_norm"] = trace.grad_norms[-1]
        report["domain_exit"] = trace.domain_exit
        if f_star is not None:
            report["final_gap"] = trace.values[-1] - f_star
            fit = _maybe_fit(trace.values, f_star)
            report["rate_fit"] = fit

    failed = any(g["pass"] is False for g in guarantees.values()) or bool(errors)
    exit_code = 1 if failed else 0
    report["exit_code"] = exit_code
    with open(report_path, "w") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return ExperimentResult(exit_code, report, trace_path, report_path)


def _maybe_fit(values, f_star):
    gaps = np.asarray(values) - f_star
    k_hi = len(gaps) - 1
    try:
        fit = fit_power_law(gaps, max(1, k_hi // 10), k_hi)
    except ValueError as e:
        return {"error": str(e)}
    return {"slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2,
            "window": list(fit.window)}


# ---------------------------------------------------------------------------
# rate fitting


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r2: float
    window: tuple[int, int]

    def __post_init__(self):
        if self.window[0] < 1:
            raise ValueError("fit window must start at k >= 1")
        if not 0.0 <= self.r2 <= 1.0:
            raise ValueError("r2 must lie in [0, 1]")


def fit_power_law(gaps, k_lo: int, k_hi: int) -> RateFit:
    """Least squares of log(gap_k) against log(k) over k in [k_lo, k_hi]."""
    gaps = np.asarray(gaps, dtype=float)
    if k_lo < 1:
        raise ValueError("k_lo must be >= 1")
    if k_hi >= len(gaps):
        raise ValueError(f"k_hi={k_hi} beyond trace length {len(gaps) - 1}")
    ks = np.arange(k_lo, k_hi + 1)
    if ks.size < 10:
        raise ValueError("fit window too short (< 10 points)")
    window_gaps = gaps[k_lo : k_hi + 1]
    if np.any(window_gaps <= 1e-14):
        raise ValueError("gap underflow inside the fit window")
    lx, ly = np.log(ks), np.log(window_gaps)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(float(slope), float(intercept), float(min(max(r2, 0.0), 1.0)),
                   (int(k_lo), int(k_hi)))


def fit_rate(trace: TraceData, k_lo: int, k_hi: int) -> RateFit:
    """Power-law fit of a loaded trace's optimality gap."""
    return fit_power_law(_iterated(trace).gaps, k_lo, k_hi)


def _iterated(trace: TraceData) -> TraceData:
    """``trace``, or a ValueError naming it if it holds no iteration record."""
    if not trace.records:
        raise ValueError(f"{trace.path}: no iteration records")
    return trace


# ---------------------------------------------------------------------------
# comparison


@dataclass
class Comparison:
    ks: np.ndarray
    labels: list[str]
    gaps: np.ndarray            # shape (n_traces, len(ks))
    crossovers: list[int | None]
    max_abs_diff: float

    def csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("k," + ",".join(f"gap_{lbl}" for lbl in self.labels) + "\n")
        for i, k in enumerate(self.ks):
            buf.write(str(int(k)) + "," + ",".join(repr(float(g)) for g in self.gaps[:, i]) + "\n")
        return buf.getvalue()

    def table_text(self) -> str:
        lines = ["trace            final gap      crossover vs baseline"]
        for j, lbl in enumerate(self.labels):
            cross = "-" if j == 0 or self.crossovers[j] is None else str(self.crossovers[j])
            lines.append(f"{lbl:<16} {self.gaps[j, -1]:<14.6e} {cross}")
        return "\n".join(lines)


def compare_report(traces: list[TraceData], labels: list[str]) -> Comparison:
    """Align traces on a shared objective and x0, tabulate per-k gaps and the
    crossover iteration after which each trace stays below the first;
    ``labels`` names the traces in order."""
    if len(traces) < 2:
        raise ValueError("need at least two traces to compare")
    base, *rest = map(_iterated, traces)
    for t in rest:
        if t.meta.get("objective") != base.meta.get("objective") or \
           t.meta.get("manifold") != base.meta.get("manifold"):
            raise ValueError("traces were produced on different objectives")
        if t.meta.get("x0") != base.meta.get("x0"):
            raise ValueError("traces start from different x0")
    n = min(len(t.records) for t in traces)
    ks = base.ks[:n]
    gaps = np.vstack([t.gaps[:n] for t in traces])
    crossovers: list[int | None] = [None]
    for j in range(1, len(traces)):
        k = accel.settles_from(gaps[j] < gaps[0])
        crossovers.append(None if k is None else int(ks[k]))
    max_abs_diff = float(np.max(np.abs(gaps - gaps[0])))
    return Comparison(ks, labels, gaps, crossovers, max_abs_diff)
