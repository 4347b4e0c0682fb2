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
import os
import warnings
from dataclasses import dataclass

import numpy as np
import yaml

from geodescent import acceleration as accel
from geodescent import descent as desc
from geodescent.geometry import DomainSpec, Euclidean, Manifold, Sphere, TangentVector
from geodescent.objectives import (
    FrechetMean,
    Objective,
    Quadratic,
    SphereRayleigh,
    SquaredDistance,
    estimate_hessian_lipschitz,
)
from geodescent.traces import TraceData, TraceWriter, build_manifold, load_trace, manifold_spec

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

MANIFOLD_KINDS = ("euclidean", "sphere", "hyperboloid")
OBJECTIVE_KINDS = ("quadratic", "squared_distance", "frechet_mean", "sphere_rayleigh")
ALGORITHM_KINDS = ("rgd", "proximal", "cubic_newton", "accelerated")
DEFAULT_K_MAX = 1000

# floor below which geometric envelopes are no longer numerically meaningful
ENVELOPE_FLOOR = 1e-13


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
    path: str | None = None

    def as_dict(self) -> dict:
        return {
            "manifold": self.manifold,
            "objective": self.objective,
            "algorithm": self.algorithm,
            "run": self.run,
            "output": self.output,
        }

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config, collecting *all* violations."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as e:
        raise ConfigError([f"parse error: {e}"]) from e
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a mapping with sections"])

    violations = []
    sections = {}
    for name in ("manifold", "objective", "algorithm"):
        sec = raw.get(name)
        if not isinstance(sec, dict):
            violations.append(f"missing or malformed section '{name}'")
            sec = {}
        sections[name] = dict(sec)
    sections["run"] = dict(raw.get("run") or {})
    sections["output"] = dict(raw.get("output") or {})

    mkind = sections["manifold"].get("kind")
    if mkind not in MANIFOLD_KINDS:
        violations.append(f"manifold.kind must be one of {MANIFOLD_KINDS}, got {mkind!r}")
    okind = sections["objective"].get("kind")
    if okind not in OBJECTIVE_KINDS:
        violations.append(f"objective.kind must be one of {OBJECTIVE_KINDS}, got {okind!r}")
    akind = sections["algorithm"].get("kind")
    if akind not in ALGORITHM_KINDS:
        violations.append(f"algorithm.kind must be one of {ALGORITHM_KINDS}, got {akind!r}")

    if okind == "sphere_rayleigh" and mkind not in (None, "sphere"):
        violations.append("sphere_rayleigh requires manifold.kind = sphere")
    if okind == "quadratic" and mkind not in (None, "euclidean"):
        violations.append("quadratic requires manifold.kind = euclidean")

    if akind == "accelerated":
        mode = sections["algorithm"].get("mode", "gconvex")
        if mode not in (accel.GCONVEX, accel.STRONGLY):
            violations.append(f"algorithm.mode must be gconvex or strongly, got {mode!r}")
        if mode == accel.STRONGLY and okind == "sphere_rayleigh":
            violations.append("strongly mode requires a strongly g-convex objective")
        dm = sections["algorithm"].get("delta_mode", accel.ANALYTIC)
        if dm not in (accel.ANALYTIC, accel.ORACLE):
            violations.append(f"algorithm.delta_mode must be analytic or oracle, got {dm!r}")
        if dm == accel.ANALYTIC and mkind == "sphere":
            violations.append("analytic distortion rates need a Hadamard manifold")

    for key in ("eta", "M", "theta", "rho", "xi0"):
        v = sections["algorithm"].get(key)
        if v is not None and (not isinstance(v, (int, float)) or v <= 0):
            violations.append(f"algorithm.{key} must be a positive number")

    if "k_max" not in sections["run"]:
        warnings.warn(f"run.k_max missing, defaulting to {DEFAULT_K_MAX}", ConfigWarning)
        sections["run"]["k_max"] = DEFAULT_K_MAX
    k_max = sections["run"]["k_max"]
    if not isinstance(k_max, int) or k_max < 0:
        violations.append("run.k_max must be a nonnegative integer")

    dom_r = sections["run"].get("domain_radius")
    if dom_r is not None and (not isinstance(dom_r, (int, float)) or dom_r <= 0):
        violations.append("run.domain_radius must be a positive number")

    sections["output"].setdefault("trace", "trace.jsonl")
    sections["output"].setdefault("report", "report.json")

    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(path=str(path), **sections)


# ---------------------------------------------------------------------------
# builders


def _point_at(m: Manifold, rng, center, dist: float):
    v = m.random_tangent(rng, center, 1.0)
    n = m.norm(center, v)
    u = m.orthonormal_basis(center)[0].coords if n < 1e-12 else v.coords / n
    return m.exp(center, TangentVector(center, dist * u))


def build_objective(spec: dict, manifold: Manifold, cache_dir=None) -> Objective:
    """Instantiate the configured objective; sample data comes from the
    spec's own seed so identical configs give identical objectives."""
    kind = spec["kind"]
    rng = np.random.default_rng(spec.get("seed", 0))
    radius = float(spec.get("domain_radius", 2.0))
    if kind == "quadratic":
        b = spec.get("b", [0.0] * manifold.dim)
        return Quadratic(b, spec.get("scales"), domain_radius=float(spec.get("domain_radius", 10.0)))
    if kind == "squared_distance":
        if "target" in spec:
            target = manifold.point(spec["target"])
        else:
            target = _point_at(manifold, rng, manifold.origin(),
                               float(spec.get("target_distance", 1.0)))
        center = target if spec.get("domain_center") == "target" else manifold.origin()
        return SquaredDistance(manifold, target, domain=DomainSpec(center, radius))
    if kind == "frechet_mean":
        num = int(spec.get("num_points", 5))
        spread = float(spec.get("spread", 0.7))
        origin = manifold.origin()
        pts = [manifold.exp(origin, manifold.random_tangent(rng, origin, spread))
               for _ in range(num)]
        obj = FrechetMean(manifold, pts, domain=DomainSpec(origin, radius),
                          solve_reference=False)
        _attach_reference_solution(obj, spec, cache_dir)
        return obj
    if kind == "sphere_rayleigh":
        diag = spec.get("diag", [2.0, 1.0, 0.5])
        return SphereRayleigh(manifold, np.diag(diag))
    raise ConfigError([f"unknown objective kind {kind!r}"])


def _attach_reference_solution(obj: Objective, spec: dict, cache_dir):
    """Reference minimizer for objectives without a closed form, cached on
    disk next to the objective-spec hash."""
    from geodescent.objectives import reference_minimize

    key = hashlib.sha256(
        json.dumps({"objective": spec, "manifold": obj.manifold.key}, sort_keys=True).encode()
    ).hexdigest()[:16]
    cache_path = None
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        cache_path = os.path.join(cache_dir, f"fstar-{key}.json")
        if os.path.exists(cache_path):
            with open(cache_path) as fh:
                stored = json.load(fh)
            try:
                obj._set_solution(obj.manifold.point(stored["x_star"]), stored["f_star"])
                return
            except ValueError:
                pass  # stale cache: fall through and recompute
    x_star = reference_minimize(obj, obj.domain.center)
    obj._set_solution(x_star)
    if cache_path is not None:
        with open(cache_path, "w") as fh:
            json.dump({"x_star": x_star.coords.tolist(),
                       "f_star": obj.known_solution.f_star}, fh, sort_keys=True)


def build_algorithm(spec: dict, obj: Objective):
    """Instantiate the configured descent algorithm; None for the accelerated
    scheme, whose oracle ``run_experiment`` builds as part of the run."""
    kind = spec["kind"]
    if kind == "rgd":
        L = obj.metadata.L
        eta = float(spec.get("eta", 1.0 / L if L else 1.0))
        return desc.GradientDescent(eta)
    if kind == "proximal":
        return desc.ProximalPoint(float(spec.get("eta", 1.0)),
                                  tol_prox=float(spec.get("tol_prox", 1e-9)))
    if kind == "cubic_newton":
        rho = spec.get("rho")
        if rho is None and obj.metadata.rho in (None, 0.0):
            rng = np.random.default_rng(spec.get("rho_seed", 0))
            rho = estimate_hessian_lipschitz(obj, rng)
        if rho is not None:
            obj.with_rho(float(rho))
        return desc.CubicNewton(spec.get("M"), spec.get("theta"))
    if kind == "accelerated":
        return None
    raise ConfigError([f"unknown algorithm kind {kind!r}"])


def _build_oracle(spec: dict, obj: Objective) -> accel.DescentOracle:
    kind = spec.get("oracle", "rgd")
    if kind == "rgd":
        return accel.gradient_oracle(obj, spec.get("eta"))
    if kind == "proximal":
        return accel.proximal_oracle(obj, spec.get("eta") or 1.0)
    raise ConfigError([f"unknown oracle kind {kind!r}"])


# ---------------------------------------------------------------------------
# guarantee checks


def _check_certificate(trace, cert, tol):
    ok, worst = desc.certify(trace, cert, tol)
    return {"pass": bool(ok), "worst_slack": worst,
            "detail": f"p={cert.p:g}, c={cert.c:g}, {cert.direction}"}


def _check_gconvex_envelope(trace, cert, f_star, diam, tol):
    if trace.domain_exit is not None:
        return {"pass": None, "worst_slack": None,
                "detail": f"voided: domain exit at k={trace.domain_exit}"}
    worst = -math.inf
    for k in range(1, len(trace)):
        bound = desc.rate_bound_gconvex(cert.p, cert.c, diam, k, cert.direction)
        worst = max(worst, trace.values[k] - f_star - bound)
    return {"pass": bool(worst <= tol), "worst_slack": worst, "detail": f"diam={diam:g}"}


def _check_min_grad_envelope(trace, cert, f_star, tol):
    gap0 = trace.values[0] - f_star
    worst = -math.inf
    best = trace.grad_norms[0]
    for k in range(1, len(trace)):
        best = min(best, trace.grad_norms[k])
        bound = desc.rate_bound_nonconvex(cert.c, cert.p, gap0, k)
        worst = max(worst, best - bound)
    return {"pass": bool(worst <= tol), "worst_slack": worst, "detail": None}


def _check_graddom_envelope(trace, cert, tau, f_star, tol):
    if cert.direction == desc.BACKWARD and cert.c > tau:
        return {"pass": None, "worst_slack": None,
                "detail": "skipped: backward envelope needs c <= tau"}
    gap0 = trace.values[0] - f_star
    worst = -math.inf
    horizon = 0
    for k in range(1, len(trace)):
        bound = desc.rate_bound_graddom(cert.c, tau, k, cert.direction, gap0)
        if bound < ENVELOPE_FLOOR * max(1.0, gap0):
            break
        horizon = k
        worst = max(worst, trace.values[k] - f_star - bound)
    return {"pass": bool(worst <= tol), "worst_slack": worst,
            "detail": f"tau={tau:g}, horizon k<={horizon}"}


def _check_oracle_contract(run, tol):
    worst = max(run.trace.per_step_violation) if run.trace.per_step_violation else 0.0
    return {"pass": bool(worst <= tol), "worst_slack": worst, "detail": f"c={run.c:g}"}


def _check_accel_gconvex(run, tol):
    worst = -math.inf
    delta_max = 1.0
    for k in range(1, len(run.trace)):
        delta_max = max(delta_max, run.schedules[k - 1].delta)
        bound = accel.accel_gconvex_bound(run.E0, run.c, run.diam, delta_max, k)
        gap = run.energies[k].f_gap
        worst = max(worst, gap - bound)
    return {"pass": bool(worst <= tol), "worst_slack": worst,
            "detail": f"delta_max={delta_max:g}"}


def _check_energy_step(run, tol):
    worst = -math.inf
    for k in range(len(run.schedules)):
        dE = run.energies[k + 1].E - run.energies[k].E
        bound = (4.0 / run.c) * (1.0 - 1.0 / run.schedules[k].delta) * run.diam**2
        worst = max(worst, dE - bound)
    return {"pass": bool(worst <= tol), "worst_slack": worst, "detail": None}


def _check_product_rate(run, tol):
    worst = -math.inf
    prod = 1.0
    horizon = 0
    for k in range(1, len(run.trace)):
        prod *= 1.0 - run.schedules[k - 1].xi
        bound = prod * run.E0
        if bound < ENVELOPE_FLOOR * max(1.0, run.E0):
            break
        horizon = k
        worst = max(worst, run.energies[k].f_gap - bound)
    return {"pass": bool(worst <= tol), "worst_slack": worst,
            "detail": f"horizon k<={horizon}"}


def _xi_table(run, eps_levels=(1e-1, 1e-2, 1e-3, 1e-6)):
    """Convergence table of the contraction factor toward sqrt(2*mu*c)."""
    target = math.sqrt(2.0 * run.mu * run.c)
    xi = run.xi_seq
    dev = [abs(x - target) for x in xi]
    table = {}
    for eps in eps_levels:
        # first index after which the sequence stays inside the band
        k = len(dev)
        while k and dev[k - 1] <= eps:
            k -= 1
        table[f"first_k_within_{eps:g}"] = k if k < len(dev) else None
    _, slope = accel.xi_convergence_report(xi, run.mu, run.c, eps_levels[-1])
    table.update({"target": target, "final": xi[-1],
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


def _resolve(path, out_root):
    if os.path.isabs(path):
        return path
    return os.path.join(out_root, path)


def _build_experiment(cfg: ExperimentConfig, cache_dir=None):
    """Build a config's manifold, objective, algorithm, domain and x0 for
    ``validate`` and ``run_experiment``; a ValueError becomes a ConfigError."""
    try:
        manifold = build_manifold(cfg.manifold)
        obj = build_objective(cfg.objective, manifold, cache_dir)
        alg = build_algorithm(cfg.algorithm, obj)

        dom = obj.domain
        if "domain_radius" in cfg.run:
            radius = float(cfg.run["domain_radius"])
            if radius > obj.domain.radius + 1e-12:
                raise ConfigError(["run.domain_radius exceeds the objective's ball: "
                                   "declared constants would not apply"])
            dom = DomainSpec(obj.domain.center, radius)

        rng_x0 = np.random.default_rng(cfg.run.get("x0_seed", 1))
        if "x0" in cfg.run:
            x0 = manifold.point(cfg.run["x0"])
        else:
            dist = float(cfg.run.get("x0_distance", 0.5 * dom.radius))
            x0 = _point_at(manifold, rng_x0, dom.center, dist)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError([f"cannot build the experiment: {type(e).__name__}: {e}"]) from e
    return manifold, obj, alg, dom, x0


def run_experiment(cfg: ExperimentConfig, out_root: str | None = None) -> ExperimentResult:
    """Execute one experiment: run, stream the trace, check every activated
    guarantee and write the report.  Exit code 0 = all guarantees pass,
    1 = some guarantee failed."""
    out_root = out_root or os.environ.get(OUTPUT_ROOT_ENV) or "."
    os.makedirs(out_root, exist_ok=True)
    manifold, obj, alg, dom, x0 = _build_experiment(cfg, os.path.join(out_root, "cache"))
    k_max = int(cfg.run["k_max"])
    sol = obj.known_solution
    f_star = sol.f_star if sol else None

    trace_path = _resolve(cfg.output["trace"], out_root)
    report_path = _resolve(cfg.output["report"], out_root)
    for p in (trace_path, report_path):
        d = os.path.dirname(p)
        if d:
            os.makedirs(d, exist_ok=True)

    meta = {
        "kind": "accelerated" if alg is None else "descent",
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

    with TraceWriter(trace_path, meta) as writer:
        def cb(k, x, f, gn, slack, extra):
            writer.record(k, x.coords, f, gn, slack, **extra)

        try:
            if alg is None:
                spec = cfg.algorithm
                run = accel.run_accelerated(obj, x0, k_max, spec.get("mode", accel.GCONVEX),
                                            _build_oracle(spec, obj), dom,
                                            delta_mode=spec.get("delta_mode", accel.ANALYTIC),
                                            xi0=spec.get("xi0"), callback=cb)
                trace = run.trace
                tol = desc.default_tolerance(trace.values[0])
                guarantees["oracle_contract"] = _check_oracle_contract(run, tol)
                if run.mode == accel.GCONVEX:
                    guarantees["accel_gconvex_bound"] = _check_accel_gconvex(run, tol)
                    guarantees["energy_step_bound"] = _check_energy_step(run, tol)
                else:
                    guarantees["product_rate_bound"] = _check_product_rate(run, tol)
                    extra_report["xi_convergence"] = _xi_table(run)
                if run.delta_mode == accel.ORACLE:
                    extra_report["delta_fixed_point"] = {
                        "capped_iterations": run.delta_capped,
                        "worst_mismatch": run.delta_mismatch}
            else:
                trace = desc.run_descent(alg, obj, x0, k_max, dom, callback=cb)
                tol = desc.default_tolerance(trace.values[0])
                cert = alg.certificate(obj)
                guarantees["certificate"] = _check_certificate(trace, cert, tol)
                if f_star is not None:
                    guarantees["min_grad_envelope"] = _check_min_grad_envelope(trace, cert, f_star, tol)
                    if obj.metadata.convexity_class != "nonconvex":
                        guarantees["gconvex_envelope"] = _check_gconvex_envelope(
                            trace, cert, f_star, dom.diameter, tol)
                    if obj.metadata.grad_dom is not None:
                        guarantees["graddom_envelope"] = _check_graddom_envelope(
                            trace, cert, obj.metadata.grad_dom[0], f_star, tol)
        except (desc.ProximalSolverError, desc.SubsolverError,
                accel.OracleViolationError, ValueError) as e:
            errors.append(f"{type(e).__name__}: {e}")
            trace = None

    report = {
        "schema": REPORT_SCHEMA,
        "config": cfg.as_dict(),
        "config_hash": cfg.config_hash,
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
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return ExperimentResult(exit_code, report, trace_path, report_path)


def _maybe_fit(values, f_star, k_lo=None, k_hi=None):
    gaps = np.asarray(values) - f_star
    k_hi = k_hi if k_hi is not None else len(gaps) - 1
    k_lo = k_lo if k_lo is not None else max(1, k_hi // 10)
    try:
        fit = fit_power_law(gaps, k_lo, k_hi)
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
    return fit_power_law(trace.gaps, k_lo, k_hi)


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


def compare_report(traces: list[TraceData], labels: list[str] | None = None) -> Comparison:
    """Align traces on a shared objective and x0, tabulate per-k gaps and the
    crossover iteration after which each trace stays below the first."""
    if len(traces) < 2:
        raise ValueError("need at least two traces to compare")
    base = traces[0]
    for t in traces[1:]:
        if t.meta.get("objective") != base.meta.get("objective") or \
           t.meta.get("manifold") != base.meta.get("manifold"):
            raise ValueError("traces were produced on different objectives")
        if t.meta.get("x0") != base.meta.get("x0"):
            raise ValueError("traces start from different x0")
    n = min(len(t.records) for t in traces)
    ks = base.ks[:n]
    gaps = np.vstack([t.gaps[:n] for t in traces])
    labels = labels or [f"t{j}" for j in range(len(traces))]
    crossovers: list[int | None] = [None]
    for j in range(1, len(traces)):
        below = gaps[j] < gaps[0]
        cross = None
        for k in range(n):
            if below[k:].all():
                cross = int(ks[k])
                break
        crossovers.append(cross)
    max_abs_diff = float(np.max(np.abs(gaps - gaps[0]))) if len(traces) > 1 else 0.0
    return Comparison(ks, labels, gaps, crossovers, max_abs_diff)
