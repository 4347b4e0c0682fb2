"""Three-sequence accelerated scheme with energy tracking.

The scheme maintains iterates (x, y, z):

    x+ = exp(y, tau * log_y(z))
    y+ = G_c(x+)                      (any step that certifiably descends)
    z+ = exp(x+, (alpha + beta)^{-1} * (beta * log_{x+}(z) - grad f(x+)))

driven by one of two coefficient schedules: a 1/k^2 schedule for g-convex
objectives and a contraction schedule for strongly g-convex ones, where the
per-step contraction factor xi solves a one-dimensional recurrence coupling
it to the metric distortion delta of the current step.  The energy

    E_k = A_k * (f(y_k) - f*) + B_k * ||log_{x_k}(z_k) - log_{x_k}(x*)||^2

is recorded every iteration so each claimed per-step inequality can be
checked after the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from geodescent.descent import (GradientDescent, IterateTrace, ProximalPoint, _Recorder,
                                 default_tolerance, rgd_step)  # noqa: F401  (rgd_step re-exported)
from geodescent.geometry import (
    DomainSpec,
    GeometryError,
    Manifold,
    ManifoldPoint,
    TangentVector,
)
from geodescent.objectives import Objective

__all__ = [
    "AccelParams",
    "AccelState",
    "ScheduleState",
    "EnergyRecord",
    "DescentOracle",
    "OracleViolationError",
    "gradient_oracle",
    "proximal_oracle",
    "accel_step",
    "schedule_gconvex",
    "xi_solve",
    "xi_solve_bisect",
    "schedule_strongly",
    "comparison_T",
    "distortion_rate",
    "energy",
    "run_accelerated",
    "AccelRun",
    "accel_gconvex_bound",
    "shrink_diagnostics",
    "ShrinkReport",
    "xi_convergence_report",
    "conjugate_bound_check",
]

GCONVEX = "gconvex"
STRONGLY = "strongly"
ANALYTIC = "analytic"
ORACLE = "oracle"


class OracleViolationError(RuntimeError):
    """The supplied descent oracle failed its decrease contract (fatal: every
    guarantee of the scheme relies on it)."""


@dataclass(frozen=True)
class AccelParams:
    """Step coefficients (tau, alpha, beta) of one accelerated update."""

    tau: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.tau) and 0.0 < self.tau <= 1.0):
            raise ValueError(f"tau={self.tau!r} outside (0, 1]")
        if not (np.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError("alpha must be finite and >= 0")
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError("beta must be finite and positive")


@dataclass
class AccelState:
    """The (x, y, z) triple after iteration k, with f(y) once evaluated."""

    x: ManifoldPoint
    y: ManifoldPoint
    z: ManifoldPoint
    k: int = 0
    f_y: float | None = None


@dataclass(frozen=True)
class ScheduleState:
    """Energy weights and schedule bookkeeping after one step."""

    A: float
    B: float
    A_bar: float
    delta: float
    xi: float | None = None

    def __post_init__(self):
        if self.A < 0 or self.B < 0:
            raise ValueError("energy weights must be nonnegative")
        if self.delta < 1.0:
            raise ValueError("valid distortion rates are >= 1")


@dataclass(frozen=True)
class EnergyRecord:
    """Energy value and its components at one iteration."""

    E: float
    f_gap: float
    dist_term: float
    d_xy: float
    d_xz: float
    envelope: float | None = None


@dataclass(frozen=True)
class DescentOracle:
    """A mapping x -> G(x) guaranteed to satisfy
    ``f(G(x)) - f(x) <= -c * ||grad f(x)||^2``; checked at every invocation."""

    step: object  # as GradientDescent.step: callable(obj, x, grad=None) -> ManifoldPoint
    c: float
    label: str = "oracle"

    def __call__(self, obj, x, grad=None):
        return self.step(obj, x, grad)


def gradient_oracle(obj: Objective, eta: float | None = None) -> DescentOracle:
    """Gradient step as the descent oracle; eta defaults to 1/L giving
    c = 1/(2L)."""
    if eta is None:
        if obj.metadata.L is None:
            raise ValueError("need eta or a declared L")
        eta = 1.0 / obj.metadata.L
    alg = GradientDescent(eta)
    return DescentOracle(alg.step, alg.certificate(obj).c, f"rgd(eta={eta:g})")


def proximal_oracle(obj: Objective, eta: float, tol_prox: float = 1e-9) -> DescentOracle:
    """Proximal step as the descent oracle.

    The decrease measured at the *input* gradient is certified with
    c = eta / (2 * (1 + L * eta)), obtained by testing the prox objective
    along the steepest-descent ray and using L-smoothness.
    """
    L = obj.metadata.L
    if L is None:
        raise ValueError("proximal oracle certificate needs a declared L")
    c = eta / (2.0 * (1.0 + L * eta))
    return DescentOracle(ProximalPoint(eta, tol_prox).step, c, f"proximal(eta={eta:g})")


def accel_step(obj: Objective, state: AccelState, params: AccelParams,
               oracle: DescentOracle, tol: float = 0.0) -> tuple[AccelState, float]:
    """One accelerated update; returns the new state, which carries f(y+),
    and the oracle slack (decrease contract residual, <= tol when honoured).
    The oracle is handed the gradient at x+ that the z-update uses."""
    m = obj.manifold
    x_new = m.exp(state.y, TangentVector(state.y, params.tau * m.log(state.y, state.z).coords))
    f_x = obj.value(x_new)
    g_x = obj.gradient(x_new)
    gn2 = m.norm(x_new, g_x) ** 2

    y_new = oracle(obj, x_new, g_x)
    f_y = obj.value(y_new)
    slack = f_y - f_x + oracle.c * gn2
    if slack > tol:
        raise OracleViolationError(
            f"oracle decrease violated by {slack:.3e} (tol {tol:.3e}) at k={state.k}"
        )

    drift = m.log(x_new, state.z)
    step_vec = (params.beta * drift.coords - g_x.coords) / (params.alpha + params.beta)
    z_new = m.exp(x_new, TangentVector(x_new, step_vec))
    return AccelState(x_new, y_new, z_new, state.k + 1, f_y), float(slack)


def schedule_gconvex(k: int, A_k: float, B_k: float, delta_k: float,
                     delta_k1: float, c: float) -> tuple[AccelParams, ScheduleState]:
    """Coefficients for the 1/k^2 schedule (g-convex objectives).

    A_{k+1} = (k+1)(k+2)/2 and B is constant at 4/c; tau, alpha, beta follow
    the closed forms coupling them through the distortion rates.
    """
    if min(delta_k, delta_k1) < 1.0:
        raise ValueError("distortion rates must be >= 1")
    if c <= 0:
        raise ValueError("need c > 0")
    A_k1 = (k + 1) * (k + 2) / 2.0
    B_k1 = 4.0 / c
    A_bar = A_k1 - A_k
    if A_bar <= 0:
        raise ValueError("A must be strictly increasing")
    tau = 2.0 * A_bar * B_k / (A_k * delta_k1 * B_k1 + 2.0 * B_k * A_bar)
    alpha = (B_k1 - B_k / delta_k) / A_bar
    beta = (B_k / delta_k1) / A_bar
    return AccelParams(tau, alpha, beta), ScheduleState(A_k1, B_k1, A_bar, delta_k1)


def xi_solve(xi_k: float, delta_k1: float, mu: float, c: float) -> float:
    """Next contraction factor: the root of
    ``xi*(xi - 2*mu*c)/(1 - xi) = xi_k^2 / delta`` in [2*mu*c, 1).

    Multiplying through by (1 - xi) gives the quadratic
    ``xi^2 + (r - a)*xi - r = 0`` with a = 2*mu*c and r = xi_k^2/delta,
    whose positive root is returned in closed form.
    """
    a = 2.0 * mu * c
    if not a < 1.0:
        raise ValueError("need 2*mu*c < 1")
    if not a <= xi_k < 1.0:
        raise ValueError(f"xi_k={xi_k!r} outside [2*mu*c, 1)")
    if delta_k1 < 1.0:
        raise ValueError("delta must be >= 1")
    r = xi_k**2 / delta_k1
    xi = 0.5 * (a - r + math.sqrt((r - a) ** 2 + 4.0 * r))
    if not a - 1e-12 <= xi < 1.0:
        raise ValueError(f"root xi={xi!r} escaped [2*mu*c, 1)")
    return max(xi, a)


def xi_solve_bisect(xi_k: float, delta_k1: float, mu: float, c: float,
                    tol: float = 1e-14) -> float:
    """Bisection on the original recurrence; independent check of xi_solve."""
    a = 2.0 * mu * c
    r = xi_k**2 / delta_k1

    def g(xi):
        return xi * (xi - a) / (1.0 - xi) - r

    lo, hi = a, 1.0 - 1e-15
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def schedule_strongly(xi_k1: float, A_k: float, mu: float, c: float) -> tuple[AccelParams, ScheduleState]:
    """Coefficients for the strongly g-convex schedule at contraction xi_{k+1}.

    tau = (xi - 2*mu*c)/(1 - 2*mu*c), alpha = mu, beta = (xi - 2*mu*c)/(2c);
    A grows by 1/(1 - xi) and B tracks xi^2 * A / (4c).  The bracket endpoint
    xi = 2*mu*c would give beta = 0 (the delta -> infinity limit) and is
    rejected as degenerate.
    """
    a = 2.0 * mu * c
    if not c < 1.0 / (2.0 * mu):
        raise ValueError("need c < 1/(2*mu)")
    if not a < xi_k1 < 1.0:
        raise ValueError(f"xi={xi_k1!r} outside (2*mu*c, 1): degenerate schedule")
    tau = (xi_k1 - a) / (1.0 - a)
    alpha = mu
    beta = (xi_k1 - a) / (2.0 * c)
    A_k1 = A_k / (1.0 - xi_k1)
    B_k1 = xi_k1**2 / (1.0 - xi_k1) * A_k / (4.0 * c)
    return AccelParams(tau, alpha, beta), ScheduleState(A_k1, B_k1, A_k1 - A_k, 1.0, xi_k1)


def comparison_T(kappa: float, d: float) -> float:
    """Distortion comparison function sqrt(k)*d*coth(sqrt(k)*d), with the
    flat limit T(0) = 1."""
    if kappa < 0:
        raise ValueError("kappa is the magnitude of the curvature lower bound")
    t = math.sqrt(kappa) * d
    if t < 1e-8:
        return 1.0 + t * t / 3.0
    # t/tanh(t) >= 1 exactly, but can round below 1 for t just above 1e-8
    return max(1.0, t / math.tanh(t))


def distortion_rate(manifold: Manifold, x_prev: ManifoldPoint, z_prev: ManifoldPoint,
                    x_new: ManifoldPoint | None = None, mode: str = ANALYTIC,
                    x_star: ManifoldPoint | None = None) -> float:
    """Distortion rate bounding the base-point change of the energy's
    squared projected distance.

    ``analytic`` evaluates the curvature comparison function at
    d(x_prev, z_prev) and needs a Hadamard manifold; ``oracle`` returns the
    realized (definitional) ratio, needs the minimizer, and is a diagnostic.
    """
    if mode == ANALYTIC:
        bounds = manifold.curvature_bounds()
        if not bounds.is_hadamard:
            raise GeometryError("analytic distortion rates need a Hadamard manifold")
        return comparison_T(-bounds.lower, manifold.distance(x_prev, z_prev))
    if mode == ORACLE:
        if x_new is None or x_star is None:
            raise ValueError("oracle mode needs x_new and x_star")
        denom = manifold.projected_distance(x_prev, z_prev, x_star) ** 2
        if denom < 1e-30:
            return 1.0
        num = manifold.projected_distance(x_new, z_prev, x_star) ** 2
        return max(1.0, num / denom)
    raise ValueError(f"unknown distortion mode {mode!r}")


def energy(A: float, B: float, obj: Objective, state: AccelState,
           x_star: ManifoldPoint, f_star: float, envelope: float | None = None) -> EnergyRecord:
    """Evaluate the energy and its components at the current state; f(y) is
    taken from the state when it carries it."""
    m = obj.manifold
    f_gap = (obj.value(state.y) if state.f_y is None else state.f_y) - f_star
    dist_term = m.projected_distance(state.x, state.z, x_star) ** 2
    return EnergyRecord(
        E=A * f_gap + B * dist_term,
        f_gap=f_gap,
        dist_term=dist_term,
        d_xy=m.distance(state.x, state.y),
        d_xz=m.distance(state.x, state.z),
        envelope=envelope,
    )


@dataclass
class AccelRun:
    """Everything recorded by ``run_accelerated``."""

    trace: IterateTrace          # over the y iterates
    energies: list[EnergyRecord]
    schedules: list[ScheduleState]
    xs: list[ManifoldPoint]
    zs: list[ManifoldPoint]
    mode: str
    delta_mode: str
    c: float
    mu: float | None
    xi0: float | None
    D0: float | None
    E0: float
    diam: float
    x_star: ManifoldPoint | None = None
    # oracle delta: fixed points stopped at the cap, worst final relative mismatch
    delta_capped: int = 0
    delta_mismatch: float = 0.0

    @property
    def xi_seq(self) -> list[float]:
        seq = [] if self.xi0 is None else [self.xi0]
        return seq + [s.xi for s in self.schedules if s.xi is not None]

    @property
    def deltas(self) -> list[float]:
        return [s.delta for s in self.schedules]


def run_accelerated(obj: Objective, y0: ManifoldPoint, k_max: int, mode: str,
                    oracle: DescentOracle, dom: DomainSpec | None = None,
                    delta_mode: str = ANALYTIC, xi0: float | None = None,
                    callback=None) -> AccelRun:
    """Drive the accelerated scheme from y0 = z0 for ``k_max`` iterations.

    ``mode`` selects the g-convex or strongly g-convex schedule.  In
    ``oracle`` delta mode the distortion rate of each step is made
    self-consistent by a small fixed-point iteration: the step is recomputed
    until the rate used by the schedule equals the realized ratio, at most 60
    times (``delta_capped`` counts the iterations that stop there), and the
    last step computed is kept.  The trace records the y iterates; the domain
    monitor watches x, y and z.  ``callback(k, y, f, grad_norm, slack,
    extra)`` fires after every iteration, with the schedule and energy
    fields in ``extra``.
    """
    if mode not in (GCONVEX, STRONGLY):
        raise ValueError(f"unknown mode {mode!r}")
    m = obj.manifold
    dom = dom if dom is not None else obj.domain
    rec = _Recorder(dom, y0, callback)
    sol = obj.known_solution
    if sol is None:
        raise ValueError("accelerated runs need a known or precomputed minimizer")
    x_star, f_star = sol.x_star, sol.f_star
    c = oracle.c
    mu = obj.metadata.mu

    if mode == STRONGLY:
        if mu is None or mu <= 0:
            raise ValueError("strongly mode needs a strongly g-convex objective")
        if not c < 1.0 / (2.0 * mu):
            raise ValueError("strongly mode needs c < 1/(2*mu)")
        a = 2.0 * mu * c
        if xi0 is None:
            xi0 = math.sqrt(a)
        if not a < xi0 <= math.sqrt(a) + 1e-12:
            raise ValueError("xi0 must lie in (2*mu*c, sqrt(2*mu*c)]")
        A, B = 1.0, xi0**2 / (4.0 * c)
    else:
        A, B = 0.0, 4.0 / c

    state = AccelState(x=y0, y=y0, z=y0, k=0, f_y=obj.value(y0))
    tol = default_tolerance(state.f_y)
    D0 = env = None
    prod = 1.0
    if mode == STRONGLY:
        D0 = state.f_y - f_star + xi0**2 / (4.0 * c) * m.distance(state.z, x_star) ** 2
        env = math.sqrt(max(prod * D0, 0.0))
    energies, schedules, xs, zs = [], [], [], []
    capped, worst = 0, 0.0

    def record(slack, sched_delta, sched_xi):
        # energy and record at the current state, A, B and envelope
        e = energy(A, B, obj, state, x_star, f_star, env)
        energies.append(e)
        xs.append(state.x)
        zs.append(state.z)
        rec.record(state.y, state.f_y, m.norm(state.y, obj.gradient(state.y)), slack,
                   {"delta": sched_delta, "xi": sched_xi, "A": A, "B": B, "E": e.E,
                    "d_xy": e.d_xy, "d_xz": e.d_xz, "envelope": e.envelope},
                   (state.x, state.y, state.z))

    record(None, 1.0, xi0)
    delta_prev = 1.0
    xi = xi0

    for k in range(k_max):
        if delta_mode == ANALYTIC:
            delta = distortion_rate(m, state.x, state.z, mode=ANALYTIC)
            sched, new_state, slack = _scheduled_step(
                obj, state, oracle, mode, k, A, B, delta_prev, delta, xi, mu, c, tol
            )
        else:
            # self-consistent realized distortion rate
            delta = max(1.0, delta_prev)
            for _ in range(60):
                sched, new_state, slack = _scheduled_step(
                    obj, state, oracle, mode, k, A, B, delta_prev, delta, xi, mu, c, tol
                )
                realized = distortion_rate(m, state.x, state.z, new_state.x,
                                           mode=ORACLE, x_star=x_star)
                gap, scale = abs(realized - delta), max(1.0, delta)
                if gap <= 1e-12 * scale:
                    break
                delta = realized
            else:
                capped += 1
            worst = max(worst, gap / scale)

        state = new_state
        A, B = sched.A, sched.B
        delta_prev = sched.delta
        if mode == STRONGLY:
            xi = sched.xi
            prod *= 1.0 - xi
            env = math.sqrt(max(prod * D0, 0.0))
        schedules.append(sched)
        record(slack, sched.delta, sched.xi)

    return AccelRun(rec.trace(), energies, schedules, xs, zs, mode, delta_mode, c, mu,
                    xi0, D0, energies[0].E, dom.diameter, x_star, capped, worst)


def _scheduled_step(obj, state, oracle, mode, k, A, B, delta_prev, delta, xi, mu, c, tol):
    """Compute schedule coefficients for distortion rate ``delta`` and take
    one accelerated step."""
    if mode == GCONVEX:
        params, sched = schedule_gconvex(k, A, B, delta_prev, delta, c)
    else:
        xi_next = xi_solve(xi, delta, mu, c)
        params, sched = schedule_strongly(xi_next, A, mu, c)
        sched = ScheduleState(sched.A, sched.B, sched.A_bar, delta, xi_next)
    new_state, slack = accel_step(obj, state, params, oracle, tol)
    return sched, new_state, slack


def accel_gconvex_bound(E0: float, c: float, diam: float, delta_max: float, k: int) -> float:
    """g-convex accelerated envelope:
    E0/k^2 + (4/c) * diam^2 * (1 - 1/delta_max) / k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return E0 / k**2 + (4.0 / c) * diam**2 * (1.0 - 1.0 / delta_max) / k


@dataclass(frozen=True)
class ShrinkReport:
    """Per-iteration distance diagnostics for strongly convex runs."""

    k: np.ndarray
    d_xy: np.ndarray
    d_xz: np.ndarray
    d_y_star: np.ndarray
    proj_z_star: np.ndarray
    envelope: np.ndarray           # sqrt(prod(1-xi_j) * D0)
    envelope_y: np.ndarray         # * sqrt(2/mu)
    envelope_z_proj: np.ndarray    # * sqrt(1/(mu^2 c))
    ratio: np.ndarray              # d(x_k, z_k) / envelope

    def ratio_slope(self, floor: float = 1e-13) -> float:
        """Least-squares slope of the ratio against k, over iterations where
        the envelope is still numerically meaningful."""
        mask = self.envelope > floor
        if mask.sum() < 2:
            return 0.0
        return float(np.polyfit(self.k[mask], self.ratio[mask], 1)[0])


def shrink_diagnostics(run: AccelRun) -> ShrinkReport:
    """Distance-shrinking diagnostics: the recorded distances against their
    product-rate envelopes, plus the empirical ratio standing in for the
    analysis' implicit constant."""
    if run.mode != STRONGLY:
        raise ValueError("diagnostics apply to strongly convex runs")
    if run.D0 is None or run.x_star is None:
        raise ValueError("diagnostics need the minimizer")
    mu = run.mu
    m = run.x_star.manifold
    n = len(run.trace)
    prod = np.cumprod([1.0] + [1.0 - x for x in run.xi_seq[1:]])[:n]
    env = np.sqrt(np.maximum(prod * run.D0, 0.0))
    d_xz = np.array([e.d_xz for e in run.energies])
    return ShrinkReport(
        k=np.arange(n),
        d_xy=np.array([e.d_xy for e in run.energies]),
        d_xz=d_xz,
        d_y_star=np.array([m.distance(y, run.x_star) for y in run.trace.iterates]),
        proj_z_star=np.array([math.sqrt(max(e.dist_term, 0.0)) for e in run.energies]),
        envelope=env,
        envelope_y=env * math.sqrt(2.0 / mu),
        envelope_z_proj=env * math.sqrt(1.0 / (mu**2 * run.c)),
        ratio=np.where(env > 0, d_xz / np.maximum(env, 1e-300), 0.0),
    )


def xi_convergence_report(xi_seq, mu: float, c: float, eps: float) -> tuple[int | None, float]:
    """First index with |xi_k - sqrt(2*mu*c)| <= eps, plus the fitted
    log-linear convergence slope of the deviation (nan if degenerate)."""
    target = math.sqrt(2.0 * mu * c)
    dev = np.abs(np.asarray(xi_seq, dtype=float) - target)
    hit = np.nonzero(dev <= eps)[0]
    first = int(hit[0]) if hit.size else None
    mask = dev > 1e-15
    if mask.sum() >= 2:
        ks = np.nonzero(mask)[0]
        slope = float(np.polyfit(ks, np.log(dev[mask]), 1)[0])
    else:
        slope = float("nan")
    return first, slope


def conjugate_bound_check(s, u, alpha: float, q: float, slack: float = 1e-12) -> bool:
    """Check ``<s, alpha*u> - ||s||^q / q <= (q-1)/q * |alpha|^(q/(q-1)) * ||u||^(q/(q-1))``."""
    if not q > 1:
        raise ValueError("need q > 1")
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    lhs = float(np.dot(s, alpha * u)) - np.linalg.norm(s) ** q / q
    rhs = (q - 1.0) / q * abs(alpha) ** (q / (q - 1.0)) * np.linalg.norm(u) ** (q / (q - 1.0))
    return lhs <= rhs + slack
