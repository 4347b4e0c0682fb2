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

from geodescent.descent import (BACKWARD, ENVELOPE_FLOOR, GradientDescent, IterateTrace,
                                 default_tolerance, rgd_step)  # noqa: F401  (rgd_step re-exported)
from geodescent.geometry import (
    DomainSpec,
    GeometryError,
    Manifold,
    ManifoldPoint,
    TangentVector,
    comparison,
)
from geodescent.objectives import Objective

__all__ = [
    "AccelParams",
    "AccelState",
    "ScheduleState",
    "EnergyRecord",
    "OracleViolationError",
    "gradient_oracle",
    "accel_step",
    "schedule_gconvex",
    "xi_solve",
    "schedule_strongly",
    "distortion_rate",
    "energy",
    "run_accelerated",
    "AccelRun",
    "accel_gconvex_bound",
    "shrink_diagnostics",
    "ShrinkReport",
    "xi_convergence_levels",
    "settles_from",
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
        if not (math.isfinite(self.tau) and 0.0 < self.tau <= 1.0):
            raise ValueError(f"tau={self.tau!r} outside (0, 1]")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError("alpha must be finite and >= 0")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError("beta must be finite and positive")


@dataclass
class AccelState:
    """The (x, y, z) triple after iteration k, with f(y) and grad f(y) once
    evaluated and, after a step, the drift log_x(z_{k-1}), as coordinate arrays."""

    x: ManifoldPoint
    y: ManifoldPoint
    z: ManifoldPoint
    k: int = 0
    f_y: float | None = None
    grad_y: np.ndarray | None = None
    drift: np.ndarray | None = None


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
    envelope: float | None


def gradient_oracle(obj: Objective, eta: float | None = None) -> GradientDescent:
    """Gradient descent as the descent oracle; eta defaults to 1/L giving
    c = 1/(2L)."""
    if eta is None:
        if obj.metadata.L is None:
            raise ValueError("need eta or a declared L")
        eta = 1.0 / obj.metadata.L
    return GradientDescent(eta)


def accel_step(obj: Objective, state: AccelState, params: AccelParams,
               step, c: float, tol: float = 0.0) -> tuple[AccelState, float]:
    """One accelerated update with y+ = step(obj, x+, grad f(x+)), a step
    G_c that claims ``f(G(x)) - f(x) <= -c * ||grad f(x)||^2``; f and grad f
    come from one ``obj._evaluate`` at x+ and one at y+.  Returns the new
    state, which carries f(y+), grad f(y+) and the drift log_{x+}(z), and the
    oracle slack (decrease contract residual, <= tol when honoured)."""
    m = obj.manifold
    m._own(state.y)
    m._own(state.z)
    y, z = state.y.coords, state.z.coords
    x_new = m._move(y, params.tau * m._log(y, z))
    f_x, g_x = obj._evaluate(x_new)
    gn2 = m._norm(x_new.coords, g_x) ** 2

    y_new = step(obj, x_new, TangentVector(x_new, g_x))
    f_y, g_y = obj._evaluate(y_new)
    slack = f_y - f_x + c * gn2
    if slack > tol:
        raise OracleViolationError(
            f"oracle decrease violated by {slack:.3e} (tol {tol:.3e}) at k={state.k}"
        )

    drift = m._log(x_new.coords, z)
    z_new = m._move(x_new.coords, (params.beta * drift - g_x) / (params.alpha + params.beta))
    return AccelState(x_new, y_new, z_new, state.k + 1, f_y, g_y, drift), float(slack)


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
    if not a <= xi_k < 1.0:
        raise ValueError(f"xi_k={xi_k!r} outside [2*mu*c, 1)")
    if delta_k1 < 1.0:
        raise ValueError("delta must be >= 1")
    r = xi_k**2 / delta_k1
    xi = 0.5 * (a - r + math.sqrt((r - a) ** 2 + 4.0 * r))
    if not a - 1e-12 <= xi < 1.0:
        raise ValueError(f"root xi={xi!r} escaped [2*mu*c, 1)")
    return max(xi, a)


def schedule_strongly(xi_k1: float, A_k: float, mu: float, c: float,
                      delta_k1: float = 1.0) -> tuple[AccelParams, ScheduleState]:
    """Coefficients for the strongly g-convex schedule at contraction xi_{k+1}.

    tau = (xi - 2*mu*c)/(1 - 2*mu*c), alpha = mu, beta = (xi - 2*mu*c)/(2c);
    A grows by 1/(1 - xi) and B tracks xi^2 * A / (4c).  The bracket endpoint
    xi = 2*mu*c would give beta = 0 (the delta -> infinity limit) and is
    rejected as degenerate.  The schedule stores ``delta_k1``, the distortion
    rate that ``xi_solve`` turned into xi_{k+1}.
    """
    a = 2.0 * mu * c
    # the bracket implies 2*mu*c < 1, but not mu > 0
    if not (mu > 0 and a < xi_k1 < 1.0):
        raise ValueError(f"xi={xi_k1!r} outside (2*mu*c, 1) for mu={mu!r}: degenerate schedule")
    tau = (xi_k1 - a) / (1.0 - a)
    alpha = mu
    beta = (xi_k1 - a) / (2.0 * c)
    A_k1 = A_k / (1.0 - xi_k1)
    B_k1 = xi_k1**2 / (1.0 - xi_k1) * A_k / (4.0 * c)
    return AccelParams(tau, alpha, beta), ScheduleState(A_k1, B_k1, A_k1 - A_k, delta_k1, xi_k1)


def distortion_rate(manifold: Manifold, x_prev: ManifoldPoint, z_prev: ManifoldPoint,
                    x_new: ManifoldPoint | None = None, mode: str = ANALYTIC,
                    x_star: ManifoldPoint | None = None, *,
                    prev: EnergyRecord | None = None,
                    logs: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """Distortion rate bounding the base-point change of the energy's
    squared projected distance.

    ``analytic`` evaluates the curvature comparison function at
    d(x_prev, z_prev) and needs a Hadamard manifold; ``oracle`` returns the
    realized (definitional) ratio, needs the minimizer, and is a diagnostic.
    ``prev``, the energy recorded at (x_prev, z_prev), supplies d(x_prev,
    z_prev) as its ``d_xz`` and the oracle ratio's denominator as its
    ``dist_term``, so neither is computed again; ``logs``, the coordinate
    arrays log_{x_new}(z_prev) and log_{x_new}(x_star), supplies its
    numerator's.
    """
    if mode == ANALYTIC:
        if manifold.curvature > 0:
            raise GeometryError("analytic distortion rates need a Hadamard manifold")
        d = manifold.distance(x_prev, z_prev) if prev is None else prev.d_xz
        return comparison(manifold.curvature, d)
    if mode == ORACLE:
        if x_new is None or x_star is None:
            raise ValueError("oracle mode needs x_new and x_star")
        denom = (manifold.projected_distance(x_prev, z_prev, x_star) ** 2
                 if prev is None else prev.dist_term)
        if denom < 1e-30:
            return 1.0
        if logs is None:
            num = manifold.projected_distance(x_new, z_prev, x_star) ** 2
        else:
            num = manifold._norm(x_new.coords, logs[0] - logs[1]) ** 2
        return max(1.0, num / denom)
    raise ValueError(f"unknown distortion mode {mode!r}")


def energy(A: float, B: float, obj: Objective, state: AccelState,
           x_star: ManifoldPoint, f_star: float, envelope: float | None = None,
           star_log: np.ndarray | None = None) -> EnergyRecord:
    """Evaluate the energy and its components at the current state; f(y) is
    taken from the state when it carries it, and log_x(x*) from ``star_log``
    when the caller holds it.  d(x, z) and log_x(z) come from one raw pass, d(x, y) another."""
    m = obj.manifold
    m._own(state.y)
    m._own(state.z)
    f_gap = (obj.value(state.y) if state.f_y is None else state.f_y) - f_star
    if star_log is None:
        # the public call checks x*; on a Frechet mean, whose row passes make
        # no public call, it is the one log that bench/tracer.py sees
        star_log = m.log(state.x, x_star).coords
    x = state.x.coords
    d_xz, log_z = m._dist_log(x, state.z.coords)
    dist_term = m._norm(x, m._defined(log_z) - star_log) ** 2
    return EnergyRecord(
        E=A * f_gap + B * dist_term,
        f_gap=f_gap,
        dist_term=dist_term,
        d_xy=m._distance(x, state.y.coords),
        d_xz=d_xz,
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
    diam: float
    x_star: ManifoldPoint
    # oracle delta: fixed points stopped at the cap or by a stalled gap, and
    # the worst relative mismatch of a kept step
    delta_capped: int = 0
    delta_stalled: int = 0
    delta_mismatch: float = 0.0

    @property
    def E0(self) -> float:
        return self.energies[0].E

    @property
    def xi_seq(self) -> list[float]:
        seq = [] if self.xi0 is None else [self.xi0]
        return seq + [s.xi for s in self.schedules if s.xi is not None]

    @property
    def deltas(self) -> list[float]:
        return [s.delta for s in self.schedules]


def run_accelerated(obj: Objective, y0: ManifoldPoint, k_max: int, mode: str,
                    oracle, dom: DomainSpec | None = None,
                    delta_mode: str = ANALYTIC, xi0: float | None = None,
                    writer=None) -> AccelRun:
    """Drive the accelerated scheme from y0 = z0 for ``k_max`` iterations.

    ``oracle`` is a descent algorithm with a 2-backward certificate
    (``GradientDescent`` or ``ProximalPoint``): its ``step`` is G_c and its
    ``certificate(obj, BACKWARD)`` gives c.
    ``mode`` selects the g-convex or strongly g-convex schedule.  In
    ``oracle`` delta mode the distortion rate of each step is made
    self-consistent by a small fixed-point iteration: the step is recomputed
    until the rate used by the schedule matches the realized ratio to 1e-12
    relative, until that relative gap fails to shrink (``delta_stalled``
    counts these iterations) or for at most 60 steps (``delta_capped``), and
    the step with the smallest gap is kept.  The run's ``IterateTrace``
    records the y iterates, hands each record to ``writer`` if one is given,
    with the schedule and energy fields in ``extra``, and monitors the domain
    at x, y and z (its ``close`` watches the run's ``xs`` and ``zs`` too).
    """
    if mode not in (GCONVEX, STRONGLY):
        raise ValueError(f"unknown mode {mode!r}")
    if delta_mode not in (ANALYTIC, ORACLE):
        raise ValueError(f"unknown delta mode {delta_mode!r}")
    m = obj.manifold
    dom = dom if dom is not None else obj.domain
    trace = IterateTrace(dom, y0, writer)
    sol = obj.known_solution
    if sol is None:
        raise ValueError("accelerated runs need a known or precomputed minimizer")
    x_star, f_star = sol.x_star, sol.f_star
    cert = oracle.certificate(obj, BACKWARD)
    if (cert.p, cert.direction) != (2.0, BACKWARD):
        raise ValueError(f"the oracle needs a 2-backward certificate, got {cert}")
    step, c = oracle.step, cert.c
    mu = obj.metadata.mu
    f_y, grad_y = obj._evaluate(y0)
    state = AccelState(y0, y0, y0, 0, f_y, grad_y)
    tol = default_tolerance(state.f_y)

    D0 = env = None
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
        sched = ScheduleState(1.0, xi0**2 / (4.0 * c), 0.0, 1.0, xi0)
        D0 = state.f_y - f_star + sched.B * m.distance(state.z, x_star) ** 2
        env = math.sqrt(max(D0, 0.0))
    else:
        sched = ScheduleState(0.0, 4.0 / c, 0.0, 1.0, xi0)
    prod = 1.0
    run = AccelRun(trace, [], [], [], [], mode, delta_mode, c, mu, xi0, D0, dom.diameter, x_star)

    def record(slack, star_log=None):
        # energy and record at the current state, schedule and envelope
        e = energy(sched.A, sched.B, obj, state, x_star, f_star, env, star_log)
        run.energies.append(e)
        run.xs.append(state.x)
        run.zs.append(state.z)
        trace.record(state.y, state.f_y, m._norm(state.y.coords, state.grad_y), slack,
                     {"delta": sched.delta, "xi": sched.xi, "A": sched.A, "B": sched.B,
                      "E": e.E, "d_xy": e.d_xy, "d_xz": e.d_xz, "envelope": e.envelope})

    record(None)

    def advance(delta):
        """The next schedule at distortion rate ``delta``, and its step and slack."""
        if mode == GCONVEX:
            params, new = schedule_gconvex(state.k, sched.A, sched.B, sched.delta, delta, c)
        else:
            xi = xi_solve(sched.xi, delta, mu, c)
            params, new = schedule_strongly(xi, sched.A, mu, c, delta)
        return (new, *accel_step(obj, state, params, step, c, tol))

    for _ in range(k_max):
        if delta_mode == ANALYTIC:
            delta = distortion_rate(m, state.x, state.z, mode=ANALYTIC, prev=run.energies[-1])
            new_sched, new_state, slack = advance(delta)
            star_log = None
        else:
            # self-consistent realized distortion rate: stop once the gap
            # fails to shrink, as round-off near x* can make it, and keep the
            # step with the smallest gap.  The rate's numerator takes the
            # step's drift, and its log_{x+}(x*) goes to the kept step's
            # energy record
            delta, kept = max(1.0, sched.delta), None
            for _ in range(60):
                candidate = advance(delta)
                x_new = candidate[1].x
                star_log = m._log(x_new.coords, x_star.coords)
                realized = distortion_rate(m, state.x, state.z, x_new, mode=ORACLE,
                                           x_star=x_star, prev=run.energies[-1],
                                           logs=(candidate[1].drift, star_log))
                gap = abs(realized - delta) / max(1.0, delta)
                if kept is not None and gap >= kept_gap:
                    run.delta_stalled += 1
                    break
                kept, kept_gap = (*candidate, star_log), gap
                if gap <= 1e-12:
                    break
                delta = realized
            else:
                run.delta_capped += 1
            new_sched, new_state, slack, star_log = kept
            run.delta_mismatch = max(run.delta_mismatch, kept_gap)

        state, sched = new_state, new_sched
        if mode == STRONGLY:
            prod *= 1.0 - sched.xi
            env = math.sqrt(max(prod * D0, 0.0))
        run.schedules.append(sched)
        record(slack, star_log)

    trace.close(run.xs, run.zs)
    return run


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

    def ratio_slope(self) -> float:
        """Least-squares slope of the ratio against k, over iterations where
        the envelope is still numerically meaningful (above ``ENVELOPE_FLOOR``)."""
        mask = self.envelope > ENVELOPE_FLOOR
        if mask.sum() < 2:
            return 0.0
        return float(np.polyfit(self.k[mask], self.ratio[mask], 1)[0])


def shrink_diagnostics(run: AccelRun) -> ShrinkReport:
    """Distance-shrinking diagnostics: the recorded distances against their
    product-rate envelopes, plus the empirical ratio standing in for the
    analysis' implicit constant."""
    if run.mode != STRONGLY:
        raise ValueError("diagnostics apply to strongly convex runs")
    mu = run.mu
    m = run.x_star.manifold
    n = len(run.trace)
    env = np.array([e.envelope for e in run.energies])
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


def settles_from(mask) -> int | None:
    """First index k with ``mask[k:]`` all true, or None if the last entry
    is false (or there is none)."""
    mask = np.asarray(mask, dtype=bool)
    outside = np.flatnonzero(~mask)
    k = int(outside[-1]) + 1 if outside.size else 0
    return k if k < mask.size else None


def xi_convergence_levels(xi_seq, mu: float, c: float,
                          eps_levels) -> tuple[list[int | None], float]:
    """For each eps of ``eps_levels``, the first index after which
    |xi_k - sqrt(2*mu*c)| <= eps holds to the end of the sequence (None if
    the last xi_k is outside the band); plus the fitted log-linear
    convergence slope of the deviation (nan if degenerate), which does not
    depend on the level and is fitted once.  A sequence that starts in a
    band, leaves it and comes back reports the index where it re-entered
    for good."""
    target = math.sqrt(2.0 * mu * c)
    dev = np.abs(np.asarray(xi_seq, dtype=float) - target)
    firsts = [settles_from(dev <= eps) for eps in eps_levels]
    mask = dev > 1e-15
    if mask.sum() >= 2:
        ks = np.nonzero(mask)[0]
        slope = float(np.polyfit(ks, np.log(dev[mask]), 1)[0])
    else:
        slope = float("nan")
    return firsts, slope


def conjugate_bound_check(s, u, alpha: float, q: float) -> bool:
    """Check ``<s, alpha*u> - ||s||^q / q <= (q-1)/q * |alpha|^(q/(q-1)) * ||u||^(q/(q-1))``
    up to a slack of 1e-12."""
    if not q > 1:
        raise ValueError("need q > 1")
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    lhs = float(np.dot(s, alpha * u)) - np.linalg.norm(s) ** q / q
    rhs = (q - 1.0) / q * abs(alpha) ** (q / (q - 1.0)) * np.linalg.norm(u) ** (q / (q - 1.0))
    return lhs <= rhs + 1e-12
