"""Descent algorithms with per-iteration decrease certificates and the
closed-form rate envelopes they imply.

A certificate ``(p, c, direction)`` claims each step decreases f by at least
``c * ||grad f||^(p/(p-1))``, with the gradient taken at the new iterate
(forward) or the current one (backward).  ``run_descent`` records each
step's slack in its ``IterateTrace``, which also monitors the domain and
can stream every record to a trace writer; ``certify`` re-checks the claim
on a recorded trace, independently of how the steps were produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from geodescent.geometry import (DOMAIN_TOL, DomainSpec, ManifoldPoint, TangentVector, _norm2,
                                  in_domain)
from geodescent.objectives import Objective, _dist_sq_hessian, _dist_sq_L

__all__ = [
    "DescentCertificate",
    "IterateTrace",
    "ProximalSolverError",
    "SubsolverError",
    "rgd_step",
    "proximal_step",
    "cubic_newton_step",
    "GradientDescent",
    "ProximalPoint",
    "CubicNewton",
    "run_descent",
    "certify",
    "rate_bound_gconvex",
    "rate_bound_nonconvex",
    "rate_bound_graddom",
    "default_tolerance",
]

FORWARD = "forward"
BACKWARD = "backward"

# floor below which rate envelopes are no longer numerically meaningful
ENVELOPE_FLOOR = 1e-13
# the proximal step's optimality residual and its budget of inner iterations
PROX_TOL = 1e-9
PROX_MAX_INNER = 50_000


class ProximalSolverError(RuntimeError):
    """Inner proximal solve did not reach the optimality residual."""


class SubsolverError(RuntimeError):
    """Cubic subproblem solve did not converge or failed the acceptance conditions."""


@dataclass(frozen=True)
class DescentCertificate:
    """Per-step decrease claim attached to an algorithm."""

    p: float
    c: float
    direction: str

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError("certificate order p must exceed 1")
        if not (np.isfinite(self.c) and self.c > 0):
            raise ValueError("descent constant c must be finite and positive")
        if self.direction not in (FORWARD, BACKWARD):
            raise ValueError(f"unknown direction {self.direction!r}")

    @property
    def exponent(self) -> float:
        return self.p / (self.p - 1.0)

    def slack(self, f_prev: float, f: float, gn_prev: float, gn: float) -> float:
        """A step's slack ``f - f_prev + c * ||grad f||^(p/(p-1))`` from the values
        and gradient norms before and after it (positive = claim violated)."""
        gn_ref = gn if self.direction == FORWARD else gn_prev
        return f - f_prev + self.c * gn_ref**self.exponent


class IterateTrace:
    """Recorded run: iterates x_0..x_K plus values, gradient norms and the
    per-step certificate slack (positive slack = inequality violated).

    A driver builds it on its domain and start point, which ``in_domain``
    checks, and appends each iterate with ``record``, which also calls
    ``writer.record(k, x.coords, f, grad_norm, slack, extra)`` if a writer
    (such as a ``TraceWriter``) is given.  ``close`` checks that every value
    is finite and sets ``domain_exit`` (assumption monitor, not fatal): the
    first iteration at which the iterate, or the point of one of the driver's
    own point ``columns`` there, lies beyond the bound ``in_domain`` uses.
    One pass of the row kernel ``_dist_log_rows`` measures every such point's
    distance from the centre; row and scalar distances may differ in the last
    bit, so only a point within a few ulps of the bound can be judged
    otherwise than ``in_domain`` would."""

    def __init__(self, dom: DomainSpec, x0: ManifoldPoint, writer=None):
        if not in_domain(dom, x0):
            raise ValueError("the start point must lie inside the domain")
        self.dom = dom
        self.writer = writer
        self.domain_exit = None
        self.iterates, self.values, self.grad_norms, self.per_step_violation = [], [], [], []

    def __len__(self):
        return len(self.iterates)

    def record(self, x, f, grad_norm, slack=None, extra=None):
        k = len(self.iterates)
        self.iterates.append(x)
        self.values.append(f)
        self.grad_norms.append(grad_norm)
        if k:
            self.per_step_violation.append(slack)
        if self.writer is not None:
            self.writer.record(k, x.coords, f, grad_norm, slack, extra)

    def _first_exit(self, columns) -> int | None:
        """The first k >= 1 at which a point of row k of ``zip(iterates,
        *columns)`` lies outside the domain, or None."""
        rows = list(zip(self.iterates, *columns))[1:]
        if not rows:
            return None
        center = self.dom.center
        points = np.array([p.coords for row in rows for p in row])
        d = center.manifold._dist_log_rows(center.coords, points)[0]
        # not "d > bound", which a NaN distance would pass as inside
        out = np.flatnonzero(~(d <= self.dom.radius + DOMAIN_TOL))
        return int(out[0]) // len(rows[0]) + 1 if out.size else None

    def close(self, *columns) -> IterateTrace:
        """End the run and return the trace; ``columns`` are further point lists,
        one entry per recorded iterate, that the domain monitor also watches."""
        self.domain_exit = self._first_exit(columns)
        if not all(map(math.isfinite, self.values)):
            raise ValueError("non-finite objective values in trace")
        return self


def default_tolerance(f0: float) -> float:
    """Additive slack allowed in per-iteration inequality checks."""
    return 1e-9 * (1.0 + abs(f0))


# ---------------------------------------------------------------------------
# steps


def rgd_step(obj: Objective, x: ManifoldPoint, eta: float,
             grad: TangentVector) -> ManifoldPoint:
    """One gradient step ``exp(x, -eta * grad f(x))``, with ``grad`` = grad f(x).

    Requires 0 < eta < 2/L for the declared L; the corresponding
    certificate is (2, eta*(1 - L*eta/2), backward).
    """
    L = obj.metadata.L
    # an undeclared L, or L = 0 (a constant objective), bounds no step
    if not 0.0 < eta < (2.0 / L if L else np.inf):
        raise ValueError(f"eta={eta:g} outside (0, 2/L) for L={L}")
    obj.manifold._same_base(x, grad)
    return obj.manifold._move(x.coords, -eta * grad.coords)


def proximal_step(obj: Objective, x: ManifoldPoint, eta: float, grad: TangentVector) -> ManifoldPoint:
    """Approximate proximal point: minimize ``F(y) = f(y) + d(y, x)^2 / (2 eta)``.

    The inner problem is solved from y = x, with ``grad`` = grad f(x), until
    the first-order residual ``||log(y, x) - eta * grad f(y)||`` (eta *
    ||grad F(y)||) drops below ``PROX_TOL``, in at most ``PROX_MAX_INNER``
    inner iterations.  Each takes the Riemannian Newton step on F in the
    frame ``_frame(y)`` and keeps it if it lowers the residual.  Otherwise,
    and where the Hessian of F is not positive definite (f need not be
    convex) or the objective has no ``hessian_matrix``, it takes the
    gradient step 1/(L_f + L_prox/eta) from y.  A kept trial whose residual
    is not finite (eta * grad f can overflow) ends the solve with
    ``ProximalSolverError``.  Certificate: (2, eta/2, forward).
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    m = obj.manifold
    m._same_base(x, grad)
    L_f = obj.metadata.L if obj.metadata.L is not None else 1.0
    # curvature bound for the proximal quadratic on the relevant region
    L_prox = _dist_sq_L(m, 2.0 * obj.domain.radius
                        + m._distance(obj.domain.center.coords, x.coords))
    step = 1.0 / (L_f + L_prox / eta)

    def at(y, g_f=None):
        """y, grad f(y), the pass (d(y, x), log(y, x)) and the residual at y."""
        g_f = obj.gradient(y).coords if g_f is None else g_f
        d, back = m._dist_log(y.coords, x.coords)
        back = m._defined(back)
        return y, g_f, (d, back), m._norm(y.coords, back - eta * g_f)

    y, g_f, dist_log, residual = at(x, grad.coords)
    for i in range(PROX_MAX_INNER):
        if residual < PROX_TOL:
            return y
        tested, grad_F = residual, g_f - dist_log[1] / eta
        s = _prox_newton_step(obj, y, x, eta, grad_F, dist_log)
        trial = None if s is None else at(m._move(y.coords, s))
        if trial is None or not trial[3] < residual:
            trial = at(m._move(y.coords, -step * grad_F))
        y, g_f, dist_log, residual = trial
        if not math.isfinite(residual):
            raise ProximalSolverError(
                f"optimality residual {residual} is not finite at inner iteration {i + 1}")
    raise ProximalSolverError(
        f"optimality residual {tested:.3e} > {PROX_TOL:g} after {PROX_MAX_INNER} inner iterations"
    )


def _prox_newton_step(obj: Objective, y: ManifoldPoint, x: ManifoldPoint, eta: float,
                      grad_F: np.ndarray, dist_log) -> np.ndarray | None:
    """Ambient coordinates of the Newton step at y on ``f + d(., x)^2 / (2 eta)``
    whose gradient there is ``grad_F``, from the ``_dist_log`` pass to x; None
    where the objective has no Hessian or that of the sum is not positive definite."""
    m = obj.manifold
    B = m._frame(y.coords)
    try:
        H = obj.hessian_matrix(y, basis=B)
    except NotImplementedError:
        return None
    H = H + _dist_sq_hessian(m, y, x, B, dist_log) / eta
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(H, -m._inner_rows(y.coords, B, grad_F)) @ B


def _solve_cubic_model(g: np.ndarray, evals: np.ndarray, evecs: np.ndarray,
                       M: float) -> np.ndarray:
    """Global minimizer of ``<g,s> + s'Hs/2 + M*||s||^3/3`` via the secular
    equation in the eigenbasis ``eigh(H)`` of H (hard case included).  Off the
    hard case, psi(sigma) = 1/||(H + sigma I)^-1 g|| - M/sigma is concave and
    increasing, so Newton from psi <= 0 climbs to its root without overshoot
    (Moré & Sorensen 1983)."""
    ghat = evecs.T @ g
    sigma_min = max(0.0, -float(evals[0]))
    gn = _norm2(g)
    scale = 1.0 + float(np.abs(evals).max()) + gn

    # strictly interior evaluation point just above sigma_min
    lo = sigma_min + 1e-14 * scale
    if _norm2(ghat / (evals + lo)) <= lo / M:
        # hard case: sigma pinned at sigma_min; pad with the bottom eigenvector
        denom = evals + sigma_min
        mask = denom > 1e-12 * scale
        s_hat = np.zeros_like(ghat)
        s_hat[mask] = -ghat[mask] / denom[mask]
        gap = (sigma_min / M) ** 2 - float(s_hat.dot(s_hat))
        if gap > 0 and not mask[0]:
            s_hat[0] += math.sqrt(gap)
        return evecs @ s_hat
    # start at the root's bound sigma * (lam_max + sigma) >= M ||g||, without cancellation
    lam_max, c = float(evals[-1]), M * gn
    sq = math.sqrt(lam_max**2 + 4.0 * c)
    sigma = max(lo, 2.0 * c / (lam_max + sq) if lam_max > 0 else (sq - lam_max) / 2.0)
    for _ in range(100):
        w = ghat / (evals + sigma)
        sn = _norm2(w)
        dpsi = float(w.dot(w / (evals + sigma))) / sn**3 + M / sigma**2
        step = (M / sigma - 1.0 / sn) / dpsi
        sigma += step
        if step <= 1e-15 * sigma:
            return evecs @ (-ghat / (evals + sigma))
    raise SubsolverError("secular equation: Newton did not converge in 100 steps")


def cubic_newton_step(obj: Objective, x: ManifoldPoint, M: float, theta: float, rho: float,
                      grad: TangentVector) -> tuple[ManifoldPoint, TangentVector]:
    """One cubic-regularized Newton step from ``grad`` = grad f(x).

    Returns ``(exp(x, s), s)`` where s minimizes the cubic model
    ``m(s) = f(x) + <g,s> + s'Hs/2 + M||s||^3/3`` and satisfies the
    acceptance conditions ``m(s) <= m(0)`` and ``||grad m(s)|| <= theta ||s||^2``
    (re-verified here, up to float-level slack).  Certificate:
    (3, (M/3 - rho/6) * (theta + rho/2 + M)^(-3/2), forward).
    """
    if rho is None:
        raise ValueError("cubic Newton needs a Hessian-Lipschitz constant rho")
    if not M > rho / 2.0:
        raise ValueError(f"need M > rho/2, got M={M:g}, rho={rho:g}")
    if theta <= 0:
        raise ValueError("theta must be positive")
    m = obj.manifold
    m._same_base(x, grad)
    B = m._frame(x.coords)
    g = m._inner_rows(x.coords, B, grad.coords)
    H = obj.hessian_matrix(x, basis=B)
    gn = _norm2(g)
    evals, evecs = np.linalg.eigh(H)
    lam_min = float(evals[0])
    atol = 1e-12 * (1.0 + gn + float(np.abs(H).max()))

    if gn <= atol and lam_min >= -atol:
        # stationary with PSD Hessian: s = 0 satisfies both conditions
        return x, m.zero_tangent(x)

    s = _solve_cubic_model(g, evals, evecs, M)

    def model_drop(sv):
        return float(g.dot(sv) + 0.5 * sv @ H @ sv + (M / 3.0) * _norm2(sv) ** 3)

    def model_grad(sv):
        return g + H @ sv + M * _norm2(sv) * sv

    if _norm2(model_grad(s)) > theta * s.dot(s) + atol:
        # fall back to gradient descent on the model
        step = 1.0 / (abs(lam_min) + float(np.abs(H).max()) + M * _norm2(s) + 1.0)
        for _ in range(20_000):
            gm = model_grad(s)
            if _norm2(gm) <= theta * s.dot(s) + atol:
                break
            s = s - step * gm
        else:
            raise SubsolverError("theta-condition unmet within iteration budget")
    if model_drop(s) > atol:
        raise SubsolverError("cubic model did not decrease at the returned step")

    s_coords = m._project_tangent(x.coords, s @ B)
    return m._move(x.coords, s_coords), TangentVector(x, s_coords)


# ---------------------------------------------------------------------------
# algorithms: frozen records of a run's constants, with step and certificate


@dataclass(frozen=True)
class GradientDescent:
    """Riemannian gradient descent; 2-backward descent for L-g-smooth f."""

    eta: float

    def step(self, obj, x, grad):
        return rgd_step(obj, x, self.eta, grad)

    def certificate(self, obj, direction: str = BACKWARD) -> DescentCertificate:
        L = obj.metadata.L
        if L is None:
            raise ValueError("gradient descent certificate needs a declared L")
        if direction != BACKWARD:
            raise ValueError("gradient descent is certified backward only")
        return DescentCertificate(2.0, self.eta * (1.0 - L * self.eta / 2.0), BACKWARD)


@dataclass(frozen=True)
class ProximalPoint:
    """Proximal point method; 2-forward descent for any eta > 0, and
    2-backward descent for L-g-smooth f."""

    eta: float

    def step(self, obj, x, grad):
        return proximal_step(obj, x, self.eta, grad)

    def certificate(self, obj, direction: str = FORWARD) -> DescentCertificate:
        """Forward: c = eta/2.  Backward (the decrease measured at the input
        gradient): c = eta / (2 * (1 + L * eta)), obtained by testing the
        prox objective along the steepest-descent ray and using L-smoothness."""
        if direction == FORWARD:
            return DescentCertificate(2.0, self.eta / 2.0, FORWARD)
        L = obj.metadata.L
        if L is None:
            raise ValueError("backward proximal certificate needs a declared L")
        return DescentCertificate(2.0, self.eta / (2.0 * (1.0 + L * self.eta)), direction)


@dataclass(frozen=True)
class CubicNewton:
    """Cubic-regularized Newton; 3-forward descent for rho-Hessian-Lipschitz f.

    With the defaults theta = rho/2 and M = rho the certificate constant
    simplifies to 1/(12*sqrt(2)*sqrt(rho)).  A given ``rho`` takes the place
    of the objective's declared one.
    """

    M: float | None = None
    theta: float | None = None
    rho: float | None = None

    def _params(self, obj):
        rho = self.rho if self.rho is not None else obj.metadata.rho
        if rho is None:
            raise ValueError("cubic Newton needs a Hessian-Lipschitz constant rho")
        M = self.M if self.M is not None else rho
        theta = self.theta if self.theta is not None else rho / 2.0
        return M, theta, rho

    def step(self, obj, x, grad):
        M, theta, rho = self._params(obj)
        return cubic_newton_step(obj, x, M, theta, rho, grad)[0]

    def certificate(self, obj, direction: str = FORWARD) -> DescentCertificate:
        if direction != FORWARD:
            raise ValueError("cubic Newton is certified forward only")
        M, theta, rho = self._params(obj)
        try:
            c = (M / 3.0 - rho / 6.0) * (theta + rho / 2.0 + M) ** (-1.5)
        except OverflowError:  # a tiny rho: c exceeds every float, and the check refuses it
            c = math.inf
        return DescentCertificate(3.0, c, FORWARD)


# ---------------------------------------------------------------------------
# driver and checks


def _certified_step(alg, cert: DescentCertificate, obj: Objective, x: ManifoldPoint, f, g, gn):
    """One step of ``alg`` from x, where f, the gradient coordinates g and
    their norm gn are already known: x+, f(x+), the coordinates of grad f(x+)
    from one ``obj._evaluate``, their norm, and the step's ``cert.slack``."""
    x_new = alg.step(obj, x, TangentVector(x, g))
    f_new, g_new = obj._evaluate(x_new)
    gn_new = obj.manifold._norm(x_new.coords, g_new)
    return x_new, f_new, g_new, gn_new, cert.slack(f, f_new, gn, gn_new)


def run_descent(alg, obj: Objective, x0: ManifoldPoint, k_max: int,
                dom: DomainSpec | None = None, writer=None) -> IterateTrace:
    """Run ``alg`` for up to ``k_max`` steps, recording values, gradient norms
    and the per-step certificate slack in an ``IterateTrace`` on ``dom``
    (default: the objective's), which monitors the domain and hands every
    record to ``writer`` if one is given (slack None at k=0, no extra).
    x0 is evaluated once, by ``obj._evaluate``, and every step is one
    ``_certified_step``, which reuses the gradient recorded at its input."""
    cert = alg.certificate(obj)
    trace = IterateTrace(dom if dom is not None else obj.domain, x0, writer)
    x = x0
    f, g = obj._evaluate(x)
    gn = obj.manifold._norm(x.coords, g)
    trace.record(x, f, gn)
    for _ in range(k_max):
        x, f, g, gn, slack = _certified_step(alg, cert, obj, x, f, g, gn)
        trace.record(x, f, gn, slack)
    return trace.close()


def certify(trace: IterateTrace, cert: DescentCertificate, tol: float) -> tuple[bool, float]:
    """Check the descent inequality on every step of a trace.

    Returns (passed, worst slack); slack above ``tol`` anywhere fails.
    """
    if len(trace) < 2:
        raise ValueError("need at least two iterates to certify")
    f, gn = trace.values, trace.grad_norms
    worst = max(cert.slack(f[k], f[k + 1], gn[k], gn[k + 1]) for k in range(len(trace) - 1))
    return worst <= tol, float(worst)


def rate_bound_gconvex(p: float, c: float, diam: float, k: int, direction: str) -> float:
    """g-convex envelope ``C * diam^p / k^(p-1)`` with the combined constant
    C = c^(1-p) * (p^2 - p)^(p-1) forward and c^(1-p) * (p - 1)^(p-1) backward."""
    if k < 1:
        raise ValueError("k must be >= 1")
    C = c ** (1.0 - p) * ((p**2 - p) if direction == FORWARD else (p - 1.0)) ** (p - 1.0)
    return C * diam**p / k ** (p - 1.0)


def rate_bound_nonconvex(c: float, p: float, f0_gap: float, k: int) -> float:
    """Upper bound on ``min_{t<=k} ||grad f(x_t)||`` without any assumptions."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if f0_gap < 0:
        raise ValueError("initial gap must be nonnegative")
    return (f0_gap / (c * k)) ** ((p - 1.0) / p)


def rate_bound_graddom(c: float, tau: float, k: int, direction: str, f0_gap: float) -> float:
    """Linear-rate envelope for (tau, p)-gradient-dominated objectives."""
    if direction == BACKWARD:
        if c > tau:
            raise ValueError("backward envelope needs c <= tau")
        return (1.0 - c / tau) ** k * f0_gap
    return (1.0 + c / tau) ** (-k) * f0_gap
