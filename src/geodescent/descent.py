"""Descent algorithms with per-iteration decrease certificates and the
closed-form rate envelopes they imply.

A certificate ``(p, c, direction)`` claims each step decreases f by at least
``c * ||grad f||^(p/(p-1))``, with the gradient taken at the new iterate
(forward) or the current one (backward).  ``certify`` re-checks the claim on
a recorded trace, independently of how the steps were produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from geodescent.geometry import DomainSpec, ManifoldPoint, TangentVector, in_domain
from geodescent.objectives import Objective, _dist_sq_hessian, _dist_sq_L

__all__ = [
    "DescentCertificate",
    "IterateTrace",
    "RateConstants",
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


class ProximalSolverError(RuntimeError):
    """Inner proximal solve did not reach the optimality residual."""


class SubsolverError(RuntimeError):
    """Cubic subproblem solution failed the acceptance conditions."""


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


@dataclass
class IterateTrace:
    """Recorded run: iterates x_0..x_K plus values, gradient norms and the
    per-step certificate slack (positive slack = inequality violated)."""

    iterates: list[ManifoldPoint]
    values: list[float]
    grad_norms: list[float]
    per_step_violation: list[float]
    domain_exit: int | None = None

    def __post_init__(self):
        n = len(self.iterates)
        if len(self.values) != n or len(self.grad_norms) != n:
            raise ValueError("trace column lengths are inconsistent")
        if len(self.per_step_violation) not in (0, n - 1):
            raise ValueError("need one violation entry per step")
        if not all(np.isfinite(v) for v in self.values):
            raise ValueError("non-finite objective values in trace")

    def __len__(self):
        return len(self.iterates)


@dataclass(frozen=True)
class RateConstants:
    """Constants of the g-convex rate envelope, in final combined form."""

    p: float
    c: float

    @property
    def C_fwd(self) -> float:
        return self.c ** (1.0 - self.p) * (self.p**2 - self.p) ** (self.p - 1.0)

    @property
    def C_bwd(self) -> float:
        return self.c ** (1.0 - self.p) * (self.p - 1.0) ** (self.p - 1.0)


def default_tolerance(f0: float) -> float:
    """Additive slack allowed in per-iteration inequality checks."""
    return 1e-9 * (1.0 + abs(f0))


# ---------------------------------------------------------------------------
# steps


def rgd_step(obj: Objective, x: ManifoldPoint, eta: float,
             grad: TangentVector | None = None) -> ManifoldPoint:
    """One gradient step ``exp(x, -eta * grad f(x))``; pass ``grad`` when the
    caller already holds grad f(x).

    Requires 0 < eta < 2/L for the declared L; the corresponding
    certificate is (2, eta*(1 - L*eta/2), backward).
    """
    L = obj.metadata.L
    # L = 0 (a constant objective) bounds no step
    if L is not None and not 0.0 < eta < (2.0 / L if L > 0 else np.inf):
        raise ValueError(f"eta={eta:g} outside (0, 2/L) for L={L:g}")
    if eta <= 0:
        raise ValueError("eta must be positive")
    obj.manifold._own(x)
    if grad is not None:
        obj.manifold._same_base(x, grad)
    g = obj.gradient(x) if grad is None else grad
    return obj.manifold._move(x.coords, -eta * g.coords)


def proximal_step(obj: Objective, x: ManifoldPoint, eta: float,
                  tol_prox: float = 1e-9, max_inner: int = 50_000,
                  grad: TangentVector | None = None) -> ManifoldPoint:
    """Approximate proximal point: minimize ``F(y) = f(y) + d(y, x)^2 / (2 eta)``.

    The inner problem is solved from y = x, with ``grad`` = grad f(x) if
    given, until the first-order residual ``||log(y, x) - eta * grad f(y)||``
    (eta * ||grad F(y)||) drops below ``tol_prox``.  Each inner iteration
    takes the Riemannian Newton step on F in ``orthonormal_basis(y)`` and
    keeps it if it lowers the residual.  Otherwise, and where the Hessian of
    F is not positive definite (f need not be convex) or the objective has
    no ``hessian_matrix``, it takes the gradient step 1/(L_f + L_prox/eta)
    from y.  Certificate: (2, eta/2, forward).
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if max_inner < 1:
        raise ValueError("max_inner must be at least 1")
    if not tol_prox > 0:
        raise ValueError("tol_prox must be positive")
    m = obj.manifold
    m._own(x)
    if grad is not None:
        m._same_base(x, grad)
    L_f = obj.metadata.L if obj.metadata.L is not None else 1.0
    # curvature bound for the proximal quadratic on the relevant region
    L_prox = _dist_sq_L(m, 2.0 * obj.domain.radius
                        + m._distance(obj.domain.center.coords, x.coords))
    step = 1.0 / (L_f + L_prox / eta)

    def at(y, g_f=None):
        """y, grad f(y), log(y, x) and the residual at y."""
        g_f = obj.gradient(y).coords if g_f is None else g_f
        back = m._log(y.coords, x.coords)
        return y, g_f, back, m._norm(y.coords, back - eta * g_f)

    y, g_f, back, residual = at(x, None if grad is None else grad.coords)
    for _ in range(max_inner):
        if residual < tol_prox:
            return y
        tested, grad_F = residual, g_f - back / eta
        s = _prox_newton_step(obj, y, x, eta, grad_F)
        trial = None if s is None else at(m._move(y.coords, s))
        if trial is None or not trial[3] < residual:
            trial = at(m._move(y.coords, -step * grad_F))
        y, g_f, back, residual = trial
    raise ProximalSolverError(
        f"optimality residual {tested:.3e} > {tol_prox:g} after {max_inner} inner iterations"
    )


def _prox_newton_step(obj: Objective, y: ManifoldPoint, x: ManifoldPoint, eta: float,
                      grad_F: np.ndarray) -> np.ndarray | None:
    """Ambient coordinates of the Newton step at y on ``f + d(., x)^2 / (2 eta)``
    whose gradient there is ``grad_F``; None where the objective has no
    Hessian or that of the sum is not positive definite."""
    m = obj.manifold
    try:
        H = obj.hessian_matrix(y)
    except NotImplementedError:
        return None
    basis = m.orthonormal_basis(y)
    H = H + _dist_sq_hessian(m, y, x, basis) / eta
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return None
    s = np.linalg.solve(H, [-m._inner(y.coords, grad_F, b.coords) for b in basis])
    return sum(si * b.coords for si, b in zip(s, basis))


def _solve_cubic_model(g: np.ndarray, evals: np.ndarray, evecs: np.ndarray,
                       M: float) -> np.ndarray:
    """Global minimizer of ``<g,s> + s'Hs/2 + M*||s||^3/3`` via the secular
    equation in the eigenbasis ``eigh(H)`` of H (hard case included)."""
    ghat = evecs.T @ g
    lam_min = float(evals[0])
    sigma_min = max(0.0, -lam_min)
    scale = 1.0 + float(np.abs(evals).max()) + float(np.linalg.norm(g))

    def snorm(sigma):
        return float(np.linalg.norm(ghat / (evals + sigma)))

    def phi(sigma):
        return snorm(sigma) - sigma / M

    # strictly interior evaluation point just above sigma_min
    lo = sigma_min + 1e-14 * scale
    if phi(lo) <= 0.0:
        # hard case: sigma pinned at sigma_min; pad with the bottom eigenvector
        denom = evals + sigma_min
        mask = denom > 1e-12 * scale
        s_hat = np.zeros_like(ghat)
        s_hat[mask] = -ghat[mask] / denom[mask]
        gap = (sigma_min / M) ** 2 - float(np.dot(s_hat, s_hat))
        if gap > 0 and not mask[0]:
            s_hat[0] += np.sqrt(gap)
        return evecs @ s_hat
    hi = max(2.0 * sigma_min, np.sqrt(M * np.linalg.norm(g)), 1e-8)
    while phi(hi) > 0.0:
        hi *= 2.0
        if hi > 1e300:
            raise SubsolverError("secular equation bracket expansion failed")
    from scipy.optimize import brentq  # here, not at import: scipy takes ~0.5 s to load

    sigma = brentq(phi, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    s_hat = -ghat / (evals + sigma)
    return evecs @ s_hat


def cubic_newton_step(obj: Objective, x: ManifoldPoint, M: float, theta: float,
                      rho: float | None = None,
                      grad: TangentVector | None = None) -> tuple[ManifoldPoint, TangentVector]:
    """One cubic-regularized Newton step; ``grad`` is grad f(x) if known.

    Returns ``(exp(x, s), s)`` where s minimizes the cubic model
    ``m(s) = f(x) + <g,s> + s'Hs/2 + M||s||^3/3`` and satisfies the
    acceptance conditions ``m(s) <= m(0)`` and ``||grad m(s)|| <= theta ||s||^2``
    (re-verified here, up to float-level slack).  Certificate:
    (3, (M/3 - rho/6) * (theta + rho/2 + M)^(-3/2), forward).
    """
    rho = obj.metadata.rho if rho is None else rho
    if rho is None:
        raise ValueError("cubic Newton needs a Hessian-Lipschitz constant rho")
    if not M > rho / 2.0:
        raise ValueError(f"need M > rho/2, got M={M:g}, rho={rho:g}")
    if theta <= 0:
        raise ValueError("theta must be positive")
    m = obj.manifold
    basis = m.orthonormal_basis(x)
    g_vec = obj.gradient(x) if grad is None else grad
    m._same_base(x, g_vec)
    g = np.array([m._inner(x.coords, g_vec.coords, b.coords) for b in basis])
    H = obj.hessian_matrix(x)
    gn = float(np.linalg.norm(g))
    evals, evecs = np.linalg.eigh(H)
    lam_min = float(evals[0])
    atol = 1e-12 * (1.0 + gn + float(np.abs(H).max()))

    if gn <= atol and lam_min >= -atol:
        # stationary with PSD Hessian: s = 0 satisfies both conditions
        return x, m.zero_tangent(x)

    s = _solve_cubic_model(g, evals, evecs, M)

    def model_drop(sv):
        return float(g @ sv + 0.5 * sv @ H @ sv + (M / 3.0) * np.linalg.norm(sv) ** 3)

    def model_grad(sv):
        return g + H @ sv + M * np.linalg.norm(sv) * sv

    if np.linalg.norm(model_grad(s)) > theta * np.dot(s, s) + atol:
        # fall back to gradient descent on the model
        step = 1.0 / (abs(lam_min) + float(np.abs(H).max()) + M * np.linalg.norm(s) + 1.0)
        for _ in range(20_000):
            gm = model_grad(s)
            if np.linalg.norm(gm) <= theta * np.dot(s, s) + atol:
                break
            s = s - step * gm
        else:
            raise SubsolverError("theta-condition unmet within iteration budget")
    if model_drop(s) > atol:
        raise SubsolverError("cubic model did not decrease at the returned step")

    s_coords = sum(si * b.coords for si, b in zip(s, basis))
    s_coords = m._project_tangent(x.coords, np.asarray(s_coords))
    return m._move(x.coords, s_coords), TangentVector(x, s_coords)


# ---------------------------------------------------------------------------
# algorithms (step + certificate)


class GradientDescent:
    """Riemannian gradient descent; 2-backward descent for L-g-smooth f."""

    def __init__(self, eta: float):
        self.eta = float(eta)

    def step(self, obj, x, grad=None):
        return rgd_step(obj, x, self.eta, grad)

    def certificate(self, obj, direction: str = BACKWARD) -> DescentCertificate:
        L = obj.metadata.L
        if L is None:
            raise ValueError("gradient descent certificate needs a declared L")
        if direction != BACKWARD:
            raise ValueError("gradient descent is certified backward only")
        return DescentCertificate(2.0, self.eta * (1.0 - L * self.eta / 2.0), BACKWARD)

    def __repr__(self):
        return f"GradientDescent(eta={self.eta:g})"


class ProximalPoint:
    """Proximal point method; 2-forward descent for any eta > 0, and
    2-backward descent for L-g-smooth f."""

    def __init__(self, eta: float, tol_prox: float = 1e-9, max_inner: int = 50_000):
        self.eta = float(eta)
        self.tol_prox = tol_prox
        self.max_inner = max_inner

    def step(self, obj, x, grad=None):
        return proximal_step(obj, x, self.eta, self.tol_prox, self.max_inner, grad)

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

    def __repr__(self):
        return f"ProximalPoint(eta={self.eta:g})"


class CubicNewton:
    """Cubic-regularized Newton; 3-forward descent for rho-Hessian-Lipschitz f.

    With the defaults theta = rho/2 and M = rho the certificate constant
    simplifies to 1/(12*sqrt(2)*sqrt(rho)).  A given ``rho`` takes the place
    of the objective's declared one.
    """

    def __init__(self, M: float | None = None, theta: float | None = None,
                 rho: float | None = None):
        self.M = M
        self.theta = theta
        self.rho = rho

    def _params(self, obj):
        rho = self.rho if self.rho is not None else obj.metadata.rho
        if rho is None and (self.M is None or self.theta is None):
            raise ValueError("cubic Newton defaults need a declared rho")
        M = self.M if self.M is not None else rho
        theta = self.theta if self.theta is not None else rho / 2.0
        return M, theta, rho if rho is not None else 2.0 * M

    def step(self, obj, x, grad=None):
        M, theta, rho = self._params(obj)
        return cubic_newton_step(obj, x, M, theta, rho, grad)[0]

    def certificate(self, obj, direction: str = FORWARD) -> DescentCertificate:
        if direction != FORWARD:
            raise ValueError("cubic Newton is certified forward only")
        M, theta, rho = self._params(obj)
        c = (M / 3.0 - rho / 6.0) * (theta + rho / 2.0 + M) ** (-1.5)
        return DescentCertificate(3.0, c, FORWARD)

    def __repr__(self):
        return f"CubicNewton(M={self.M}, theta={self.theta}, rho={self.rho})"


# ---------------------------------------------------------------------------
# driver and checks


class _Recorder:
    """Trace columns, domain monitor and callback shared by both drivers: the
    start point must lie in ``dom``; the first iteration at which a watched
    point (default: the iterate) leaves it is noted."""

    def __init__(self, dom: DomainSpec, x0: ManifoldPoint, callback=None):
        if not in_domain(dom, x0):
            raise ValueError("the start point must lie inside the domain")
        self.dom = dom
        self.callback = callback
        self.xs, self.values, self.grad_norms, self.slacks = [], [], [], []
        self.domain_exit = None

    def record(self, x, f, grad_norm, slack=None, extra=None, watch=None):
        k = len(self.xs)
        self.xs.append(x)
        self.values.append(f)
        self.grad_norms.append(grad_norm)
        if k:
            self.slacks.append(slack)
            if self.domain_exit is None and not all(
                in_domain(self.dom, p) for p in (watch or (x,))
            ):
                self.domain_exit = k
        if self.callback is not None:
            self.callback(k, x, f, grad_norm, slack, extra or {})

    def trace(self) -> IterateTrace:
        return IterateTrace(self.xs, self.values, self.grad_norms, self.slacks,
                            self.domain_exit)


def run_descent(alg, obj: Objective, x0: ManifoldPoint, k_max: int,
                dom: DomainSpec | None = None, callback=None) -> IterateTrace:
    """Run ``alg`` for up to ``k_max`` steps, recording values, gradient norms
    and the per-step certificate slack.  The first iterate outside ``dom`` is
    recorded (assumption monitor), not fatal.  ``callback(k, x, f, grad_norm,
    slack, extra)`` fires after every recorded iterate (slack None at k=0,
    extra empty).  Each step reuses the gradient recorded at its input."""
    m = obj.manifold
    cert = alg.certificate(obj)
    rec = _Recorder(dom if dom is not None else obj.domain, x0, callback)
    x, g = x0, obj.gradient(x0)
    gn = m.norm(x0, g)
    rec.record(x0, obj.value(x0), gn)
    for _ in range(k_max):
        x = alg.step(obj, x, g)
        g = obj.gradient(x)
        f = obj.value(x)
        gn_prev, gn = gn, m.norm(x, g)
        gn_ref = gn if cert.direction == FORWARD else gn_prev
        rec.record(x, f, gn, f - rec.values[-1] + cert.c * gn_ref**cert.exponent)
    return rec.trace()


def certify(trace: IterateTrace, cert: DescentCertificate, tol: float) -> tuple[bool, float]:
    """Check the descent inequality on every step of a trace.

    Returns (passed, worst slack); slack above ``tol`` anywhere fails.
    """
    if len(trace) < 2:
        raise ValueError("need at least two iterates to certify")
    worst = -np.inf
    q = cert.exponent
    for k in range(len(trace) - 1):
        gn = trace.grad_norms[k + 1] if cert.direction == FORWARD else trace.grad_norms[k]
        slack = trace.values[k + 1] - trace.values[k] + cert.c * gn**q
        worst = max(worst, slack)
    return worst <= tol, float(worst)


def rate_bound_gconvex(p: float, c: float, diam: float, k: int, direction: str) -> float:
    """g-convex envelope ``C * diam^p / k^(p-1)`` with the combined constant."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rc = RateConstants(p, c)
    C = rc.C_fwd if direction == FORWARD else rc.C_bwd
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
