"""Shared sampling utilities, the benchmark objective set and test-only
reference solvers and checks used across the test modules."""

import numpy as np
from hypothesis import assume

from geodescent import acceleration as acc
from geodescent.descent import BACKWARD
from geodescent.geometry import DomainSpec, Euclidean, Hyperboloid, Sphere, TangentVector
from geodescent.objectives import FrechetMean, Quadratic, SphereRayleigh, SquaredDistance


def drawn_unit(m, x, raw):
    """The unit tangent at raw coordinates ``x`` along the ambient vector
    ``raw`` drawn by hypothesis, which rejects a projection shorter than
    1e-3."""
    u = m._project_tangent(x, np.asarray(raw, dtype=float))
    n = m._norm(x, u)
    assume(n > 1e-3)
    return u / n


def unit_tangent(m, rng, x):
    v = m.random_tangent(rng, x, 1.0)
    n = m.norm(x, v)
    if n < 1e-12:
        return TangentVector(x, m.orthonormal_basis(x)[0])
    return TangentVector(x, m._project_tangent(x.coords, v.coords / n))


def point_at(m, rng, center, dist):
    u = unit_tangent(m, rng, center)
    return m.exp(center, TangentVector(center, dist * u.coords))


def tangent_of_norm(m, rng, x, norm):
    u = unit_tangent(m, rng, x)
    return TangentVector(x, norm * u.coords)


def accel_state(obj, x, y, z):
    """The accelerated state (x, y, z) at k = 0, with f(y) and ||grad f(y)||."""
    return acc.AccelState(x, y, z, 0, obj.value(y), obj.manifold.norm(y, obj.gradient(y)))


def accel_update(obj, state, params, oracle, tol=1e-9):
    """One accelerated update as the driver takes it: the look-ahead, then the
    certified step of ``oracle`` under ``certificate(obj, BACKWARD)``.
    Returns the new state and the oracle slack."""
    x_new, drift = acc._look_ahead(obj.manifold, state, params.tau)
    return acc._descend(obj, state, params, x_new, drift, oracle,
                        oracle.certificate(obj, BACKWARD), tol)


def make_quadratic(scales=None):
    return Quadratic([0.7, -0.3], scales=scales)


def make_sqdist_h2(seed=3, target_distance=0.8, domain_radius=2.0):
    H = Hyperboloid(2, 1.0)
    rng = np.random.default_rng(seed)
    target = point_at(H, rng, H.origin(), target_distance)
    return SquaredDistance(H, target, domain=DomainSpec(H.origin(), domain_radius))


def make_frechet_h2(seed=7, num=5, spread=0.7, domain_radius=2.0, solve_reference=True):
    H = Hyperboloid(2, 1.0)
    rng = np.random.default_rng(seed)
    o = H.origin()
    pts = [H.exp(o, H.random_tangent(rng, o, spread)) for _ in range(num)]
    return FrechetMean(H, np.array([p.coords for p in pts]), domain=DomainSpec(o, domain_radius),
                       solve_reference=solve_reference)


def make_frechet_sphere(seed=11, num=4, spread=0.25, domain_radius=0.5):
    S = Sphere(2, 1.0)
    rng = np.random.default_rng(seed)
    o = S.origin()
    pts = [S.exp(o, S.random_tangent(rng, o, spread)) for _ in range(num)]
    return FrechetMean(S, np.array([p.coords for p in pts]), domain=DomainSpec(o, domain_radius))


def make_rayleigh(diag=(2.0, 1.0, 0.5)):
    return SphereRayleigh(Sphere(2, 1.0), np.diag(diag))


def euclidean2():
    return Euclidean(2)


def grad_check(obj, x, h=1e-5):
    """Max relative error between the analytic gradient and central
    differences of ``f o exp`` over the orthonormal basis directions."""
    if not 1e-7 <= h <= 1e-3:
        raise ValueError("h must lie in [1e-7, 1e-3]")
    m = obj.manifold
    g = obj.gradient(x)
    worst = 0.0
    for b in m.orthonormal_basis(x):
        e = TangentVector(x, b)
        fp = obj.value(m.exp(x, TangentVector(x, h * b)))
        fm = obj.value(m.exp(x, TangentVector(x, -h * b)))
        fd = (fp - fm) / (2.0 * h)
        ge = m.inner(x, g, e)
        worst = max(worst, abs(fd - ge) / (1.0 + abs(ge)))
    return worst


def xi_solve_bisect(xi_k, delta_k1, mu, c, tol=1e-14):
    """Bisection on the original xi recurrence
    ``xi*(xi - 2*mu*c)/(1 - xi) = xi_k^2 / delta``; independent check of
    ``acceleration.xi_solve``."""
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


def cubic_sigma_bisect(ghat, evals, M):
    """Bisection to adjacent floats on the secular equation
    ``||(Lambda + sigma)^-1 ghat|| = sigma / M`` above ``max(0, -evals[0])``,
    in the eigenbasis; independent check of ``descent._solve_cubic_model``
    off the hard case."""
    lo = max(0.0, -float(evals[0]))
    hi = lo + 1.0

    def phi(sigma):
        return np.linalg.norm(ghat / (evals + sigma)) - sigma / M

    while phi(hi) > 0.0:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if phi(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def proximal_gradient_reference(obj, x, eta, tol_prox=1e-9, max_inner=50_000):
    """The proximal subproblem ``min f(y) + d(y, x)^2 / (2 eta)`` solved by
    plain gradient descent at step 1/(L_f + L_prox/eta) to the residual
    ``||log(y, x) - eta * grad f(y)|| < tol_prox``; independent check of
    the Newton solver in ``descent.proximal_step``.  Returns (y, number of
    gradient steps)."""
    from geodescent.objectives import _dist_sq_L

    m = obj.manifold
    L_f = obj.metadata.L if obj.metadata.L is not None else 1.0
    L_prox = _dist_sq_L(m, 2.0 * obj.domain.radius + m.distance(obj.domain.center, x))
    step = 1.0 / (L_f + L_prox / eta)
    y = x
    for i in range(max_inner):
        g_f = obj.gradient(y).coords
        back = m.log(y, x).coords
        if m._norm(y.coords, back - eta * g_f) < tol_prox:
            return y, i
        y = m.exp(y, TangentVector(y, -step * (g_f - back / eta)))
    raise RuntimeError(f"reference proximal solve did not converge in {max_inner} steps")
