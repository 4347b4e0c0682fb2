#!/usr/bin/env python3
"""Certified per-step decrease translates into closed-form convergence-rate
envelopes, one per function class:

  g-convex:             f(x_k) - f*            <= C * diam^p / k^(p-1)
  non-convex:           min_{t<=k} ||grad||    <= (gap_0 / (c k))^((p-1)/p)
  gradient-dominated:   f(x_k) - f*            <= (1 -+ c/tau)^(+-k) * gap_0

Every envelope is checked against a real run below.

Run:  python demos/03_rate_envelopes.py
"""
import numpy as np

from geodescent.descent import (
    GradientDescent,
    ProximalPoint,
    rate_bound_gconvex,
    rate_bound_graddom,
    rate_bound_nonconvex,
    run_descent,
)
from geodescent.geometry import DomainSpec, Hyperboloid, Sphere
from geodescent.objectives import FrechetMean, SphereRayleigh, SquaredDistance

rng = np.random.default_rng(2)

# -- g-convex: Frechet mean of five points on H^2 ---------------------------
H = Hyperboloid(2, 1.0)
o = H.origin()
pts = [H.exp(o, H.random_tangent(rng, o, 0.7)) for _ in range(5)]
frechet = FrechetMean(H, np.array([p.coords for p in pts]), domain=DomainSpec(o, 2.0))
alg = GradientDescent(1.0 / frechet.metadata.L)
cert = alg.certificate(frechet)
x0 = H.exp(o, H.tangent(o, [0.0, 1.0, 0.3]))
trace = run_descent(alg, frechet, x0, 200)
f_star = frechet.known_solution.f_star
print("g-convex envelope (Frechet mean on H^2, gradient descent)")
print(f"{'k':>5} {'gap':>12} {'envelope':>12}")
for k in (1, 3, 10, 30, 100, 200):
    env = rate_bound_gconvex(cert.p, cert.c, frechet.domain.diameter, k, cert.direction)
    print(f"{k:>5} {trace.values[k] - f_star:>12.3e} {env:>12.3e}")

# -- non-convex: Rayleigh objective on the sphere ---------------------------
ray = SphereRayleigh(Sphere(2, 1.0), np.diag([2.0, 1.0, 0.5]))
alg = GradientDescent(1.0 / ray.metadata.L)
cert = alg.certificate(ray)
x0 = ray.manifold.exp(ray.manifold.origin(),
                      ray.manifold.tangent(ray.manifold.origin(), [0.5, 0.4, 0.0]))
trace = run_descent(alg, ray, x0, 200)
gap0 = trace.values[0] - ray.known_solution.f_star
print()
print("non-convex envelope (sphere Rayleigh objective, min gradient norm)")
print(f"{'k':>5} {'min grad':>12} {'envelope':>12}")
best = trace.grad_norms[0]
for k in range(1, 201):
    best = min(best, trace.grad_norms[k])
    if k in (1, 3, 10, 30, 100, 200):
        print(f"{k:>5} {best:>12.3e} {rate_bound_nonconvex(cert.c, cert.p, gap0, k):>12.3e}")

# -- gradient-dominated: squared distance on H^2 ----------------------------
sq = SquaredDistance(H, pts[0], domain=DomainSpec(o, 2.0))
tau = sq.metadata.grad_dom[0]
x0 = H.exp(o, H.tangent(o, [0.0, -0.9, 0.8]))
gap0 = sq.value(x0)
rgd = GradientDescent(1.0 / sq.metadata.L)
prox = ProximalPoint(1.0)
tr_b = run_descent(rgd, sq, x0, 60)
tr_f = run_descent(prox, sq, x0, 60)
cb, cf = rgd.certificate(sq).c, prox.certificate(sq).c
print()
print("gradient-domination envelopes (squared distance on H^2, mu = 1)")
print(f"{'k':>5} {'rgd gap':>12} {'(1-c/tau)^k':>12} {'prox gap':>12} {'(1+c/tau)^-k':>13}")
for k in (1, 5, 10, 20, 40, 60):
    print(f"{k:>5} {tr_b.values[k]:>12.3e} {rate_bound_graddom(cb, tau, k, 'backward', gap0):>12.3e}"
          f" {tr_f.values[k]:>12.3e} {rate_bound_graddom(cf, tau, k, 'forward', gap0):>13.3e}")
