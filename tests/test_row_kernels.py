"""Row kernels against the scalar kernels they batch, and the Frechet mean
built on them against the looped sums it replaced.

The row kernels add over coordinates in another order than the BLAS dot
product of the scalar kernels, so results agree to 1e-14 relative (1e-14
absolute near zero) rather than bit for bit.  Hyperboloid base points stay
0.6 from the origin, where the rounding of the chord form, which grows as
eps*kappa*||x||_2^2 (tests/test_numeric_edges.py), stays well below 1e-14.
"""

import numpy as np
import pytest

from geodescent.geometry import (
    AntipodalPointsError,
    DomainSpec,
    Euclidean,
    Hyperboloid,
    ManifoldPoint,
    Sphere,
    TangentVector,
)
from geodescent.harness import build_objective
from geodescent.objectives import FrechetMean, _dist_sq_hessian
from helpers import point_at, tangent_of_norm

MANIFOLDS = [Euclidean(3), Sphere(2, 1.0), Sphere(2, 2.0), Hyperboloid(2, 1.0),
             Hyperboloid(8, 4.0)]
TOL = dict(rtol=1e-14, atol=1e-14)


def _far(m):
    # sphere rows stay inside the injectivity radius, where log is defined
    return 0.9 * np.pi * m.radius if isinstance(m, Sphere) else 2.5


def _rows(m, seed, num=40):
    """A base point, sample rows at distances up to _far(m) with one row
    equal to the base point, and tangent rows at it with one zero row."""
    rng = np.random.default_rng(seed)
    x = point_at(m, rng, m.origin(), 0.6)
    dists = np.linspace(0.0, _far(m), num)
    Y = np.array([x.coords] + [point_at(m, rng, x, d).coords for d in dists[1:]])
    V = np.array([np.zeros(m.ambient_dim)]
                 + [tangent_of_norm(m, rng, x, d).coords for d in dists[1:]])
    return x, Y, V


@pytest.mark.parametrize("m", MANIFOLDS, ids=repr)
def test_row_kernels_agree_with_scalar_kernels(m):
    x, Y, V = _rows(m, 3)
    xc = x.coords
    np.testing.assert_allclose(m._dist_log_rows(xc, Y)[0],
                               [m._distance(xc, y) for y in Y], **TOL)
    np.testing.assert_allclose(m._defined(m._dist_log_rows(xc, Y)[1]),
                               [m._log(xc, y) for y in Y], **TOL)
    np.testing.assert_allclose(m._inner_rows(xc, V, Y[5] - xc),
                               [m._inner(xc, v, Y[5] - xc) for v in V], **TOL)
    exp_rows = m._exp_rows(xc, V)
    np.testing.assert_allclose(exp_rows, [m.exp(x, TangentVector(x, v)).coords for v in V],
                               **TOL)
    np.testing.assert_allclose(exp_rows[0], xc, **TOL)


@pytest.mark.parametrize("m", MANIFOLDS, ids=repr)
def test_rows_at_the_base_point_take_the_zero_branch(m):
    # at the origin the tangential part of the origin itself is exactly 0
    o = m.origin().coords
    Y = np.array([o, o])
    np.testing.assert_array_equal(m._defined(m._dist_log_rows(o, Y)[1]), [m._log(o, o)] * 2)
    np.testing.assert_array_equal(m._defined(m._dist_log_rows(o, Y)[1]), 0.0)
    np.testing.assert_array_equal(m._dist_log_rows(o, Y)[0], 0.0)
    np.testing.assert_array_equal(m._exp_rows(o, np.zeros_like(Y)), Y)


def _near_antipode(S, x):
    # cos of the angle is about -1 + 1e-12, inside ANTIPODAL_TOL of the antipode
    v = tangent_of_norm(S, np.random.default_rng(0), x, np.pi * S.radius - 1.4e-6 * S.radius)
    return S.exp(x, v)


@pytest.mark.parametrize("R", [1.0, 2.0])
def test_sphere_rows_near_the_antipode(R):
    S = Sphere(2, R)
    x = S.origin()
    y = _near_antipode(S, x)
    with pytest.raises(AntipodalPointsError):
        S.log(x, y)
    Y = np.array([x.coords, y.coords])
    with pytest.raises(AntipodalPointsError):
        S._defined(S._dist_log_rows(x.coords, Y)[1])
    np.testing.assert_allclose(S._dist_log_rows(x.coords, Y)[0],
                               [S.distance(x, x), S.distance(x, y)], **TOL)
    obj = FrechetMean(S, Y, domain=DomainSpec(x, 0.5 * R), solve_reference=False)
    with pytest.raises(AntipodalPointsError):
        obj.gradient(x)
    assert np.isfinite(obj.value(x))


def _frechet(m, seed, num=30):
    rng = np.random.default_rng(seed)
    o = m.origin()
    if isinstance(m, Sphere):
        spread = 0.3 * m.radius
    elif isinstance(m, Hyperboloid):
        spread = 0.8 / np.sqrt(m.kappa * m.dim / 2)
    else:
        spread = 0.8
    pts = [m.exp(o, m.random_tangent(rng, o, spread)) for _ in range(num)]
    radius = 0.5 * m.radius if isinstance(m, Sphere) else 2.0
    return FrechetMean(m, np.array([p.coords for p in pts]), domain=DomainSpec(o, radius),
                       solve_reference=False)


@pytest.mark.parametrize("m", MANIFOLDS, ids=repr)
def test_frechet_mean_agrees_with_looped_sums(m):
    obj = _frechet(m, 5)
    points = [ManifoldPoint(m, y) for y in obj.samples]
    n = len(points)
    rng = np.random.default_rng(9)
    # one evaluation point is a sample itself: its Hessian term is I
    for x in [points[4]] + [point_at(m, rng, m.origin(), 0.3) for _ in range(3)]:
        value = sum(0.5 * m.distance(x, p) ** 2 for p in points) / n
        assert obj.value(x) == pytest.approx(value, rel=1e-14, abs=1e-14)
        grad = -sum(m.log(x, p).coords for p in points) / n
        np.testing.assert_allclose(obj.gradient(x).coords, grad, **TOL)
        basis = m.orthonormal_basis(x)
        hess = sum(_dist_sq_hessian(m, x, p, basis) for p in points) / n
        np.testing.assert_allclose(obj.hessian_matrix(x, basis), hess, **TOL)


@pytest.mark.parametrize("manifold, spec", [
    (Hyperboloid(2, 1.0), {"num_points": 200}),
    (Hyperboloid(8, 4.0), {"num_points": 50}),
    (Sphere(2, 1.0), {"num_points": 50, "spread": 0.3, "domain_radius": 1.0}),
    (Euclidean(3), {"num_points": 50}),
], ids=["h2", "h8k4", "s2", "e3"])
def test_frechet_build_matches_looped_sampling(manifold, spec):
    spec = {"kind": "frechet_mean", "seed": 17, **spec}
    built = build_objective(spec, manifold)
    rng = np.random.default_rng(spec["seed"])
    o = manifold.origin()
    looped = [manifold.exp(o, manifold.random_tangent(rng, o, spec.get("spread", 0.7)))
              for _ in range(spec["num_points"])]
    np.testing.assert_allclose(built.samples, [p.coords for p in looped],
                               rtol=1e-15, atol=1e-15)
    again = build_objective(spec, manifold)
    assert again.samples.tobytes() == built.samples.tobytes()
