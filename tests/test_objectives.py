import numpy as np
import pytest

from geodescent.geometry import (AntipodalPointsError, DomainSpec, Euclidean, Hyperboloid,
                                 ManifoldPoint, Sphere, TangentVector, comparison)
from geodescent.objectives import (
    FrechetMean,
    ObjectiveMetadata,
    Quadratic,
    SphereRayleigh,
    SquaredDistance,
    _dist_sq_L,
    _dist_sq_metadata,
    estimate_hessian_lipschitz,
    reference_minimize,
)
from helpers import (
    grad_check,
    make_frechet_h2,
    make_frechet_sphere,
    make_quadratic,
    make_rayleigh,
    make_sqdist_h2,
    point_at,
    unit_tangent,
)
from kernel_reference import basis_coords


def _sample_inside(obj, rng, point_scale=0.4, step_scale=0.35):
    """(x, s) with x in the domain ball and exp_x(s) still inside it."""
    m = obj.manifold
    r = obj.domain.radius
    x = m.exp(obj.domain.center, m.random_tangent(rng, obj.domain.center, point_scale * r / 2))
    s = m.random_tangent(rng, x, step_scale * r / 2)
    return x, s


# ---------------------------------------------------------------------------
# metadata and solutions


def test_metadata_validation():
    with pytest.raises(ValueError):
        ObjectiveMetadata("strongly_g_convex")  # mu missing
    with pytest.raises(ValueError):
        ObjectiveMetadata("banana")


def test_quadratic_basics():
    obj = Quadratic([1.0, 0.0])
    E = obj.manifold
    assert obj.value(E.point([0.0, 0.0])) == pytest.approx(0.5)
    assert obj.value(E.point([1.0, 0.0])) == 0.0
    g = obj.gradient(E.point([3.0, 4.0]))
    np.testing.assert_allclose(g.coords, [2.0, 4.0])
    np.testing.assert_allclose(obj.hessian_matrix(E.point([0.0, 0.0])), np.eye(2))
    assert obj.metadata.L == 1.0 and obj.metadata.mu == 1.0
    assert obj.known_solution.f_star == 0.0


def test_quadratic_anisotropic_constants():
    obj = Quadratic([0.0, 0.0], scales=[1.0, 0.01])
    assert obj.metadata.L == 1.0
    assert obj.metadata.mu == pytest.approx(0.01)
    np.testing.assert_allclose(obj.hessian_matrix(obj.manifold.origin()),
                               np.diag([1.0, 0.01]))


def test_squared_distance_at_target():
    obj = make_sqdist_h2()
    t = obj.target
    assert obj.value(t) == 0.0
    assert obj.manifold.norm(t, obj.gradient(t)) == pytest.approx(0.0, abs=1e-12)
    assert obj.known_solution.x_star is t


def test_squared_distance_euclidean_matches_quadratic():
    E = Euclidean(2)
    target = E.point([1.0, 0.0])
    obj = SquaredDistance(E, target, domain=DomainSpec(target, 5.0))
    q = Quadratic([1.0, 0.0])
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = E.point(rng.normal(size=2))
        assert obj.value(x) == pytest.approx(q.value(x))
        np.testing.assert_allclose(obj.gradient(x).coords, q.gradient(x).coords, atol=1e-12)
    np.testing.assert_allclose(obj.hessian_matrix(E.point([3.0, -1.0])), np.eye(2), atol=1e-12)
    assert obj.metadata.L == 1.0 and obj.metadata.mu == 1.0


def test_frechet_value_is_direct_summation():
    obj = make_frechet_h2(solve_reference=False)
    m = obj.manifold
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = m.random_point(rng, 0.5)
        direct = sum(0.5 * m.distance(x, ManifoldPoint(m, y)) ** 2
                     for y in obj.samples) / len(obj.samples)
        assert obj.value(x) == pytest.approx(direct, rel=1e-14)


def test_frechet_gradient_vanishes_at_symmetric_mean():
    H = Hyperboloid(2, 1.0)
    o = H.origin()
    v = H.tangent(o, [0.0, 0.7, 0.0])
    p1 = H.exp(o, v)
    p2 = H.exp(o, TangentVector(o, -v.coords))
    obj = FrechetMean(H, np.array([p1.coords, p2.coords]), domain=DomainSpec(o, 2.0),
                      solve_reference=False)
    assert H.norm(o, obj.gradient(o)) == pytest.approx(0.0, abs=1e-12)


def test_frechet_reference_solution():
    obj = make_frechet_h2()
    sol = obj.known_solution
    assert sol is not None
    gn = obj.manifold.norm(sol.x_star, obj.gradient(sol.x_star))
    assert gn < 1e-10
    assert sol.f_star == pytest.approx(obj.value(sol.x_star))


def test_known_solution_rejects_non_stationary_point():
    H = Hyperboloid(2, 1.0)
    o = H.origin()
    target = H.exp(o, H.tangent(o, [0.0, 0.5, 0.0]))
    obj = SquaredDistance(H, target, domain=DomainSpec(target, 2.0))
    with pytest.raises(ValueError):
        obj._set_solution(o, 0.0)


def test_rayleigh_minimizer_and_constants():
    obj = make_rayleigh()
    S = obj.manifold
    sol = obj.known_solution
    assert sol.f_star == pytest.approx(-1.0)  # -0.5 * lambda_max * R^2
    assert abs(sol.x_star.coords[0]) == pytest.approx(1.0)
    assert obj.metadata.L == pytest.approx(4.0)
    assert obj.metadata.convexity_class == "nonconvex"
    assert S.norm(sol.x_star, obj.gradient(sol.x_star)) < 1e-12


# ---------------------------------------------------------------------------
# gradient and Hessian oracles


@pytest.mark.parametrize("make", [make_quadratic, make_sqdist_h2, make_rayleigh,
                                  make_frechet_sphere,
                                  lambda: make_frechet_h2(solve_reference=False)])
def test_grad_check_small(make):
    obj = make()
    rng = np.random.default_rng(2)
    for _ in range(5):
        x, _ = _sample_inside(obj, rng)
        assert grad_check(obj, x, 1e-5) < 1e-6


def test_grad_check_quadratic_is_exact():
    obj = make_quadratic()
    x = obj.manifold.point([0.3, -0.8])
    assert grad_check(obj, x, 1e-5) < 1e-8


def test_grad_check_at_stationary_point():
    obj = make_sqdist_h2()
    assert grad_check(obj, obj.target, 1e-5) < 1e-8


def test_grad_check_rejects_bad_h():
    obj = make_quadratic()
    with pytest.raises(ValueError):
        grad_check(obj, obj.manifold.origin(), 1e-2)


def test_sqdist_h2_hessian_eigenvalues():
    obj = make_sqdist_h2()
    H = obj.manifold
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, _ = _sample_inside(obj, rng)
        d = H.distance(x, obj.target)
        if d < 1e-6:
            continue
        evals = np.sort(np.linalg.eigvalsh(obj.hessian_matrix(x)))
        expected = np.sort([1.0, d / np.tanh(d)])
        np.testing.assert_allclose(evals, expected, rtol=1e-10)


@pytest.mark.parametrize("R", [1.0, 1.5, 2.0])
def test_sphere_dist_sq_L_is_one_past_pi_R(R):
    # the proximal step bounds 0.5*d(., x)^2 on a region of radius 2r + d,
    # which can pass pi*R; t*cot(t) at the sphere's own curvature is large
    # and positive there, but no Hessian eigenvalue exceeds 1
    S = Sphere(2, R)
    d = 1.05 * np.pi * R
    assert comparison(1.0 / R**2, d) > 10.0
    assert _dist_sq_L(S, d) == 1.0
    o = S.origin()
    obj = SquaredDistance(S, S.exp(o, S.tangent(o, [0.5 * R, 0.0, 0.0])),
                          domain=DomainSpec(o, 1.5 * R))
    assert obj.metadata.L == 1.0


@pytest.mark.parametrize("R", [1.0, 1.5, 2.0])
def test_sphere_dist_sq_mu_vanishes_past_half_pi(R):
    S = Sphere(2, R)
    below = _dist_sq_metadata(S, 0.49 * np.pi * R)
    t = 0.49 * np.pi
    assert below.convexity_class == "strongly_g_convex"
    assert below.mu == pytest.approx(t / np.tan(t), rel=1e-14) and below.mu > 0
    above = _dist_sq_metadata(S, 0.51 * np.pi * R)
    assert above.convexity_class == "g_convex"
    assert above.mu is None and above.grad_dom is None and above.L == 1.0


@pytest.mark.parametrize("make", [make_quadratic, make_sqdist_h2, make_rayleigh,
                                  lambda: make_frechet_h2(solve_reference=False)])
def test_hessian_matches_finite_differences(make):
    obj = make()
    m = obj.manifold
    rng = np.random.default_rng(4)
    h = 1e-4
    for _ in range(5):
        x, s = _sample_inside(obj, rng)
        ns = m.norm(x, s)
        if ns < 1e-8:
            continue
        sc = basis_coords(m, x.coords, m.orthonormal_basis(x), s.coords)
        Hm = obj.hessian_matrix(x)
        np.testing.assert_allclose(Hm, Hm.T, atol=1e-9)
        quad = float(sc @ Hm @ sc)
        fp = obj.value(m.exp(x, TangentVector(x, (h / ns) * s.coords)))
        fm = obj.value(m.exp(x, TangentVector(x, (-h / ns) * s.coords)))
        fd = (fp - 2.0 * obj.value(x) + fm) / h**2 * ns**2
        assert quad == pytest.approx(fd, rel=1e-4, abs=1e-7)


# ---------------------------------------------------------------------------
# convexity-class property checks


@pytest.mark.parametrize("make", [make_quadratic, make_sqdist_h2,
                                  make_frechet_sphere,
                                  lambda: make_frechet_h2(solve_reference=False)])
def test_first_order_gconvexity_lower_bound(make):
    obj = make()
    m = obj.manifold
    rng = np.random.default_rng(5)
    slack = 1e-9
    for _ in range(1000):
        x, s = _sample_inside(obj, rng)
        lhs = obj.value(m.exp(x, s))
        rhs = obj.value(x) + m.inner(x, obj.gradient(x), s)
        if obj.metadata.convexity_class == "strongly_g_convex":
            rhs += 0.5 * obj.metadata.mu * m.norm(x, s) ** 2
        assert lhs >= rhs - slack


@pytest.mark.parametrize("make", [make_quadratic, make_sqdist_h2, make_rayleigh,
                                  lambda: make_frechet_h2(solve_reference=False)])
def test_l_smoothness_upper_bound(make):
    obj = make()
    m = obj.manifold
    L = obj.metadata.L
    rng = np.random.default_rng(6)
    for _ in range(500):
        x, s = _sample_inside(obj, rng)
        y = m.exp(x, s)
        lg = m.log(x, y)
        bound = obj.value(x) + m.inner(x, obj.gradient(x), lg) + 0.5 * L * m.norm(x, lg) ** 2
        assert obj.value(y) <= bound + 1e-9


@pytest.mark.parametrize("make", [make_quadratic, make_sqdist_h2])
def test_gradient_domination(make):
    obj = make()
    m = obj.manifold
    mu = obj.metadata.mu
    f_star = obj.known_solution.f_star
    rng = np.random.default_rng(7)
    for _ in range(500):
        x, _ = _sample_inside(obj, rng)
        gap = obj.value(x) - f_star
        gn = m.norm(x, obj.gradient(x))
        assert gap <= gn**2 / (2.0 * mu) + 1e-9


# ---------------------------------------------------------------------------
# Hessian-Lipschitz estimation


def test_estimated_rho_bounds_third_order_defect():
    obj = make_sqdist_h2()
    rng = np.random.default_rng(8)
    rho = estimate_hessian_lipschitz(obj, rng, n_samples=150)
    obj.with_rho(rho)
    assert obj.metadata.rho == rho
    m = obj.manifold
    fresh = np.random.default_rng(9)
    for _ in range(300):
        x, s = _sample_inside(obj, fresh)
        ns = m.norm(x, s)
        if ns < 1e-6:
            continue
        sc = basis_coords(m, x.coords, m.orthonormal_basis(x), s.coords)
        model = obj.value(x) + m.inner(x, obj.gradient(x), s) + \
            0.5 * float(sc @ obj.hessian_matrix(x) @ sc)
        assert abs(obj.value(m.exp(x, s)) - model) <= rho / 6.0 * ns**3 + 1e-10


def test_estimated_rho_floor_for_quadratics():
    obj = make_quadratic()
    rho = estimate_hessian_lipschitz(obj, np.random.default_rng(10), n_samples=50)
    assert rho == pytest.approx(1e-6)


def test_reference_minimize_needs_L():
    obj = make_sqdist_h2()
    x = reference_minimize(obj, obj.domain.center)
    assert obj.manifold.distance(x, obj.target) < 1e-10


def test_a_quadratic_hessian_is_written_in_the_basis_it_is_given():
    obj = Quadratic([0.0, 0.0], scales=[1.0, 4.0])
    x = obj.manifold.point([0.5, -1.0])
    c, s = np.cos(0.3), np.sin(0.3)
    B = np.array([[c, s], [-s, c]])
    np.testing.assert_allclose(obj.hessian_matrix(x, basis=B),
                               B @ np.diag([1.0, 4.0]) @ B.T, rtol=0, atol=1e-15)
    # in the identity basis, the one every step passes on flat space, bit for bit
    for H in (obj.hessian_matrix(x), obj.hessian_matrix(x, basis=np.eye(2))):
        assert H.tobytes() == np.diag([1.0, 4.0]).tobytes()


# ---------------------------------------------------------------------------
# the drivers' evaluation hook


def _sqdist(m):
    target = point_at(m, np.random.default_rng(3), m.origin(), 0.8)
    return SquaredDistance(m, target, DomainSpec(m.origin(), 1.0))


HOOKED = {
    "quadratic": lambda: make_quadratic(scales=[1.0, 0.01]),
    "sqdist-r3": lambda: _sqdist(Euclidean(3)),
    "sqdist-s2": lambda: _sqdist(Sphere(2)),
    "sqdist-h2": lambda: _sqdist(Hyperboloid(2, 1.0)),
    "sqdist-h2-kappa4": lambda: _sqdist(Hyperboloid(2, 4.0)),
    "frechet-h2": lambda: make_frechet_h2(num=50, solve_reference=False),
    "frechet-sphere-cap": make_frechet_sphere,
    "rayleigh": make_rayleigh,
}


def _bits(f, g):
    return np.array([f]).tobytes(), g.dtype, g.tobytes()


@pytest.mark.parametrize("make", HOOKED.values(), ids=HOOKED.keys())
def test_evaluate_gives_value_and_gradient_bit_for_bit(make):
    obj = make()
    m = obj.manifold
    rng = np.random.default_rng(4)
    points = [obj.domain.center] + [point_at(m, rng, obj.domain.center, r)
                                    for r in (1e-9, 0.3, 0.9, 1.5)]
    if obj.known_solution is not None:
        points.append(obj.known_solution.x_star)
    for x in points:
        f, g = obj._evaluate(x)
        assert isinstance(f, float)
        assert _bits(f, g) == _bits(obj.value(x), obj.gradient(x).coords)


def _sphere_objectives(t):
    """A squared distance to ``t`` and a Frechet mean with a sample at ``t``."""
    m = t.manifold
    other = point_at(m, np.random.default_rng(1), t, 0.5)
    dom = DomainSpec(t, 1.0)
    return (SquaredDistance(m, t, dom),
            FrechetMean(m, np.array([other.coords, t.coords]), dom, solve_reference=False))


@pytest.mark.parametrize("angle", [np.pi, np.pi - 1e-5, np.pi - 1e-3, np.pi - 0.1])
def test_evaluate_raises_near_the_antipode_where_gradient_does(angle):
    # within ANTIPODAL_TOL of the antipode of the target or of a sample, the
    # log is undefined: the gradient raises, the value does not
    m = Sphere(2, 1.5)
    t = point_at(m, np.random.default_rng(2), m.origin(), 0.4)
    u = unit_tangent(m, np.random.default_rng(3), t).coords
    x = m.exp(t, TangentVector(t, angle * m.radius * u))
    for obj in _sphere_objectives(t):
        try:
            grad = obj.gradient(x).coords
        except AntipodalPointsError:
            with pytest.raises(AntipodalPointsError):
                obj._evaluate(x)
            assert angle > np.pi - 1e-4
        else:
            assert _bits(*obj._evaluate(x)) == _bits(obj.value(x), grad)
            assert angle < np.pi - 1e-4
