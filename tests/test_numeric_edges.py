"""Inputs at the edge of a function's range: rounding near a series switch,
degenerate iteration budgets, and the raw geometry kernels, which the
descent loops call without the public API's checks, at far, zero and
subnormal inputs."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geodescent import descent
from geodescent.descent import ProximalSolverError, proximal_step
from geodescent.geometry import ANTIPODAL_TOL, AntipodalPointsError, Hyperboloid, Sphere, comparison
from helpers import drawn_unit, make_sqdist_h2, point_at

EPS = np.finfo(float).eps


def test_comparison_never_rounds_below_one():
    # t/tanh(t) rounds below 1 for a fraction of t just above the switch to
    # the limit 1 at 1e-8; a distortion rate below 1 stops a run
    ds = np.linspace(1e-8, 2e-8, 200_001)
    assert comparison(-1.0, ds).min() >= 1.0


def test_proximal_step_with_one_inner_iteration(monkeypatch):
    obj = make_sqdist_h2()
    x = point_at(obj.manifold, np.random.default_rng(0), obj.domain.center, 1.0)
    monkeypatch.setattr(descent, "PROX_MAX_INNER", 1)
    with pytest.raises(ProximalSolverError, match="after 1 inner iterations"):
        proximal_step(obj, x, 1.0, obj.gradient(x))
    t = obj.target
    assert proximal_step(obj, t, 1.0, obj.gradient(t)) is t


def test_proximal_step_stops_at_a_non_finite_residual():
    # eta * grad f reaches ~1e300 and the residual's Minkowski norm overflows
    # to inf - inf; the first kept trial ends the solve
    obj = make_sqdist_h2()
    x = point_at(obj.manifold, np.random.default_rng(0), obj.domain.center, 1.0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ProximalSolverError, match=r"not finite at inner iteration 1$"):
        proximal_step(obj, x, 1e300, obj.gradient(x))


# ---------------------------------------------------------------------------
# raw kernels


@st.composite
def _kernel_inputs(draw, hyperbolic=st.booleans()):
    """A manifold, a point x and a tangent v at x, each of length up to
    20/sqrt(kappa) on H^n and pi*R - 1e-6 on S^n; v may be zero or
    subnormal."""
    n = draw(st.sampled_from([2, 8]))
    if draw(hyperbolic):
        m = Hyperboloid(n, draw(st.sampled_from([1.0, 4.0])))
        far = 20.0 / np.sqrt(m.kappa)
    else:
        m = Sphere(n, draw(st.sampled_from([1.0, 2.0])))
        far = np.pi * m.radius - 1e-6
    direction = st.lists(st.floats(-1.0, 1.0), min_size=m.ambient_dim, max_size=m.ambient_dim)
    o = m.origin().coords
    x = m._exp(o, draw(st.floats(0.0, far)) * drawn_unit(m, o, draw(direction)))
    length = draw(st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e-300]), st.floats(0.0, far)))
    return m, x, length * drawn_unit(m, x, draw(direction))


def _projected(m, x):
    """The point ``x`` pulled back onto ``m``, as ``_exp`` leaves it."""
    if isinstance(m, Sphere):
        return m.radius * x / np.linalg.norm(x)
    out = x.copy()
    out[0] = np.sqrt(1.0 / m.kappa + np.dot(x[1:], x[1:]))
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_kernel_inputs())
def test_raw_kernels_are_finite_and_exp_lands_on_the_manifold(drawn):
    m, x, v = drawn
    y = m._exp(x, v)
    assert np.all(np.isfinite(y))
    if isinstance(m, Sphere):
        assert abs(np.linalg.norm(y) - m.radius) <= 4 * EPS * m.radius
    else:
        assert y[0] > 0
        assert abs(m.minkowski(y, y) + 1.0 / m.kappa) <= 8 * EPS * np.dot(y, y)
    # the zero step still projects: try it on a point just off the manifold
    off = x * (1.0 + 2.0**-20)
    assert m._exp(off, np.zeros_like(x)).tobytes() == _projected(m, off).tobytes()
    Y, V = np.array([x, y]), np.array([np.zeros_like(v), v])
    assert np.isfinite(m._norm(x, v)) and np.all(np.isfinite(m._inner_rows(x, V, V)))
    assert np.isfinite(m._distance(x, y)) and np.all(np.isfinite(m._dist_log_rows(x, Y)[0]))
    assert np.all(np.isfinite(m._exp_rows(x, V)))
    try:
        logs = [m._log(x, y), m._defined(m._dist_log_rows(x, Y)[1])]
    except AntipodalPointsError:
        # only within the tolerance of the antipode
        assert isinstance(m, Sphere) and np.dot(x, y) / m.radius**2 < -1.0 + 2 * ANTIPODAL_TOL
    else:
        assert all(np.all(np.isfinite(lg)) for lg in logs)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_kernel_inputs(hyperbolic=st.just(False)), st.floats(0.0, 1e-4))
def test_sphere_log_refuses_points_near_the_antipode(drawn, gap):
    # within 1e-4 * R of the antipode the cosine is below -1 + 5e-9
    m, x, v = drawn
    assume(m._norm(x, v) > 0)
    y = m._exp(x, (np.pi - gap) * m.radius * v / m._norm(x, v))
    with pytest.raises(AntipodalPointsError):
        m._log(x, y)
    with pytest.raises(AntipodalPointsError):
        m._defined(m._dist_log_rows(x, y[None])[1])


def _exact(m, x, y):
    """d(x, y), log_x y and x as Decimals, for the points whose spatial
    coordinates are those of ``x`` and ``y`` (their time coordinates
    re-solved, as ``_exp`` leaves them): the arccosh form, whose cancellation
    the caller's 60 digits absorb."""
    kappa = Decimal(m.kappa)

    def lift(p):
        space = [Decimal(float(c)) for c in p[1:]]
        return [(1 / kappa + sum(c * c for c in space)).sqrt()] + space

    x, y = lift(x), lift(y)
    ip = _minkowski(x, y)
    z = max(-kappa * ip, Decimal(1))
    d = (z + (z * z - 1).sqrt()).ln() / kappa.sqrt()
    w = [b + kappa * ip * a for a, b in zip(x, y)]
    nw = _minkowski(w, w).sqrt()
    return d, [d / nw * c for c in w], x


def _minkowski(u, v):
    return -u[0] * v[0] + sum(a * b for a, b in zip(u[1:], v[1:]))


def _errors(m, x, y):
    """For the scalar kernels ``_distance`` and ``_log`` and then the row
    kernel at (x, y): the error of d, that of the log in the metric norm at x
    (of its tangent part) and in the Euclidean norm, and the exact d,
    computed to 60 digits."""
    out = []
    with localcontext() as ctx:
        ctx.prec = 60
        ref_d, ref_log, xd = _exact(m, x, y)
        for d, log in [(m._distance(x, y), m._log(x, y)), m._dist_log_rows(x, y[None])]:
            e = [Decimal(float(c)) - r for c, r in zip(np.ravel(log), ref_log)]
            tangent = [c + Decimal(m.kappa) * _minkowski(xd, e) * a for a, c in zip(xd, e)]
            out.append((float(abs(Decimal(float(np.ravel(d)[0])) - ref_d)),
                        float(_minkowski(tangent, tangent).sqrt()),
                        float(sum(c * c for c in e).sqrt()), float(ref_d)))
    return out


def _pairs(n, kappa, r_max, num, distances):
    """``num`` points x up to sqrt(kappa) r = ``r_max`` from the origin, each
    with points y at the distances ``distances(rng) / sqrt(kappa)`` from it."""
    m = Hyperboloid(n, kappa)
    rng = np.random.default_rng(31)
    sk, o = np.sqrt(kappa), m.origin().coords

    def unit(x):
        u = m._project_tangent(x, rng.standard_normal(n + 1))
        return u / m._norm(x, u)

    for _ in range(num):
        x = m._exp(o, rng.uniform(0.0, r_max) / sk * unit(o))
        for d in distances(rng) / sk:
            yield m, x, m._exp(x, d * unit(x))


@pytest.mark.parametrize("n, kappa", [(2, 1.0), (8, 4.0)])
def test_hyperboloid_kernels_keep_1e_12_relative_near_the_origin(n, kappa):
    # the chord form cancels nothing as d -> 0: from x up to sqrt(kappa) r = 3
    # from the origin, d and the log keep 1e-12 relative down to
    # d = 1e-12 / sqrt(kappa)
    worst = 0.0
    for m, x, y in _pairs(n, kappa, 3.0, 100, lambda rng: 10 ** rng.uniform(-12.0, 0.505, 3)):
        assert m._dist_log(x, y)[0] == m._distance(x, y)
        for err_d, err_log, _, d in _errors(m, x, y):
            worst = max(worst, err_d / d, err_log / d)
    assert worst < 1e-12


@pytest.mark.parametrize("n, kappa", [(2, 1.0), (8, 4.0)])
def test_hyperboloid_kernel_errors_grow_with_the_distance_from_the_origin(n, kappa):
    # the chord's cancellation costs eps * kappa ||x||_2^2 relative at any d, and
    # the Euclidean norm of a tangent vector at x is up to sqrt(kappa) ||x||_2
    # times its metric norm (over these and radial pairs, the worst measured
    # were 0.72, 0.63 and 0.61 of the bounds).  Below sqrt(kappa) d = 2 the
    # errors also stay below 2 eps (sqrt(kappa) ||x||_2^2 + d) for d and
    # 2 eps kappa ||x||_2^3 (1 + sqrt(kappa) d) for the log's Euclidean norm
    # (worst over a radial sweep: 0.63 and 0.61); beyond it they reach 1.3
    # and 2.1 of these
    def draw(rng):
        return np.concatenate([rng.uniform(0.0, 10.0, 3), 10 ** rng.uniform(-12.0, 1.0, 3)])

    worst = 0.0
    for m, x, y in _pairs(n, kappa, 6.0, 150, draw):
        xx = np.dot(x, x)
        g = EPS * kappa * xx
        bounds = (2 * g, 4 * g, 8 * g * np.sqrt(kappa * xx))
        for *errs, d in _errors(m, x, y):
            ratios = [err / (bound * d) for err, bound in zip(errs, bounds)]
            assert max(ratios) <= 1.0
            worst = max(worst, *ratios)
            err_d, _, err_euclid = errs
            if np.sqrt(kappa) * d < 2.0:
                assert err_d <= 2 * EPS * (np.sqrt(kappa) * xx + d)
                assert err_euclid <= 2 * EPS * kappa * xx**1.5 * (1.0 + np.sqrt(kappa) * d)
    assert worst > 0.25
