"""Inputs at the edge of a function's range: rounding near a series switch,
degenerate iteration budgets, and the raw geometry kernels, which the
descent loops call without the public API's checks, at far, zero and
subnormal inputs."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geodescent.descent import ProximalSolverError, proximal_step
from geodescent.geometry import ANTIPODAL_TOL, AntipodalPointsError, Hyperboloid, Sphere, comparison
from helpers import make_sqdist_h2, point_at

EPS = np.finfo(float).eps


def test_comparison_never_rounds_below_one():
    # t/tanh(t) rounds below 1 for a fraction of t just above the switch to
    # the limit 1 at 1e-8; a distortion rate below 1 stops a run
    ds = np.linspace(1e-8, 2e-8, 200_001)
    assert comparison(-1.0, ds).min() >= 1.0


@pytest.mark.parametrize("max_inner", [0, -3])
def test_proximal_step_rejects_an_empty_inner_budget(max_inner):
    obj = make_sqdist_h2()
    x = point_at(obj.manifold, np.random.default_rng(0), obj.domain.center, 1.0)
    with pytest.raises(ValueError, match="max_inner"):
        proximal_step(obj, x, 1.0, max_inner=max_inner)


def test_proximal_step_with_one_inner_iteration():
    obj = make_sqdist_h2()
    x = point_at(obj.manifold, np.random.default_rng(0), obj.domain.center, 1.0)
    with pytest.raises(ProximalSolverError):
        proximal_step(obj, x, 1.0, max_inner=1)
    assert proximal_step(obj, obj.target, 1.0, max_inner=1) is obj.target


# ---------------------------------------------------------------------------
# raw kernels


def _unit(m, x, raw):
    u = m._project_tangent(x, np.asarray(raw, dtype=float))
    n = m._norm(x, u)
    assume(n > 1e-3)
    return u / n


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
    x = m._exp(o, draw(st.floats(0.0, far)) * _unit(m, o, draw(direction)))
    length = draw(st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e-300]), st.floats(0.0, far)))
    return m, x, length * _unit(m, x, draw(direction))


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
        logs = [m._log(x, y), m._log_rows(x, Y)]
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
        m._log_rows(x, y[None])


def _extended(m, x, y):
    """``Hyperboloid._distance`` and ``_log`` evaluated in extended precision."""
    L = np.longdouble
    x, y, kappa = x.astype(L), y.astype(L), L(m.kappa)
    w = y + kappa * (-x[0] * y[0] + np.sum(x[1:] * y[1:])) * x
    nw = np.sqrt(max(-w[0] * w[0] + np.sum(w[1:] * w[1:]), L(0)))
    d = np.arcsinh(np.sqrt(kappa) * nw) / np.sqrt(kappa)
    return d, (d / nw) * w if nw > 0 else np.zeros_like(w)


def _far_pairs(n, kappa):
    """x up to sqrt(kappa) r = 6 from the origin and rows y up to
    sqrt(kappa) d = 10 from x, down to d = 1e-12 / sqrt(kappa)."""
    m = Hyperboloid(n, kappa)
    rng = np.random.default_rng(31)
    sk, o = np.sqrt(kappa), m.origin().coords

    def unit(x):
        u = m._project_tangent(x, rng.standard_normal(n + 1))
        return u / m._norm(x, u)

    for _ in range(500):
        x = m._exp(o, rng.uniform(0.0, 6.0) / sk * unit(o))
        ds = np.concatenate([rng.uniform(0.0, 10.0, 3), 10 ** rng.uniform(-12.0, 0.0, 3)]) / sk
        yield m, x, np.array([m._exp(x, d * unit(x)) for d in ds])


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS, reason="no extended precision")
@pytest.mark.parametrize("n, kappa", [(2, 1.0), (8, 4.0)])
def test_hyperboloid_distance_error_grows_with_the_distance_from_the_origin(n, kappa):
    # the tangential part y + kappa <x,y>_L x cancels coordinates of size ||x||_2, so
    # the absolute error is bounded by 2 eps (sqrt(kappa) ||x||_2^2 + d), not by eps d
    worst_rel = 0.0
    for m, x, Y in _far_pairs(n, kappa):
        for y, row in zip(Y, m._dist_log_rows(x, Y)[0]):
            ref, _ = _extended(m, x, y)
            bound = 2 * EPS * (np.sqrt(kappa) * np.dot(x, x) + float(ref))
            err = abs(float(m._distance(x, y) - ref))
            assert err <= bound and abs(float(row - ref)) <= bound
            worst_rel = max(worst_rel, err / float(ref)) if ref > 0 else worst_rel
    # far from the origin the relative error of a short distance is well above eps
    assert worst_rel > 1e6 * EPS


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS, reason="no extended precision")
@pytest.mark.parametrize("n, kappa", [(2, 1.0), (8, 4.0)])
def test_hyperboloid_log_error_grows_with_the_distance_from_the_origin(n, kappa):
    # besides the tangential part's cancellation, the Minkowski norm of a tangent
    # vector at x cancels coordinates sqrt(kappa) ||x||_2 times its size; the
    # Euclidean norm of the error stays below 2 eps kappa ||x||_2^3 (1 + sqrt(kappa) d)
    # (measured worst: 0.52 and 0.73 of it)
    worst, worst_rel = 0.0, 0.0
    for m, x, Y in _far_pairs(n, kappa):
        for y, row in zip(Y, m._log_rows(x, Y)):
            d, ref = _extended(m, x, y)
            bound = 2 * EPS * kappa * np.dot(x, x) ** 1.5 * (1.0 + np.sqrt(kappa) * float(d))
            err = float(np.linalg.norm((m._log(x, y) - ref).astype(float)))
            err_row = float(np.linalg.norm((row - ref).astype(float)))
            assert err <= bound and err_row <= bound
            worst = max(worst, err / bound, err_row / bound)
            if d > 0:
                worst_rel = max(worst_rel, err / float(np.linalg.norm(ref.astype(float))))
    assert worst > 0.25
    # far from the origin the relative error of a short log is well above eps
    assert worst_rel > 1e6 * EPS
