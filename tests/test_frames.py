"""The closed-form tangent frame ``Manifold._frame`` that the Newton and
cubic steps take: orthonormal and tangent to the rounding floor of its
entries over radial sweeps and hypothesis-drawn points, never worse than the
frozen Gram-Schmidt basis of ``kernel_reference`` above that floor, equal to
it bit for bit at the origin, and giving the same steps to 1e-12 relative."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geodescent.descent import _prox_newton_step, cubic_newton_step
from geodescent.geometry import DomainSpec, Euclidean, Hyperboloid, ManifoldPoint, Sphere
from geodescent.objectives import FrechetMean, SquaredDistance
from helpers import make_quadratic, make_rayleigh, point_at
from kernel_reference import ReferenceEuclidean, ReferenceHyperboloid, ReferenceSphere

EPS = np.finfo(float).eps

SPACES = {
    "H2": Hyperboloid(2),
    "H8k0.5": Hyperboloid(8, 0.5),
    "H8k4": Hyperboloid(8, 4.0),
    "S2": Sphere(2),
    "S2R1.5": Sphere(2, 1.5),
    "R2": Euclidean(2),
}


def _gram_schmidt(m, x):
    """The frozen Gram-Schmidt basis of ``kernel_reference`` at raw ``x``, as rows."""
    if isinstance(m, Hyperboloid):
        ref = ReferenceHyperboloid(m.dim, m.kappa)
    elif isinstance(m, Sphere):
        ref = ReferenceSphere(m.dim, m.radius)
    else:
        ref = ReferenceEuclidean(m.dim)
    return np.array([b.coords for b in ref.orthonormal_basis(ManifoldPoint(ref, x))])


def _defect(m, x, B):
    """Largest deviation of the rows of ``B`` from an orthonormal tangent
    basis at ``x``: of their metric Gram matrix from I, and of each row's
    ``_tangent_defect``."""
    lowered = B * m._signature if isinstance(m, Hyperboloid) else B
    gram = np.abs(B @ lowered.T - np.eye(m.dim)).max()
    return max(gram, max(m._tangent_defect(x, b) for b in B))


def _floor(m, x):
    """4 eps times the squared size of the frame's entries: sqrt(kappa)*x_0 =
    cosh(sqrt(kappa) d) on the hyperboloid, 1 elsewhere.  Rounding each entry
    of the exact frame alone leaves a defect near eps * cosh^2."""
    scale = m.kappa * x[0] ** 2 if isinstance(m, Hyperboloid) else 1.0
    return 4.0 * EPS * scale


def _sweep(m):
    """(sqrt|K| d, x): points along nine directions from the origin, out to
    sqrt(kappa) d = 8 (R^2: d = 8) in steps of 0.25, or over the whole sphere
    to the antipode, with equator, southern and antipodal points at exact
    coordinates."""
    o = m.origin()
    B = m.orthonormal_basis(o)
    rng = np.random.default_rng(3)
    K = abs(m.curvature)
    unit = 1.0 / math.sqrt(K) if K else 1.0
    top = math.pi if isinstance(m, Sphere) else 8.0
    for _ in range(9):
        s = rng.normal(size=m.dim)
        u = (s / np.linalg.norm(s)) @ B
        for t in np.linspace(0.0, top, 33):
            yield t, m._exp(o.coords, t * unit * u)
    if isinstance(m, Sphere):
        R = m.radius
        for z in (0.0, -0.0, -0.3 * R, -0.999 * R):
            r = math.sqrt(R**2 - z**2)
            for a in np.linspace(0.0, 2.0 * math.pi, 7):
                yield math.acos(z / R), np.array([r * math.cos(a), r * math.sin(a), z])
        yield math.pi, np.array([0.0, 0.0, -R])


@pytest.mark.parametrize("name", list(SPACES))
def test_frame_is_orthonormal_and_tangent_over_radial_sweeps(name):
    m = SPACES[name]
    for t, x in _sweep(m):
        frame = _defect(m, x, m._frame(x))
        gram_schmidt = _defect(m, x, _gram_schmidt(m, x))
        assert frame <= _floor(m, x), (t, frame)
        if t <= 3.0:
            assert frame <= 1e-13, (t, frame)
        # above the rounding floor Gram-Schmidt is the less accurate one
        assert frame <= max(gram_schmidt, _floor(m, x)), (t, frame, gram_schmidt)


@pytest.mark.parametrize("name", list(SPACES))
def test_frame_equals_gram_schmidt_at_the_origin_bit_for_bit(name):
    m = SPACES[name]
    o = m.origin()
    frame, basis = m._frame(o.coords), _gram_schmidt(m, o.coords)
    assert frame.shape == basis.shape and frame.dtype == basis.dtype
    # bytes, so signed zeros count
    assert frame.tobytes() == basis.tobytes()


@st.composite
def _points(draw):
    """A space and a point on it: spatial coordinates up to
    sinh(8)/sqrt(kappa) with the time coordinate solved (H^n), any direction
    scaled to radius R (S^2), or coordinates up to 1e3 (R^2)."""
    m = SPACES[draw(st.sampled_from(sorted(SPACES)))]
    raw = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m.ambient_dim,
                                 max_size=m.ambient_dim)))
    if isinstance(m, Hyperboloid):
        xs = raw[1:] * math.sinh(8.0) / math.sqrt(m.kappa)
        return m, np.concatenate([[math.sqrt(1.0 / m.kappa + xs.dot(xs))], xs])
    if isinstance(m, Sphere):
        n = np.linalg.norm(raw)
        assume(n > 1e-3)
        return m, m.radius * raw / n
    return m, 1e3 * raw


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_points())
def test_frame_is_orthonormal_and_tangent_at_drawn_points(drawn):
    m, x = drawn
    B = m._frame(x)
    assert B.shape == (m.dim, m.ambient_dim)
    assert _defect(m, x, B) <= _floor(m, x)


def _sqdist(m, seed):
    target = point_at(m, np.random.default_rng(seed), m.origin(), 0.8)
    return SquaredDistance(m, target, domain=DomainSpec(m.origin(), 2.0))


def _frechet(m, spread):
    rng = np.random.default_rng(9)
    o = m.origin()
    samples = np.array([point_at(m, rng, o, spread).coords for _ in range(6)])
    return FrechetMean(m, samples, domain=DomainSpec(o, 1.0), solve_reference=False)


# each builds its own manifold, whose _frame a test may replace
OBJECTIVES = {
    "H2-sqdist": lambda: _sqdist(Hyperboloid(2), 1),
    "H8-sqdist": lambda: _sqdist(Hyperboloid(8, 4.0), 2),
    "H2-frechet": lambda: _frechet(Hyperboloid(2), 0.7),
    "S2R1.5-frechet": lambda: _frechet(Sphere(2, 1.5), 0.4),
    "S2-rayleigh": make_rayleigh,
    "R2-quadratic": lambda: make_quadratic([2.0, 0.5]),
}


def _gram_schmidt_frame(monkeypatch, m):
    """Make the steps on ``m`` take the frozen Gram-Schmidt basis as their frame."""
    monkeypatch.setattr(m, "_frame", lambda x: _gram_schmidt(m, x))


def _close(got, want, rel=1e-12):
    assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


@pytest.mark.parametrize("name", list(OBJECTIVES))
def test_steps_in_the_frame_match_the_steps_in_gram_schmidt(monkeypatch, name):
    obj = OBJECTIVES[name]()
    m = obj.manifold
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(4):
        y = point_at(m, rng, obj.domain.center, 0.6)
        x = point_at(m, rng, y, 0.3)
        cases.append((y, x))

    def steps():
        out = []
        for y, x in cases:
            for eta in (0.5, 2.0):
                dist_log = m._dist_log(y.coords, x.coords)
                grad_F = obj.gradient(y).coords - dist_log[1] / eta
                out.append(_prox_newton_step(obj, y, x, eta, grad_F, dist_log))
            out.append(cubic_newton_step(obj, y, 2.0, 0.5, 1.0, obj.gradient(y))[1].coords)
        return out

    in_frame = steps()
    _gram_schmidt_frame(monkeypatch, m)
    in_gram_schmidt = steps()
    newton = 0
    for got, want in zip(in_frame, in_gram_schmidt):
        assert (got is None) == (want is None)
        if got is not None:
            _close(got, want)
            newton += 1
    assert newton >= len(cases)

