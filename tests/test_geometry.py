import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodescent.geometry import (
    AntipodalPointsError,
    BaseMismatchError,
    DomainSpec,
    Euclidean,
    GeometryError,
    Hyperboloid,
    ManifoldMismatchError,
    ManifoldPoint,
    Sphere,
    TangentVector,
    comparison,
    in_domain,
)
from helpers import point_at, tangent_of_norm, unit_tangent
from ode_oracles import integrate_geodesic, integrate_transport

MANIFOLDS = [Euclidean(2), Euclidean(3), Sphere(2, 1.0), Sphere(2, 2.0),
             Hyperboloid(2, 1.0), Hyperboloid(3, 0.5)]


def _max_step(m):
    # stay comfortably inside the injectivity radius
    if isinstance(m, Sphere):
        return 0.9 * np.pi * m.radius
    return 2.5


# ---------------------------------------------------------------------------
# closed-form examples


def test_euclidean_exp_is_addition():
    E = Euclidean(2)
    x = E.point([1.0, 2.0])
    v = E.tangent(x, [0.5, -1.0])
    np.testing.assert_allclose(E.exp(x, v).coords, [1.5, 1.0], atol=1e-15)
    y = E.point([1.5, 1.0])
    np.testing.assert_allclose(E.log(x, y).coords, [0.5, -1.0], atol=1e-15)


def test_sphere_exp_quarter_circle():
    S = Sphere(2, 1.0)
    x = S.point([0.0, 0.0, 1.0])
    v = S.tangent(x, [np.pi / 2, 0.0, 0.0])
    np.testing.assert_allclose(S.exp(x, v).coords, [1.0, 0.0, 0.0], atol=1e-12)
    assert S.distance(x, S.point([1.0, 0.0, 0.0])) == pytest.approx(np.pi / 2, abs=1e-12)


def test_hyperboloid_exp_log_closed_form():
    H = Hyperboloid(2, 1.0)
    x = H.point([1.0, 0.0, 0.0])
    v = H.tangent(x, [0.0, 1.0, 0.0])
    e = H.exp(x, v)
    np.testing.assert_allclose(e.coords, [np.cosh(1), np.sinh(1), 0.0], atol=1e-12)
    np.testing.assert_allclose(H.log(x, e).coords, [0.0, 1.0, 0.0], atol=1e-12)
    assert H.distance(x, e) == pytest.approx(1.0, abs=1e-12)


def test_log_at_same_point_is_zero():
    for m in MANIFOLDS:
        x = m.random_point(np.random.default_rng(0), 0.5)
        assert m.norm(x, m.log(x, x)) == pytest.approx(0.0, abs=1e-12)


def test_transport_of_orthogonal_vector_is_invariant():
    S = Sphere(2, 1.0)
    x = S.point([0.0, 0.0, 1.0])
    y = S.point([1.0, 0.0, 0.0])
    v = S.tangent(x, [0.0, 1.0, 0.0])
    np.testing.assert_allclose(S.transport(x, y, v).coords, [0.0, 1.0, 0.0], atol=1e-12)

    H = Hyperboloid(2, 1.0)
    x = H.point([1.0, 0.0, 0.0])
    y = H.point([np.cosh(1), np.sinh(1), 0.0])
    w = H.tangent(x, [0.0, 0.0, 1.0])
    np.testing.assert_allclose(H.transport(x, y, w).coords, [0.0, 0.0, 1.0], atol=1e-12)


def test_hyperboloid_minkowski_inner():
    H = Hyperboloid(2, 1.0)
    x = H.point([1.0, 0.0, 0.0])
    v = H.tangent(x, [0.0, 1.0, 0.0])
    w = H.tangent(x, [0.0, 0.0, 1.0])
    assert H.inner(x, v, w) == pytest.approx(0.0, abs=1e-15)
    assert H.norm(x, H.zero_tangent(x)) == 0.0


def test_projected_distance_examples():
    E = Euclidean(2)
    x, w, v = E.point([0.0, 0.0]), E.point([1.0, 2.0]), E.point([-1.0, 1.0])
    assert E.projected_distance(x, w, v) == pytest.approx(np.linalg.norm([2.0, 1.0]))
    assert E.projected_distance(x, w, w) == 0.0

    H = Hyperboloid(2, 1.0)
    x = H.point([1.0, 0.0, 0.0])
    w = H.point([np.cosh(1), np.sinh(1), 0.0])
    v = H.point([np.cosh(1), 0.0, np.sinh(1)])
    pd = H.projected_distance(x, w, v)
    assert pd == pytest.approx(np.sqrt(2.0), abs=1e-12)
    # contraction against the true distance, the Hadamard property
    true = H.distance(w, v)
    assert true == pytest.approx(np.arccosh(np.cosh(1.0) ** 2), abs=1e-12)
    assert pd < true


def test_projected_distance_to_base_recovers_distance():
    H = Hyperboloid(2, 1.0)
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = H.random_point(rng, 0.8)
        w = H.random_point(rng, 0.8)
        assert H.projected_distance(x, w, x) == pytest.approx(H.distance(x, w), abs=1e-10)


def test_hadamard_projected_distance_contracts():
    H = Hyperboloid(2, 1.0)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x, w, v = (H.random_point(rng, 0.8) for _ in range(3))
        assert H.projected_distance(x, w, v) <= H.distance(w, v) + 1e-10


def test_orthonormal_basis():
    S = Sphere(2, 1.0)
    x = S.point([0.0, 0.0, 1.0])
    np.testing.assert_allclose(S.orthonormal_basis(x), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                               atol=1e-14)

    E = Euclidean(2)
    np.testing.assert_allclose(E.orthonormal_basis(E.origin()), np.eye(2), atol=1e-15)

    rng = np.random.default_rng(0)
    for m in MANIFOLDS:
        x = m.random_point(rng, 0.7)
        basis = m.orthonormal_basis(x)
        assert isinstance(basis, np.ndarray) and basis.dtype == float
        assert basis.shape == (m.dim, m.ambient_dim)
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0
        vectors = [TangentVector(x, b) for b in basis]
        for i, bi in enumerate(vectors):
            m.check_tangent(bi)
            for j, bj in enumerate(vectors):
                assert m.inner(x, bi, bj) == pytest.approx(float(i == j), abs=1e-10)


def test_in_domain():
    E = Euclidean(2)
    center = E.point([0.0, 0.0])
    dom = DomainSpec(center, 1.0)
    assert dom.diameter == 2.0
    assert in_domain(dom, center)
    assert in_domain(dom, E.point([1.0, 0.0]))  # boundary inclusive
    assert not in_domain(dom, E.point([2.0, 0.0]))


def test_domain_spec_validation():
    S = Sphere(2, 1.0)
    with pytest.raises(GeometryError):
        DomainSpec(S.origin(), 0.6 * np.pi)  # diameter >= pi*R
    with pytest.raises(GeometryError):
        DomainSpec(S.origin(), -0.1)


@pytest.mark.parametrize("make", [Euclidean, Sphere, Hyperboloid])
@pytest.mark.parametrize("n", [0, -1])
def test_dimension_below_one_rejected(make, n):
    with pytest.raises(GeometryError, match="dimension must be at least 1"):
        make(n)


@pytest.mark.parametrize("make, match", [(Sphere, "sphere radius"), (Hyperboloid, "kappa")])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_nonpositive_or_nonfinite_curvature_scale_rejected(make, match, value):
    with pytest.raises(GeometryError, match=match):
        make(2, value)


def test_curvature_bounds():
    assert Euclidean(2).curvature == 0.0
    assert Sphere(2, 2.0).curvature == 0.25
    assert Hyperboloid(2, 1.5).curvature == -1.5


# ---------------------------------------------------------------------------
# the curvature comparison function


@pytest.mark.parametrize("K", [-4.0, -1.0, 0.0, 1.0, 0.25])
def test_comparison_closed_forms(K):
    for d in (0.3, 1.0, 1.4, 5.0):
        t = np.sqrt(abs(K)) * d
        expected = (t * np.cosh(t) / np.sinh(t) if K < 0
                    else t * np.cos(t) / np.sin(t) if K > 0 else 1.0)
        assert comparison(K, d) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("K", [-4.0, -1.0, 0.0, 1.0, 0.25])
def test_comparison_scalar_and_array_calls_agree(K):
    # both the distortion rate (one number) and the Frechet Hessian (one
    # array) read the function, so the two paths must give the same floats
    ds = np.concatenate([[0.0], np.linspace(5e-9, 3e-8, 101), np.linspace(1e-3, 3.0, 2000)])
    out = comparison(K, ds)
    assert out.shape == ds.shape
    scalars = [comparison(K, float(d)) for d in ds]
    assert all(type(s) is float for s in scalars)
    assert np.array_equal(out, scalars)


@pytest.mark.parametrize("K", [-4.0, -1.0, -0.37, 0.25, 1.0])
def test_comparison_number_branch_matches_the_array_path_bit_for_bit(K):
    # a number skips the 0-d array path but must keep numpy's tanh/tan bits
    rng = np.random.default_rng(11)
    ds = np.concatenate([rng.uniform(0.0, 3.0, 20000), rng.uniform(0.0, 3e-8, 2000),
                         10.0 ** rng.uniform(-12.0, 0.4, 8000), [0.0, 1e-8, 5e-9]])
    if K > 0:
        ds = ds[np.sqrt(K) * ds < 0.999 * np.pi]
    scalars = np.array([comparison(K, d) for d in ds.tolist()])
    assert np.array_equal(scalars.view(np.int64), comparison(K, ds).view(np.int64))


@pytest.mark.parametrize("K", [-4.0, -1.0, 0.0, 1.0, 0.25])
def test_comparison_small_t_limit_is_one(K):
    assert comparison(K, 0.0) == 1.0
    ds = np.array([0.0, 1e-12, 4.9e-9])  # t = sqrt(|K|)*d below 1e-8
    np.testing.assert_array_equal(comparison(K, ds), np.ones(3))


# ---------------------------------------------------------------------------
# error conditions


def test_antipodal_rejection():
    S = Sphere(2, 1.0)
    x = S.point([0.0, 0.0, 1.0])
    with pytest.raises(AntipodalPointsError):
        S.log(x, S.point([0.0, 0.0, -1.0]))
    with pytest.raises(AntipodalPointsError):
        S.transport(x, S.point([0.0, 0.0, -1.0]), S.tangent(x, [1.0, 0.0, 0.0]))


def test_mismatch_errors():
    E2, E3 = Euclidean(2), Euclidean(3)
    x2 = E2.point([0.0, 0.0])
    with pytest.raises(ManifoldMismatchError):
        E3.distance(E3.origin(), x2)
    H = Hyperboloid(2, 1.0)
    x = H.origin()
    y = H.exp(x, H.tangent(x, [0.0, 1.0, 0.0]))
    v = H.tangent(x, [0.0, 1.0, 0.0])
    with pytest.raises(BaseMismatchError):
        H.exp(y, v)
    with pytest.raises(BaseMismatchError):
        H.inner(y, v, v)


def test_invalid_point_construction():
    S = Sphere(2, 1.0)
    with pytest.raises(GeometryError):
        S.point([1.0, 1.0, 1.0])
    with pytest.raises(GeometryError):
        S.point([np.nan, 0.0, 1.0])
    H = Hyperboloid(2, 1.0)
    with pytest.raises(GeometryError):
        H.point([-1.0, 0.0, 0.0])  # wrong sheet
    with pytest.raises(GeometryError):
        H.tangent(H.origin(), [1.0, 0.0, 0.0])  # not Minkowski-orthogonal
    E = Euclidean(2)
    with pytest.raises(GeometryError):
        E.tangent(E.origin(), [np.inf, 0.0])


@pytest.mark.parametrize("m", MANIFOLDS, ids=lambda m: m.key)
def test_coordinates_of_the_wrong_length_are_refused(m):
    # point and tangent share one shape check and its message
    n = m.ambient_dim
    for coords in ([0.0] * (n + 1), [0.0] * (n - 1)):
        message = re.escape(f"expected {n} ambient coordinates, got shape ({len(coords)},)")
        with pytest.raises(GeometryError, match=f"^{message}$"):
            m.point(coords)
        with pytest.raises(GeometryError, match=f"^{message}$"):
            m.tangent(m.origin(), coords)


@pytest.mark.parametrize("m", [Euclidean(3), Sphere(2, 2.0), Hyperboloid(2, 1.0)],
                         ids=lambda m: m.key)
def test_check_point_and_check_tangent_refuse_nan_coordinates(m):
    # built without the constructors' checks, as a point whose exp overflowed;
    # a NaN defect fails "err > tol", and flat space's defect is always 0
    o = m.origin()
    nan = np.full(m.ambient_dim, np.nan)
    with pytest.raises(GeometryError, match="^non-finite point coordinates$"):
        m.check_point(ManifoldPoint(m, nan))
    with pytest.raises(GeometryError, match="^non-finite tangent coordinates$"):
        m.check_tangent(TangentVector(o, nan))
    if isinstance(m, Hyperboloid):
        with np.errstate(over="ignore", invalid="ignore"):
            far = m.exp(o, m.tangent(o, [0.0, 1e3, 0.0]))
        with pytest.raises(GeometryError, match="^non-finite point coordinates$"):
            m.check_point(far)


@pytest.mark.parametrize("m, coords, tangent", [
    (Hyperboloid(2), [1e300, 1e300, 0.0], False),
    (Sphere(2), [0.0, 1e300, 1e300], False),
    (Hyperboloid(2), [0.0, 1e300, 0.0], True)], ids=["h2", "s2", "h2-tangent"])
def test_check_tangent_judges_a_vector_whose_norm_overflows(m, coords, tangent):
    # |x| * |v| overflows, which made the relative tolerance inf: the check
    # scales v by its largest absolute coordinate first, with no numpy warning
    o = m.origin()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if tangent:
            assert np.array_equal(m.tangent(o, coords).coords, coords)
        else:
            with pytest.raises(GeometryError, match="^tangent violates .* by 1.000e[+]300$"):
                m.tangent(o, coords)


# ---------------------------------------------------------------------------
# metric properties on random inputs


@pytest.mark.parametrize("m", MANIFOLDS, ids=lambda m: m.key)
def test_exp_log_roundtrip(m):
    rng = np.random.default_rng(42)
    for _ in range(300):
        x = m.random_point(rng, 0.6)
        v = tangent_of_norm(m, rng, x, rng.uniform(0, _max_step(m)))
        y = m.exp(x, v)
        back = m.log(x, y)
        err = np.sqrt(max(m._inner(x.coords, back.coords - v.coords,
                                   back.coords - v.coords), 0.0))
        assert err < 1e-8


@pytest.mark.parametrize("m", MANIFOLDS, ids=lambda m: m.key)
def test_transport_isometry_and_inner_preservation(m):
    rng = np.random.default_rng(43)
    for _ in range(200):
        x = m.random_point(rng, 0.6)
        y = point_at(m, rng, x, rng.uniform(0.01, min(2.0, _max_step(m))))
        v = m.random_tangent(rng, x, 1.0)
        w = m.random_tangent(rng, x, 1.0)
        tv, tw = m.transport(x, y, v), m.transport(x, y, w)
        assert abs(m.norm(y, tv) - m.norm(x, v)) < 1e-10
        assert abs(m.inner(y, tv, tw) - m.inner(x, v, w)) < 1e-9


@pytest.mark.parametrize("m", MANIFOLDS, ids=lambda m: m.key)
def test_distance_consistency_and_axioms(m):
    rng = np.random.default_rng(44)
    for _ in range(200):
        x = m.random_point(rng, 0.6)
        y = m.random_point(rng, 0.6)
        z = m.random_point(rng, 0.6)
        dxy = m.distance(x, y)
        assert dxy >= 0
        assert abs(dxy - m.distance(y, x)) < 1e-10
        assert m.distance(x, x) < 1e-12
        assert dxy <= m.distance(x, z) + m.distance(z, y) + 1e-9
        if not isinstance(m, Sphere) or dxy < 0.9 * np.pi * m.radius:
            assert abs(dxy - m.norm(x, m.log(x, y))) < 1e-8


def test_exp_renormalization_over_long_chains():
    rng = np.random.default_rng(45)
    for m in (Sphere(2, 1.0), Hyperboloid(2, 1.0)):
        x = m.origin()
        for _ in range(2000):
            x = m.exp(x, m.random_tangent(rng, x, 0.05))
            # pull back toward the origin so the drift test stays local
            if m.distance(m.origin(), x) > 1.5:
                x = m.exp(x, m.log(x, m.origin()))
        assert m._point_defect(x.coords) < 1e-12


def test_euclidean_specialization_is_exact():
    E = Euclidean(3)
    rng = np.random.default_rng(46)
    for _ in range(50):
        x = E.point(rng.normal(size=3))
        y = E.point(rng.normal(size=3))
        v = E.tangent(x, rng.normal(size=3))
        assert np.array_equal(E.exp(x, v).coords, x.coords + v.coords)
        assert np.array_equal(E.log(x, y).coords, y.coords - x.coords)
        assert np.array_equal(E.transport(x, y, v).coords, v.coords)


# ---------------------------------------------------------------------------
# closed forms against the ODE oracles


@pytest.mark.parametrize("m", [Sphere(2, 1.0), Sphere(2, 2.0),
                               Hyperboloid(2, 1.0), Hyperboloid(2, 0.5)],
                         ids=lambda m: m.key)
def test_exp_and_transport_match_ode_integration(m):
    rng = np.random.default_rng(47)
    n = 200
    xs, vs, ws, exp_closed, tr_closed = [], [], [], [], []
    for _ in range(n):
        x = m.random_point(rng, 0.5)
        v = tangent_of_norm(m, rng, x, rng.uniform(0.05, 2.0))
        w = m.random_tangent(rng, x, 1.0)
        y = m.exp(x, v)
        xs.append(x.coords)
        vs.append(v.coords)
        ws.append(w.coords)
        exp_closed.append(y.coords)
        tr_closed.append(m.transport(x, y, w).coords)
    end = integrate_geodesic(m, np.array(xs), np.array(vs))
    assert np.max(np.linalg.norm(end - np.array(exp_closed), axis=1)) < 1e-6
    _, wt = integrate_transport(m, np.array(xs), np.array(vs), np.array(ws))
    assert np.max(np.linalg.norm(wt - np.array(tr_closed), axis=1)) < 1e-6


# ---------------------------------------------------------------------------
# property-based sanity


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-1.2, 1.2), b=st.floats(-1.2, 1.2),
       c=st.floats(-1.2, 1.2), d=st.floats(-1.2, 1.2))
def test_hyperboloid_roundtrip_hypothesis(a, b, c, d):
    H = Hyperboloid(2, 1.0)
    o = H.origin()
    x = H.exp(o, H.tangent(o, H._project_tangent(o.coords, np.array([0.0, a, b]))))
    v = H.tangent(x, H._project_tangent(x.coords, np.array([0.0, c, d])))
    y = H.exp(x, v)
    back = H.log(x, y)
    assert np.linalg.norm(back.coords - v.coords) < 1e-8
