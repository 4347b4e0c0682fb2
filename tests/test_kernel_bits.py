"""The scalar geometry kernels return the same bits as their frozen
reference bodies in ``kernel_reference`` (signed zeros included) on every
input, and their finiteness checks reject exactly the non-finite inputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodescent.geometry import (Euclidean, GeometryError, Hyperboloid, ManifoldPoint, Sphere,
                                 TangentVector)
from helpers import drawn_unit
from kernel_reference import ReferenceEuclidean, ReferenceHyperboloid, ReferenceSphere


def _bits(out):
    """The value of a kernel call as comparable bytes; an exception as its
    type and message."""
    if isinstance(out, BaseException):
        return type(out), str(out)
    if isinstance(out, (tuple, list)):
        return tuple(_bits(o) for o in out)
    if out is None:
        return None
    a = np.asarray(getattr(out, "coords", out), dtype=float)
    return a.shape, a.tobytes()


def _call(f, *args):
    try:
        return _bits(f(*args))
    except GeometryError as err:
        return _bits(err)


@st.composite
def _space_inputs(draw):
    """A manifold with its reference, a point x up to 6/sqrt(kappa) (H^n),
    pi*R - 1e-6 (S^2) or 6 (R^3) from the origin, tangents v and w at x
    (v may be zero or subnormal), a point y (on S^2 possibly within 1e-4*R of
    the antipode of x) and an ambient vector."""
    name = draw(st.sampled_from(["H2", "H8", "S2", "R3"]))
    if name[0] == "H":
        kappa = draw(st.sampled_from([1.0, 4.0]))
        m, ref = Hyperboloid(int(name[1]), kappa), ReferenceHyperboloid(int(name[1]), kappa)
        far = 6.0 / math.sqrt(kappa)
    elif name == "S2":
        radius = draw(st.sampled_from([1.0, 2.0]))
        m, ref = Sphere(2, radius), ReferenceSphere(2, radius)
        far = math.pi * radius - 1e-6
    else:
        m, ref, far = Euclidean(3), ReferenceEuclidean(3), 6.0
    coords = st.lists(st.floats(-1.0, 1.0), min_size=m.ambient_dim, max_size=m.ambient_dim)
    o = m.origin().coords
    x = m._exp(o, draw(st.floats(0.0, far)) * drawn_unit(m, o, draw(coords)))
    length = draw(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300]), st.floats(0.0, far)))
    v = length * drawn_unit(m, x, draw(coords))
    w = draw(st.floats(0.0, far)) * drawn_unit(m, x, draw(coords))
    if name == "S2" and draw(st.booleans()):
        gap = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-4]))
        y = m._exp(x, (math.pi - gap) * m.radius * drawn_unit(m, x, draw(coords)))
    else:
        y = m._exp(x, draw(st.floats(0.0, far)) * drawn_unit(m, x, draw(coords)))
    raw = np.asarray(draw(coords), dtype=float)
    return m, ref, x, y, v, w, raw


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_space_inputs())
def test_scalar_kernels_match_their_reference_bit_for_bit(drawn):
    m, ref, x, y, v, w, raw = drawn
    calls = [
        ("_distance", x, y), ("_dist_log", x, y), ("_log", x, y), ("_log", x, x),
        ("_exp", x, v), ("_exp", x, np.zeros_like(v)), ("_move", x, v),
        ("_norm", x, v), ("_inner", x, v, w), ("_project_tangent", x, raw),
        ("_project_tangent", y, v), ("_transport", x, y, w), ("_transport", x, x, w),
        ("_point_defect", x), ("_tangent_defect", x, v), ("_tangent_defect", x, raw),
    ]
    if isinstance(m, Hyperboloid):
        calls += [("_chord", x, y), ("_chord", x, x)]
    if isinstance(m, Sphere):
        calls += [("_arc", x, y), ("_arc", x, x)]
    for name, *args in calls:
        assert _call(getattr(m, name), *args) == _call(getattr(ref, name), *args), name
    # the closed-form frame, read-only, which is Gram-Schmidt at the origin
    basis = m.orthonormal_basis(ManifoldPoint(m, x))
    assert _bits(basis) == _bits(m._frame(x)) and not basis.flags.writeable
    o = m.origin()
    assert _bits(list(m.orthonormal_basis(o))) == _bits(ref.orthonormal_basis(o))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=3, max_size=9),
       st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=3, max_size=9))
def test_public_minkowski_on_lists_matches_its_reference(u, v):
    n = min(len(u), len(v))
    u, v = u[:n], v[:n]
    with np.errstate(all="ignore"):  # some draws overflow to inf or nan
        got = np.float64(Hyperboloid.minkowski(u, v)).tobytes()
        assert got == np.float64(ReferenceHyperboloid.minkowski(u, v)).tobytes()


# ---------------------------------------------------------------------------
# finiteness


def _spaces():
    return [Euclidean(3), Sphere(2, 2.0), Hyperboloid(2, 4.0), Hyperboloid(8, 1.0)]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_coordinate_is_refused_in_every_position(bad):
    for m in _spaces():
        o = m.origin()
        for i in range(m.ambient_dim):
            raw = np.zeros(m.ambient_dim)
            raw[i] = bad
            with pytest.raises(GeometryError, match="non-finite tangent coordinates"):
                m._move(o.coords, raw)
            with pytest.raises(GeometryError, match="non-finite tangent coordinates"):
                m.exp(o, TangentVector(o, raw))
            with pytest.raises(GeometryError, match="non-finite tangent coordinates"):
                m.tangent(o, raw)
            with pytest.raises(GeometryError, match="non-finite point coordinates"):
                m.point(o.coords + raw)


@pytest.mark.parametrize("size", [1e200, 1.7e308])
def test_finite_vectors_whose_square_or_sum_overflows_pass_the_check(size):
    # 1e200 squared overflows a test on the dot product, 1.7e308 summed one
    # on the sum
    m, big = Euclidean(3), np.full(3, size)
    o = m.origin()
    with np.errstate(over="ignore"):
        assert np.array_equal(m._move(o.coords, big).coords, big)
        assert np.array_equal(m.exp(o, m.tangent(o, big)).coords, big)
        assert np.array_equal(m.point(big).coords, big)
