"""The one kernel pass that value, gradient and Hessian share at a point,
the sample-array constructor of the Frechet mean, and the objective methods
the benchmark's tracer counts.

The Frechet mean keeps the distance-and-log pass of the last
``ManifoldPoint`` object it saw, so results read from the kept pass must
equal a fresh objective's, bit for bit, in any order and after a point
change; the squared distance, which makes public geometry calls, must too.
"""

import inspect
from itertools import permutations

import numpy as np
import pytest

from geodescent import objectives
from geodescent.geometry import (AntipodalPointsError, DomainSpec, Euclidean, GeometryError,
                                 Hyperboloid, ManifoldPoint, Sphere, TangentVector)
from geodescent.objectives import FrechetMean, Objective, SquaredDistance
from helpers import make_frechet_h2, point_at

METHODS = ("value", "gradient", "hessian_matrix")


def _factories(m):
    """Fresh SquaredDistance and FrechetMean objectives on ``m``, and two
    evaluation points."""
    if isinstance(m, Sphere):
        r = 0.5 * m.radius
    else:
        r = 1.0 / np.sqrt(m.kappa) if isinstance(m, Hyperboloid) else 1.0
    rng = np.random.default_rng(3)
    o = m.origin()
    target = point_at(m, rng, o, 0.4 * r)
    samples = np.array([point_at(m, rng, o, 0.6 * r).coords for _ in range(7)])
    dom = DomainSpec(o, r)
    a, b = point_at(m, rng, o, 0.3 * r), point_at(m, rng, o, 0.5 * r)
    return {"squared_distance": lambda: SquaredDistance(m, target, domain=dom),
            "frechet_mean": lambda: FrechetMean(m, samples, domain=dom,
                                                solve_reference=False)}, a, b


def _evaluated(obj, name, x):
    """``obj.<name>`` at x, the Hessian in the orthonormal basis at x."""
    if name == "hessian_matrix":
        return obj.hessian_matrix(x, x.manifold.orthonormal_basis(x))
    return getattr(obj, name)(x)


def _bits(result):
    if isinstance(result, TangentVector):
        return result.base, result.coords.tobytes()
    return np.asarray(result).tobytes()


@pytest.mark.parametrize("m", [Euclidean(3), Sphere(2, 1.5), Hyperboloid(8, 4.0)], ids=repr)
@pytest.mark.parametrize("kind", ["squared_distance", "frechet_mean"])
@pytest.mark.parametrize("order", list(permutations(METHODS)), ids="-".join)
def test_kept_pass_gives_a_fresh_objectives_bits(m, kind, order):
    factories, a, b = _factories(m)
    make = factories[kind]
    obj = make()
    # a, b, a again, then a new point object with a's coordinates
    for x in (a, b, a, ManifoldPoint(m, a.coords.copy())):
        for name in order:
            assert _bits(_evaluated(obj, name, x)) == _bits(_evaluated(make(), name, x)), (x, name)


@pytest.mark.parametrize("m", [Euclidean(3), Sphere(2, 1.5), Hyperboloid(8, 4.0)], ids=repr)
def test_squared_distance_hessian_takes_one_distance_and_log_pass(monkeypatch, m):
    factories, a, _ = _factories(m)
    obj = factories["squared_distance"]()
    basis = m.orthonormal_basis(a)
    calls = dict.fromkeys(("_distance", "_dist_log"), 0)
    for name in calls:
        def counted(*args, _name=name, _method=getattr(m, name)):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(m, name, counted)
    obj.hessian_matrix(a, basis=basis)
    assert calls == {"_distance": 0, "_dist_log": 1}


@pytest.mark.parametrize("value_first", [True, False])
def test_squared_distance_at_the_antipode_has_a_value_and_no_gradient(value_first):
    R = 1.5
    S = Sphere(2, R)
    x = S.origin()
    # cos of the angle is about -1 + 1e-12, inside ANTIPODAL_TOL of the antipode
    target = S.exp(x, S.tangent(x, [(np.pi - 1.4e-6) * R, 0.0, 0.0]))
    obj = SquaredDistance(S, target, domain=DomainSpec(target, 0.5 * R))
    if value_first:
        assert np.isfinite(obj.value(x))
    with pytest.raises(AntipodalPointsError,
                       match="logarithm undefined within tolerance of the antipode"):
        obj.gradient(x)
    assert np.isfinite(obj.value(x))
    with pytest.raises(AntipodalPointsError):
        obj.hessian_matrix(x, S.orthonormal_basis(x))


@pytest.mark.parametrize("samples, match", [
    (np.zeros((4, 2)), "shape"),
    (np.zeros(3), "shape"),
    (np.zeros((0, 3)), "shape"),
    (np.array([[0.0, 0.1, 0.2], [0.3, np.nan, 0.0]]), "non-finite"),
    (np.array([[0.0, 0.1, np.inf]]), "non-finite"),
], ids=["wrong-width", "one-dimensional", "empty", "nan", "inf"])
def test_frechet_mean_rejects_a_bad_sample_array(samples, match):
    E = Euclidean(3)
    with pytest.raises(GeometryError, match=match):
        FrechetMean(E, samples, domain=DomainSpec(E.origin(), 1.0), solve_reference=False)


def test_frechet_mean_takes_no_list_of_points():
    H = Hyperboloid(2, 1.0)
    with pytest.raises(GeometryError, match="shape"):
        FrechetMean(H, [H.origin(), H.origin()], domain=DomainSpec(H.origin(), 1.0),
                    solve_reference=False)


def test_frechet_mean_holds_a_read_only_copy_of_its_samples():
    obj = make_frechet_h2(solve_reference=False)
    samples = np.array(obj.samples)
    copy = FrechetMean(obj.manifold, samples, domain=obj.domain, solve_reference=False)
    samples[0, 1] += 1.0
    assert not copy.samples.flags.writeable
    assert copy.samples[0, 1] == obj.samples[0, 1]
    assert not hasattr(copy, "points")


def test_each_objective_class_defines_its_own_evaluation_methods():
    # the benchmark's tracer counts value, gradient and hessian_matrix where
    # each concrete class defines them; a method inherited from a shared base
    # would go uncounted
    classes = [cls for cls in vars(objectives).values()
               if inspect.isclass(cls) and issubclass(cls, Objective) and cls is not Objective]
    assert classes
    for cls in classes:
        assert set(METHODS) <= set(vars(cls)), cls
