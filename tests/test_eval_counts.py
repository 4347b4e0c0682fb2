"""Objective evaluations per iteration of the two drivers, and the public
geometry calls that one Frechet-mean evaluation and each step make: none,
since the steps check their points once and then run on the raw kernels.

Each recorded point is evaluated once: the descent steps reuse the gradient
recorded at their input, the accelerated step hands its oracle the gradient
at x+ and returns the f(y+) it computed for the oracle contract, which the
driver records and uses for the energy, and the oracle-delta fixed point
keeps the last step it took.
"""

import numpy as np
import pytest

from geodescent import acceleration as acc
from geodescent.descent import (BACKWARD, CubicNewton, GradientDescent, ProximalPoint,
                                cubic_newton_step, proximal_step, rgd_step, run_descent)
from geodescent.geometry import (BaseMismatchError, GeometryError, Hyperboloid, Manifold,
                                 ManifoldMismatchError, TangentVector)
from geodescent.objectives import reference_minimize
from helpers import make_frechet_h2, make_sqdist_h2, point_at

K = 12


def _counting(obj):
    """Count value and gradient calls on this objective instance."""
    counts = {"value": 0, "gradient": 0}
    for name in counts:
        method = getattr(obj, name)

        def counted(*args, _name=name, _method=method, **kwargs):
            counts[_name] += 1
            return _method(*args, **kwargs)

        setattr(obj, name, counted)
    return counts


def _problem():
    obj = make_sqdist_h2()
    x0 = point_at(obj.manifold, np.random.default_rng(5), obj.domain.center, 1.0)
    return obj, x0


def test_rgd_evaluates_value_and_gradient_once_per_iterate():
    obj, x0 = _problem()
    counts = _counting(obj)
    run_descent(GradientDescent(1.0 / obj.metadata.L), obj, x0, K)
    assert counts == {"value": K + 1, "gradient": K + 1}


@pytest.mark.parametrize("make_alg", [lambda: ProximalPoint(1.0), lambda: CubicNewton()],
                         ids=["proximal", "cubic"])
def test_step_reuses_the_recorded_gradient(make_alg):
    obj, x0 = _problem()
    obj.with_rho(2.0)
    alg = make_alg()
    counts = _counting(obj)
    trace = run_descent(alg, obj, x0, K)
    in_run = dict(counts)
    # the same steps taken on their own, each evaluating grad f(x_k) itself
    counts.update(value=0, gradient=0)
    for x in trace.iterates[:-1]:
        alg.step(obj, x)
    standalone = counts["gradient"]
    assert in_run["value"] == K + 1
    assert in_run["gradient"] == (K + 1) + standalone - K


def _accel_run(delta_mode, k_max, eta):
    obj, x0 = _problem()
    counts = _counting(obj)
    run = acc.run_accelerated(obj, x0, k_max, acc.STRONGLY, acc.gradient_oracle(obj, eta),
                              delta_mode=delta_mode)
    assert len(run.trace) == k_max + 1
    return counts


@pytest.mark.parametrize("eta", [0.5, 1.0, 4.0])
def test_proximal_step_on_squared_distance_takes_one_newton_step(eta):
    # the subproblem's Newton step lands on the geodesic to the target at
    # the exact proximal point, whose residual test ends the inner loop
    obj, x0 = _problem()
    counts = _counting(obj)
    proximal_step(obj, x0, eta)
    assert counts["gradient"] <= 2


def test_accelerated_analytic_delta_counts():
    counts = _accel_run(acc.ANALYTIC, K, 0.005)
    # per iteration: f and grad at x+ and f(y+) inside accel_step (the
    # oracle reuses grad f(x+)), and grad at y+ for the record
    assert counts["value"] == 2 * K + 1
    assert counts["gradient"] == 2 * K + 1


def test_accel_step_hands_the_oracle_its_gradient():
    obj, x0 = _problem()
    oracle = ProximalPoint(1.0)
    c = oracle.certificate(obj, BACKWARD).c
    state = acc.AccelState(x0, x0, point_at(obj.manifold, np.random.default_rng(6), x0, 0.5))
    counts = _counting(obj)
    new_state, _ = acc.accel_step(obj, state, acc.AccelParams(0.5, 0.1, 1.0), oracle.step, c)
    in_step = counts["gradient"]
    counts.update(gradient=0)
    oracle.step(obj, new_state.x)
    # grad f(x+) once for the z-update and the oracle; the rest is the
    # oracle's inner loop
    assert in_step == counts["gradient"]


def test_oracle_delta_takes_one_step_per_fixed_point_iteration(monkeypatch):
    steps = {"accel_step": 0, "fixed_point": 0}
    accel_step, distortion_rate = acc.accel_step, acc.distortion_rate

    def counted_step(*args, **kwargs):
        steps["accel_step"] += 1
        return accel_step(*args, **kwargs)

    def counted_rate(*args, **kwargs):
        steps["fixed_point"] += kwargs.get("mode") == acc.ORACLE
        return distortion_rate(*args, **kwargs)

    monkeypatch.setattr(acc, "accel_step", counted_step)
    monkeypatch.setattr(acc, "distortion_rate", counted_rate)
    # with this step size the fixed point needs more than one step per
    # iteration
    k_max = 40
    counts = _accel_run(acc.ORACLE, k_max, 0.05)
    n = steps["accel_step"]
    assert n == steps["fixed_point"] > k_max
    # two values and one gradient per step, one gradient per recorded iterate
    # and f(y0)
    assert counts == {"value": 2 * n + 1, "gradient": n + k_max + 1}


def _public_geometry_calls(monkeypatch, names):
    """Count calls of these public ``Manifold`` methods."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(Manifold, name)

        def counted(*args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(Manifold, name, counted)
    return calls


def test_frechet_mean_makes_no_public_geometry_calls(monkeypatch):
    # value, gradient and Hessian each take one pass of the row kernels
    # over the sample array, never a per-sample public call
    obj = make_frechet_h2(num=50, solve_reference=False)
    x = point_at(obj.manifold, np.random.default_rng(5), obj.domain.center, 0.5)
    calls = _public_geometry_calls(monkeypatch, ("log", "distance", "exp"))
    obj.value(x)
    obj.gradient(x)
    obj.hessian_matrix(x)
    assert calls == {"log": 0, "distance": 0, "exp": 0}


def test_the_steps_make_no_public_geometry_calls(monkeypatch):
    # on an objective whose own methods make none, the steps check their
    # points once and then call only the raw kernels
    obj = make_frechet_h2(num=50, solve_reference=False)
    m = obj.manifold
    x = point_at(m, np.random.default_rng(5), obj.domain.center, 0.5)
    z = point_at(m, np.random.default_rng(6), obj.domain.center, 0.8)
    oracle = GradientDescent(1.0 / obj.metadata.L)
    c = oracle.certificate(obj, BACKWARD).c
    names = ("exp", "log", "norm", "inner", "distance")
    calls = _public_geometry_calls(monkeypatch, names)
    rgd_step(obj, x, oracle.eta)
    proximal_step(obj, x, 1.0)
    cubic_newton_step(obj, x, 1.0, 0.5, rho=1.0)
    acc.accel_step(obj, acc.AccelState(x, x, z), acc.AccelParams(0.5, 0.1, 1.0), oracle.step, c)
    reference_minimize(obj, x)
    assert calls == dict.fromkeys(names, 0)


STEPS = {
    "rgd": lambda obj, x, g: rgd_step(obj, x, 0.1, g),
    "proximal": lambda obj, x, g: proximal_step(obj, x, 1.0, grad=g),
    "cubic": lambda obj, x, g: cubic_newton_step(obj, x, 1.0, 0.5, rho=1.0, grad=g),
    "accel": lambda obj, x, g: acc.accel_step(obj, acc.AccelState(x, x, x),
                                              acc.AccelParams(0.5, 0.1, 1.0),
                                              GradientDescent(0.1).step, 0.05),
    "reference": lambda obj, x, g: reference_minimize(obj, x),
}


@pytest.mark.parametrize("name, bad", [(name, "foreign point") for name in STEPS] + [
    ("rgd", "nan step"), ("proximal", "nan step")] + [
    (name, "gradient elsewhere") for name in ("rgd", "proximal", "cubic")])
def test_the_steps_check_their_inputs(name, bad):
    # a point of H^2 with kappa = 4 has the shape of one with kappa = 1, so
    # without the check the kernels would run on it silently
    obj = make_sqdist_h2()
    x = obj.domain.center
    if bad == "foreign point":
        x = Hyperboloid(2, 4.0).origin()
        grad, error, match = TangentVector(x, [0.0, 0.1, 0.0]), ManifoldMismatchError, "kappa=4"
    elif bad == "nan step":
        grad, error, match = TangentVector(x, [np.nan, 0.0, 0.0]), GeometryError, "non-finite"
    else:
        grad, error, match = obj.gradient(obj.target), BaseMismatchError, "different point"
    with pytest.raises(error, match=match):
        STEPS[name](obj, x, grad)
