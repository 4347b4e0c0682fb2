"""Objective evaluations per iteration of the two drivers.

Each recorded point is evaluated once: the descent steps reuse the gradient
recorded at their input, the accelerated step hands its oracle the gradient
at x+ and returns the f(y+) it computed for the oracle contract, which the
driver records and uses for the energy, and the oracle-delta fixed point
keeps the last step it took.
"""

import numpy as np
import pytest

from geodescent import acceleration as acc
from geodescent.descent import CubicNewton, GradientDescent, ProximalPoint, run_descent
from helpers import make_sqdist_h2, point_at

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


def test_accelerated_analytic_delta_counts():
    counts = _accel_run(acc.ANALYTIC, K, 0.005)
    # per iteration: f and grad at x+ and f(y+) inside accel_step (the
    # oracle reuses grad f(x+)), and grad at y+ for the record
    assert counts["value"] == 2 * K + 1
    assert counts["gradient"] == 2 * K + 1


def test_accel_step_hands_the_oracle_its_gradient():
    obj, x0 = _problem()
    oracle = acc.proximal_oracle(obj, 1.0)
    state = acc.AccelState(x0, x0, point_at(obj.manifold, np.random.default_rng(6), x0, 0.5))
    counts = _counting(obj)
    new_state, _ = acc.accel_step(obj, state, acc.AccelParams(0.5, 0.1, 1.0), oracle)
    in_step = counts["gradient"]
    counts.update(gradient=0)
    oracle(obj, new_state.x)
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
    # with this step size the fixed point needs several iterations per step
    k_max = 40
    counts = _accel_run(acc.ORACLE, k_max, 0.05)
    n = steps["accel_step"]
    assert n == steps["fixed_point"] > 2 * k_max
    # two values and one gradient per step, one gradient per recorded iterate
    # and f(y0)
    assert counts == {"value": 2 * n + 1, "gradient": n + k_max + 1}
