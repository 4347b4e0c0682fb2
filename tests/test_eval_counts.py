"""Objective evaluations per iteration of the two drivers, and the public
geometry calls that one Frechet-mean evaluation and each step make: none,
since the steps check their points once and then run on the raw kernels.

The drivers evaluate through the objective's ``_evaluate`` hook, which the
squared distance takes from one ``_dist_log`` pass; they call the public
``value`` and ``gradient`` only through the hook's default, which the
Frechet mean keeps (its two share one row pass).  Each recorded point is
evaluated once: the descent steps reuse the gradient recorded at their
input, the accelerated step evaluates once at x+, hands its oracle that
gradient, and once at y+, whose f and grad f it returns for the driver's
record and energy, and the oracle-delta fixed point keeps the last step it
took.
"""

import numpy as np
import pytest

from geodescent import acceleration as acc
from geodescent.descent import (BACKWARD, CubicNewton, GradientDescent, ProximalPoint,
                                cubic_newton_step, proximal_step, rgd_step, run_descent)
from geodescent.geometry import (BaseMismatchError, GeometryError, Hyperboloid, Manifold,
                                 ManifoldMismatchError, TangentVector)
from geodescent.objectives import estimate_hessian_lipschitz, reference_minimize
from helpers import make_frechet_h2, make_sqdist_h2, point_at

K = 12


def _counting(obj):
    """Count value, gradient and _evaluate calls on this objective instance."""
    counts = {"value": 0, "gradient": 0, "_evaluate": 0}
    for name in counts:
        method = getattr(obj, name)

        def counted(*args, _name=name, _method=method, **kwargs):
            counts[_name] += 1
            return _method(*args, **kwargs)

        setattr(obj, name, counted)
    return counts


def _problem(obj=None):
    obj = make_sqdist_h2() if obj is None else obj
    x0 = point_at(obj.manifold, np.random.default_rng(5), obj.domain.center, 1.0)
    return obj, x0


def _off_geodesic():
    # a Frechet mean: the iterates leave the geodesic through x0 and x*, and
    # the realized distortion rate reaches about 1.007, so the oracle-delta
    # fixed point takes more than one step per iteration.  On the squared
    # distance the iterates stay on that geodesic and the rate is exactly 1
    return _problem(make_frechet_h2(seed=0, num=20, spread=1.0))


def test_rgd_evaluates_value_and_gradient_once_per_iterate():
    obj, x0 = _problem()
    counts = _counting(obj)
    run_descent(GradientDescent(1.0 / obj.metadata.L), obj, x0, K)
    assert counts == {"value": 0, "gradient": 0, "_evaluate": K + 1}


@pytest.mark.parametrize("make_alg", [lambda: ProximalPoint(1.0), lambda: CubicNewton()],
                         ids=["proximal", "cubic"])
def test_step_reuses_the_recorded_gradient(make_alg):
    obj, x0 = _problem()
    obj.with_rho(2.0)
    alg = make_alg()
    counts = _counting(obj)
    trace = run_descent(alg, obj, x0, K)
    in_run = dict(counts)
    # the same steps taken on their own, each evaluating grad f(x_k) itself;
    # in the run, the only gradient calls are the steps' inner ones
    counts.update(value=0, gradient=0)
    for x in trace.iterates[:-1]:
        alg.step(obj, x)
    standalone = counts["gradient"]
    assert in_run["value"] == 0
    assert in_run["_evaluate"] == K + 1
    assert in_run["gradient"] == standalone - K


def _accel_run(delta_mode, k_max, eta, problem=_problem):
    obj, x0 = problem()
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
    # per iteration: f and grad f at x+ and at y+ inside accel_step (the
    # oracle reuses grad f(x+), the record grad f(y+)), plus f and grad f at y0
    assert counts == {"value": 0, "gradient": 0, "_evaluate": 2 * K + 1}


def test_accel_step_hands_the_oracle_its_gradient():
    obj, x0 = _problem()
    oracle = ProximalPoint(1.0)
    c = oracle.certificate(obj, BACKWARD).c
    state = acc.AccelState(x0, x0, point_at(obj.manifold, np.random.default_rng(6), x0, 0.5))
    counts = _counting(obj)
    new_state, _ = acc.accel_step(obj, state, acc.AccelParams(0.5, 0.1, 1.0), oracle.step, c)
    in_step = dict(counts)
    counts.update(gradient=0)
    oracle.step(obj, new_state.x)
    # grad f(x+) once, by _evaluate, for the z-update and the oracle, which
    # on its own takes it with one gradient call; the rest is the oracle's
    # inner loop
    assert in_step["_evaluate"] == 2
    assert in_step["gradient"] == counts["gradient"] - 1


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
    k_max = 40
    counts = _accel_run(acc.ORACLE, k_max, 0.05, _off_geodesic)
    n = steps["accel_step"]
    assert n == steps["fixed_point"] > k_max
    # two evaluations per step, at x+ and y+, and one at y0.  A Frechet mean
    # keeps the default hook, one value and one gradient call sharing one
    # row pass, and the driver makes no other
    assert counts == dict.fromkeys(("value", "gradient", "_evaluate"), 2 * n + 1)


def test_oracle_delta_on_one_geodesic_takes_one_step_and_six_logs_per_iteration(monkeypatch):
    # the squared distance's iterates stay on the geodesic through x0 and x*,
    # where the realized rate is 1 and the fixed point's first step matches.
    # Logs per iteration: log_y(z), f and grad f at x+, the drift log_{x+}(z)
    # and f and grad f at y+ in the step; log_{x+}(x*) for the rate's
    # numerator, which the record's energy reuses with log_{x+}(z+).  The
    # first record takes three
    steps = {"accel_step": 0}
    accel_step = acc.accel_step

    def counted_step(*args, **kwargs):
        steps["accel_step"] += 1
        return accel_step(*args, **kwargs)

    logs = {"passes": 0}
    dist_log = Hyperboloid._dist_log

    def counted_log(*args):
        logs["passes"] += 1
        return dist_log(*args)

    obj, x0 = _problem()
    monkeypatch.setattr(acc, "accel_step", counted_step)
    monkeypatch.setattr(Hyperboloid, "_dist_log", counted_log)
    k_max = 40
    acc.run_accelerated(obj, x0, k_max, acc.STRONGLY, acc.gradient_oracle(obj, 0.05),
                        delta_mode=acc.ORACLE)
    assert steps["accel_step"] == k_max
    assert logs["passes"] == 6 * k_max + 3


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


@pytest.mark.parametrize("delta_mode, eta, problem", [
    (acc.ANALYTIC, 0.005, _problem), (acc.ORACLE, 0.05, _off_geodesic)],
    ids=["analytic", "oracle"])
def test_accelerated_public_log_and_distance_counts(monkeypatch, delta_mode, eta, problem):
    # the distortion rate reads d(x, z) and the oracle ratio's denominator
    # from the energy recorded at (x, z), and its numerator's logs from the
    # step and the driver; the energy takes d_xz, log_x(z) and d_xy from the
    # raw kernels, and log_x(x*) from the public log unless the oracle-delta
    # driver holds it (every record but the first).  The evaluations run on
    # the raw kernels (a squared distance's one _dist_log pass, a Frechet
    # mean's row pass), so D0 and the start point's domain check are the only
    # distances.  The domain monitor checks x, y and z with the row kernel
    # once the run ends, with no public call
    obj, x0 = problem()
    oracle = acc.gradient_oracle(obj, eta)
    steps = {"accel_step": 0}
    accel_step = acc.accel_step

    def counted_step(*args, **kwargs):
        steps["accel_step"] += 1
        return accel_step(*args, **kwargs)

    monkeypatch.setattr(acc, "accel_step", counted_step)
    calls = _public_geometry_calls(monkeypatch, ("log", "distance"))
    k_max = 40
    acc.run_accelerated(obj, x0, k_max, acc.STRONGLY, oracle, delta_mode=delta_mode)
    n = steps["accel_step"]
    star_logs = k_max + 1 if delta_mode == acc.ANALYTIC else 1
    assert calls == {"log": star_logs, "distance": 2}
    assert n > k_max if delta_mode == acc.ORACLE else n == k_max


@pytest.mark.parametrize("problem", [_problem, _off_geodesic], ids=["sqdist", "frechet"])
def test_descent_public_distance_counts(monkeypatch, problem):
    # each iterate's evaluation runs on the raw kernels (a squared distance's
    # one _dist_log pass, a Frechet mean's row pass); the domain monitor makes
    # one, the start point's check, and checks the later iterates with the
    # row kernel once the run ends
    obj, x0 = problem()
    calls = _public_geometry_calls(monkeypatch, ("distance",))
    run_descent(GradientDescent(1.0 / obj.metadata.L), obj, x0, K)
    assert calls == {"distance": 1}


def _counted_hessians(monkeypatch, obj):
    """Count ``hessian_matrix`` calls on this objective instance."""
    hessians = {"calls": 0}
    hessian = obj.hessian_matrix

    def counted(*args, **kwargs):
        hessians["calls"] += 1
        return hessian(*args, **kwargs)

    monkeypatch.setattr(obj, "hessian_matrix", counted)
    return hessians


def test_newton_steps_build_one_basis_per_iteration(monkeypatch):
    # the objective's Hessian is formed in the frame the step already holds,
    # taken by the raw _frame once per iteration, never by the checked
    # public orthonormal_basis
    obj = make_frechet_h2(num=50, solve_reference=False)
    x = point_at(obj.manifold, np.random.default_rng(5), obj.domain.center, 0.5)
    hessians = _counted_hessians(monkeypatch, obj)
    frames = {"calls": 0}
    frame = Hyperboloid._frame

    def counted_frame(*args):
        frames["calls"] += 1
        return frame(*args)

    monkeypatch.setattr(Hyperboloid, "_frame", counted_frame)
    calls = _public_geometry_calls(monkeypatch, ("orthonormal_basis",))
    proximal_step(obj, x, 1.0)
    assert frames["calls"] == hessians["calls"] > 1
    assert calls["orthonormal_basis"] == 0
    frames["calls"] = hessians["calls"] = 0
    cubic_newton_step(obj, x, 1.0, 0.5, rho=1.0)
    assert frames["calls"] == hessians["calls"] == 1
    assert calls["orthonormal_basis"] == 0


def test_proximal_newton_iteration_takes_one_pass_to_the_prox_centre(monkeypatch):
    # each residual test computes d(y, x) and log_y(x) in one pass, and the
    # Newton step's prox-term Hessian reads that pass; a Frechet mean's own
    # value, gradient and Hessian take the row kernel, never _dist_log
    obj = make_frechet_h2(num=50, solve_reference=False)
    x = point_at(obj.manifold, np.random.default_rng(5), obj.domain.center, 0.5)
    hessians = _counted_hessians(monkeypatch, obj)
    passes = {"calls": 0}
    dist_log = Hyperboloid._dist_log

    def counted_pass(*args):
        passes["calls"] += 1
        return dist_log(*args)

    monkeypatch.setattr(Hyperboloid, "_dist_log", counted_pass)
    proximal_step(obj, x, 1.0)
    # one at the start, one per accepted Newton point
    assert passes["calls"] == hessians["calls"] + 1 > 2


def test_frechet_mean_value_gradient_and_hessian_share_one_kernel_pass(monkeypatch):
    obj = make_frechet_h2()
    m = obj.manifold
    calls = {"passes": 0}
    method = m._dist_log_rows

    def counted(*args):
        calls["passes"] += 1
        return method(*args)

    monkeypatch.setattr(m, "_dist_log_rows", counted)
    x, y = (point_at(m, np.random.default_rng(seed), obj.domain.center, 0.5) for seed in (5, 6))
    for p in (x, x, y, x):
        obj.value(p)
        obj.gradient(p)
        obj.hessian_matrix(p)
    assert calls["passes"] == 3


def test_hessian_lipschitz_estimate_builds_one_basis_per_point(monkeypatch):
    # one at the domain's centre, and one at each sampled x for both the
    # step s and the Hessian
    obj = make_sqdist_h2()
    calls = _public_geometry_calls(monkeypatch, ("orthonormal_basis",))
    estimate_hessian_lipschitz(obj, np.random.default_rng(0), n_samples=25)
    assert calls["orthonormal_basis"] == 25 + 1


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
