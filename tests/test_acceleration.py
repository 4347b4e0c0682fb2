import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodescent import acceleration as acc
from geodescent.descent import (BACKWARD, FORWARD, CubicNewton, DescentCertificate,
                                GradientDescent, ProximalPoint, default_tolerance)
from geodescent.geometry import (DomainSpec, Euclidean, GeometryError, Hyperboloid,
                                 ManifoldMismatchError, Sphere, TangentVector)
from geodescent.objectives import Quadratic
from helpers import (accel_state, accel_update, make_frechet_h2, make_frechet_sphere,
                     make_sqdist_h2, point_at, xi_solve_bisect)


def _strongly_run(c_target=0.005, k_max=150, x0_dist=0.9, seed=0, **kw):
    obj = make_sqdist_h2()
    m = obj.manifold
    L = obj.metadata.L
    eta = (1.0 - math.sqrt(max(1.0 - 2.0 * L * c_target, 0.0))) / L
    oracle = acc.gradient_oracle(obj, eta)
    x0 = point_at(m, np.random.default_rng(seed), obj.target, x0_dist)
    run = acc.run_accelerated(obj, x0, k_max, acc.STRONGLY, oracle, **kw)
    return obj, run


# ---------------------------------------------------------------------------
# state, params, single updates


def test_params_validation():
    with pytest.raises(ValueError):
        acc.AccelParams(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        acc.AccelParams(1.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        acc.AccelParams(0.5, -1.0, 1.0)
    with pytest.raises(ValueError):
        acc.AccelParams(0.5, 0.0, 0.0)
    acc.AccelParams(1.0, 0.0, 1.0)  # tau = 1 and alpha = 0 are permitted


def test_accel_update_tau_one_moves_to_z():
    obj = make_sqdist_h2()
    m = obj.manifold
    rng = np.random.default_rng(1)
    y = point_at(m, rng, obj.target, 0.8)
    z = point_at(m, rng, obj.target, 0.6)
    state = accel_state(obj, y, y, z)
    new, _ = accel_update(obj, state, acc.AccelParams(1.0, 0.0, 1.0), acc.gradient_oracle(obj))
    assert m.distance(new.x, z) < 1e-9


def test_accel_update_small_tau_stays_at_y():
    obj = make_sqdist_h2()
    m = obj.manifold
    rng = np.random.default_rng(2)
    y = point_at(m, rng, obj.target, 0.8)
    z = point_at(m, rng, obj.target, 0.6)
    state = accel_state(obj, y, y, z)
    new, _ = accel_update(obj, state, acc.AccelParams(1e-12, 0.0, 1.0), acc.gradient_oracle(obj))
    assert m.distance(new.x, y) < 1e-10


def test_accel_update_euclidean_alpha_zero_is_nesterov_dual():
    obj = Quadratic([0.0, 0.0], scales=[1.0, 0.5])
    E = obj.manifold
    y = E.point([1.0, -2.0])
    z = E.point([0.4, 0.3])
    state = accel_state(obj, y, y, z)
    tau, beta = 0.3, 2.0
    new, _ = accel_update(obj, state, acc.AccelParams(tau, 0.0, beta), acc.gradient_oracle(obj))
    x_new = (1 - tau) * y.coords + tau * z.coords
    np.testing.assert_allclose(new.x.coords, x_new, atol=1e-14)
    g = obj.gradient(E.point(x_new)).coords
    np.testing.assert_allclose(new.z.coords, z.coords - g / beta, atol=1e-14)


def test_update_exactness_invariant():
    obj = make_sqdist_h2()
    m = obj.manifold
    rng = np.random.default_rng(3)
    oracle = acc.gradient_oracle(obj)
    for _ in range(30):
        y = point_at(m, rng, obj.target, rng.uniform(0.2, 1.0))
        z = point_at(m, rng, obj.target, rng.uniform(0.2, 1.0))
        params = acc.AccelParams(rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0),
                                 rng.uniform(0.5, 3.0))
        state = accel_state(obj, y, y, z)
        new, _ = accel_update(obj, state, params, oracle)
        resid = (params.alpha + params.beta) * m.log(new.x, new.z).coords \
            + obj.gradient(new.x).coords - params.beta * m.log(new.x, state.z).coords
        assert np.sqrt(max(m._inner(new.x.coords, resid, resid), 0.0)) < 1e-9


def test_oracle_violation_is_fatal():
    # a step that stays put, under a certificate that claims a decrease
    obj = make_sqdist_h2()
    identity = SimpleNamespace(step=lambda o, x, grad: x,
                               certificate=lambda o, d: DescentCertificate(2.0, 0.5, d))
    y = point_at(obj.manifold, np.random.default_rng(4), obj.target, 0.9)
    state = accel_state(obj, y, y, y)
    with pytest.raises(acc.OracleViolationError):
        accel_update(obj, state, acc.AccelParams(0.5, 0.0, 1.0), identity)


def test_proximal_oracle_contract():
    obj = make_sqdist_h2()
    m = obj.manifold
    oracle = ProximalPoint(1.0)
    c = oracle.certificate(obj, BACKWARD).c
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = point_at(m, rng, obj.target, rng.uniform(0.2, 1.2))
        y = oracle.step(obj, x, obj.gradient(x))
        drop = obj.value(y) - obj.value(x)
        assert drop <= -c * m.norm(x, obj.gradient(x)) ** 2 + 1e-10


def test_backward_certificates_of_the_oracles():
    obj = make_sqdist_h2()
    L = obj.metadata.L
    for eta in (0.002, 0.3, 1.0):
        cert = ProximalPoint(eta).certificate(obj, BACKWARD)
        assert (cert.p, cert.direction) == (2.0, BACKWARD)
        assert cert.c == eta / (2 * (1 + L * eta))
    assert ProximalPoint(0.3).certificate(obj).direction == FORWARD
    assert acc.gradient_oracle(obj).certificate(obj, BACKWARD).c == 1.0 / (2.0 * L)
    with pytest.raises(ValueError):
        acc.gradient_oracle(obj).certificate(obj, FORWARD)


def test_cubic_newton_is_not_an_oracle():
    obj = make_sqdist_h2()
    obj.with_rho(2.0)
    x0 = point_at(obj.manifold, np.random.default_rng(8), obj.target, 0.5)
    with pytest.raises(ValueError, match="forward only"):
        acc.run_accelerated(obj, x0, 5, acc.GCONVEX, CubicNewton())


# ---------------------------------------------------------------------------
# schedules


def test_schedule_gconvex_example_k1():
    c = 0.37
    params, sched = acc.schedule_gconvex(1, 1.0, 4.0 / c, 1.0, 1.0, c)
    assert params.tau == pytest.approx(0.8)
    assert sched.A == pytest.approx(3.0)
    assert sched.B == pytest.approx(4.0 / c)
    assert params.alpha == 0.0  # constant B, delta == 1


def test_schedule_gconvex_boundary_k0():
    c = 0.5
    params, sched = acc.schedule_gconvex(0, 0.0, 4.0 / c, 1.0, 1.0, c)
    assert params.tau == 1.0
    assert sched.A == pytest.approx(1.0)


def test_schedule_gconvex_validation():
    with pytest.raises(ValueError):
        acc.schedule_gconvex(1, 1.0, 8.0, 0.9, 1.0, 0.5)
    with pytest.raises(ValueError):
        acc.schedule_gconvex(1, 1.0, 8.0, 1.0, 1.0, -0.1)


def test_xi_solve_fixed_point_and_limits():
    mu, c = 1.0, 0.08
    a = 2 * mu * c
    root = math.sqrt(a)
    assert acc.xi_solve(root, 1.0, mu, c) == pytest.approx(root, abs=1e-15)
    assert acc.xi_solve(0.4, 1e12, mu, c) == pytest.approx(a, abs=1e-6)
    # delta = 2 closed form
    xi = acc.xi_solve(0.4, 2.0, mu, c)
    assert xi == pytest.approx((0.08 + math.sqrt(0.3264)) / 2.0, abs=1e-12)
    assert xi == pytest.approx(0.325657, abs=1e-6)


def test_xi_solve_matches_bisection():
    rng = np.random.default_rng(6)
    for _ in range(200):
        mu = rng.uniform(0.1, 2.0)
        c = rng.uniform(0.01, 0.45) / (2 * mu)
        a = 2 * mu * c
        xi_k = rng.uniform(a, 0.999)
        delta = 1.0 + rng.exponential(1.0)
        closed = acc.xi_solve(xi_k, delta, mu, c)
        bis = xi_solve_bisect(xi_k, delta, mu, c)
        assert closed == pytest.approx(bis, abs=1e-10)


def test_xi_solve_validation():
    with pytest.raises(ValueError):
        acc.xi_solve(0.5, 1.0, 1.0, 0.6)  # 2*mu*c >= 1
    with pytest.raises(ValueError):
        acc.xi_solve(0.05, 1.0, 1.0, 0.08)  # xi below bracket
    with pytest.raises(ValueError):
        acc.xi_solve(0.4, 0.5, 1.0, 0.08)  # delta < 1


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_xi_bracket_preservation_hypothesis(data):
    mu = data.draw(st.floats(0.05, 5.0))
    c = data.draw(st.floats(1e-4, 0.49)) / (2 * mu)
    a = 2 * mu * c
    xi_k = data.draw(st.floats(a, 0.999999, exclude_max=False))
    delta = data.draw(st.floats(1.0, 1e9))
    xi = acc.xi_solve(xi_k, delta, mu, c)
    assert a <= xi < 1.0
    if xi_k <= math.sqrt(a):
        assert xi <= math.sqrt(a) + 1e-12


def test_schedule_strongly_example():
    mu, c = 1.0, 0.08
    params, sched = acc.schedule_strongly(0.4, 1.0, mu, c, 1.0)
    assert params.tau == pytest.approx((0.4 - 0.16) / (1 - 0.16))
    assert params.tau == pytest.approx(0.285714, abs=1e-6)
    assert params.alpha == mu
    assert params.beta == pytest.approx(1.5)
    assert sched.A == pytest.approx(1.0 / 0.6)
    assert sched.B == pytest.approx((0.16 / 0.6) / 0.32)
    assert (sched.delta, sched.xi) == (1.0, 0.4)


def test_schedule_strongly_stores_the_distortion_rate():
    # the delta that produced xi is stored; the coefficients depend on xi alone
    mu, c = 1.0, 0.08
    params, sched = acc.schedule_strongly(0.4, 1.0, mu, c, 1.0)
    params_d, sched_d = acc.schedule_strongly(0.4, 1.0, mu, c, 1.7)
    assert params_d == params
    assert sched_d.delta == 1.7
    assert (sched_d.A, sched_d.B, sched_d.xi) == (sched.A, sched.B, sched.xi)
    with pytest.raises(ValueError):
        acc.schedule_strongly(0.4, 1.0, mu, c, 0.9)


@pytest.mark.parametrize("delta_mode", [acc.ANALYTIC, acc.ORACLE])
def test_strongly_run_records_the_rate_behind_each_xi(delta_mode):
    # each recorded xi is xi_solve's root for the rate stored beside it
    obj = make_frechet_h2(seed=0, num=20, spread=1.0)
    x0 = point_at(obj.manifold, np.random.default_rng(5), obj.domain.center, 1.0)
    run = acc.run_accelerated(obj, x0, 20, acc.STRONGLY, acc.gradient_oracle(obj, 0.05),
                              delta_mode=delta_mode)
    assert max(run.deltas) > 1.0
    for xi_k, s in zip(run.xi_seq, run.schedules):
        assert s.xi == acc.xi_solve(xi_k, s.delta, run.mu, run.c)


def test_schedule_strongly_degenerate_endpoint():
    mu, c = 1.0, 0.08
    with pytest.raises(ValueError):
        acc.schedule_strongly(2 * mu * c, 1.0, mu, c, 1.0)  # beta would be 0
    with pytest.raises(ValueError):
        acc.schedule_strongly(0.4, 1.0, 1.0, 0.6, 1.0)  # c >= 1/(2 mu)


@pytest.mark.parametrize("mu", [0.0, -1.0])
def test_schedule_strongly_rejects_a_nonpositive_mu(mu):
    with pytest.raises(ValueError, match="degenerate schedule"):
        acc.schedule_strongly(0.5, 1.0, mu, 0.1, 1.0)


def test_strongly_run_rejects_c_at_the_bound_before_recording():
    # L = mu = 1, so the oracle eta = 1/L gives c = 1/(2L) = 1/(2*mu)
    obj, calls = Quadratic([0.0, 0.0]), []
    writer = SimpleNamespace(record=lambda *args: calls.append(args))
    x0 = obj.manifold.point([1.0, 0.5])
    with pytest.raises(ValueError, match=r"strongly mode needs c < 1/\(2\*mu\)"):
        acc.run_accelerated(obj, x0, 5, acc.STRONGLY, acc.gradient_oracle(obj), writer=writer)
    assert calls == []


def test_analytic_delta_on_a_sphere_is_refused_before_recording():
    obj, calls = make_frechet_sphere(), []
    writer = SimpleNamespace(record=lambda *args: calls.append(args))
    with pytest.raises(GeometryError, match="Hadamard manifold"):
        acc.run_accelerated(obj, obj.domain.center, 5, acc.GCONVEX, acc.gradient_oracle(obj),
                            writer=writer)
    assert calls == []


def test_a_y0_on_another_manifold_is_refused_before_recording():
    # a point of H^2 with kappa = 4 has the shape of one with kappa = 1
    obj, calls = make_sqdist_h2(), []
    writer = SimpleNamespace(record=lambda *args: calls.append(args))
    y0 = Hyperboloid(2, 4.0).origin()
    with pytest.raises(ManifoldMismatchError, match="kappa=4"):
        acc.run_accelerated(obj, y0, 5, acc.STRONGLY, acc.gradient_oracle(obj), writer=writer)
    assert calls == []


@pytest.mark.parametrize("make_oracle", [lambda obj: acc.gradient_oracle(obj, 0.05),
                                         lambda obj: ProximalPoint(0.5)], ids=["rgd", "proximal"])
def test_recorded_oracle_slacks_are_the_certificate_slacks(make_oracle):
    # step k goes from x_k to y_k: its recorded slack is the oracle
    # certificate's slack between the two evaluations, bit for bit, and the
    # recorded gradient norm is that of y_k
    obj = make_frechet_h2(seed=0, num=20, spread=1.0)
    m = obj.manifold
    x0 = point_at(m, np.random.default_rng(5), obj.domain.center, 1.0)
    oracle = make_oracle(obj)
    run = acc.run_accelerated(obj, x0, 15, acc.STRONGLY, oracle, delta_mode=acc.ORACLE)
    cert = oracle.certificate(obj, BACKWARD)

    def f_gn(p):
        f, g = obj._evaluate(p)
        return f, m._norm(p.coords, g)

    at_y = [f_gn(y) for y in run.trace.iterates]
    assert [gn for _, gn in at_y] == run.trace.grad_norms
    slacks = []
    for x, (f_y, gn_y) in zip(run.xs[1:], at_y[1:]):
        f_x, gn_x = f_gn(x)
        slacks.append(cert.slack(f_x, f_y, gn_x, gn_y))
    assert slacks == run.trace.per_step_violation


# ---------------------------------------------------------------------------
# distortion rates


def test_distortion_analytic_values():
    H = make_sqdist_h2().manifold
    o = H.origin()
    p = H.exp(o, H.tangent(o, [0.0, 1.0, 0.0]))
    assert acc.distortion_rate(H, o, o) == 1.0
    assert acc.distortion_rate(H, o, p) == pytest.approx(1.0 / np.tanh(1.0), abs=1e-6)
    assert acc.distortion_rate(H, o, p) == pytest.approx(1.313035, abs=1e-6)
    E = Euclidean(2)
    assert acc.distortion_rate(E, E.point([0., 0.]), E.point([3., 4.])) == 1.0


def test_distortion_analytic_rejects_sphere():
    S = Sphere(2, 1.0)
    with pytest.raises(Exception):
        acc.distortion_rate(S, S.origin(), S.origin())


def test_realized_distortion_rate_is_definitional():
    # the oracle-delta driver's realized rate: the squared projected distance
    # at the look-ahead x+ over the one recorded at the step's start (x, z)
    obj = make_sqdist_h2()
    m = obj.manifold
    xs = obj.target
    rng = np.random.default_rng(7)
    for _ in range(20):
        xp = point_at(m, rng, obj.target, rng.uniform(0.1, 1.0))
        zp = point_at(m, rng, obj.target, rng.uniform(0.1, 1.0))
        xn = point_at(m, rng, obj.target, rng.uniform(0.1, 1.0))
        prev = acc.energy(0.0, 1.0, obj, accel_state(obj, xp, xp, zp), xs, 0.0)
        d = acc._realized_rate(m, xn, m.log(xn, zp).coords, m.log(xn, xs).coords, prev)
        num = m.projected_distance(xn, zp, xs) ** 2
        den = m.projected_distance(xp, zp, xs) ** 2
        assert d == pytest.approx(max(1.0, num / den))
        assert d >= 1.0
    # z = x* at the start: the ratio's denominator is below its floor
    prev = acc.energy(0.0, 1.0, obj, accel_state(obj, xp, xp, xs), xs, 0.0)
    assert acc._realized_rate(m, xn, m.log(xn, zp).coords, m.log(xn, xs).coords, prev) == 1.0


# ---------------------------------------------------------------------------
# energy


def test_energy_zero_at_solution():
    obj = make_sqdist_h2()
    t = obj.target
    state = accel_state(obj, t, t, t)
    rec = acc.energy(1.0, 1.0, obj, state, t, 0.0)
    assert rec.E == 0.0 and rec.f_gap == 0.0 and rec.dist_term == 0.0
    assert rec.d_xy == 0.0 and rec.d_xz == 0.0


def test_energy_euclidean_dist_term_ignores_base():
    obj = Quadratic([0.0, 0.0])
    E = obj.manifold
    z = E.point([1.0, 2.0])
    xstar = E.point([0.0, 0.0])
    for xc in ([0.0, 0.0], [5.0, -3.0]):
        state = accel_state(obj, E.point(xc), z, z)
        rec = acc.energy(0.0, 1.0, obj, state, xstar, 0.0)
        assert rec.dist_term == pytest.approx(5.0)


def test_energy_arithmetic():
    obj = Quadratic([0.0])
    E = obj.manifold
    y = E.point([1.0])       # f = 0.5, gap = 0.5
    z = E.point([-np.sqrt(2.0)])
    state = accel_state(obj, E.point([0.0]), y, z)
    rec = acc.energy(1.0, 1.0, obj, state, E.point([0.0]), 0.0)
    assert rec.f_gap == pytest.approx(0.5)
    assert rec.dist_term == pytest.approx(2.0)
    assert rec.E == pytest.approx(2.5)


# ---------------------------------------------------------------------------
# full runs


def test_run_accelerated_zero_steps():
    obj, run = _strongly_run(k_max=0)
    assert len(run.trace) == 1
    assert len(run.energies) == 1
    assert run.schedules == []
    assert run.E0 == pytest.approx(run.D0)


def test_run_gconvex_euclidean_quadratic_envelope():
    obj = Quadratic([0.0, 0.0], scales=[1.0, 0.01])
    oracle = acc.gradient_oracle(obj)
    y0 = obj.manifold.point([2.0, 2.0])
    run = acc.run_accelerated(obj, y0, 400, acc.GCONVEX, oracle)
    gaps = np.array(run.trace.values)
    assert all(abs(d - 1.0) < 1e-12 for d in run.deltas)
    for k in range(1, 401):
        assert gaps[k] <= run.E0 / k**2 + 1e-12


def test_run_strongly_product_bound_and_xi():
    obj, run = _strongly_run(k_max=150)
    gaps = np.array(run.trace.values)
    xi = run.xi_seq
    a = 2.0 * run.mu * run.c
    assert run.xi0 == pytest.approx(math.sqrt(a))
    prod = 1.0
    for k in range(1, 151):
        prod *= 1.0 - xi[k]
        assert gaps[k] <= prod * run.E0 + 1e-12
        assert a <= xi[k] <= math.sqrt(a) + 1e-12
    assert run.trace.domain_exit is None


def test_run_strongly_rejects_bad_inputs():
    obj = make_sqdist_h2()
    big_oracle = acc.gradient_oracle(obj)  # c = 1/(2L) may exceed 1/(2 mu)? use xi0 checks
    x0 = point_at(obj.manifold, np.random.default_rng(8), obj.target, 0.5)
    with pytest.raises(ValueError):
        acc.run_accelerated(obj, x0, 5, acc.STRONGLY, big_oracle, xi0=1.5)
    with pytest.raises(ValueError):
        acc.run_accelerated(obj, x0, 5, "middling", big_oracle)
    with pytest.raises(ValueError, match="unknown delta mode 'bogus'"):
        acc.run_accelerated(obj, x0, 5, acc.STRONGLY, big_oracle, delta_mode="bogus")


def test_run_with_proximal_oracle():
    # the generalization beyond gradient steps: drive the scheme with the
    # proximal map and its smoothness-certified constant
    obj = make_sqdist_h2()
    oracle = ProximalPoint(0.002)
    assert oracle.certificate(obj, BACKWARD).c < 1.0 / (2.0 * obj.metadata.mu)
    x0 = point_at(obj.manifold, np.random.default_rng(11), obj.target, 0.9)
    run = acc.run_accelerated(obj, x0, 80, acc.STRONGLY, oracle)
    gaps = np.array(run.trace.values)
    prod = np.cumprod([1.0 - x for x in run.xi_seq[1:]])
    assert np.all(gaps[1:] <= prod * run.E0 + 1e-12)
    assert max(run.trace.per_step_violation) <= 1e-9


def test_oracle_delta_mode_self_consistency():
    obj, run = _strongly_run(k_max=60, delta_mode=acc.ORACLE)
    m = obj.manifold
    xstar = obj.known_solution.x_star
    for k in range(60):
        num = m.projected_distance(run.xs[k + 1], run.zs[k], xstar) ** 2
        den = m.projected_distance(run.xs[k], run.zs[k], xstar) ** 2
        realized = 1.0 if den < 1e-30 else max(1.0, num / den)
        assert run.schedules[k].delta == pytest.approx(realized, rel=1e-9)


def _scripted_rates(monkeypatch, rates):
    """Make the realized distortion rate return ``rates`` in turn; returns
    the list of candidate x+ it was asked about."""
    candidates = []

    def scripted(m, x_new, drift, star_log, prev):
        candidates.append(x_new)
        return rates[len(candidates) - 1]

    monkeypatch.setattr(acc, "_realized_rate", scripted)
    return candidates


def _counted_oracle_steps(monkeypatch):
    """Make the gradient oracle list the points it steps from."""
    calls = []
    step = GradientDescent.step

    def counted(self, obj, x, grad):
        calls.append(x)
        return step(self, obj, x, grad)

    monkeypatch.setattr(GradientDescent, "step", counted)
    return calls


def test_oracle_delta_fixed_point_keeps_the_smallest_gap_when_the_gap_stalls(monkeypatch):
    # the first step uses delta = 1 and each later one the previous rate:
    # relative gaps 0.5, 0.1/1.5, 0.01/1.6, then 0.09/1.61 fails to shrink
    candidates = _scripted_rates(monkeypatch, [1.5, 1.6, 1.61, 1.7, 1.7])
    obj, run = _strongly_run(k_max=1, delta_mode=acc.ORACLE)
    assert len(candidates) == 4
    assert (run.delta_stalled, run.delta_capped) == (1, 0)
    assert run.delta_mismatch == abs(1.61 - 1.6) / 1.6
    assert run.schedules[0].delta == 1.6
    assert run.xs[1] is candidates[2]
    # the same step as a fixed point that converges at delta = 1.6
    _scripted_rates(monkeypatch, [1.6, 1.6])
    _, ref = _strongly_run(k_max=1, delta_mode=acc.ORACLE)
    assert (ref.delta_stalled, ref.delta_capped, ref.delta_mismatch) == (0, 0, 0.0)
    assert run.schedules == ref.schedules
    assert run.energies == ref.energies
    for a, b in [(run.xs[1], ref.xs[1]), (run.zs[1], ref.zs[1]),
                 (run.trace.iterates[1], ref.trace.iterates[1])]:
        assert np.array_equal(a.coords, b.coords)


def test_oracle_delta_fixed_point_counts_the_cap(monkeypatch):
    # gaps 0.1 * 0.9^i / r_{i-1} keep shrinking and stay far above 1e-12
    rates = [2.0 - 0.9 ** (i + 1) for i in range(70)]
    candidates = _scripted_rates(monkeypatch, rates)
    steps = _counted_oracle_steps(monkeypatch)
    _, run = _strongly_run(k_max=1, delta_mode=acc.ORACLE)
    assert len(candidates) == 60
    # the oracle steps once, from the kept candidate
    assert len(steps) == 1 and steps[0] is candidates[59]
    assert (run.delta_stalled, run.delta_capped) == (0, 1)
    assert run.schedules[0].delta == rates[58]
    assert run.xs[1] is candidates[59]


def test_oracle_delta_fixed_point_that_converges_is_neither_stalled_nor_capped(monkeypatch):
    # gap 0.3, then 1e-13 relative: below the 1e-12 target
    r = 1.3 + 1e-13
    candidates = _scripted_rates(monkeypatch, [1.3, r, r])
    _, run = _strongly_run(k_max=1, delta_mode=acc.ORACLE)
    assert len(candidates) == 2
    assert (run.delta_stalled, run.delta_capped) == (0, 0)
    assert run.delta_mismatch == (r - 1.3) / 1.3 <= 1e-12
    assert run.schedules[0].delta == 1.3
    assert run.xs[1] is candidates[1]


def test_accel_gconvex_bound_values():
    assert acc.accel_gconvex_bound(1.0, 0.5, 2.0, 1.0, 1) == 1.0
    assert acc.accel_gconvex_bound(5.0, 0.1, 2.0, 2.0, 10) == pytest.approx(8.05)
    assert acc.accel_gconvex_bound(7.0, 0.1, 2.0, 1.0, 10) == pytest.approx(0.07)
    with pytest.raises(ValueError):
        acc.accel_gconvex_bound(1.0, 0.5, 2.0, 1.0, 0)


# ---------------------------------------------------------------------------
# diagnostics


def test_shrink_diagnostics_envelopes():
    obj, run = _strongly_run(k_max=150)
    rep = acc.shrink_diagnostics(run)
    assert rep.d_xy[0] == 0.0 and rep.d_xz[0] == 0.0
    # the recorded envelope is sqrt(prod(1 - xi_j) * D0), bit for bit
    prod = np.cumprod([1.0] + [1.0 - x for x in run.xi_seq[1:]])
    assert np.array_equal(rep.envelope, np.sqrt(np.maximum(prod * run.D0, 0.0)))
    mask = rep.envelope > 1e-10
    assert np.all(rep.d_y_star[mask] <= rep.envelope_y[mask] + 1e-12)
    assert np.all(rep.proj_z_star[mask] <= rep.envelope_z_proj[mask] + 1e-12)
    assert rep.ratio_slope() <= 0.05


def test_shrink_diagnostics_requires_strongly():
    obj = Quadratic([0.0, 0.0], scales=[1.0, 0.01])
    oracle = acc.gradient_oracle(obj)
    run = acc.run_accelerated(obj, obj.manifold.point([1.0, 1.0]), 10, acc.GCONVEX, oracle)
    with pytest.raises(ValueError):
        acc.shrink_diagnostics(run)


def test_xi_convergence_levels():
    mu, c = 1.0, 0.08
    a = 2 * mu * c
    target = math.sqrt(a)
    # exact fixed point: hit at k = 0
    (first,), _ = acc.xi_convergence_levels([target, target], mu, c, (1e-12,))
    assert first == 0
    # monotone approach from just above the lower bracket end
    xi = a + 1e-3
    seq = [xi]
    for _ in range(200):
        xi = acc.xi_solve(xi, 1.0, mu, c)
        seq.append(xi)
    assert all(b >= a_ for a_, b in zip(seq, seq[1:]))
    (first,), slope = acc.xi_convergence_levels(seq, mu, c, (1e-6,))
    assert first is not None and first <= 200
    assert slope < 0


def test_xi_convergence_levels_count_the_last_entry_into_the_band():
    mu, c = 1.0, 0.08
    target = math.sqrt(2 * mu * c)
    # in the band at k = 0, out at k = 1 and 2, back in from k = 3 on
    seq = [target, target + 0.5, target + 0.1, target + 1e-9, target]
    (first,), _ = acc.xi_convergence_levels(seq, mu, c, (1e-6,))
    assert first == 3
    # a sequence that ends outside the band never settles
    (first,), _ = acc.xi_convergence_levels(seq + [target + 0.5], mu, c, (1e-6,))
    assert first is None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.booleans(), max_size=40))
def test_settles_from_matches_the_suffix_scan(mask):
    # the rule as a scan over every suffix: the first k whose suffix is all true
    mask = np.array(mask, dtype=bool)
    expected = next((k for k in range(mask.size) if mask[k:].all()), None)
    assert acc.settles_from(mask) == expected


def test_h2_run_deltas_and_xi_settle():
    # on a contracting hyperbolic run the iterate spread dies out, so the
    # distortion rates fall back to 1 and xi settles at sqrt(2*mu*c)
    obj, run = _strongly_run(k_max=200)
    a = 2.0 * run.mu * run.c
    target = math.sqrt(a)
    assert run.deltas[-1] == pytest.approx(1.0, abs=1e-6)
    xi = run.xi_seq
    inside = [k for k in range(len(xi)) if all(abs(x - target) <= 1e-3 for x in xi[k:])]
    assert inside and inside[0] <= 150
    assert all(d >= 1.0 for d in run.deltas)


def test_euclidean_accel_log_slope():
    obj = Quadratic([0.0, 0.0], scales=[1.0, 0.01])
    oracle = acc.gradient_oracle(obj)
    run = acc.run_accelerated(obj, obj.manifold.point([2.0, 2.0]), 1000, acc.GCONVEX, oracle)
    gaps = np.array(run.trace.values)
    ks = np.arange(10, 1001)
    slope = np.polyfit(np.log(ks), np.log(gaps[10:1001]), 1)[0]
    assert slope <= -1.9


def test_euclidean_strongly_schedule_reduces_to_classical_rate():
    # flat geometry: delta == 1, xi pinned at sqrt(2*mu*c), linear rate
    obj = Quadratic([0.0, 0.0], scales=[1.0, 0.04])
    eta = 0.5 / obj.metadata.L
    oracle = acc.gradient_oracle(obj, eta)
    a = 2.0 * obj.metadata.mu * oracle.certificate(obj).c
    run = acc.run_accelerated(obj, obj.manifold.point([1.5, 1.5]), 200,
                              acc.STRONGLY, oracle)
    assert all(abs(d - 1.0) < 1e-12 for d in run.deltas)
    xi = run.xi_seq
    assert all(x == pytest.approx(math.sqrt(a), abs=1e-12) for x in xi)
    gaps = np.array(run.trace.values)
    accel_env = (1.0 - math.sqrt(a)) ** np.arange(201) * run.E0
    plain_env = (1.0 - a) ** np.arange(201) * gaps[0]
    mask = accel_env > 1e-13
    assert np.all(gaps[mask] <= accel_env[mask] + 1e-12)
    # the accelerated envelope overtakes the unaccelerated one and stays below
    k = np.argmax(accel_env < plain_env)
    assert 0 < k < 60 and np.all(accel_env[k:] <= plain_env[k:])


# ---------------------------------------------------------------------------
# conjugate bound


def test_conjugate_bound_zero_and_random():
    rng = np.random.default_rng(9)
    assert acc.conjugate_bound_check(np.zeros(3), rng.normal(size=3), 1.3, 2.5)
    for _ in range(500):
        n = rng.integers(1, 5)
        s = rng.normal(size=n)
        u = rng.normal(size=n)
        alpha = rng.normal() * 3
        q = rng.uniform(1.5, 4.0)
        assert acc.conjugate_bound_check(s, u, alpha, q)


def test_conjugate_bound_equality_case():
    rng = np.random.default_rng(10)
    for _ in range(50):
        u = rng.normal(size=3)
        alpha = rng.normal() * 2
        q = rng.uniform(1.5, 4.0)
        nu = np.linalg.norm(u)
        if nu < 1e-8 or abs(alpha) < 1e-8:
            continue
        s_star = (abs(alpha) * nu) ** (1.0 / (q - 1.0)) * (alpha * u) / (abs(alpha) * nu)
        lhs = np.dot(s_star, alpha * u) - np.linalg.norm(s_star) ** q / q
        rhs = (q - 1) / q * abs(alpha) ** (q / (q - 1)) * nu ** (q / (q - 1))
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert acc.conjugate_bound_check(s_star, u, alpha, q)
    with pytest.raises(ValueError):
        acc.conjugate_bound_check([1.0], [1.0], 1.0, 1.0)
