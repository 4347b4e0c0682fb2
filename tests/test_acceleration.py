import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodescent import acceleration as acc
from geodescent.descent import default_tolerance
from geodescent.geometry import DomainSpec, Euclidean, Sphere, TangentVector
from geodescent.objectives import Quadratic
from helpers import make_frechet_h2, make_sqdist_h2, point_at


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


def test_accel_step_tau_one_moves_to_z():
    obj = make_sqdist_h2()
    m = obj.manifold
    rng = np.random.default_rng(1)
    y = point_at(m, rng, obj.target, 0.8)
    z = point_at(m, rng, obj.target, 0.6)
    state = acc.AccelState(x=y, y=y, z=z)
    oracle = acc.gradient_oracle(obj)
    new, _ = acc.accel_step(obj, state, acc.AccelParams(1.0, 0.0, 1.0), oracle, 1e-9)
    assert m.distance(new.x, z) < 1e-9


def test_accel_step_small_tau_stays_at_y():
    obj = make_sqdist_h2()
    m = obj.manifold
    rng = np.random.default_rng(2)
    y = point_at(m, rng, obj.target, 0.8)
    z = point_at(m, rng, obj.target, 0.6)
    state = acc.AccelState(x=y, y=y, z=z)
    oracle = acc.gradient_oracle(obj)
    new, _ = acc.accel_step(obj, state, acc.AccelParams(1e-12, 0.0, 1.0), oracle, 1e-9)
    assert m.distance(new.x, y) < 1e-10


def test_accel_step_euclidean_alpha_zero_is_nesterov_dual():
    obj = Quadratic([0.0, 0.0], scales=[1.0, 0.5])
    E = obj.manifold
    y = E.point([1.0, -2.0])
    z = E.point([0.4, 0.3])
    state = acc.AccelState(x=y, y=y, z=z)
    oracle = acc.gradient_oracle(obj)
    tau, beta = 0.3, 2.0
    new, _ = acc.accel_step(obj, state, acc.AccelParams(tau, 0.0, beta), oracle, 1e-9)
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
        state = acc.AccelState(x=y, y=y, z=z)
        new, _ = acc.accel_step(obj, state, params, oracle, 1e-9)
        resid = (params.alpha + params.beta) * m.log(new.x, new.z).coords \
            + obj.gradient(new.x).coords - params.beta * m.log(new.x, state.z).coords
        assert np.sqrt(max(m._inner(new.x.coords, resid, resid), 0.0)) < 1e-9


def test_oracle_violation_is_fatal():
    obj = make_sqdist_h2()
    lying = acc.DescentOracle(lambda o, x, grad=None: x, c=0.5, label="identity")
    y = point_at(obj.manifold, np.random.default_rng(4), obj.target, 0.9)
    state = acc.AccelState(x=y, y=y, z=y)
    with pytest.raises(acc.OracleViolationError):
        acc.accel_step(obj, state, acc.AccelParams(0.5, 0.0, 1.0), lying, 1e-9)


def test_proximal_oracle_contract():
    obj = make_sqdist_h2()
    m = obj.manifold
    oracle = acc.proximal_oracle(obj, 1.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = point_at(m, rng, obj.target, rng.uniform(0.2, 1.2))
        y = oracle(obj, x)
        drop = obj.value(y) - obj.value(x)
        assert drop <= -oracle.c * m.norm(x, obj.gradient(x)) ** 2 + 1e-10


# ---------------------------------------------------------------------------
# schedules


def test_schedule_gconvex_example_k1():
    c = 0.37
    params, sched = acc.schedule_gconvex(1, 1.0, 4.0 / c, 1.0, 1.0, c)
    assert params.tau == pytest.approx(0.8)
    assert sched.A == pytest.approx(3.0)
    assert sched.A_bar == pytest.approx(2.0)
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
        bis = acc.xi_solve_bisect(xi_k, delta, mu, c)
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
    params, sched = acc.schedule_strongly(0.4, 1.0, mu, c)
    assert params.tau == pytest.approx((0.4 - 0.16) / (1 - 0.16))
    assert params.tau == pytest.approx(0.285714, abs=1e-6)
    assert params.alpha == mu
    assert params.beta == pytest.approx(1.5)
    assert sched.A == pytest.approx(1.0 / 0.6)
    assert sched.B == pytest.approx((0.16 / 0.6) / 0.32)


def test_schedule_strongly_degenerate_endpoint():
    mu, c = 1.0, 0.08
    with pytest.raises(ValueError):
        acc.schedule_strongly(2 * mu * c, 1.0, mu, c)  # beta would be 0
    with pytest.raises(ValueError):
        acc.schedule_strongly(0.4, 1.0, 1.0, 0.6)  # c >= 1/(2 mu)


# ---------------------------------------------------------------------------
# distortion rates


def test_distortion_analytic_values():
    H = make_sqdist_h2().manifold
    o = H.origin()
    p = H.exp(o, H.tangent(o, [0.0, 1.0, 0.0]))
    assert acc.distortion_rate(H, o, o) == 1.0
    assert acc.distortion_rate(H, o, p) == pytest.approx(1.0 / np.tanh(1.0), abs=1e-6)
    assert acc.distortion_rate(H, o, p) == pytest.approx(1.313035, abs=1e-6)
    assert acc.comparison_T(0.0, 5.0) == 1.0  # flat limit
    E = Euclidean(2)
    assert acc.distortion_rate(E, E.point([0., 0.]), E.point([3., 4.])) == 1.0


def test_distortion_analytic_rejects_sphere():
    S = Sphere(2, 1.0)
    with pytest.raises(Exception):
        acc.distortion_rate(S, S.origin(), S.origin())


def test_distortion_oracle_mode_is_definitional():
    obj = make_sqdist_h2()
    m = obj.manifold
    rng = np.random.default_rng(7)
    for _ in range(20):
        xp = point_at(m, rng, obj.target, rng.uniform(0.1, 1.0))
        zp = point_at(m, rng, obj.target, rng.uniform(0.1, 1.0))
        xn = point_at(m, rng, obj.target, rng.uniform(0.1, 1.0))
        xs = obj.target
        d = acc.distortion_rate(m, xp, zp, xn, mode=acc.ORACLE, x_star=xs)
        num = m.projected_distance(xn, zp, xs) ** 2
        den = m.projected_distance(xp, zp, xs) ** 2
        assert d == pytest.approx(max(1.0, num / den))
        assert d >= 1.0
    with pytest.raises(ValueError):
        acc.distortion_rate(m, xp, zp, mode=acc.ORACLE)


# ---------------------------------------------------------------------------
# energy


def test_energy_zero_at_solution():
    obj = make_sqdist_h2()
    t = obj.target
    state = acc.AccelState(x=t, y=t, z=t)
    rec = acc.energy(1.0, 1.0, obj, state, t, 0.0)
    assert rec.E == 0.0 and rec.f_gap == 0.0 and rec.dist_term == 0.0
    assert rec.d_xy == 0.0 and rec.d_xz == 0.0


def test_energy_euclidean_dist_term_ignores_base():
    obj = Quadratic([0.0, 0.0])
    E = obj.manifold
    z = E.point([1.0, 2.0])
    xstar = E.point([0.0, 0.0])
    for xc in ([0.0, 0.0], [5.0, -3.0]):
        state = acc.AccelState(x=E.point(xc), y=z, z=z)
        rec = acc.energy(0.0, 1.0, obj, state, xstar, 0.0)
        assert rec.dist_term == pytest.approx(5.0)


def test_energy_arithmetic():
    obj = Quadratic([0.0])
    E = obj.manifold
    y = E.point([1.0])       # f = 0.5, gap = 0.5
    z = E.point([-np.sqrt(2.0)])
    state = acc.AccelState(x=E.point([0.0]), y=y, z=z)
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


def test_run_with_proximal_oracle():
    # the generalization beyond gradient steps: drive the scheme with the
    # proximal map and its smoothness-certified constant
    obj = make_sqdist_h2()
    oracle = acc.proximal_oracle(obj, 0.002)
    assert oracle.c < 1.0 / (2.0 * obj.metadata.mu)
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
        realized = acc.distortion_rate(m, run.xs[k], run.zs[k], run.xs[k + 1],
                                       mode=acc.ORACLE, x_star=xstar)
        assert run.schedules[k].delta == pytest.approx(realized, rel=1e-9)


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


def test_xi_convergence_report():
    mu, c = 1.0, 0.08
    a = 2 * mu * c
    target = math.sqrt(a)
    # exact fixed point: hit at k = 0
    first, _ = acc.xi_convergence_report([target, target], mu, c, 1e-12)
    assert first == 0
    # monotone approach from just above the lower bracket end
    xi = a + 1e-3
    seq = [xi]
    for _ in range(200):
        xi = acc.xi_solve(xi, 1.0, mu, c)
        seq.append(xi)
    assert all(b >= a_ for a_, b in zip(seq, seq[1:]))
    first, slope = acc.xi_convergence_report(seq, mu, c, 1e-6)
    assert first is not None and first <= 200
    assert slope < 0


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
    a = 2.0 * obj.metadata.mu * oracle.c
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
