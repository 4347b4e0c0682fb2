import numpy as np
import pytest

from geodescent import descent
from geodescent.descent import (
    BACKWARD,
    FORWARD,
    CubicNewton,
    DescentCertificate,
    GradientDescent,
    IterateTrace,
    ProximalPoint,
    ProximalSolverError,
    RateConstants,
    certify,
    cubic_newton_step,
    default_tolerance,
    proximal_step,
    rate_bound_gconvex,
    rate_bound_graddom,
    rate_bound_nonconvex,
    rgd_step,
    run_descent,
)
from geodescent.geometry import DomainSpec, Euclidean, Hyperboloid, Sphere, TangentVector
from geodescent.objectives import (Objective, Quadratic, SphereRayleigh, SquaredDistance,
                                   _dist_sq_hessian, estimate_hessian_lipschitz)
from helpers import (
    make_frechet_h2,
    make_quadratic,
    make_rayleigh,
    make_sqdist_h2,
    point_at,
    proximal_gradient_reference,
)


# ---------------------------------------------------------------------------
# certificates and trace plumbing


def test_certificate_validation():
    with pytest.raises(ValueError):
        DescentCertificate(1.0, 0.1, FORWARD)
    with pytest.raises(ValueError):
        DescentCertificate(2.0, -0.1, FORWARD)
    with pytest.raises(ValueError):
        DescentCertificate(2.0, 0.1, "sideways")
    assert DescentCertificate(2.0, 0.1, FORWARD).exponent == 2.0
    assert DescentCertificate(3.0, 0.1, FORWARD).exponent == pytest.approx(1.5)


def test_rate_constants_ordering():
    rc = RateConstants(2.0, 0.25)
    assert rc.C_bwd == pytest.approx(4.0)
    assert rc.C_fwd == pytest.approx(8.0)
    assert rc.C_bwd <= rc.C_fwd


def test_trace_validation():
    E = Euclidean(1)
    p = E.point([0.0])
    with pytest.raises(ValueError):
        IterateTrace([p, p], [0.0], [0.0, 0.0], [0.0])
    with pytest.raises(ValueError):
        IterateTrace([p, p], [0.0, np.inf], [0.0, 0.0], [0.0])


# ---------------------------------------------------------------------------
# gradient descent


def test_rgd_one_step_exact_on_quadratic():
    obj = Quadratic([0.0, 0.0])
    x = obj.manifold.point([3.0, 4.0])
    np.testing.assert_allclose(rgd_step(obj, x, 1.0).coords, [0.0, 0.0], atol=1e-15)


def test_rgd_fixed_point_at_zero_gradient():
    obj = make_sqdist_h2()
    t = obj.target
    out = rgd_step(obj, t, 0.3)
    assert obj.manifold.distance(out, t) < 1e-12


def test_rgd_eta_range():
    obj = Quadratic([0.0, 0.0])
    with pytest.raises(ValueError):
        rgd_step(obj, obj.manifold.point([1.0, 0.0]), 2.5)
    with pytest.raises(ValueError):
        rgd_step(obj, obj.manifold.point([1.0, 0.0]), -0.1)


def test_rgd_step_on_a_constant_objective():
    # L = 0 bounds no step: the step is taken, not a division by zero
    obj = SphereRayleigh(Sphere(2), np.zeros((3, 3)))
    assert obj.metadata.L == 0.0
    x = obj.manifold.origin()
    assert np.array_equal(rgd_step(obj, x, 1.0).coords, x.coords)
    with pytest.raises(ValueError):
        rgd_step(obj, x, 0.0)


def test_rgd_descent_inequality_on_h2():
    obj = make_sqdist_h2()
    m = obj.manifold
    L = obj.metadata.L
    eta = 0.3 / L
    c = eta * (1 - L * eta / 2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = point_at(m, rng, obj.domain.center, rng.uniform(0.2, 1.2))
        g2 = m.norm(x, obj.gradient(x)) ** 2
        assert obj.value(rgd_step(obj, x, eta)) <= obj.value(x) - c * g2 + 1e-12


# ---------------------------------------------------------------------------
# proximal point


def test_proximal_closed_form_euclidean():
    obj = Quadratic([0.0, 0.0])
    x = obj.manifold.point([2.0, 0.0])
    out = proximal_step(obj, x, 1.0)
    np.testing.assert_allclose(out.coords, [1.0, 0.0], atol=1e-8)
    # general closed form (x + eta*b) / (1 + eta)
    obj2 = Quadratic([1.0, -2.0])
    x2 = obj2.manifold.point([0.5, 0.5])
    out2 = proximal_step(obj2, x2, 0.7)
    np.testing.assert_allclose(out2.coords, (x2.coords + 0.7 * obj2.b) / 1.7, atol=1e-8)


def test_proximal_fixed_point_at_minimizer():
    obj = make_sqdist_h2()
    out = proximal_step(obj, obj.target, 1.0)
    assert obj.manifold.distance(out, obj.target) < 1e-9


def test_proximal_geodesic_contraction_on_h2():
    obj = make_sqdist_h2()
    m = obj.manifold
    rng = np.random.default_rng(1)
    for eta in (0.5, 1.0, 2.0):
        x = point_at(m, rng, obj.target, 1.1)
        out = proximal_step(obj, x, eta)
        d = m.distance(x, obj.target)
        assert m.distance(out, obj.target) == pytest.approx(d / (1 + eta), abs=1e-6)
        # optimality residual
        res = m.log(out, x).coords - eta * obj.gradient(out).coords
        assert np.sqrt(max(m._inner(out.coords, res, res), 0.0)) < 1e-9


def test_proximal_inner_budget_error():
    # Newton solves the squared distance in one step, a Frechet mean in four
    obj = make_frechet_h2()
    x = point_at(obj.manifold, np.random.default_rng(2), obj.domain.center, 1.0)
    with pytest.raises(ProximalSolverError):
        proximal_step(obj, x, 1.0, max_inner=2)


def _prox_hessian_min(obj, y, x, eta):
    """Smallest Hessian eigenvalue at y of f + d(., x)^2 / (2 eta)."""
    m = obj.manifold
    H = obj.hessian_matrix(y) + _dist_sq_hessian(m, y, x, m.orthonormal_basis(y)) / eta
    return float(np.linalg.eigvalsh(H).min())


def _assert_matches_gradient_reference(obj, x, eta, tol_prox=1e-9):
    # a residual eta*||grad F(y)|| below tol_prox puts y within
    # tol_prox / (eta * mu_F) of the exact proximal point, mu_F the smallest
    # Hessian eigenvalue of F there; so the two answers lie within twice that
    y = proximal_step(obj, x, eta, tol_prox)
    ref, _ = proximal_gradient_reference(obj, x, eta, tol_prox)
    bound = 2.0 * tol_prox / (eta * _prox_hessian_min(obj, y, x, eta))
    assert obj.manifold.distance(y, ref) < bound


@pytest.mark.parametrize("make_obj, center, dist, eta", [
    *[(make_sqdist_h2, lambda obj: obj.target, 1.0, eta) for eta in (0.5, 1.0, 4.0)],
    (make_frechet_h2, lambda obj: obj.domain.center, 1.0, 1.0),
    (make_rayleigh, lambda obj: obj.known_solution.x_star, 0.5, 1.0),
], ids=["h2-sqdist-eta0.5", "h2-sqdist-eta1", "h2-sqdist-eta4", "h2-frechet", "s2-rayleigh"])
def test_proximal_newton_matches_gradient_reference(make_obj, center, dist, eta):
    obj = make_obj()
    _assert_matches_gradient_reference(
        obj, point_at(obj.manifold, np.random.default_rng(2), center(obj), dist), eta)


def test_proximal_falls_back_to_gradient_steps(monkeypatch):
    # near the Rayleigh quotient's maximum the subproblem's Hessian is
    # indefinite at first, and later some Newton points raise the residual;
    # both times the inner loop takes the gradient step instead
    obj = make_rayleigh()
    m = obj.manifold
    x, eta = point_at(m, np.random.default_rng(2), obj.domain.center, 0.5), 1.0
    assert _prox_hessian_min(obj, x, x, eta) < 0
    newton = descent._prox_newton_step
    iterates, steps = [], []

    def recorded(obj_, y, *args):
        iterates.append(y)
        steps.append(newton(obj_, y, *args))
        return steps[-1]

    monkeypatch.setattr(descent, "_prox_newton_step", recorded)
    _assert_matches_gradient_reference(obj, x, eta)

    def residual(y):
        return m.norm(y, TangentVector(y, m.log(y, x).coords - eta * obj.gradient(y).coords))

    assert steps[0] is None
    rejected = 0
    for y, s, after in zip(iterates, steps, iterates[1:]):
        if s is None:
            continue
        if np.array_equal(after.coords, m._move(y.coords, s).coords):
            assert residual(after) < residual(y)
        else:
            rejected += 1
    assert rejected


def test_proximal_without_a_hessian_is_the_gradient_reference(monkeypatch):
    # an objective with no hessian_matrix gets only the gradient steps,
    # which are the reference's own, kernel for kernel
    obj = make_sqdist_h2()
    monkeypatch.setattr(obj, "hessian_matrix", lambda y: Objective.hessian_matrix(obj, y))
    x = point_at(obj.manifold, np.random.default_rng(2), obj.target, 1.0)
    ref, steps = proximal_gradient_reference(obj, x, 1.0)
    assert steps > 2
    np.testing.assert_array_equal(proximal_step(obj, x, 1.0).coords, ref.coords)


@pytest.mark.parametrize("tol_prox", [0.0, -1e-9])
def test_proximal_rejects_a_nonpositive_tolerance(tol_prox):
    obj = make_sqdist_h2()
    x = point_at(obj.manifold, np.random.default_rng(2), obj.target, 1.0)
    with pytest.raises(ValueError, match="tol_prox must be positive"):
        proximal_step(obj, x, 1.0, tol_prox=tol_prox)


# ---------------------------------------------------------------------------
# cubic-regularized Newton


def test_cubic_zero_gradient_psd_returns_zero_step():
    obj = make_sqdist_h2()
    rho = estimate_hessian_lipschitz(obj, np.random.default_rng(3))
    obj.with_rho(rho)
    out, s = cubic_newton_step(obj, obj.target, M=rho, theta=rho / 2)
    assert obj.manifold.norm(obj.target, s) == 0.0
    assert obj.manifold.distance(out, obj.target) == 0.0


def test_cubic_secular_equation_against_1d_oracle():
    # on an isotropic quadratic the step solves (1 + M||s||) s = -g,
    # i.e. s = -t*g with t solving t*(1 + M*||g||*t) = 1
    obj = Quadratic([0.0, 0.0]).with_rho(1.0)
    M = 1.0
    x = obj.manifold.point([3.0, -4.0])
    g = obj.gradient(x).coords
    gn = np.linalg.norm(g)
    t = (-1.0 + np.sqrt(1.0 + 4.0 * M * gn)) / (2.0 * M * gn)
    assert t * (1.0 + M * gn * t) == pytest.approx(1.0, abs=1e-14)
    out, s = cubic_newton_step(obj, x, M=M, theta=0.5)
    np.testing.assert_allclose(s.coords, -t * g, atol=1e-10)
    np.testing.assert_allclose(out.coords, x.coords - t * g, atol=1e-10)


def test_cubic_acceptance_conditions_reverified():
    obj = make_sqdist_h2()
    rho = estimate_hessian_lipschitz(obj, np.random.default_rng(4))
    obj.with_rho(rho)
    m = obj.manifold
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = point_at(m, rng, obj.target, rng.uniform(0.3, 1.2))
        out, s = cubic_newton_step(obj, x, M=rho, theta=rho / 2)
        basis = m.orthonormal_basis(x)
        sc = np.array([m.inner(x, s, b) for b in basis])
        g = np.array([m.inner(x, obj.gradient(x), b) for b in basis])
        H = obj.hessian_matrix(x)
        drop = g @ sc + 0.5 * sc @ H @ sc + rho / 3.0 * np.linalg.norm(sc) ** 3
        assert drop <= 1e-10
        grad_model = g + H @ sc + rho * np.linalg.norm(sc) * sc
        assert np.linalg.norm(grad_model) <= rho / 2 * np.dot(sc, sc) + 1e-9


def test_cubic_descent_inequality_p3_on_h2():
    obj = make_sqdist_h2()
    rho = estimate_hessian_lipschitz(obj, np.random.default_rng(6))
    obj.with_rho(rho)
    m = obj.manifold
    c = 1.0 / (12.0 * np.sqrt(2.0) * np.sqrt(rho))
    x = point_at(m, np.random.default_rng(7), obj.target, 1.0)
    out, _ = cubic_newton_step(obj, x, M=rho, theta=rho / 2)
    gn_new = m.norm(out, obj.gradient(out))
    assert obj.value(out) <= obj.value(x) - c * gn_new**1.5 + 1e-12


def test_cubic_escapes_rayleigh_saddle():
    obj = make_rayleigh()
    rho = estimate_hessian_lipschitz(obj, np.random.default_rng(8))
    obj.with_rho(rho)
    S = obj.manifold
    saddle = S.point([0.0, 0.0, 1.0])  # eigenvector of the smallest eigenvalue
    assert S.norm(saddle, obj.gradient(saddle)) < 1e-12
    out, s = cubic_newton_step(obj, saddle, M=rho, theta=rho / 2)
    assert S.norm(saddle, s) > 1e-3
    assert obj.value(out) < obj.value(saddle)


def test_cubic_parameter_validation():
    obj = Quadratic([0.0, 0.0]).with_rho(1.0)
    x = obj.manifold.point([1.0, 0.0])
    with pytest.raises(ValueError):
        cubic_newton_step(obj, x, M=0.4, theta=0.5)  # M <= rho/2
    with pytest.raises(ValueError):
        cubic_newton_step(obj, x, M=1.0, theta=0.0)


# ---------------------------------------------------------------------------
# runner and certification


def test_run_descent_zero_steps():
    obj = make_quadratic()
    tr = run_descent(GradientDescent(1.0), obj, obj.manifold.point([1.0, 1.0]), 0)
    assert len(tr) == 1 and tr.per_step_violation == []


def test_run_descent_converges_in_one_iterate():
    obj = Quadratic([0.0, 0.0])
    tr = run_descent(GradientDescent(1.0), obj, obj.manifold.point([2.0, -1.0]), 3)
    assert tr.values[1] == 0.0
    assert tr.grad_norms[1] == 0.0


def test_run_descent_frechet_converges():
    obj = make_frechet_h2()
    alg = GradientDescent(1.0 / obj.metadata.L)
    x0 = point_at(obj.manifold, np.random.default_rng(9), obj.domain.center, 1.0)
    tr = run_descent(alg, obj, x0, 200)
    assert tr.grad_norms[-1] < 1e-6
    assert tr.domain_exit is None


def test_run_descent_flags_domain_exit():
    obj = make_sqdist_h2()
    m = obj.manifold
    u = m.orthonormal_basis(obj.target)[0]
    # x0 and the monitored ball's center sit on the same ray from the target;
    # descending toward the target walks straight out of the ball
    x0 = m.exp(obj.target, TangentVector(obj.target, 1.2 * u.coords))
    far = m.exp(obj.target, TangentVector(obj.target, 1.35 * u.coords))
    dom = DomainSpec(far, m.distance(far, x0) + 0.05)
    tr = run_descent(GradientDescent(1.0 / obj.metadata.L), obj, x0, 50, dom=dom)
    assert tr.domain_exit is not None
    assert tr.domain_exit >= 1


def test_certify_constant_trace():
    E = Euclidean(1)
    p = E.point([0.0])
    tr = IterateTrace([p, p, p], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0])
    ok, worst = certify(tr, DescentCertificate(2.0, 0.5, BACKWARD), 0.0)
    assert ok and worst == 0.0


def test_certify_rgd_quadratic_and_tightness():
    obj = Quadratic([0.0])
    alg = GradientDescent(1.0)
    x0 = obj.manifold.point([1.0])
    tr = run_descent(alg, obj, x0, 5)
    tol = default_tolerance(tr.values[0])
    ok, _ = certify(tr, alg.certificate(obj), tol)
    assert ok
    # the first step is exactly tight: doubling c must fail
    ok2, worst2 = certify(tr, DescentCertificate(2.0, 1.0, BACKWARD), tol)
    assert not ok2
    assert worst2 == pytest.approx(0.5, abs=1e-12)  # f drop 0.5, claim 1.0*grad^2 = 1


def test_certify_needs_two_iterates():
    E = Euclidean(1)
    tr = IterateTrace([E.point([0.0])], [0.0], [0.0], [])
    with pytest.raises(ValueError):
        certify(tr, DescentCertificate(2.0, 0.5, BACKWARD), 0.0)


@pytest.mark.parametrize("make,algs", [
    (make_quadratic, ("rgd", "prox", "cubic")),
    (make_sqdist_h2, ("rgd", "prox", "cubic")),
    (make_rayleigh, ("rgd", "cubic")),
])
def test_shipped_certificates_short(make, algs):
    obj = make()
    m = obj.manifold
    rng = np.random.default_rng(11)
    x0 = point_at(m, rng, obj.domain.center, 0.5 * obj.domain.radius)
    f0 = obj.value(x0)
    tol = default_tolerance(f0)
    if "cubic" in algs and not obj.metadata.rho:
        obj.with_rho(estimate_hessian_lipschitz(obj, np.random.default_rng(12)))
    for name in algs:
        if name == "rgd":
            alg = GradientDescent(1.0 / obj.metadata.L)
        elif name == "prox":
            alg = ProximalPoint(1.0)
        else:
            alg = CubicNewton()
        tr = run_descent(alg, obj, x0, 40)
        ok, worst = certify(tr, alg.certificate(obj), tol)
        assert ok, f"{name} certificate violated by {worst:.3e} on {obj.name}"


# ---------------------------------------------------------------------------
# rate envelopes


def test_rate_bound_gconvex_substitutions():
    L = 2.0
    assert rate_bound_gconvex(2.0, 1.0 / (2 * L), 1.5, 10, BACKWARD) == \
        pytest.approx(2 * L * 1.5**2 / 10)
    c = 0.3
    assert rate_bound_gconvex(2.0, c, 1.5, 7, FORWARD) == pytest.approx(2 * 1.5**2 / (c * 7))
    rho = 0.8
    c3 = 1.0 / (12 * np.sqrt(2) * np.sqrt(rho))
    assert rate_bound_gconvex(3.0, c3, 2.0, 4, FORWARD) == \
        pytest.approx(36 * 288 * rho * 2.0**3 / 4**2)
    with pytest.raises(ValueError):
        rate_bound_gconvex(2.0, c, 1.0, 0, FORWARD)


def test_rate_bound_nonconvex_substitutions():
    assert rate_bound_nonconvex(0.5, 2.0, 0.0, 10) == 0.0
    assert rate_bound_nonconvex(0.5, 2.0, 2.0, 4) == pytest.approx(np.sqrt(2.0 / (0.5 * 4)))
    with pytest.raises(ValueError):
        rate_bound_nonconvex(0.5, 2.0, -1.0, 1)


def test_rate_bound_graddom_substitutions():
    assert rate_bound_graddom(0.1, 0.2, 0, BACKWARD, 3.0) == 3.0
    assert rate_bound_graddom(0.1, 0.2, 2, BACKWARD, 1.0) == pytest.approx(0.25)
    assert rate_bound_graddom(0.1, 0.2, 2, FORWARD, 1.0) == pytest.approx(1.0 / 1.5**2)
    with pytest.raises(ValueError):
        rate_bound_graddom(0.3, 0.2, 1, BACKWARD, 1.0)


def test_min_grad_envelope_on_rayleigh():
    obj = make_rayleigh()
    alg = GradientDescent(1.0 / obj.metadata.L)
    cert = alg.certificate(obj)
    x0 = point_at(obj.manifold, np.random.default_rng(13), obj.manifold.origin(), 0.7)
    tr = run_descent(alg, obj, x0, 100)
    gap0 = tr.values[0] - obj.known_solution.f_star
    best = np.minimum.accumulate(tr.grad_norms)
    for k in range(1, 101):
        assert best[k] <= rate_bound_nonconvex(cert.c, cert.p, gap0, k) + 1e-12


def test_graddom_envelope_on_sqdist():
    obj = make_sqdist_h2()
    tau = obj.metadata.grad_dom[0]
    x0 = point_at(obj.manifold, np.random.default_rng(14), obj.target, 1.2)

    alg = GradientDescent(1.0 / obj.metadata.L)
    cert = alg.certificate(obj)
    tr = run_descent(alg, obj, x0, 60)
    gap0 = tr.values[0]
    for k in range(1, 61):
        env = rate_bound_graddom(cert.c, tau, k, BACKWARD, gap0)
        if env < 1e-13 * (1 + gap0):
            break
        assert tr.values[k] <= env + default_tolerance(gap0)

    prox = ProximalPoint(1.0)
    certp = prox.certificate(obj)
    trp = run_descent(prox, obj, x0, 40)
    for k in range(1, 41):
        env = rate_bound_graddom(certp.c, tau, k, FORWARD, gap0)
        if env < 1e-13 * (1 + gap0):
            break
        assert trp.values[k] <= env + default_tolerance(gap0)
