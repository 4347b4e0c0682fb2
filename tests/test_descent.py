import dataclasses

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
    cubic_sigma_bisect,
    make_frechet_h2,
    make_quadratic,
    make_rayleigh,
    make_sqdist_h2,
    point_at,
    proximal_gradient_reference,
)
from kernel_reference import basis_coords


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
    C_bwd = rate_bound_gconvex(2.0, 0.25, 1.0, 1, BACKWARD)
    C_fwd = rate_bound_gconvex(2.0, 0.25, 1.0, 1, FORWARD)
    assert C_bwd == pytest.approx(4.0)
    assert C_fwd == pytest.approx(8.0)
    assert C_bwd <= C_fwd


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
def test_certificate_slack_is_the_hand_formula(direction):
    # p = 3: the exponent p/(p-1) is 1.5; forward takes the new gradient norm
    gn = 0.3 if direction == FORWARD else 0.8
    slack = DescentCertificate(3.0, 0.2, direction).slack(2.0, 1.5, 0.8, 0.3)
    assert slack == 1.5 - 2.0 + 0.2 * gn**1.5


def _recorded(values, grad_norms, slacks):
    """A trace at the origin of R^1 recorded through ``record`` and ``close``."""
    p = Euclidean(1).point([0.0])
    tr = IterateTrace(DomainSpec(p, 1.0), p)
    for f, gn, slack in zip(values, grad_norms, [None, *slacks]):
        tr.record(p, f, gn, slack)
    return tr.close()


def test_trace_validation():
    with pytest.raises(ValueError):
        _recorded([0.0, np.inf], [0.0, 0.0], [0.0])


@pytest.mark.parametrize("f", [np.nan, -np.inf, np.float64(np.inf), np.float64(np.nan)],
                         ids=["nan", "minus-inf", "float64-inf", "float64-nan"])
def test_trace_close_rejects_each_non_finite_value(f):
    with pytest.raises(ValueError, match="non-finite objective values"):
        _recorded([0.0, 1.0, f], [0.0, 0.0, 0.0], [0.0, 0.0])


def test_trace_close_accepts_extreme_finite_values():
    values = [np.finfo(float).max, -np.finfo(float).max, np.float64(5e-324), -0.0]
    tr = _recorded(values, [0.0] * 4, [0.0] * 3)
    assert tr.values == values and tr.domain_exit is None


# ---------------------------------------------------------------------------
# gradient descent


def test_rgd_one_step_exact_on_quadratic():
    obj = Quadratic([0.0, 0.0])
    x = obj.manifold.point([3.0, 4.0])
    np.testing.assert_allclose(rgd_step(obj, x, 1.0, obj.gradient(x)).coords, [0.0, 0.0],
                               atol=1e-15)


def test_rgd_fixed_point_at_zero_gradient():
    obj = make_sqdist_h2()
    t = obj.target
    out = rgd_step(obj, t, 0.3, obj.gradient(t))
    assert obj.manifold.distance(out, t) < 1e-12


def test_rgd_eta_range():
    obj = Quadratic([0.0, 0.0])
    x = obj.manifold.point([1.0, 0.0])
    with pytest.raises(ValueError):
        rgd_step(obj, x, 2.5, obj.gradient(x))
    with pytest.raises(ValueError):
        rgd_step(obj, x, -0.1, obj.gradient(x))


def test_rgd_eta_range_without_a_declared_L():
    # an undeclared L bounds no step, but eta must still be positive
    obj = make_sqdist_h2()
    obj.metadata = dataclasses.replace(obj.metadata, L=None)
    x = point_at(obj.manifold, np.random.default_rng(4), obj.target, 0.5)
    for eta in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="outside"):
            rgd_step(obj, x, eta, obj.gradient(x))
    assert obj.value(rgd_step(obj, x, 0.1, obj.gradient(x))) < obj.value(x)


def test_rgd_step_on_a_constant_objective():
    # L = 0 bounds no step: the step is taken, not a division by zero
    obj = SphereRayleigh(Sphere(2), np.zeros((3, 3)))
    assert obj.metadata.L == 0.0
    x = obj.manifold.origin()
    assert np.array_equal(rgd_step(obj, x, 1.0, obj.gradient(x)).coords, x.coords)
    with pytest.raises(ValueError):
        rgd_step(obj, x, 0.0, obj.gradient(x))


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
        assert obj.value(rgd_step(obj, x, eta, obj.gradient(x))) <= obj.value(x) - c * g2 + 1e-12


# ---------------------------------------------------------------------------
# proximal point


def test_proximal_closed_form_euclidean():
    obj = Quadratic([0.0, 0.0])
    x = obj.manifold.point([2.0, 0.0])
    out = proximal_step(obj, x, 1.0, obj.gradient(x))
    np.testing.assert_allclose(out.coords, [1.0, 0.0], atol=1e-8)
    # general closed form (x + eta*b) / (1 + eta)
    obj2 = Quadratic([1.0, -2.0])
    x2 = obj2.manifold.point([0.5, 0.5])
    out2 = proximal_step(obj2, x2, 0.7, obj2.gradient(x2))
    np.testing.assert_allclose(out2.coords, (x2.coords + 0.7 * obj2.b) / 1.7, atol=1e-8)


def test_proximal_fixed_point_at_minimizer():
    obj = make_sqdist_h2()
    out = proximal_step(obj, obj.target, 1.0, obj.gradient(obj.target))
    assert obj.manifold.distance(out, obj.target) < 1e-9


def test_proximal_geodesic_contraction_on_h2():
    obj = make_sqdist_h2()
    m = obj.manifold
    rng = np.random.default_rng(1)
    for eta in (0.5, 1.0, 2.0):
        x = point_at(m, rng, obj.target, 1.1)
        out = proximal_step(obj, x, eta, obj.gradient(x))
        d = m.distance(x, obj.target)
        assert m.distance(out, obj.target) == pytest.approx(d / (1 + eta), abs=1e-6)
        # optimality residual
        res = m.log(out, x).coords - eta * obj.gradient(out).coords
        assert np.sqrt(max(m._inner(out.coords, res, res), 0.0)) < 1e-9


def test_proximal_inner_budget_error(monkeypatch):
    # Newton solves the squared distance in one step, a Frechet mean in four
    obj = make_frechet_h2()
    x = point_at(obj.manifold, np.random.default_rng(2), obj.domain.center, 1.0)
    monkeypatch.setattr(descent, "PROX_MAX_INNER", 2)
    with pytest.raises(ProximalSolverError, match="after 2 inner iterations"):
        proximal_step(obj, x, 1.0, obj.gradient(x))


def _prox_hessian_min(obj, y, x, eta):
    """Smallest Hessian eigenvalue at y of f + d(., x)^2 / (2 eta)."""
    m = obj.manifold
    B = m.orthonormal_basis(y)
    H = obj.hessian_matrix(y, B) + _dist_sq_hessian(m, y, x, B) / eta
    return float(np.linalg.eigvalsh(H).min())


def _assert_matches_gradient_reference(obj, x, eta, tol_prox=1e-9):
    # a residual eta*||grad F(y)|| below tol_prox puts y within
    # tol_prox / (eta * mu_F) of the exact proximal point, mu_F the smallest
    # Hessian eigenvalue of F there; so the two answers lie within twice that
    y = proximal_step(obj, x, eta, obj.gradient(x))
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
    monkeypatch.setattr(obj, "hessian_matrix",
                        lambda y, basis: Objective.hessian_matrix(obj, y, basis))
    x = point_at(obj.manifold, np.random.default_rng(2), obj.target, 1.0)
    ref, steps = proximal_gradient_reference(obj, x, 1.0)
    assert steps > 2
    np.testing.assert_array_equal(proximal_step(obj, x, 1.0, obj.gradient(x)).coords,
                                  ref.coords)


# ---------------------------------------------------------------------------
# cubic-regularized Newton


def test_cubic_zero_gradient_psd_returns_zero_step():
    obj = make_sqdist_h2()
    rho = estimate_hessian_lipschitz(obj, np.random.default_rng(3))
    obj.with_rho(rho)
    out, s = cubic_newton_step(obj, obj.target, rho, rho / 2, rho, obj.gradient(obj.target))
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
    out, s = cubic_newton_step(obj, x, M, 0.5, 1.0, obj.gradient(x))
    np.testing.assert_allclose(s.coords, -t * g, atol=1e-10)
    np.testing.assert_allclose(out.coords, x.coords - t * g, atol=1e-10)


def _cubic_models(kind, rng, count):
    """Random cubic models (g, evals, evecs, M) in R^n, n = 1..8: positive
    definite H, indefinite H with g and M large enough that sigma sits well
    above sigma_min (so that M * ||s|| reads sigma out to round-off), or
    positive definite H with small eigenvalues and a gradient so small that
    sigma is near 1e-9, where an absolute tolerance on sigma would not do."""
    for _ in range(count):
        n = int(rng.integers(1, 9))
        evecs = np.linalg.qr(rng.standard_normal((n, n)))[0]
        if kind == "indefinite":
            evals = np.sort(rng.uniform(-5.0, 5.0, n))
            ghat = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.0, n)
            ghat *= 10 ** rng.uniform(0.5, 2)
        elif kind == "pd":
            evals = np.sort(10 ** rng.uniform(-1, 2, n))
            ghat = rng.standard_normal(n) * 10 ** rng.uniform(-3, 3)
        else:
            evals = np.sort(10 ** rng.uniform(-4, 0, n))
            ghat = rng.standard_normal(n) * 1e-12
        M = {"pd": 10 ** rng.uniform(-2, 2), "indefinite": 10 ** rng.uniform(0.5, 2), "tiny": 1.0}
        yield evecs @ ghat, evals, evecs, M[kind]


@pytest.mark.parametrize("kind", ["pd", "indefinite", "tiny"])
def test_cubic_secular_solve_matches_bisection(kind):
    # off the hard case sigma = M * ||s|| solves ||(H + sigma I)^-1 g|| = sigma / M
    rng = np.random.default_rng({"pd": 21, "indefinite": 22, "tiny": 23}[kind])
    for g, evals, evecs, M in _cubic_models(kind, rng, 300):
        s = descent._solve_cubic_model(g, evals, evecs, M)
        sigma = cubic_sigma_bisect(evecs.T @ g, evals, M)
        assert sigma > max(0.0, -evals[0])
        assert M * np.linalg.norm(s) == pytest.approx(sigma, rel=1e-14, abs=0.0)
        if kind == "tiny":
            assert sigma < 1e-7


def test_cubic_secular_solve_hard_case():
    # g orthogonal to the bottom eigenvector and ||(H + sigma_min I)^+ g|| < sigma_min / M:
    # the step is pinned at ||s|| = sigma_min / M and still zeroes the model gradient
    rng = np.random.default_rng(24)
    evecs = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    evals = np.array([-1.0, 2.0, 3.0])
    H = evecs @ np.diag(evals) @ evecs.T
    g = evecs @ np.array([0.0, 0.3, 0.4])
    M = 2.0
    s = descent._solve_cubic_model(g, evals, evecs, M)
    atol = 1e-12 * (1.0 + np.linalg.norm(g) + np.abs(H).max())
    assert np.linalg.norm(s) == pytest.approx(1.0 / M, abs=atol)
    np.testing.assert_allclose(g + H @ s + M * np.linalg.norm(s) * s, 0.0, atol=atol)


def test_cubic_secular_solve_that_does_not_converge_raises():
    # a NaN model never meets the stopping rule: the Newton cap ends it in an error
    with pytest.raises(descent.SubsolverError, match="did not converge"):
        descent._solve_cubic_model(np.ones(2), np.array([1.0, 2.0]), np.eye(2), np.nan)


def test_cubic_acceptance_conditions_reverified():
    obj = make_sqdist_h2()
    rho = estimate_hessian_lipschitz(obj, np.random.default_rng(4))
    obj.with_rho(rho)
    m = obj.manifold
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = point_at(m, rng, obj.target, rng.uniform(0.3, 1.2))
        out, s = cubic_newton_step(obj, x, rho, rho / 2, rho, obj.gradient(x))
        basis = m.orthonormal_basis(x)
        sc = basis_coords(m, x.coords, basis, s.coords)
        g = basis_coords(m, x.coords, basis, obj.gradient(x).coords)
        H = obj.hessian_matrix(x, basis)
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
    out, _ = cubic_newton_step(obj, x, rho, rho / 2, rho, obj.gradient(x))
    gn_new = m.norm(out, obj.gradient(out))
    assert obj.value(out) <= obj.value(x) - c * gn_new**1.5 + 1e-12


def test_cubic_escapes_rayleigh_saddle():
    obj = make_rayleigh()
    rho = estimate_hessian_lipschitz(obj, np.random.default_rng(8))
    obj.with_rho(rho)
    S = obj.manifold
    saddle = S.point([0.0, 0.0, 1.0])  # eigenvector of the smallest eigenvalue
    assert S.norm(saddle, obj.gradient(saddle)) < 1e-12
    out, s = cubic_newton_step(obj, saddle, rho, rho / 2, rho, obj.gradient(saddle))
    assert S.norm(saddle, s) > 1e-3
    assert obj.value(out) < obj.value(saddle)


def test_cubic_theta_fallback_meets_the_theta_condition():
    # near a saddle with a small theta the secular solve's step misses
    # ||grad m(s)|| <= theta ||s||^2, and the gradient loop on the model mends it
    obj = make_rayleigh()
    S = obj.manifold
    v = np.array([1e-9, 1.0, 0.0])
    x = S.point(v / np.linalg.norm(v))
    M, theta = 4.0, 4e-8
    basis = S.orthonormal_basis(x)
    g = basis_coords(S, x.coords, basis, obj.gradient(x).coords)
    H = obj.hessian_matrix(x, basis=basis)
    atol = 1e-12 * (1.0 + np.linalg.norm(g) + np.abs(H).max())

    def model_grad(sc):
        return g + H @ sc + M * np.linalg.norm(sc) * sc

    evals, evecs = np.linalg.eigh(H)
    s0 = descent._solve_cubic_model(g, evals, evecs, M)
    assert np.linalg.norm(model_grad(s0)) > theta * np.dot(s0, s0) + atol

    _, s = cubic_newton_step(obj, x, M, theta, 4.0, obj.gradient(x))
    sc = basis_coords(S, x.coords, basis, s.coords)
    assert np.linalg.norm(model_grad(sc)) <= theta * np.dot(sc, sc) + atol
    assert g @ sc + 0.5 * sc @ H @ sc + M / 3.0 * np.linalg.norm(sc) ** 3 <= 0.0


@pytest.mark.parametrize("alg, field", [(GradientDescent(0.5), "eta"),
                                        (ProximalPoint(0.5), "eta"),
                                        (CubicNewton(), "rho")],
                         ids=["rgd", "proximal", "cubic"])
def test_an_algorithm_holds_its_constants_fixed(alg, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(alg, field, 1.0)


def test_cubic_parameter_validation():
    obj = Quadratic([0.0, 0.0]).with_rho(1.0)
    x = obj.manifold.point([1.0, 0.0])
    with pytest.raises(ValueError):
        cubic_newton_step(obj, x, 0.4, 0.5, 1.0, obj.gradient(x))  # M <= rho/2
    with pytest.raises(ValueError):
        cubic_newton_step(obj, x, 1.0, 0.0, 1.0, obj.gradient(x))


def test_cubic_newton_without_rho_raises_at_both_entry_points():
    # a given M and theta do not stand in for rho: the certificate needs rho itself
    obj = make_sqdist_h2()
    assert obj.metadata.rho is None
    x = point_at(obj.manifold, np.random.default_rng(9), obj.target, 0.5)
    alg = CubicNewton(M=2.0, theta=1.0)
    with pytest.raises(ValueError, match="needs a Hessian-Lipschitz constant rho"):
        alg.certificate(obj)
    with pytest.raises(ValueError, match="needs a Hessian-Lipschitz constant rho"):
        alg.step(obj, x, obj.gradient(x))
    obj.with_rho(1.0)
    assert alg.certificate(obj).c > 0.0
    assert obj.value(alg.step(obj, x, obj.gradient(x))) < obj.value(x)


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
    x0 = m.exp(obj.target, TangentVector(obj.target, 1.2 * u))
    far = m.exp(obj.target, TangentVector(obj.target, 1.35 * u))
    dom = DomainSpec(far, m.distance(far, x0) + 0.05)
    tr = run_descent(GradientDescent(1.0 / obj.metadata.L), obj, x0, 50, dom=dom)
    assert tr.domain_exit is not None
    assert tr.domain_exit >= 1


def test_certify_constant_trace():
    tr = _recorded([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0])
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
    tr = _recorded([0.0], [0.0], [])
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
