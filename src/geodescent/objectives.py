"""Benchmark objectives with exact gradients, Hessians and declared
regularity constants.

Each objective carries an analysis domain (a geodesic ball) on which its
declared constants are valid, and, where available, its exact minimizer.
Evaluation itself only fails where the function is mathematically undefined
(e.g. antipodal sample points on the sphere); leaving the analysis ball is
monitored by the drivers, not punished here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from geodescent.geometry import (
    DomainSpec,
    Euclidean,
    GeometryError,
    Manifold,
    ManifoldPoint,
    Sphere,
    TangentVector,
    comparison,
)

__all__ = [
    "ObjectiveMetadata",
    "KnownSolution",
    "Objective",
    "Quadratic",
    "SquaredDistance",
    "FrechetMean",
    "SphereRayleigh",
    "estimate_hessian_lipschitz",
    "reference_minimize",
    "ReferenceMinimizationError",
]

NONCONVEX = "nonconvex"
G_CONVEX = "g_convex"
STRONGLY_G_CONVEX = "strongly_g_convex"


class ReferenceMinimizationError(ValueError):
    """The reference minimizer did not reach its gradient tolerance, so the
    objective has no minimizer to check against."""


@dataclass(frozen=True)
class ObjectiveMetadata:
    """Declared regularity constants, valid on the objective's domain."""

    convexity_class: str
    L: float | None = None
    mu: float | None = None
    rho: float | None = None

    def __post_init__(self):
        if self.convexity_class not in (NONCONVEX, G_CONVEX, STRONGLY_G_CONVEX):
            raise ValueError(f"unknown convexity class {self.convexity_class!r}")
        if self.convexity_class == STRONGLY_G_CONVEX and not (self.mu and self.mu > 0):
            raise ValueError("strongly g-convex objectives must declare mu > 0")

    @property
    def grad_dom(self) -> tuple[float, float] | None:
        """(tau, p): a mu-strongly g-convex f is (1/(2 mu), 2)-gradient-dominated."""
        return (1.0 / (2.0 * self.mu), 2.0) if self.mu else None


@dataclass(frozen=True)
class KnownSolution:
    x_star: ManifoldPoint
    f_star: float


class Objective:
    """Value / gradient / Hessian interface over one manifold.  The drivers take f
    and grad f's coordinates from ``_evaluate``; ``SquaredDistance`` overrides it to
    get both from one kernel pass, with the floats ``value`` and ``gradient`` give.
    The others keep the default, whose public calls ``bench/tracer.py`` counts."""

    manifold: Manifold
    domain: DomainSpec
    metadata: ObjectiveMetadata
    name: str = "objective"
    known_solution: KnownSolution | None = None

    def value(self, x: ManifoldPoint) -> float:
        raise NotImplementedError

    def gradient(self, x: ManifoldPoint) -> TangentVector:
        raise NotImplementedError

    def _evaluate(self, x: ManifoldPoint) -> tuple[float, np.ndarray]:
        return self.value(x), self.gradient(x).coords

    def hessian_matrix(self, x: ManifoldPoint, basis: np.ndarray) -> np.ndarray:
        """Symmetric Hessian in the coordinates of the rows of ``basis``, an orthonormal
        tangent basis at ``x`` such as ``orthonormal_basis(x)``."""
        raise NotImplementedError

    def _set_solution(self, x_star: ManifoldPoint, f_star: float | None = None):
        gn = self.manifold.norm(x_star, self.gradient(x_star))
        if gn >= 1e-10:
            raise ValueError(f"claimed minimizer has gradient norm {gn:.3e} >= 1e-10")
        if f_star is None:
            f_star = self.value(x_star)
        self.known_solution = KnownSolution(x_star, float(f_star))

    def with_rho(self, rho: float) -> "Objective":
        """Same objective with a declared Hessian-Lipschitz constant."""
        self.metadata = replace(self.metadata, rho=float(rho))
        return self

    def __repr__(self):
        return f"{self.name}[{self.manifold.key}]"


def _dist_sq_L(manifold: Manifold, d: float) -> float:
    """Largest Hessian eigenvalue of 0.5*d(., y)^2 within distance d of y.
    The radial eigenvalue is 1, so positive curvature is clipped to 0: on the
    sphere the bound is 1 even past pi*R, where t*cot(t) is large."""
    return comparison(min(manifold.curvature, 0.0), d)


def _dist_sq_metadata(manifold: Manifold, d_max: float) -> ObjectiveMetadata:
    """Declared constants of a sum of 0.5*d(., y)^2 terms whose y lie within
    d_max of every point of the analysis ball.  mu is the smallest Hessian
    eigenvalue, taken at the curvature clipped at 0, and is declared only
    while sqrt(K)*d_max < pi/2."""
    K = max(manifold.curvature, 0.0)
    mu = comparison(K, d_max) if np.sqrt(K) * d_max < np.pi / 2 else 0.0
    L = _dist_sq_L(manifold, d_max)
    if mu > 0:
        return ObjectiveMetadata(STRONGLY_G_CONVEX, L=L, mu=mu)
    return ObjectiveMetadata(G_CONVEX, L=L)


def _dist_sq_hessian(manifold: Manifold, x: ManifoldPoint, target: ManifoldPoint,
                     basis: np.ndarray, dist_log=None) -> np.ndarray:
    """Hessian matrix of 0.5*d(., target)^2 in the rows of ``basis``, from the
    ``_dist_log`` pass to the target if the caller holds it (``dist_log``).

    Eigenvalue 1 along the geodesic to the target, and the curvature
    comparison value on the orthogonal complement.  Runs on the raw kernels:
    the callers have checked ``x``, ``target`` and ``basis``.
    """
    n = len(basis)
    xc = x.coords
    d, lg = manifold._dist_log(xc, target.coords) if dist_log is None else dist_log
    if d < 1e-14:
        return np.eye(n)
    trans = comparison(manifold.curvature, d)
    lg = manifold._defined(lg)
    u = manifold._inner_rows(xc, basis, lg) / d
    return trans * np.eye(n) + (1.0 - trans) * np.outer(u, u)


class Quadratic(Objective):
    """0.5 * sum_i scales_i * (x_i - b_i)^2 on Euclidean space.

    The isotropic default has L = mu = 1; anisotropic scales give the
    conditioning needed to observe sublinear accelerated rates.
    """

    name = "quadratic"

    def __init__(self, b, scales=None, domain_radius: float = 10.0):
        b = np.asarray(b, dtype=float)
        self.manifold = Euclidean(b.size)
        self.b = b
        self.scales = np.ones(b.size) if scales is None else np.asarray(scales, dtype=float)
        if np.any(self.scales <= 0):
            raise ValueError("quadratic scales must be positive")
        L = float(self.scales.max())
        mu = float(self.scales.min())
        self.metadata = ObjectiveMetadata(STRONGLY_G_CONVEX, L=L, mu=mu, rho=0.0)
        self.domain = DomainSpec(self.manifold.point(b), domain_radius)
        self._set_solution(self.manifold.point(b), 0.0)

    def value(self, x):
        d = x.coords - self.b
        return 0.5 * float(np.dot(self.scales * d, d))

    def gradient(self, x):
        return TangentVector(x, self.scales * (x.coords - self.b))

    def hessian_matrix(self, x, basis):
        return (basis * self.scales) @ basis.T


class SquaredDistance(Objective):
    """0.5 * d(x, target)^2.

    On Hadamard manifolds this is 1-strongly g-convex with gradient
    -log(x, target); the Lipschitz constant comes from the curvature
    comparison bound on the analysis ball.
    """

    name = "squared_distance"

    def __init__(self, manifold: Manifold, target: ManifoldPoint, domain: DomainSpec):
        manifold._own(target)
        self.manifold = manifold
        self.target = target
        self.domain = domain
        d_max = self.domain.radius + manifold.distance(self.domain.center, target)
        self.metadata = _dist_sq_metadata(manifold, d_max)
        self._set_solution(target, 0.0)

    def value(self, x):
        return 0.5 * self.manifold.distance(x, self.target) ** 2

    def gradient(self, x):
        lg = self.manifold.log(x, self.target)
        return TangentVector(x, -lg.coords)

    def _evaluate(self, x):
        self.manifold._own(x)
        d, lg = self.manifold._dist_log(x.coords, self.target.coords)
        return 0.5 * d**2, -self.manifold._defined(lg)

    def hessian_matrix(self, x, basis):
        return _dist_sq_hessian(self.manifold, x, self.target, basis)


class FrechetMean(Objective):
    """(1/2N) * sum_i d(x, y_i)^2 over the rows y_i of an ``(N, ambient_dim)``
    sample array.

    The samples are checked for shape and finiteness and held as a read-only
    copy, ``samples``; they are taken as given, with no point-constraint
    check.  Value, gradient and Hessian at a point share one pass of the
    manifold's row kernel ``_dist_log_rows``, kept for the last
    ``ManifoldPoint`` object evaluated.  Sums over samples run in sample order.
    """

    name = "frechet_mean"

    def __init__(self, manifold: Manifold, samples: np.ndarray, domain: DomainSpec,
                 solve_reference: bool = True):
        samples = np.asarray(samples)
        if samples.ndim != 2 or samples.shape[0] < 1 or samples.shape[1] != manifold.ambient_dim:
            raise GeometryError(f"expected an (N, {manifold.ambient_dim}) sample array with "
                                f"N >= 1, got shape {samples.shape}")
        samples = samples.astype(float)
        if not np.isfinite(samples).all():
            raise GeometryError("non-finite sample coordinates")
        samples.setflags(write=False)
        self.manifold = manifold
        self.samples = samples
        self.domain = domain
        d_max = self.domain.radius + float(
            manifold._dist_log_rows(self.domain.center.coords, self.samples)[0].max()
        )
        self.metadata = _dist_sq_metadata(manifold, d_max)
        if solve_reference:
            x_star = reference_minimize(self, self.domain.center)
            self._set_solution(x_star)

    _last = None  # (x, its pass) for the last point x evaluated

    def _pass_at(self, x: ManifoldPoint):
        """``_dist_log_rows`` from ``x`` to the samples, kept for the last point
        seen: value, gradient and Hessian at one point object share it."""
        last = self._last
        if last is None or last[0] is not x:
            self.manifold._own(x)
            last = self._last = (x, self.manifold._dist_log_rows(x.coords, self.samples))
        return last[1]

    def value(self, x):
        d = self._pass_at(x)[0]
        return float(_sum_rows(0.5 * d**2)) / len(self.samples)

    def gradient(self, x):
        g = -_sum_rows(self.manifold._defined(self._pass_at(x)[1]))
        return TangentVector(x, g / len(self.samples))

    def hessian_matrix(self, x, basis):
        """mean(trans) * I + U^T diag((1 - trans) / N) U, where row i of U
        holds the basis coordinates of the unit direction to sample i and
        trans its transverse eigenvalue; a sample at x contributes I."""
        m = self.manifold
        n = len(self.samples)
        d, lg = self._pass_at(x)
        trans = comparison(m.curvature, d)  # 1 for a sample at x
        d = np.where(d < 1e-14, 1.0, d)
        lg = m._defined(lg)
        U = m._inner_matrix(x.coords, lg, basis) / d[:, None]
        w = (1.0 - trans) / n
        return _sum_rows(trans) / n * np.eye(len(basis)) + (U.T * w) @ U


def _sum_rows(a):
    """Sum over the first axis in row order, as a loop over samples adds."""
    return np.cumsum(a, axis=0)[-1]


class SphereRayleigh(Objective):
    """-0.5 * x^T Q x restricted to the sphere; non-convex, minimized at the
    leading eigenvector."""

    name = "sphere_rayleigh"

    def __init__(self, sphere: Sphere, Q: np.ndarray):
        Q = np.asarray(Q, dtype=float)
        if Q.shape != (sphere.ambient_dim, sphere.ambient_dim):
            raise ValueError("Q must be (n+1) x (n+1) for the embedded sphere")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")
        self.manifold = sphere
        self.Q = Q
        evals, evecs = np.linalg.eigh(Q)
        lam_max = float(evals[-1])
        self.metadata = ObjectiveMetadata(NONCONVEX, L=2.0 * float(np.abs(evals).max()))
        self.domain = DomainSpec(sphere.origin(), 0.99 * np.pi * sphere.radius / 2.0)
        x_star = sphere.point(sphere.radius * evecs[:, -1])
        self._set_solution(x_star, -0.5 * lam_max * sphere.radius**2)

    def value(self, x):
        return -0.5 * float(x.coords @ self.Q @ x.coords)

    def gradient(self, x):
        g = self.manifold._project_tangent(x.coords, -self.Q @ x.coords)
        return TangentVector(x, g)

    def hessian_matrix(self, x, basis):
        shift = float(x.coords @ self.Q @ x.coords) / self.manifold.radius**2
        H = basis @ -self.Q @ basis.T + shift * np.eye(len(basis))
        return 0.5 * (H + H.T)


# the rho estimate's step scale (std dev of the sampled steps' tangent
# coordinates) and floor, which keeps exactly-quadratic objectives usable by the
# cubic step (M > rho/2 > 0); the reference minimizer's gradient tolerance and budget
RHO_STEP_SCALE = 0.5
RHO_FLOOR = 1e-6
REFERENCE_GRAD_TOL = 1e-12
REFERENCE_MAX_ITER = 200_000


def estimate_hessian_lipschitz(obj: Objective, rng: np.random.Generator,
                               n_samples: int = 200) -> float:
    """Numerical Hessian-Lipschitz constant: max third-order defect of the
    second-order model over sampled (x, s), doubled for safety, and at least
    ``RHO_FLOOR``."""
    m = obj.manifold
    center = obj.domain.center
    center_basis = m.orthonormal_basis(center)
    worst = 0.0
    for _ in range(n_samples):
        x = m.exp(center, m._random_tangent(rng, center, 0.4 * obj.domain.radius, center_basis))
        basis = m.orthonormal_basis(x)
        s = m._random_tangent(rng, x, RHO_STEP_SCALE, basis)
        ns = m.norm(x, s)
        if ns < 1e-8:
            continue
        sc = m._inner_rows(x.coords, basis, s.coords)
        H = obj.hessian_matrix(x, basis=basis)
        g = obj.gradient(x)
        model = obj.value(x) + m.inner(x, g, s) + 0.5 * float(sc @ H @ sc)
        defect = abs(obj.value(m.exp(x, s)) - model)
        worst = max(worst, 6.0 * defect / ns**3)
    return max(2.0 * worst, RHO_FLOOR)


def reference_minimize(obj: Objective, x0: ManifoldPoint) -> ManifoldPoint:
    """Plain gradient descent run to gradient norm ``REFERENCE_GRAD_TOL``;
    the reference oracle for minimizers without a closed form.  Raises
    ReferenceMinimizationError if ``REFERENCE_MAX_ITER`` steps do not reach it."""
    m = obj.manifold
    L = obj.metadata.L
    if L is None or L <= 0:
        raise ValueError("reference minimization needs a declared L")
    m._own(x0)
    eta = 1.0 / L
    x = x0
    for _ in range(REFERENCE_MAX_ITER):
        g = obj.gradient(x).coords
        if m._norm(x.coords, g) < REFERENCE_GRAD_TOL:
            return x
        x = m._move(x.coords, -eta * g)
    raise ReferenceMinimizationError(
        f"reference minimization did not reach grad norm {REFERENCE_GRAD_TOL:g} "
        f"in {REFERENCE_MAX_ITER} steps")
