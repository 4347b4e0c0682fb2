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
    "grad_check",
    "estimate_hessian_lipschitz",
    "reference_minimize",
]

NONCONVEX = "nonconvex"
G_CONVEX = "g_convex"
STRONGLY_G_CONVEX = "strongly_g_convex"


@dataclass(frozen=True)
class ObjectiveMetadata:
    """Declared regularity constants, valid on the objective's domain."""

    convexity_class: str
    L: float | None = None
    mu: float | None = None
    rho: float | None = None
    grad_dom: tuple[float, float] | None = None  # (tau, p)

    def __post_init__(self):
        if self.convexity_class not in (NONCONVEX, G_CONVEX, STRONGLY_G_CONVEX):
            raise ValueError(f"unknown convexity class {self.convexity_class!r}")
        if self.convexity_class == STRONGLY_G_CONVEX and not (self.mu and self.mu > 0):
            raise ValueError("strongly g-convex objectives must declare mu > 0")


@dataclass(frozen=True)
class KnownSolution:
    x_star: ManifoldPoint
    f_star: float


class Objective:
    """Value / gradient / Hessian interface over one manifold."""

    manifold: Manifold
    domain: DomainSpec
    metadata: ObjectiveMetadata
    name: str = "objective"

    def value(self, x: ManifoldPoint) -> float:
        raise NotImplementedError

    def gradient(self, x: ManifoldPoint) -> TangentVector:
        raise NotImplementedError

    def hessian_matrix(self, x: ManifoldPoint) -> np.ndarray:
        """Hessian in ``orthonormal_basis(x)`` coordinates (symmetric)."""
        raise NotImplementedError

    @property
    def known_solution(self) -> KnownSolution | None:
        return getattr(self, "_known_solution", None)

    def _set_solution(self, x_star: ManifoldPoint, f_star: float | None = None, tol: float = 1e-10):
        gn = self.manifold.norm(x_star, self.gradient(x_star))
        if gn >= tol:
            raise ValueError(f"claimed minimizer has gradient norm {gn:.3e} >= {tol:g}")
        if f_star is None:
            f_star = self.value(x_star)
        self._known_solution = KnownSolution(x_star, float(f_star))

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
    return comparison(min(manifold.curvature_bounds().lower, 0.0), d)


def _dist_sq_metadata(manifold: Manifold, d_max: float) -> ObjectiveMetadata:
    """Declared constants of a sum of 0.5*d(., y)^2 terms whose y lie within
    d_max of every point of the analysis ball.  mu is the smallest Hessian
    eigenvalue, taken at the upper curvature bound clipped at 0, and is
    declared only while sqrt(K)*d_max < pi/2."""
    K = max(manifold.curvature_bounds().upper, 0.0)
    mu = comparison(K, d_max) if np.sqrt(K) * d_max < np.pi / 2 else 0.0
    L = _dist_sq_L(manifold, d_max)
    if mu > 0:
        return ObjectiveMetadata(STRONGLY_G_CONVEX, L=L, mu=mu, grad_dom=(1.0 / (2.0 * mu), 2.0))
    return ObjectiveMetadata(G_CONVEX, L=L)


def _dist_sq_hessian(manifold: Manifold, x: ManifoldPoint, target: ManifoldPoint,
                     basis: list[TangentVector]) -> np.ndarray:
    """Hessian matrix of 0.5*d(., target)^2 in the supplied basis.

    Eigenvalue 1 along the geodesic to the target, and the curvature
    comparison value on the orthogonal complement.  Runs on the raw kernels:
    the callers have checked ``x``, ``target`` and ``basis``.
    """
    n = len(basis)
    xc = x.coords
    d = manifold._distance(xc, target.coords)
    if d < 1e-14:
        return np.eye(n)
    # the manifolds here have constant curvature: lower == upper
    trans = comparison(manifold.curvature_bounds().lower, d)
    lg = manifold._log(xc, target.coords)
    u = np.array([manifold._inner(xc, lg, b.coords) for b in basis]) / d
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
        self.metadata = ObjectiveMetadata(
            STRONGLY_G_CONVEX, L=L, mu=mu, rho=0.0, grad_dom=(1.0 / (2.0 * mu), 2.0)
        )
        self.domain = DomainSpec(self.manifold.point(b), domain_radius)
        self._set_solution(self.manifold.point(b), 0.0)

    def value(self, x):
        d = x.coords - self.b
        return 0.5 * float(np.dot(self.scales * d, d))

    def gradient(self, x):
        return TangentVector(x, self.scales * (x.coords - self.b))

    def hessian_matrix(self, x):
        return np.diag(self.scales)


class SquaredDistance(Objective):
    """0.5 * d(x, target)^2.

    On Hadamard manifolds this is 1-strongly g-convex with gradient
    -log(x, target); the Lipschitz constant comes from the curvature
    comparison bound on the analysis ball.
    """

    name = "squared_distance"

    def __init__(self, manifold: Manifold, target: ManifoldPoint, domain: DomainSpec | None = None,
                 domain_radius: float = 2.0):
        manifold._own(target)
        self.manifold = manifold
        self.target = target
        self.domain = domain if domain is not None else DomainSpec(target, domain_radius)
        d_max = self.domain.radius + manifold.distance(self.domain.center, target)
        self.metadata = _dist_sq_metadata(manifold, d_max)
        self._set_solution(target, 0.0)

    def value(self, x):
        return 0.5 * self.manifold.distance(x, self.target) ** 2

    def gradient(self, x):
        lg = self.manifold.log(x, self.target)
        return TangentVector(x, -lg.coords)

    def hessian_matrix(self, x):
        basis = self.manifold.orthonormal_basis(x)
        return _dist_sq_hessian(self.manifold, x, self.target, basis)


class FrechetMean(Objective):
    """(1/2N) * sum_i d(x, y_i)^2 over fixed sample points.

    The samples are validated once and held as one ``(N, ambient_dim)``
    array, ``samples``, so value, gradient and Hessian each take one pass of
    the manifold's row kernels.  Sums over samples run in sample order.
    """

    name = "frechet_mean"

    def __init__(self, manifold: Manifold, points: list[ManifoldPoint],
                 domain: DomainSpec | None = None, domain_radius: float = 2.0,
                 solve_reference: bool = True):
        if not points:
            raise ValueError("need at least one sample point")
        for p in points:
            manifold._own(p)
        self.manifold = manifold
        self.points = list(points)
        self.samples = np.array([p.coords for p in points])
        self.samples.setflags(write=False)
        center = points[0]
        self.domain = domain if domain is not None else DomainSpec(center, domain_radius)
        d_max = self.domain.radius + float(
            manifold._distance_rows(self.domain.center.coords, self.samples).max()
        )
        self.metadata = _dist_sq_metadata(manifold, d_max)
        if solve_reference:
            x_star = reference_minimize(self, self.domain.center)
            self._set_solution(x_star)

    def value(self, x):
        self.manifold._own(x)
        d = self.manifold._distance_rows(x.coords, self.samples)
        return float(_sum_rows(0.5 * d**2)) / len(self.samples)

    def gradient(self, x):
        self.manifold._own(x)
        g = -_sum_rows(self.manifold._log_rows(x.coords, self.samples))
        return TangentVector(x, g / len(self.samples))

    def hessian_matrix(self, x):
        """mean(trans) * I + U^T diag((1 - trans) / N) U, where row i of U
        holds the basis coordinates of the unit direction to sample i and
        trans its transverse eigenvalue; a sample at x contributes I."""
        m = self.manifold
        basis = m.orthonormal_basis(x)
        n = len(self.samples)
        d = m._distance_rows(x.coords, self.samples)
        trans = comparison(m.curvature_bounds().lower, d)  # 1 for a sample at x
        d = np.where(d < 1e-14, 1.0, d)
        lg = m._log_rows(x.coords, self.samples)
        U = np.stack([m._inner_rows(x.coords, lg, b.coords) for b in basis], axis=1) / d[:, None]
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

    def hessian_matrix(self, x):
        basis = self.manifold.orthonormal_basis(x)
        R2 = self.manifold.radius**2
        shift = float(x.coords @ self.Q @ x.coords) / R2
        n = len(basis)
        H = np.empty((n, n))
        for j, bj in enumerate(basis):
            col = -self.Q @ bj.coords
            for i, bi in enumerate(basis):
                H[i, j] = float(np.dot(bi.coords, col))
        H += shift * np.eye(n)
        return 0.5 * (H + H.T)


def grad_check(obj: Objective, x: ManifoldPoint, h: float = 1e-5) -> float:
    """Max relative error between the analytic gradient and central
    differences of ``f o exp`` over the orthonormal basis directions."""
    if not 1e-7 <= h <= 1e-3:
        raise ValueError("h must lie in [1e-7, 1e-3]")
    m = obj.manifold
    g = obj.gradient(x)
    worst = 0.0
    for e in m.orthonormal_basis(x):
        fp = obj.value(m.exp(x, TangentVector(x, h * e.coords)))
        fm = obj.value(m.exp(x, TangentVector(x, -h * e.coords)))
        fd = (fp - fm) / (2.0 * h)
        ge = m.inner(x, g, e)
        worst = max(worst, abs(fd - ge) / (1.0 + abs(ge)))
    return worst


def estimate_hessian_lipschitz(obj: Objective, rng: np.random.Generator,
                               n_samples: int = 200, step_scale: float = 0.5,
                               floor: float = 1e-6) -> float:
    """Numerical Hessian-Lipschitz constant: max third-order defect of the
    second-order model over sampled (x, s), doubled for safety.

    The floor keeps exactly-quadratic objectives usable by the cubic step
    (which requires M > rho/2 > 0).
    """
    m = obj.manifold
    worst = 0.0
    for _ in range(n_samples):
        x = m.exp(obj.domain.center,
                  m.random_tangent(rng, obj.domain.center, 0.4 * obj.domain.radius))
        s = m.random_tangent(rng, x, step_scale)
        ns = m.norm(x, s)
        if ns < 1e-8:
            continue
        basis = m.orthonormal_basis(x)
        sc = np.array([m.inner(x, s, b) for b in basis])
        H = obj.hessian_matrix(x)
        g = obj.gradient(x)
        model = obj.value(x) + m.inner(x, g, s) + 0.5 * float(sc @ H @ sc)
        defect = abs(obj.value(m.exp(x, s)) - model)
        worst = max(worst, 6.0 * defect / ns**3)
    return max(2.0 * worst, floor)


def reference_minimize(obj: Objective, x0: ManifoldPoint, grad_tol: float = 1e-12,
                       max_iter: int = 200_000) -> ManifoldPoint:
    """Plain gradient descent run to a tiny gradient norm; the reference
    oracle for minimizers without a closed form."""
    m = obj.manifold
    L = obj.metadata.L
    if L is None or L <= 0:
        raise ValueError("reference minimization needs a declared L")
    m._own(x0)
    eta = 1.0 / L
    x = x0
    for _ in range(max_iter):
        g = obj.gradient(x).coords
        if m._norm(x.coords, g) < grad_tol:
            return x
        x = m._move(x.coords, -eta * g)
    raise RuntimeError(f"reference minimization did not reach grad norm {grad_tol:g}")
