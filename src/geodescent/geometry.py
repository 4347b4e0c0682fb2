"""Closed-form Riemannian geometry for Euclidean space, the sphere and
hyperbolic space (hyperboloid model).

All operations are pure functions of their inputs and every manifold object
is immutable after construction, so instances can be shared freely across
concurrent runs.  Points and tangent vectors live in ambient coordinates;
the hyperboloid uses the Minkowski form ``<x, y> = -x0*y0 + sum_i xi*yi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GeometryError",
    "ManifoldMismatchError",
    "BaseMismatchError",
    "AntipodalPointsError",
    "ManifoldPoint",
    "TangentVector",
    "CurvatureBounds",
    "comparison",
    "DomainSpec",
    "Manifold",
    "Euclidean",
    "Sphere",
    "Hyperboloid",
    "in_domain",
]

POINT_TOL = 1e-10
ANTIPODAL_TOL = 1e-8


class GeometryError(ValueError):
    """Base class for geometry failures."""


class ManifoldMismatchError(GeometryError):
    """Operands live on different manifolds."""


class BaseMismatchError(GeometryError):
    """Tangent vector is based at a different point than required."""


class AntipodalPointsError(GeometryError):
    """Logarithm requested between (nearly) antipodal sphere points."""


@dataclass(frozen=True)
class ManifoldPoint:
    """A point on a manifold, stored in ambient coordinates."""

    manifold: "Manifold"
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))
        self.coords.setflags(write=False)

    def __repr__(self):
        return f"ManifoldPoint({self.manifold.key}, {np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector attached to a base point."""

    base: ManifoldPoint
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))
        self.coords.setflags(write=False)

    @property
    def manifold(self) -> "Manifold":
        return self.base.manifold

    def __repr__(self):
        return f"TangentVector(base={np.array2string(self.base.coords, precision=6)}, coords={np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True)
class CurvatureBounds:
    """Sectional curvature bounds, units 1/length^2."""

    lower: float
    upper: float
    is_hadamard: bool

    def __post_init__(self):
        if self.lower > self.upper:
            raise GeometryError("curvature lower bound exceeds upper bound")
        if self.is_hadamard and self.upper > 0:
            raise GeometryError("Hadamard manifolds have nonpositive curvature")


def comparison(K: float, d):
    """Hessian comparison value of 0.5*d(., y)^2 at distance ``d`` from y (a
    number or an array) under constant curvature ``K``: with t = sqrt(|K|)*d,
    t*coth(t) for K < 0 (never below 1, which it can round under), t*cot(t)
    for K > 0, and 1 for K = 0 or t < 1e-8.  It is the Hessian's eigenvalue
    across the geodesic to y (along it, 1); at a lower curvature bound it
    bounds that eigenvalue above, at an upper one below.  It is also the
    analytic distortion rate of the accelerated scheme.  On a number it keeps
    numpy's tanh and tan, whose last bits math's can differ in, but skips the
    0-d array path around them."""
    if isinstance(d, (int, float)):
        t = math.sqrt(abs(K)) * d
        if t < 1e-8 or K == 0:
            return 1.0
        return float(max(t / np.tanh(t), 1.0) if K < 0 else t / np.tan(t))
    t = np.sqrt(abs(K)) * np.asarray(d, dtype=float)
    flat = t < 1e-8
    t = np.where(flat, 1.0, t)  # keeps the divisions below finite
    if K < 0:
        c = np.maximum(t / np.tanh(t), 1.0)
    else:
        c = t / np.tan(t) if K > 0 else 1.0
    c = np.where(flat, 1.0, c)
    return c if c.ndim else float(c)


@dataclass(frozen=True)
class DomainSpec:
    """A closed geodesic ball; the set the iterates are expected to stay in."""

    center: ManifoldPoint
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise GeometryError("domain radius must be nonnegative")
        m = self.center.manifold
        if isinstance(m, Sphere) and self.diameter >= np.pi * m.radius:
            raise GeometryError(
                "sphere domain diameter must stay below pi*R for geodesic uniqueness"
            )

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius


class Manifold:
    """Interface shared by the concrete geometries.

    Subclasses provide ``_inner``, ``_exp``, ``_log``, ``_transport``,
    ``_distance``, ``_project_tangent`` and validity checks on raw coordinate
    arrays; ``_norm`` and ``_move`` build on them.  ``_exp`` returns the
    point projected back onto the manifold.  The public methods check that
    their operands belong here and share a base point, then call these
    kernels; the descent loops check their inputs once and call the kernels
    directly, stepping through ``_move``, which keeps the finiteness check.

    The row kernels ``_inner_rows``, ``_distance_rows``, ``_log_rows`` and
    ``_exp_rows`` apply the same formulas to every row of an
    ``(N, ambient_dim)`` array at once, for objectives that sum over many
    samples.  They take unvalidated raw arrays, like the scalar kernels.
    """

    dim: int
    ambient_dim: int
    key: str

    # -- construction -----------------------------------------------------

    def point(self, coords) -> ManifoldPoint:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.ambient_dim,):
            raise GeometryError(
                f"expected {self.ambient_dim} ambient coordinates, got shape {coords.shape}"
            )
        if not np.all(np.isfinite(coords)):
            raise GeometryError("non-finite point coordinates")
        p = ManifoldPoint(self, coords)
        self.check_point(p)
        return p

    def tangent(self, base: ManifoldPoint, coords) -> TangentVector:
        self._own(base)
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.ambient_dim,):
            raise GeometryError(
                f"expected {self.ambient_dim} ambient coordinates, got shape {coords.shape}"
            )
        if not np.all(np.isfinite(coords)):
            raise GeometryError("non-finite tangent coordinates")
        v = TangentVector(base, coords)
        self.check_tangent(v)
        return v

    def zero_tangent(self, base: ManifoldPoint) -> TangentVector:
        return TangentVector(base, np.zeros(self.ambient_dim))

    # -- validation --------------------------------------------------------

    def check_point(self, x: ManifoldPoint, tol: float = POINT_TOL):
        err = self._point_defect(x.coords)
        if err > tol:
            raise GeometryError(f"point violates {self.key} constraint by {err:.3e}")

    def check_tangent(self, v: TangentVector, tol: float = POINT_TOL):
        err = self._tangent_defect(v.base.coords, v.coords)
        # absolute at unit scale, relative for large vectors / far points
        scale = 1.0 + float(np.linalg.norm(v.base.coords) * np.linalg.norm(v.coords))
        if err > tol * scale:
            raise GeometryError(f"tangent violates {self.key} constraint by {err:.3e}")

    def _own(self, x: ManifoldPoint):
        if x.manifold is not self and x.manifold.key != self.key:
            raise ManifoldMismatchError(
                f"point belongs to {x.manifold.key}, expected {self.key}"
            )

    def _same_base(self, x: ManifoldPoint, v: TangentVector):
        self._own(x)
        if v.base is x:
            return
        self._own(v.base)
        if not np.array_equal(x.coords, v.base.coords):
            raise BaseMismatchError("tangent vector is based at a different point")

    # -- metric ------------------------------------------------------------

    def inner(self, x: ManifoldPoint, v: TangentVector, w: TangentVector) -> float:
        self._same_base(x, v)
        self._same_base(x, w)
        return self._inner(x.coords, v.coords, w.coords)

    def norm(self, x: ManifoldPoint, v: TangentVector) -> float:
        self._same_base(x, v)
        return self._norm(x.coords, v.coords)

    # -- exponential / logarithm -------------------------------------------

    def exp(self, x: ManifoldPoint, v: TangentVector) -> ManifoldPoint:
        self._same_base(x, v)
        return self._move(x.coords, v.coords)

    def log(self, x: ManifoldPoint, y: ManifoldPoint) -> TangentVector:
        self._own(x)
        self._own(y)
        return TangentVector(x, self._log(x.coords, y.coords))

    def distance(self, x: ManifoldPoint, y: ManifoldPoint) -> float:
        self._own(x)
        self._own(y)
        return self._distance(x.coords, y.coords)

    def transport(self, x: ManifoldPoint, y: ManifoldPoint, v: TangentVector) -> TangentVector:
        """Parallel transport of ``v`` along the geodesic from ``x`` to ``y``."""
        self._same_base(x, v)
        self._own(y)
        return TangentVector(y, self._transport(x.coords, y.coords, v.coords))

    def projected_distance(self, x: ManifoldPoint, w: ManifoldPoint, v: ManifoldPoint) -> float:
        """Norm of ``log(x, w) - log(x, v)``, the tangent-space surrogate of d(w, v)."""
        lw = self.log(x, w)
        lv = self.log(x, v)
        return self._norm(x.coords, lw.coords - lv.coords)

    # -- bases and sampling --------------------------------------------------

    def orthonormal_basis(self, x: ManifoldPoint) -> list[TangentVector]:
        """Deterministic orthonormal tangent basis at ``x`` (Gram-Schmidt of the
        ambient basis projected to the tangent space)."""
        self._own(x)
        basis = []
        for i in range(self.ambient_dim):
            e = np.zeros(self.ambient_dim)
            e[i] = 1.0
            u = self._project_tangent(x.coords, e)
            for b in basis:
                u = u - self._inner(x.coords, u, b) * b
            nrm = self._norm(x.coords, u)
            if nrm > 1e-8:
                basis.append(u / nrm)
            if len(basis) == self.dim:
                break
        return [TangentVector(x, b) for b in basis]

    def random_point(self, rng: np.random.Generator, scale: float = 1.0) -> ManifoldPoint:
        """Point at exp of a Gaussian tangent vector from the origin (scale =
        std dev of the tangent coordinates)."""
        o = self.origin()
        v = self.random_tangent(rng, o, scale)
        return self.exp(o, v)

    def random_tangent(self, rng: np.random.Generator, x: ManifoldPoint, scale: float = 1.0) -> TangentVector:
        basis = self.orthonormal_basis(x)
        coeff = rng.normal(0.0, scale, size=self.dim)
        coords = sum(c * b.coords for c, b in zip(coeff, basis))
        return TangentVector(x, self._project_tangent(x.coords, coords))

    def origin(self) -> ManifoldPoint:
        raise NotImplementedError

    def curvature_bounds(self) -> CurvatureBounds:
        raise NotImplementedError

    # -- hooks ---------------------------------------------------------------

    def _inner(self, x, v, w) -> float:
        raise NotImplementedError

    def _norm(self, x, v) -> float:
        return float(np.sqrt(max(self._inner(x, v, v), 0.0)))

    def _move(self, x, v) -> ManifoldPoint:
        """The point ``_exp(x, v)`` for a finite ``v``."""
        if not np.all(np.isfinite(v)):
            raise GeometryError("non-finite tangent coordinates")
        return ManifoldPoint(self, self._exp(x, v))

    def _exp(self, x, v):
        raise NotImplementedError

    def _log(self, x, y):
        raise NotImplementedError

    def _distance(self, x, y) -> float:
        raise NotImplementedError

    def _transport(self, x, y, v):
        raise NotImplementedError

    def _inner_rows(self, x, V, w):
        """Metric inner product at ``x`` of each row of ``V`` with ``w``
        (one vector, or one row per row of ``V``)."""
        return V @ w if w.ndim == 1 else np.einsum("ij,ij->i", V, w)

    def _distance_rows(self, x, Y):
        """``_distance(x, y)`` for each row ``y`` of ``Y``."""
        raise NotImplementedError

    def _log_rows(self, x, Y):
        """``_log(x, y)`` for each row ``y`` of ``Y``."""
        raise NotImplementedError

    def _exp_rows(self, x, V):
        """``_exp(x, v)`` for each row ``v`` of ``V``."""
        raise NotImplementedError

    def _project_tangent(self, x, v):
        raise NotImplementedError

    def _point_defect(self, x) -> float:
        raise NotImplementedError

    def _tangent_defect(self, x, v) -> float:
        raise NotImplementedError

    def __repr__(self):
        return self.key


def _ratio(num, den):
    """``num / den`` per row, and 0 where ``den`` is below 1e-300: the
    zero-norm branch of the scalar kernels."""
    return np.divide(num, den, out=np.zeros_like(den), where=den >= 1e-300)


def _dimension(n: int) -> int:
    if n < 1:
        raise GeometryError(f"dimension must be at least 1, got {n!r}")
    return n


class Euclidean(Manifold):
    """Flat space; exp/log/transport are +, - and the identity."""

    def __init__(self, n: int):
        self.dim = _dimension(n)
        self.ambient_dim = n
        self.key = f"euclidean(n={n})"

    def origin(self):
        return ManifoldPoint(self, np.zeros(self.dim))

    def curvature_bounds(self):
        return CurvatureBounds(0.0, 0.0, True)

    def _inner(self, x, v, w):
        return float(np.dot(v, w))

    def _exp(self, x, v):
        return x + v

    def _log(self, x, y):
        return y - x

    def _distance(self, x, y):
        return float(np.linalg.norm(y - x))

    def _transport(self, x, y, v):
        return v.copy()

    def _distance_rows(self, x, Y):
        D = Y - x
        return np.sqrt(self._inner_rows(x, D, D))

    def _log_rows(self, x, Y):
        return Y - x

    def _exp_rows(self, x, V):
        return x + V

    def _project_tangent(self, x, v):
        return v

    def _point_defect(self, x):
        return 0.0

    def _tangent_defect(self, x, v):
        return 0.0


class Sphere(Manifold):
    """Sphere of radius R embedded in R^{n+1}; sectional curvature 1/R^2."""

    def __init__(self, n: int, radius: float = 1.0):
        if not (math.isfinite(radius) and radius > 0):
            raise GeometryError("sphere radius must be positive and finite")
        self.dim = _dimension(n)
        self.ambient_dim = n + 1
        self.radius = float(radius)
        self.key = f"sphere(n={n},R={radius:g})"

    def origin(self):
        c = np.zeros(self.ambient_dim)
        c[-1] = self.radius
        return ManifoldPoint(self, c)

    def curvature_bounds(self):
        k = 1.0 / self.radius**2
        return CurvatureBounds(k, k, False)

    def _inner(self, x, v, w):
        return float(np.dot(v, w))

    def _exp(self, x, v):
        R = self.radius
        nv = np.linalg.norm(v)
        t = nv / R
        out = x if nv < 1e-300 else np.cos(t) * x + np.sin(t) * (R / nv) * v
        # rescale to radius R to kill drift
        return R * out / np.linalg.norm(out)

    def _log(self, x, y):
        R = self.radius
        c = np.dot(x, y) / R**2
        if c < -1.0 + ANTIPODAL_TOL:
            raise AntipodalPointsError(
                "logarithm undefined within tolerance of the antipode"
            )
        w = y - c * x
        nw = np.linalg.norm(w)
        if nw < 1e-300:
            return np.zeros_like(x)
        # atan2 keeps full precision at both ends of the arc
        theta = np.arctan2(nw / R, c)
        return (R * theta / nw) * w

    def _distance(self, x, y):
        c = np.dot(x, y) / self.radius**2
        w = y - c * x
        return float(self.radius * np.arctan2(np.linalg.norm(w) / self.radius, c))

    def _cos_rows(self, x, Y):
        """Cosine of the angle to each row of ``Y`` and the part of the row
        orthogonal to ``x``, with its norm."""
        c = self._inner_rows(x, Y, x) / self.radius**2
        W = Y - c[:, None] * x
        return c, W, np.sqrt(self._inner_rows(x, W, W))

    def _distance_rows(self, x, Y):
        c, _, nw = self._cos_rows(x, Y)
        return self.radius * np.arctan2(nw / self.radius, c)

    def _log_rows(self, x, Y):
        R = self.radius
        c, W, nw = self._cos_rows(x, Y)
        if np.any(c < -1.0 + ANTIPODAL_TOL):
            raise AntipodalPointsError(
                "logarithm undefined within tolerance of the antipode"
            )
        theta = np.arctan2(nw / R, c)
        return _ratio(R * theta, nw)[:, None] * W

    def _exp_rows(self, x, V):
        R = self.radius
        nv = np.sqrt(self._inner_rows(x, V, V))
        t = nv / R
        out = np.cos(t)[:, None] * x + (np.sin(t) * _ratio(R, nv))[:, None] * V
        return R * out / np.sqrt(self._inner_rows(x, out, out))[:, None]

    def _transport(self, x, y, v):
        lg = self._log(x, y)
        d = np.linalg.norm(lg)
        if d < 1e-300:
            return self._project_tangent(y, v)
        u = lg / d
        theta = d / self.radius
        a = np.dot(v, u)
        u_y = np.cos(theta) * u - np.sin(theta) * x / self.radius
        out = (v - a * u) + a * u_y
        return self._project_tangent(y, out)

    def _project_tangent(self, x, v):
        return v - (np.dot(x, v) / self.radius**2) * x

    def _point_defect(self, x):
        return abs(np.linalg.norm(x) - self.radius)

    def _tangent_defect(self, x, v):
        return abs(np.dot(x, v)) / self.radius


class Hyperboloid(Manifold):
    """Hyperboloid (Lorentz) model of hyperbolic space with sectional
    curvature ``-kappa``.

    Points satisfy ``<x, x>_L = -1/kappa`` with ``x[0] > 0`` where ``<.,.>_L``
    is the Minkowski form; the Riemannian metric is its restriction to
    tangent spaces, where it is positive definite.
    """

    def __init__(self, n: int, kappa: float = 1.0):
        if not (math.isfinite(kappa) and kappa > 0):
            raise GeometryError("kappa must be positive and finite (curvature is -kappa)")
        self.dim = _dimension(n)
        self.ambient_dim = n + 1
        self.kappa = float(kappa)
        self.key = f"hyperboloid(n={n},kappa={kappa:g})"
        # the Minkowski form as a diagonal metric, for the row kernels
        self._signature = np.ones(self.ambient_dim)
        self._signature[0] = -1.0
        self._signature.setflags(write=False)

    def origin(self):
        c = np.zeros(self.ambient_dim)
        c[0] = 1.0 / np.sqrt(self.kappa)
        return ManifoldPoint(self, c)

    def curvature_bounds(self):
        return CurvatureBounds(-self.kappa, -self.kappa, True)

    @staticmethod
    def minkowski(u, v) -> float:
        return float(-u[0] * v[0] + np.dot(u[1:], v[1:]))

    def _inner(self, x, v, w):
        return self.minkowski(v, w)

    def _inner_rows(self, x, V, w):
        return super()._inner_rows(x, V, w * self._signature)

    def _exp(self, x, v):
        sk = np.sqrt(self.kappa)
        nv = self._norm(x, v)
        t = sk * nv
        out = x.copy() if nv < 1e-300 else np.cosh(t) * x + np.sinh(t) * v / t
        # re-solve the time coordinate from the spatial part to kill drift
        out[0] = np.sqrt(1.0 / self.kappa + np.dot(out[1:], out[1:]))
        return out

    def _log(self, x, y):
        # tangential component of y at x under the Minkowski form
        w = y + self.kappa * self.minkowski(x, y) * x
        nw = self._norm(x, w)
        if nw < 1e-300:
            return np.zeros_like(x)
        sk = np.sqrt(self.kappa)
        d = np.arcsinh(sk * nw) / sk
        return (d / nw) * w

    def _distance(self, x, y):
        # asinh of the projected norm: exact at zero separation, where the
        # arccosh form loses half the significant digits
        w = y + self.kappa * self.minkowski(x, y) * x
        nw = self._norm(x, w)
        sk = np.sqrt(self.kappa)
        return float(np.arcsinh(sk * nw) / sk)

    def _tangential_rows(self, x, Y):
        """Tangential component at ``x`` of each row of ``Y``, and its norm."""
        W = Y + (self.kappa * self._inner_rows(x, Y, x))[:, None] * x
        return W, np.sqrt(np.maximum(self._inner_rows(x, W, W), 0.0))

    def _distance_rows(self, x, Y):
        _, nw = self._tangential_rows(x, Y)
        sk = np.sqrt(self.kappa)
        return np.arcsinh(sk * nw) / sk

    def _log_rows(self, x, Y):
        W, nw = self._tangential_rows(x, Y)
        sk = np.sqrt(self.kappa)
        return _ratio(np.arcsinh(sk * nw) / sk, nw)[:, None] * W

    def _exp_rows(self, x, V):
        sk = np.sqrt(self.kappa)
        nv = np.sqrt(np.maximum(self._inner_rows(x, V, V), 0.0))
        t = sk * nv
        out = np.cosh(t)[:, None] * x + _ratio(np.sinh(t), sk * nv)[:, None] * V
        # re-solve the time coordinates, as _exp does
        out[:, 0] = np.sqrt(1.0 / self.kappa + (out[:, 1:] * out[:, 1:]).sum(axis=1))
        return out

    def _transport(self, x, y, v):
        lg = self._log(x, y)
        d = self._norm(x, lg)
        if d < 1e-300:
            return self._project_tangent(y, v)
        u = lg / d
        sk = np.sqrt(self.kappa)
        t = sk * d
        a = self.minkowski(v, u)
        u_y = sk * np.sinh(t) * x + np.cosh(t) * u
        out = (v - a * u) + a * u_y
        return self._project_tangent(y, out)

    def _project_tangent(self, x, v):
        return v + self.kappa * self.minkowski(x, v) * x

    def _point_defect(self, x):
        if x[0] <= 0:
            return np.inf
        return abs(self.minkowski(x, x) + 1.0 / self.kappa) * self.kappa

    def _tangent_defect(self, x, v):
        return abs(self.minkowski(x, v)) * np.sqrt(self.kappa)


def in_domain(dom: DomainSpec, x: ManifoldPoint, tol: float = 1e-9) -> bool:
    """Whether ``x`` lies in the closed geodesic ball ``dom`` (boundary inclusive)."""
    m = dom.center.manifold
    return m.distance(dom.center, x) <= dom.radius + tol

