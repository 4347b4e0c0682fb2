"""Closed-form Riemannian geometry for Euclidean space, the sphere and
hyperbolic space (hyperboloid model).

All operations are pure functions of their inputs and every manifold object
is immutable after construction, so instances can be shared freely across
concurrent runs.  Points and tangent vectors live in ambient coordinates;
the hyperboloid uses the Minkowski form ``<x, y> = -x0*y0 + sum_i xi*yi``.

The scalar kernels run on 3- to 9-vectors, where numpy's per-call dispatch
costs more than the arithmetic.  They use idioms that perform the same IEEE
operations in the same order as numpy's generic calls, so every float is
bit-identical to them (``tests/kernel_reference.py`` keeps the generic
bodies as the reference):

- ``a.dot(b)`` for ``a @ b`` and ``np.dot(a, b)`` on 1-D float arrays;
- ``math.sqrt(a.dot(a))`` for ``np.linalg.norm(a)``, numpy's own formula;
- ``math.sqrt`` for ``np.sqrt`` of one number (both correctly rounded),
  ``a.item(i)`` for ``float(a[i])``, and sqrt(kappa) computed once;
- numpy's ``cosh``, ``sinh``, ``cos``, ``sin`` and ``arctan2`` called on
  Python floats;
- a finiteness test per entry of ``a.tolist()`` for ``np.isfinite(a).all()``.

They keep numpy's ``cosh``, ``sinh``, ``tanh``, ``tan`` and ``arctan2``:
numpy computes these with its own routines, not the C library's that
``math`` calls, and ``math.cosh`` differed in the last bit on about a fifth
of inputs.  Matrix products keep ``@``.  The row kernels run on whole arrays
and keep numpy's calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "ManifoldMismatchError",
    "BaseMismatchError",
    "AntipodalPointsError",
    "ManifoldPoint",
    "TangentVector",
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
# slack beyond a domain's radius that ``in_domain`` still counts as inside
DOMAIN_TOL = 1e-9


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

    __post_init__ = ManifoldPoint.__post_init__

    def __repr__(self):
        return f"TangentVector(base={np.array2string(self.base.coords, precision=6)}, coords={np.array2string(self.coords, precision=6)})"


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

    The hooks on raw coordinate arrays (``_inner``, ``_exp``, ``_dist_log``,
    ``_end_direction``, ``_project_tangent``, the defects and the row kernels)
    default to flat space; a subclass overrides those that curvature changes.
    ``_norm``, ``_move``, ``_log``, ``_distance`` and ``_transport`` build on
    them.  ``_exp`` returns the point projected back onto the manifold.  The
    public methods check that their operands belong here and share a base
    point, then call these kernels; the descent loops check their inputs once
    and call the kernels and ``_move``, which keeps the finiteness check.

    The row kernels ``_inner_rows``, ``_dist_log_rows`` and ``_exp_rows``
    apply the same formulas to every row of an ``(N, ambient_dim)`` array at
    once, for objectives that sum over many samples.  They take unvalidated
    raw arrays, like the scalar kernels.
    """

    dim: int
    ambient_dim: int
    key: str
    curvature: float  # the constant sectional curvature, 1/length^2; <= 0 is Hadamard

    # -- construction -----------------------------------------------------

    def _coords(self, coords) -> np.ndarray:
        """``coords`` as a float array, checked to be one ambient vector."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.ambient_dim,):
            raise GeometryError(
                f"expected {self.ambient_dim} ambient coordinates, got shape {coords.shape}"
            )
        return coords

    def point(self, coords) -> ManifoldPoint:
        p = ManifoldPoint(self, self._coords(coords))
        self.check_point(p)
        return p

    def tangent(self, base: ManifoldPoint, coords) -> TangentVector:
        self._own(base)
        v = TangentVector(base, self._coords(coords))
        self.check_tangent(v)
        return v

    def zero_tangent(self, base: ManifoldPoint) -> TangentVector:
        return TangentVector(base, np.zeros(self.ambient_dim))

    # -- validation --------------------------------------------------------

    def check_point(self, x: ManifoldPoint):
        if not _finite(x.coords):
            raise GeometryError("non-finite point coordinates")
        err = self._point_defect(x.coords)
        # a NaN defect (an overflow in the constraint) fails "err > tol"
        if math.isnan(err) or err > POINT_TOL:
            raise GeometryError(f"point violates {self.key} constraint by {err:.3e}")

    def check_tangent(self, v: TangentVector):
        if not _finite(v.coords):
            raise GeometryError("non-finite tangent coordinates")
        err = self._tangent_defect(v.base.coords, v.coords)
        # absolute at unit scale, relative for large vectors / far points
        scale = 1.0 + _norm2(v.base.coords) * _norm2(v.coords)
        if math.isnan(err) or err > POINT_TOL * scale:
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

    def orthonormal_basis(self, x: ManifoldPoint) -> np.ndarray:
        """Orthonormal tangent basis at ``x``, the closed-form ``_frame``, as the
        rows of a read-only ``(dim, ambient_dim)`` array.  Tangent coordinates
        map to basis coordinates by ``_inner_rows(x, B, v)`` and back by
        ``s @ B``.  At the origin its rows are the ambient unit vectors tangent
        there, in order."""
        self._own(x)
        basis = self._frame(x.coords)
        basis.setflags(write=False)
        return basis

    def random_point(self, rng: np.random.Generator, scale: float) -> ManifoldPoint:
        """Point at exp of a Gaussian tangent vector from the origin (scale =
        std dev of the tangent coordinates)."""
        o = self.origin()
        v = self.random_tangent(rng, o, scale)
        return self.exp(o, v)

    def random_tangent(self, rng: np.random.Generator, x: ManifoldPoint, scale: float) -> TangentVector:
        return self._random_tangent(rng, x, scale, self.orthonormal_basis(x))

    def _random_tangent(self, rng, x, scale, basis):
        """``random_tangent`` in ``orthonormal_basis(x)``, which the caller holds."""
        coeff = rng.normal(0.0, scale, size=self.dim)
        # row by row, not coeff @ basis, whose BLAS sum rounds differently:
        # every x0 and Fréchet sample set is drawn here
        coords = sum(c * b for c, b in zip(coeff, basis))
        return TangentVector(x, self._project_tangent(x.coords, coords))

    def origin(self) -> ManifoldPoint:
        return ManifoldPoint(self, np.zeros(self.ambient_dim))

    # -- hooks: flat space unless a subclass overrides them ------------------

    def _inner(self, x, v, w) -> float:
        return float(v.dot(w))

    def _norm(self, x, v) -> float:
        return math.sqrt(max(self._inner(x, v, v), 0.0))

    def _move(self, x, v) -> ManifoldPoint:
        """The point ``_exp(x, v)`` for a finite ``v``."""
        if not _finite(v):
            raise GeometryError("non-finite tangent coordinates")
        return ManifoldPoint(self, self._exp(x, v))

    def _exp(self, x, v):
        return x + v

    def _log(self, x, y):
        return self._defined(self._dist_log(x, y)[1])

    def _distance(self, x, y) -> float:
        return self._dist_log(x, y)[0]

    def _dist_log(self, x, y):
        """``(_distance(x, y), log_x y)`` from one pass, the same floats as
        the two kernels; the log is None where it is undefined (within
        ANTIPODAL_TOL of a sphere point's antipode), and ``_log`` raises."""
        w = y - x
        return _norm2(w), w

    @staticmethod
    def _defined(lg):
        """The log ``lg`` of a ``_dist_log`` pass, or AntipodalPointsError if None."""
        if lg is None:
            raise AntipodalPointsError("logarithm undefined within tolerance of the antipode")
        return lg

    def _transport(self, x, y, v):
        lg = self._log(x, y)
        d = self._norm(x, lg)
        if d < 1e-300:
            return self._project_tangent(y, v)
        u = lg / d
        a = self._inner(x, v, u)
        out = (v - a * u) + a * self._end_direction(x, u, d)
        return self._project_tangent(y, out)

    def _end_direction(self, x, u, d):
        """The velocity at ``exp(x, d*u)`` of the geodesic leaving ``x`` along ``u``."""
        return u

    def _inner_rows(self, x, V, w):
        """Metric inner product at ``x`` of each row of ``V`` with ``w``
        (one vector, or one row per row of ``V``)."""
        return V @ w if w.ndim == 1 else np.einsum("ij,ij->i", V, w)

    def _inner_matrix(self, x, V, W):
        """Metric inner products at ``x`` of each row of ``V`` with each row of ``W``."""
        return V @ W.T

    def _frame(self, x):
        """The closed-form ``orthonormal_basis`` at raw ``x``, a fresh array that the
        Newton and cubic steps take unchecked; the identity of flat space here."""
        return np.eye(self.dim)

    def _dist_log_rows(self, x, Y):
        """``_dist_log`` for each row of ``Y``: the distances, and the logs or
        None if any is undefined."""
        D = Y - x
        return np.sqrt(self._inner_rows(x, D, D)), D

    def _exp_rows(self, x, V):
        """``_exp(x, v)`` for each row ``v`` of ``V``."""
        return x + V

    def _project_tangent(self, x, v):
        return v

    def _point_defect(self, x) -> float:
        return 0.0

    def _tangent_defect(self, x, v) -> float:
        return 0.0

    def __repr__(self):
        return self.key


def _finite(a) -> bool:
    """Whether every entry of the 1-D array ``a`` is finite, as
    ``np.isfinite(a).all()`` says, without numpy's dispatch.  Not a test on
    ``a.dot(a)`` or ``a.sum()``, which overflow on finite entries."""
    return all(map(math.isfinite, a.tolist()))


def _norm2(a) -> float:
    """``np.linalg.norm(a)`` of a 1-D float array, by numpy's own formula."""
    return math.sqrt(a.dot(a))


def _minkowski(u, v) -> float:
    """``Hyperboloid.minkowski`` of two 1-D float arrays."""
    return -u.item(0) * v.item(0) + float(u[1:].dot(v[1:]))


def _ratio(num, den):
    """``num / den`` per row, and 0 where ``den`` is below 1e-300: the
    zero-norm branch of the scalar kernels."""
    return np.divide(num, den, out=np.zeros_like(den), where=den >= 1e-300)


def _dimension(n: int) -> int:
    if n < 1:
        raise GeometryError(f"dimension must be at least 1, got {n!r}")
    return n


class Euclidean(Manifold):
    """Flat space, the hooks' default.  Its log skips ``_dist_log``'s norm, and its
    transport returns v exactly, where the shared ``(v - a*u) + a*u`` can differ in the last bit."""

    def __init__(self, n: int):
        self.dim = _dimension(n)
        self.ambient_dim = n
        self.key = f"euclidean(n={n})"
        self.curvature = 0.0

    def _log(self, x, y):
        return y - x

    def _transport(self, x, y, v):
        return v.copy()


class Sphere(Manifold):
    """Sphere of radius R embedded in R^{n+1}; sectional curvature 1/R^2."""

    def __init__(self, n: int, radius: float = 1.0):
        if not (math.isfinite(radius) and radius > 0):
            raise GeometryError("sphere radius must be positive and finite")
        self.dim = _dimension(n)
        self.ambient_dim = n + 1
        self.radius = float(radius)
        self.key = f"sphere(n={n},R={radius:g})"
        self.curvature = 1.0 / self.radius**2

    def origin(self):
        c = np.zeros(self.ambient_dim)
        c[-1] = self.radius
        return ManifoldPoint(self, c)

    def _exp(self, x, v):
        R = self.radius
        nv = _norm2(v)
        t = nv / R
        out = x if nv < 1e-300 else np.cos(t) * x + np.sin(t) * (R / nv) * v
        # rescale to radius R to kill drift
        return R * out / _norm2(out)

    def _arc(self, x, y):
        """The distance to ``y``, the cosine of its angle, and the part of ``y``
        orthogonal to ``x`` with its norm: the pass ``_distance`` and
        ``_dist_log`` share."""
        R = self.radius
        c = float(x.dot(y)) / R**2
        w = y - c * x
        nw = _norm2(w)
        # atan2 keeps full precision at both ends of the arc
        return R * float(np.arctan2(nw / R, c)), c, w, nw

    def _distance(self, x, y):
        return self._arc(x, y)[0]

    def _dist_log(self, x, y):
        d, c, w, nw = self._arc(x, y)
        if c < -1.0 + ANTIPODAL_TOL:
            return d, None
        return d, np.zeros(x.size) if nw < 1e-300 else (d / nw) * w

    def _dist_log_rows(self, x, Y):
        R = self.radius
        c = self._inner_rows(x, Y, x) / R**2
        W = Y - c[:, None] * x
        nw = np.sqrt(self._inner_rows(x, W, W))
        d = R * np.arctan2(nw / R, c)
        if np.any(c < -1.0 + ANTIPODAL_TOL):
            return d, None
        return d, _ratio(d, nw)[:, None] * W

    def _exp_rows(self, x, V):
        R = self.radius
        nv = np.sqrt(self._inner_rows(x, V, V))
        t = nv / R
        out = np.cos(t)[:, None] * x + (np.sin(t) * _ratio(R, nv))[:, None] * V
        return R * out / np.sqrt(self._inner_rows(x, out, out))[:, None]

    def _end_direction(self, x, u, d):
        theta = d / self.radius
        return np.cos(theta) * u - np.sin(theta) * x / self.radius

    def _frame(self, x):
        # the Householder reflection taking the pole s*o nearer x (s = sign x_n) to
        # -x: rows e_i - x_i (x + s*o) / (R (R + |x_n|)), whose denominator never cancels
        R, xn = self.radius, x.item(-1)
        w = x.copy()
        w[-1] = math.copysign(R + abs(xn), xn)
        return np.eye(self.dim, self.ambient_dim) - (x[:-1] / (R * (R + abs(xn))))[:, None] * w

    def _project_tangent(self, x, v):
        return v - (float(x.dot(v)) / self.radius**2) * x

    def _point_defect(self, x):
        return abs(_norm2(x) - self.radius)

    def _tangent_defect(self, x, v):
        return abs(float(x.dot(v))) / self.radius


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
        self.curvature = -self.kappa
        # sqrt(kappa) and 2/sqrt(kappa), which the scalar kernels read on every call
        self._sk = math.sqrt(self.kappa)
        self._2_sk = 2.0 / self._sk
        # the Minkowski form as a diagonal metric, for the row kernels
        self._signature = np.ones(self.ambient_dim)
        self._signature[0] = -1.0
        self._signature.setflags(write=False)

    def origin(self):
        c = np.zeros(self.ambient_dim)
        c[0] = 1.0 / self._sk
        return ManifoldPoint(self, c)

    @staticmethod
    def minkowski(u, v) -> float:
        return _minkowski(np.asarray(u, dtype=float), np.asarray(v, dtype=float))

    def _inner(self, x, v, w):
        return _minkowski(v, w)

    def _inner_rows(self, x, V, w):
        return super()._inner_rows(x, V, w * self._signature)

    def _inner_matrix(self, x, V, W):
        return V @ (W * self._signature).T

    def _exp(self, x, v):
        nv = self._norm(x, v)
        t = self._sk * nv
        out = x.copy() if nv < 1e-300 else np.cosh(t) * x + np.sinh(t) * v / t
        # re-solve the time coordinate from the spatial part to kill drift
        s = out[1:]
        out[0] = math.sqrt(1.0 / self.kappa + s.dot(s))
        return out

    def _chord(self, x, y):
        """The chord c = ||y - x||_L = (2/sqrt(kappa)) * sinh(sqrt(kappa)*d/2)
        as ``(y - x, u^2)`` with u = sqrt(kappa)*c/2, the time coordinate of
        y - x recomputed: the pass _distance and _dist_log share.  With the
        spatial difference ds = ys - xs, the time difference is q = y0 - x0 =
        (||ds||^2 + 2<ds, xs>) / (x0 + y0), and c^2 = ||ds||^2 - q^2 =
        2*(x0*||ds||^2 - <ds, xs>*q) / (x0 + y0); the second form cancels no
        more than the first at short distances and much less at long ones."""
        v = y - x
        ds = v[1:]
        dn = float(ds.dot(ds))
        p2 = 2.0 * float(ds.dot(x[1:]))
        x0 = x.item(0)
        s = x0 + y.item(0)
        v[0] = q = (dn + p2) / s
        return v, max((2.0 * x0 * dn - p2 * q) / ((4.0 / self.kappa) * s), 0.0)

    def _distance(self, x, y):
        return self._2_sk * math.asinh(math.sqrt(self._chord(x, y)[1]))

    def _dist_log(self, x, y):
        """d = (2/sqrt(kappa)) * asinh(u) and log_x y = (sqrt(kappa)*d /
        sinh(sqrt(kappa)*d)) * ((y - x) - (kappa*c^2/2)*x) from _chord, where
        sinh(sqrt(kappa)*d) = 2u*sqrt(1 + u^2).

        Against a 60-digit reference for the points with these spatial
        coordinates, here and in _dist_log_rows: the error of d is below
        2*eps*kappa*||x||_2^2*d, and that of the log below 4*eps*kappa*||x||_2^2*d
        in the metric norm and 8*eps*(sqrt(kappa)*||x||_2)^3*d in the Euclidean
        one (measured worst: 0.72, 0.63 and 0.61 of these, for sqrt(kappa)*d up
        to 10 from x up to 6/sqrt(kappa) from the origin).  So both are accurate to
        1e-12 relative while x lies within 3/sqrt(kappa) of the origin, at
        any d.  Below sqrt(kappa)*d = 2 the errors also stay below
        2*eps*(sqrt(kappa)*||x||_2^2 + d) for d and 2*eps*kappa*||x||_2^3*(1 +
        sqrt(kappa)*d) for the log's Euclidean norm; at longer distances they
        reach 1.3 and 2.1 of these."""
        v, u2 = self._chord(x, y)
        u = math.sqrt(u2)
        a = math.asinh(u)
        d = self._2_sk * a
        if u < 1e-300:
            return d, np.zeros(x.size)
        f = a / (u * math.sqrt(1.0 + u2))
        return d, f * v - (2.0 * u2 * f) * x

    def _dist_log_rows(self, x, Y):
        # _chord's and _dist_log's expressions, with the temporaries updated
        # in place, on the transposed (ambient_dim, N) layout: there x
        # broadcasts along whole rows, where over the (N, ambient_dim) layout
        # numpy loops over rows of ambient_dim entries
        YT = Y.T.copy()
        V = YT - x[:, None]
        Ds = V[1:]
        dn = np.einsum("ij,ij->j", Ds, Ds)
        p2 = (2.0 * x[1:]) @ Ds
        s = YT[0] + x[0]
        q = dn + p2
        q /= s
        V[0] = q
        u2 = dn * (2.0 * x[0])
        p2 *= q
        u2 -= p2
        s *= 4.0 / self.kappa
        u2 /= s
        np.maximum(u2, 0.0, out=u2)
        u = np.sqrt(u2)
        a = np.arcsinh(u)
        # f = a / (u*sqrt(1 + u^2)), 0 at u = 0 (y = x), where _dist_log
        # returns the zero log
        f = u2 + 1.0
        np.sqrt(f, out=f)
        f *= u
        np.maximum(f, 1e-300, out=f)
        np.divide(a, f, out=f)
        V *= f
        f *= u2
        V -= np.multiply.outer(2.0 * x, f)
        a *= 2.0 / math.sqrt(self.kappa)
        return a, V.T.copy()

    def _exp_rows(self, x, V):
        sk = np.sqrt(self.kappa)
        nv = np.sqrt(np.maximum(self._inner_rows(x, V, V), 0.0))
        t = sk * nv
        out = np.cosh(t)[:, None] * x + _ratio(np.sinh(t), sk * nv)[:, None] * V
        # re-solve the time coordinates, as _exp does
        out[:, 0] = np.sqrt(1.0 / self.kappa + (out[:, 1:] * out[:, 1:]).sum(axis=1))
        return out

    def _end_direction(self, x, u, d):
        t = self._sk * d
        return self._sk * np.sinh(t) * x + np.cosh(t) * u

    def _frame(self, x):
        # the origin's basis transported to x: rows e_i + kappa x_i (o + x) / (1 + sqrt(kappa) x_0)
        w = x.copy()
        w[0] += 1.0 / self._sk
        c = self.kappa / (1.0 + self._sk * x.item(0))
        return np.eye(self.dim, self.ambient_dim, 1) + (c * x[1:])[:, None] * w

    def _project_tangent(self, x, v):
        return v + self.kappa * _minkowski(x, v) * x

    def _point_defect(self, x):
        if x[0] <= 0:
            return np.inf
        return abs(_minkowski(x, x) + 1.0 / self.kappa) * self.kappa

    def _tangent_defect(self, x, v):
        return abs(_minkowski(x, v)) * self._sk


def in_domain(dom: DomainSpec, x: ManifoldPoint) -> bool:
    """Whether ``x`` lies in the closed geodesic ball ``dom``, widened by ``DOMAIN_TOL``."""
    m = dom.center.manifold
    return m.distance(dom.center, x) <= dom.radius + DOMAIN_TOL

