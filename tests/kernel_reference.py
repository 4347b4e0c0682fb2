"""Frozen reference bodies of the scalar geometry kernels as they stood
before the kernels moved from numpy's generic calls (``np.dot``, ``@``,
``np.linalg.norm``, ``np.sqrt``, ``np.isfinite``) to ``.dot``, ``math.sqrt``
and cached constants.  The kernels in ``geodescent.geometry``
must return the same bits as these on every input; ``test_kernel_bits``
checks that.  Do not edit these bodies to follow a change in the kernels:
they are the reference the change is measured against.

Each class subclasses the manifold it mirrors, so construction, keys and
the row kernels are inherited, and overrides every scalar kernel (and
``orthonormal_basis``, Gram-Schmidt built from them, which the library's
closed-form frame equals at the origin and is tested against elsewhere).

The functions at the end keep the loops over a tangent basis as they stood
before the basis became one ``(dim, ambient_dim)`` array: coordinates by one
scalar ``_inner`` per basis vector, the map back as a sum of scaled basis
vectors, and the Hessians built from them.  ``test_basis_forms`` checks the
array forms against them."""

import math

import numpy as np

from geodescent.geometry import (ANTIPODAL_TOL, Euclidean, GeometryError, Hyperboloid,
                                 ManifoldPoint, Sphere, TangentVector, comparison)


class _Reference:
    def _norm(self, x, v):
        return float(np.sqrt(max(self._inner(x, v, v), 0.0)))

    def _move(self, x, v):
        if not np.isfinite(v).all():
            raise GeometryError("non-finite tangent coordinates")
        return ManifoldPoint(self, self._exp(x, v))

    def _log(self, x, y):
        return self._defined(self._dist_log(x, y)[1])

    def orthonormal_basis(self, x):
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


class ReferenceEuclidean(_Reference, Euclidean):
    def _inner(self, x, v, w):
        return float(np.dot(v, w))

    def _exp(self, x, v):
        return x + v

    def _log(self, x, y):
        return y - x

    def _distance(self, x, y):
        return self._dist_log(x, y)[0]

    def _dist_log(self, x, y):
        w = self._log(x, y)
        return float(np.linalg.norm(w)), w

    def _transport(self, x, y, v):
        return v.copy()

    def _project_tangent(self, x, v):
        return v


class ReferenceSphere(_Reference, Sphere):
    def _inner(self, x, v, w):
        return float(np.dot(v, w))

    def _exp(self, x, v):
        R = self.radius
        nv = np.linalg.norm(v)
        t = nv / R
        out = x if nv < 1e-300 else np.cos(t) * x + np.sin(t) * (R / nv) * v
        return R * out / np.linalg.norm(out)

    def _arc(self, x, y):
        R = self.radius
        c = np.dot(x, y) / R**2
        w = y - c * x
        nw = np.linalg.norm(w)
        return float(R * np.arctan2(nw / R, c)), c, w, nw

    def _distance(self, x, y):
        return self._arc(x, y)[0]

    def _dist_log(self, x, y):
        d, c, w, nw = self._arc(x, y)
        if c < -1.0 + ANTIPODAL_TOL:
            return d, None
        return d, np.zeros_like(x) if nw < 1e-300 else (d / nw) * w

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


class ReferenceHyperboloid(_Reference, Hyperboloid):
    @staticmethod
    def minkowski(u, v):
        return float(-u[0] * v[0] + np.dot(u[1:], v[1:]))

    def _inner(self, x, v, w):
        return self.minkowski(v, w)

    def _exp(self, x, v):
        sk = np.sqrt(self.kappa)
        nv = self._norm(x, v)
        t = sk * nv
        out = x.copy() if nv < 1e-300 else np.cosh(t) * x + np.sinh(t) * v / t
        out[0] = np.sqrt(1.0 / self.kappa + np.dot(out[1:], out[1:]))
        return out

    def _chord(self, x, y):
        v = y - x
        ds = v[1:]
        dn = float(ds @ ds)
        p2 = 2.0 * float(ds @ x[1:])
        x0 = float(x[0])
        s = x0 + float(y[0])
        v[0] = q = (dn + p2) / s
        return v, max((2.0 * x0 * dn - p2 * q) / ((4.0 / self.kappa) * s), 0.0)

    def _distance(self, x, y):
        return 2.0 / math.sqrt(self.kappa) * math.asinh(math.sqrt(self._chord(x, y)[1]))

    def _dist_log(self, x, y):
        v, u2 = self._chord(x, y)
        u = math.sqrt(u2)
        a = math.asinh(u)
        d = 2.0 / math.sqrt(self.kappa) * a
        if u < 1e-300:
            return d, np.zeros_like(x)
        f = a / (u * math.sqrt(1.0 + u2))
        return d, f * v - (2.0 * u2 * f) * x

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


# -- loops over a tangent basis (the rows of ``basis``; raw arrays) -------


def basis_coords(m, x, basis, v):
    """Coordinates of the tangent ``v`` at ``x``, one ``_inner`` per basis row."""
    return np.array([m._inner(x, v, b) for b in basis])


def from_basis_coords(s, basis):
    """The tangent with coordinates ``s``, summed one basis row at a time."""
    return sum(si * b for si, b in zip(s, basis))


def random_tangent(m, rng, x, scale, basis):
    """``Manifold._random_tangent`` at the point ``x`` in ``basis``."""
    coords = from_basis_coords(rng.normal(0.0, scale, size=m.dim), basis)
    return TangentVector(x, m._project_tangent(x.coords, coords))


def dist_sq_hessian(m, x, target, basis):
    """Hessian of 0.5*d(., target)^2 at the raw point ``x`` in ``basis``."""
    n = len(basis)
    d, lg = m._dist_log(x, target)
    if d < 1e-14:
        return np.eye(n)
    trans = comparison(m.curvature, d)
    u = basis_coords(m, x, basis, m._defined(lg)) / d
    return trans * np.eye(n) + (1.0 - trans) * np.outer(u, u)


def rayleigh_hessian(obj, x, basis):
    """``SphereRayleigh.hessian_matrix`` at the raw point ``x`` as a double
    loop over ``basis``."""
    shift = float(x @ obj.Q @ x) / obj.manifold.radius**2
    n = len(basis)
    H = np.empty((n, n))
    for j, bj in enumerate(basis):
        col = -obj.Q @ bj
        for i, bi in enumerate(basis):
            H[i, j] = float(np.dot(bi, col))
    H += shift * np.eye(n)
    return 0.5 * (H + H.T)
