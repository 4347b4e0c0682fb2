"""The tangent-basis array forms against the loops they replaced
(``kernel_reference``): coordinates by ``_inner_rows``, the map back by
``s @ B`` and every objective's ``hessian_matrix`` agree with the loops to
1e-12 relative, and ``_random_tangent``, from which every x0 and Fréchet
sample set is drawn, keeps the loop's bits."""

import numpy as np
import pytest

from geodescent.geometry import DomainSpec, Euclidean, Hyperboloid, Sphere
from geodescent.objectives import FrechetMean, Quadratic, SphereRayleigh, SquaredDistance
from helpers import point_at
from kernel_reference import (basis_coords, dist_sq_hessian, from_basis_coords, random_tangent,
                              rayleigh_hessian)

SPACES = {
    "H2": Hyperboloid(2),
    "H8": Hyperboloid(8, 0.5),
    "S2": Sphere(2),
    "S2R1.5": Sphere(2, 1.5),
    "R2": Euclidean(2),
}


def _close(got, want, rel=1e-12):
    assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


def _objectives(m, rng):
    """Each objective on ``m`` with its reference Hessian at a raw point in a basis."""
    o = m.origin()
    target = point_at(m, rng, o, 0.8)
    samples = np.array([point_at(m, rng, o, 0.6).coords for _ in range(5)])
    out = [
        (SquaredDistance(m, target, domain=DomainSpec(o, 1.0)),
         lambda x, B: dist_sq_hessian(m, x, target.coords, B)),
        (FrechetMean(m, samples, domain=DomainSpec(o, 1.0), solve_reference=False),
         lambda x, B: sum(dist_sq_hessian(m, x, y, B) for y in samples) / len(samples)),
    ]
    if isinstance(m, Sphere):
        rayleigh = SphereRayleigh(m, np.diag([2.0, 1.0, 0.5]))
        out.append((rayleigh, lambda x, B: rayleigh_hessian(rayleigh, x, B)))
    if isinstance(m, Euclidean):
        quadratic = Quadratic([0.7, -0.3], scales=[2.0, 0.5])
        out.append((quadratic, lambda x, B: np.diag(quadratic.scales)))
    return out


@pytest.mark.parametrize("name", list(SPACES))
def test_array_forms_match_the_basis_loops(name):
    m = SPACES[name]
    rng = np.random.default_rng(17)
    objectives = _objectives(m, rng)
    for _ in range(4):
        x = point_at(m, rng, m.origin(), 1.0)
        B = m.orthonormal_basis(x)
        v = m.random_tangent(rng, x, 1.0).coords
        _close(m._inner_rows(x.coords, B, v), basis_coords(m, x.coords, B, v))
        s = rng.normal(size=m.dim)
        _close(s @ B, from_basis_coords(s, B))
        for obj, reference in objectives:
            _close(obj.hessian_matrix(x, basis=B), reference(x.coords, B))
        seed = int(rng.integers(2**32))
        got = m._random_tangent(np.random.default_rng(seed), x, 0.7, B)
        want = random_tangent(m, np.random.default_rng(seed), x, 0.7, B)
        assert got.coords.tobytes() == want.coords.tobytes()
