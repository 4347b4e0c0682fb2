"""The drivers' domain monitor, which checks the watched points with the
row kernel once the run ends, reports the same ``domain_exit`` as the
per-iteration scalar monitor it replaced (``monitor_reference``): on runs
that never leave their domain, that leave it at k = 1, that leave late, and
(accelerated) that leave through z alone while x and y stay inside.

Each case runs once in a wide ball centred at x0 and picks a radius between
the distances of the recorded points from x0; the domain is only monitored,
so the run inside that radius takes the same steps."""

import numpy as np
import pytest

from geodescent import acceleration as acc
from geodescent import descent
from geodescent.descent import GradientDescent, run_descent
from geodescent.geometry import DomainSpec, Euclidean, Hyperboloid, Sphere
from geodescent.objectives import SquaredDistance
from helpers import point_at
from monitor_reference import ReferenceRecorder

K = 30

SPACES = {
    # manifold, radius of the wide ball (below pi/2 on the unit sphere),
    # accelerated distortion mode (the sphere is not Hadamard)
    "H2": (Hyperboloid(2), 5.0, acc.ANALYTIC),
    "H8": (Hyperboloid(8, 0.5), 5.0, acc.ANALYTIC),
    "S2": (Sphere(2), 1.5, acc.ORACLE),
    "R2": (Euclidean(2), 5.0, acc.ANALYTIC),
}


def _problem(m):
    rng = np.random.default_rng(3)
    target = point_at(m, rng, m.origin(), 0.4)
    obj = SquaredDistance(m, target, domain=DomainSpec(m.origin(), 0.6))
    return obj, point_at(m, rng, target, 0.6)


def _run(name, accelerated, radius=None):
    """The run's trace and the distances from x0 of its watched points, one
    row per iteration k >= 1."""
    m, wide, delta_mode = SPACES[name]
    obj, x0 = _problem(m)
    dom = DomainSpec(x0, wide if radius is None else radius)
    if accelerated:
        run = acc.run_accelerated(obj, x0, K, acc.STRONGLY, acc.gradient_oracle(obj, 0.3),
                                  dom=dom, delta_mode=delta_mode)
        watched = list(zip(run.xs, run.trace.iterates, run.zs))[1:]
        trace = run.trace
    else:
        trace = run_descent(GradientDescent(0.3), obj, x0, K, dom=dom)
        watched = [(x,) for x in trace.iterates[1:]]
    dist = np.array([[m.distance(x0, p) for p in points] for points in watched])
    return trace, dist


def _radius(dist, case):
    """A radius whose ball the run leaves first at the returned k (None: never)."""
    if case == "never":
        return None, None
    reach = np.maximum.accumulate(dist.max(axis=1))
    if case == "k=1":
        return 0.5 * reach[0], 1
    if case == "late":
        k = max(k for k in range(1, len(reach)) if reach[k] > reach[k - 1] + 1e-6)
        return 0.5 * (reach[k - 1] + reach[k]), k + 1
    # z alone: beyond every earlier point and the x and y of its own iteration
    for k in range(len(dist)):
        inside = max(dist[k, :2].max(), reach[k - 1] if k else 0.0)
        if dist[k, 2] > inside + 1e-6:
            return 0.5 * (inside + dist[k, 2]), k + 1
    raise AssertionError("z never leads x and y")


@pytest.mark.parametrize("accelerated, case", [
    (False, "never"), (False, "k=1"), (False, "late"),
    (True, "never"), (True, "k=1"), (True, "late"), (True, "z alone")])
@pytest.mark.parametrize("name", list(SPACES))
def test_domain_exit_matches_the_per_iteration_monitor(monkeypatch, name, accelerated, case):
    _, dist = _run(name, accelerated)
    radius, expected = _radius(dist, case)
    trace, _ = _run(name, accelerated, radius)
    with monkeypatch.context() as patch:
        patch.setattr(descent, "IterateTrace", ReferenceRecorder)
        patch.setattr(acc, "IterateTrace", ReferenceRecorder)
        reference, _ = _run(name, accelerated, radius)
    assert trace.domain_exit == reference.domain_exit == expected
    if case == "late":
        assert expected > 1

