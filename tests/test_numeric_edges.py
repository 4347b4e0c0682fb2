"""Inputs at the edge of a function's range: rounding near a series switch
and degenerate iteration budgets."""

import numpy as np
import pytest

from geodescent.descent import ProximalSolverError, proximal_step
from geodescent.geometry import comparison
from helpers import make_sqdist_h2, point_at


def test_comparison_never_rounds_below_one():
    # t/tanh(t) rounds below 1 for a fraction of t just above the switch to
    # the limit 1 at 1e-8; a distortion rate below 1 stops a run
    ds = np.linspace(1e-8, 2e-8, 200_001)
    assert comparison(-1.0, ds).min() >= 1.0


@pytest.mark.parametrize("max_inner", [0, -3])
def test_proximal_step_rejects_an_empty_inner_budget(max_inner):
    obj = make_sqdist_h2()
    x = point_at(obj.manifold, np.random.default_rng(0), obj.domain.center, 1.0)
    with pytest.raises(ValueError, match="max_inner"):
        proximal_step(obj, x, 1.0, max_inner=max_inner)


def test_proximal_step_with_one_inner_iteration():
    obj = make_sqdist_h2()
    x = point_at(obj.manifold, np.random.default_rng(0), obj.domain.center, 1.0)
    with pytest.raises(ProximalSolverError):
        proximal_step(obj, x, 1.0, max_inner=1)
    assert proximal_step(obj, obj.target, 1.0, max_inner=1) is obj.target
