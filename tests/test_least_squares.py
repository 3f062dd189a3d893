"""The one p = 2 solver, :func:`approx.least_squares`, and the whole-algebra
best approximation that reports the norm of its own residual, checked here
against the first-kind norm of f - P on the same grid.
"""

import numpy as np
import pytest

from slicefock.approx import COND_LIMIT, best_approx_first, least_squares
from slicefock.errors import ConditioningError
from slicefock.quadrature import volume_grid
from slicefock.series import exp_series, prepared_for_radius
from slicefock.spaces import NormSpec, norm


def test_least_squares_matches_normal_equations():
    rng = np.random.default_rng(7)
    design = rng.normal(size=(40, 5)) * np.array([1.0, 3.0, 0.1, 10.0, 1.0])
    data = rng.normal(size=(40, 2))
    sol, resid, cond = least_squares(design, data)
    gram = design.T @ design
    np.testing.assert_allclose(sol, np.linalg.solve(gram, design.T @ data),
                               rtol=1e-10)
    assert resid == pytest.approx(np.linalg.norm(design @ sol - data), rel=1e-14)
    assert cond == pytest.approx(np.linalg.cond(gram), rel=1e-8)


def test_least_squares_refuses_past_the_condition_limit():
    design = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-7], [0.0, 0.0]])
    with pytest.raises(ConditioningError) as err:
        least_squares(design, np.ones(3))
    assert err.value.condition > COND_LIMIT
    with pytest.raises(ConditioningError):
        least_squares(np.zeros((3, 2)), np.ones(3))


@pytest.mark.parametrize("n", range(8, 21))
def test_best_approx_first_value_is_its_residual_norm(n):
    # sqrt(||f||^2 - c.b) cancelled: 2 % off at n = 16, 0.0 from n = 18
    grid = volume_grid(1.0)
    spec = NormSpec("first", 2.0, 1.0)
    fe, _ = prepared_for_radius(exp_series(), grid.max_radius)
    res = best_approx_first(exp_series(), n, 1.0, grid)
    direct = norm(fe - res.minimizer, spec, grid)
    assert abs(res.value - direct) <= 1e-12 * norm(fe, spec, grid)
