import math

import numpy as np
import pytest

from conftest import integrate_slice
from slicefock.errors import IntegrandOverflowError
from slicefock.quadrature import (
    circle_average,
    integrate_volume,
    refined,
    slice_grid,
    volume_grid,
)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.7])
def test_slice_gaussian_normalization(alpha):
    g = slice_grid(alpha)
    v = integrate_slice(lambda z: np.exp(-alpha * np.abs(z) ** 2), g)
    assert v == pytest.approx(math.pi / alpha, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.7])
def test_volume_gaussian_normalization(alpha):
    g = volume_grid(alpha)
    v = integrate_volume(lambda q: np.exp(-alpha * np.sum(q * q, axis=1)), g)
    assert v == pytest.approx(math.pi ** 2 / alpha ** 2, rel=1e-10)


def test_slice_moments_to_24():
    alpha = 1.0
    g = slice_grid(alpha, n_radial=64)
    for k in range(25):
        v = integrate_slice(
            lambda z: np.abs(z) ** (2 * k) * np.exp(-alpha * np.abs(z) ** 2), g)
        exact = math.pi * math.factorial(k) / alpha ** (k + 1)
        assert v == pytest.approx(exact, rel=1e-11), k


def test_volume_moments_to_16():
    alpha = 1.0
    g = volume_grid(alpha)
    for k in range(17):
        v = integrate_volume(
            lambda q: np.sum(q * q, axis=1) ** k
            * np.exp(-alpha * np.sum(q * q, axis=1)), g)
        exact = math.pi ** 2 * math.factorial(k + 1) / alpha ** (k + 2)
        assert v == pytest.approx(exact, rel=1e-9), k


def test_slice_angular_symmetry():
    g = slice_grid(1.0)
    v = integrate_slice(
        lambda z: np.cos(np.angle(z)) * np.exp(-np.abs(z) ** 2), g)
    assert abs(v) < 1e-14


def test_volume_odd_coordinate_vanishes():
    g = volume_grid(1.0)
    v = integrate_volume(
        lambda q: q[:, 1] * np.exp(-np.sum(q * q, axis=1)), g)
    assert abs(v) < 1e-12


def test_circle_average_examples():
    assert circle_average(lambda t: np.ones_like(t), 16) == pytest.approx(
        2 * math.pi, rel=1e-15)
    assert circle_average(lambda t: np.cos(t) ** 2, 8) == pytest.approx(
        math.pi, rel=1e-14)


def test_circle_average_aliasing():
    # a pure mode at the node count aliases to a constant: documented failure
    v = circle_average(lambda t: np.cos(8 * t), 8)
    assert v == pytest.approx(2 * math.pi, rel=1e-12)
    # one more node resolves it
    assert abs(circle_average(lambda t: np.cos(8 * t), 17)) < 1e-12


def test_integrand_overflow_reported():
    g = slice_grid(1.0, n_radial=8, n_angular=8)

    def bad(z):
        out = np.exp(-np.abs(z) ** 2)
        out[3] = np.inf
        return out

    with pytest.raises(IntegrandOverflowError) as err:
        integrate_slice(bad, g)
    assert err.value.node is not None


def test_grid_refinement_consistency():
    alpha = 1.2
    g = slice_grid(alpha)
    f = lambda z: (1 + np.abs(z) ** 4) * np.exp(-alpha * np.abs(z) ** 2)
    v1 = integrate_slice(f, g)
    v2 = integrate_slice(f, refined(g))
    assert abs(v2 - v1) <= 1e-12 * abs(v2)


def test_radial_cap():
    with pytest.raises(ValueError):
        slice_grid(1.0, n_radial=256)


def test_grid_sizes_and_weights():
    g = slice_grid(2.0, 32, 64)
    assert g.sizes == (32, 64)
    assert np.all(g.radial_weights > 0) and np.all(g.angular_weights > 0)
    gv = volume_grid(2.0, 32, 32, 32)
    assert gv.sizes[0] == 32
    assert np.sum(gv.sphere_weights) == pytest.approx(4 * math.pi, rel=1e-13)


def test_node_counts_below_one_rejected():
    from slicefock.spaces import NormSpec, default_grid

    with pytest.raises(ValueError):
        slice_grid(1.0, 0)
    with pytest.raises(ValueError):
        slice_grid(1.0, 8, 0)
    with pytest.raises(ValueError):
        volume_grid(1.0, 8, 8, 0)
    # an explicit zero is an error, not a request for the default
    with pytest.raises(ValueError):
        default_grid(NormSpec("second", 2.0, 1.0), n_radial=0)
    with pytest.raises(ValueError):
        default_grid(NormSpec("first", 2.0, 1.0), n_sphere=0)
    assert default_grid(NormSpec("first", 2.0, 1.0)).sizes == volume_grid(1.0).sizes


def test_cached_rules_equal_fresh_ones_and_are_read_only():
    from slicefock.quadrature import (
        _legendre_rule,
        _scaled_laguerre,
        _slice_grid,
        _sphere_rule,
        _volume_grid,
    )

    def built():
        # a kept grid never reads the rules again: each build drops the grids
        _slice_grid.cache_clear()
        _volume_grid.cache_clear()
        return [slice_grid(0.7, 20, 40), volume_grid(0.7, 12, 10, 32)]

    warm = built()
    for cached in (_scaled_laguerre, _legendre_rule, _sphere_rule):
        cached.cache_clear()
    fresh = built()
    again = built()
    assert _scaled_laguerre.cache_info().hits >= 2
    assert _sphere_rule.cache_info().hits >= 1
    for grids in zip(warm, fresh, again):
        for name in ("radial_nodes", "radial_weights", "angular_nodes",
                     "angular_weights", "sphere_units", "sphere_weights"):
            arrays = [getattr(g, name) for g in grids]
            if arrays[0] is None:
                continue
            for a in arrays:
                np.testing.assert_array_equal(a, arrays[1])
                assert not a.flags.writeable
    for rule in (_scaled_laguerre(20, 0.0), _legendre_rule(16), _sphere_rule(32)):
        for a in rule:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
