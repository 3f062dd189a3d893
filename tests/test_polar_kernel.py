"""The polar-FFT plane evaluator against the Horner recursion.

``eval_polar`` gives the values of a prepared series at
r_i exp(2 pi i j / n) from one inverse FFT per radius; ``eval_on_slice``
runs Horner at the same nodes and is the oracle.  Agreement is measured
against each radius's term scale sum_k |a_k| r^k.
"""

import math

import numpy as np
import pytest

from slicefock.quadrature import slice_grid, volume_grid
from slicefock.quaternion import UNIT_I, ImaginaryUnit
from slicefock.series import (
    _radius_certificate,
    _row_norms,
    eval_on_slice,
    eval_polar,
    exp_series,
    extended,
    from_generator,
    polar_components,
    random_series,
    slice_components,
)

TOL = 1e-13

SEEDED_UNIT = ImaginaryUnit.from_vector(np.random.default_rng(4).normal(size=3))

FAMILIES = {
    "exp": lambda: exp_series(),
    "gauss:0.25": lambda: from_generator("gauss:0.25"),
    "mono:6": lambda: from_generator("mono:6"),
    "random:8": lambda: random_series(8, 11),
}


def term_scale(f, radii):
    """sum_k |a_k| r^k per radius, summed in log space."""
    mags = _row_norms(f.coeffs)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(mags) + np.multiply.outer(np.log(radii),
                                                np.arange(mags.size))
    logs[:, 0] = math.log(mags[0]) if mags[0] > 0.0 else -math.inf
    top = np.max(logs, axis=1)
    return np.exp(top) * np.sum(np.exp(logs - top[:, None]), axis=1)


def horner_on_circle(f, unit, radii, n_circle, index=None):
    index = np.arange(n_circle) if index is None else index
    z = np.outer(radii, np.exp(2j * math.pi * index / n_circle))
    vals = eval_on_slice(f, unit, z.ravel(), prepare=False)
    return vals.reshape(z.shape + (4,))


def assert_close(got, want, f, radii):
    assert got.shape == want.shape
    assert np.all(np.isfinite(got))
    err = np.max(np.abs(got - want), axis=(1, 2)) / term_scale(f, radii)
    assert np.max(err) <= TOL, float(np.max(err))


def prepared(name, radius):
    # the series a weighted consumer integrates: underflowed rows kept
    return _radius_certificate(FAMILIES[name](), radius)[0]


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("unit", [UNIT_I, SEEDED_UNIT], ids=["i", "seeded"])
def test_slice_layout_matches_horner(name, unit):
    grid = slice_grid(0.5, 24, 48)
    f = prepared(name, grid.max_radius)
    got = eval_polar(f, unit, grid.radial_nodes, grid.circle_size)
    want = horner_on_circle(f, unit, grid.radial_nodes, grid.circle_size)
    assert_close(got, want, f, grid.radial_nodes)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_volume_half_circle_components_match_horner(name):
    grid = volume_grid(0.5, 12, 12, 8)
    n, index = grid.circle_size, grid.circle_index
    assert n == 2 * (grid.angular_nodes.size + 1)
    np.testing.assert_allclose(2.0 * math.pi * index / n, grid.angular_nodes,
                               rtol=0, atol=1e-15)
    f = prepared(name, grid.max_radius)
    radii = grid.radial_nodes
    full = eval_polar(f, UNIT_I, radii, n)
    # node n - j of the circle is the conjugate of node j
    assert_close(full[:, index], horner_on_circle(f, UNIT_I, radii, n, index),
                 f, radii)
    assert_close(full[:, -index % n],
                 horner_on_circle(f, UNIT_I, radii, n, -index), f, radii)
    a, b = polar_components(f, radii, n, index)
    z = np.outer(radii, np.exp(1j * grid.angular_nodes))
    want_a, want_b = slice_components(f, z.ravel(), prepare=False)
    assert_close(a, want_a.reshape(a.shape), f, radii)
    assert_close(b, want_b.reshape(b.shape), f, radii)


@pytest.mark.parametrize("n_circle", [1, 2, 3, 7])
@pytest.mark.parametrize("name", ["exp", "random:8"])
def test_fold_aliases_above_the_node_count(name, n_circle):
    radii = np.array([0.0, 0.5, 3.0, 6.0])
    f = prepared(name, float(radii[-1]))
    assert f.degree >= n_circle
    got = eval_polar(f, SEEDED_UNIT, radii, n_circle)
    want = horner_on_circle(f, SEEDED_UNIT, radii, n_circle)
    assert_close(got, want, f, radii)


def test_single_node_is_the_real_axis():
    f = prepared("exp", 4.0)
    radii = np.array([0.0, 1.0, 4.0])
    got = eval_polar(f, SEEDED_UNIT, radii, 1)
    assert got.shape == (3, 1, 4)
    np.testing.assert_allclose(got[:, 0, 0], np.exp(radii), rtol=1e-14)
    np.testing.assert_array_equal(got[:, 0, 1:], 0.0)


@pytest.mark.parametrize("radius", [15.0, 20.0, 25.0])
def test_large_radius_at_the_degree_cap(radius):
    f = extended(exp_series(), 512)
    assert f.degree == 512
    with np.errstate(over="ignore"):
        assert np.isinf(np.float64(radius) ** 512)
    radii = np.array([radius])
    got = eval_polar(f, SEEDED_UNIT, radii, 16)
    want = horner_on_circle(f, SEEDED_UNIT, radii, 16)
    assert_close(got, want, f, radii)
    np.testing.assert_allclose(got[0, 0, 0], math.exp(radius), rtol=1e-13)


def test_zero_series_gives_zeros():
    f = random_series(3, 1) - random_series(3, 1)
    got = eval_polar(f, UNIT_I, np.array([0.0, 2.0]), 5)
    np.testing.assert_array_equal(got, 0.0)
