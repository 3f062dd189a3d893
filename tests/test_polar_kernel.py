"""The plane-evaluation kernel against the Horner recursion.

``spaces._weighted_plane`` gives S w_alpha from a series' rows in log-polar
form, S(z) = sum_k z^k a_k taken componentwise and
w_alpha = e^{-alpha |z|^2 / 2}, at a grid's nodes
r_i exp(2 pi i index_j / n) as an array v and an integer e, the values
being v 2^e; one inverse FFT per radius.  ``eval_on_slice`` runs Horner at
the same nodes and is the oracle.  Agreement is measured against each
radius's weighted term scale sum_k |a_k| r^k w_alpha(r).
"""

import math

import numpy as np
import pytest

from slicefock.quadrature import QuadratureGrid, slice_grid, volume_grid
from slicefock.quaternion import UNIT_I, ImaginaryUnit
from slicefock.series import (
    _lift,
    _radius_certificate,
    _row_norms,
    eval_on_slice,
    exp_series,
    extended,
    from_generator,
    monomial,
    random_series,
    slice_components,
)
from slicefock.spaces import _weighted_plane

TOL = 1e-13

SEEDED_UNIT = ImaginaryUnit.from_vector(np.random.default_rng(4).normal(size=3))

FAMILIES = {
    "exp": lambda: exp_series(),
    "gauss:0.25": lambda: from_generator("gauss:0.25"),
    "mono:6": lambda: from_generator("mono:6"),
    "random:8": lambda: random_series(8, 11),
}


def circle_grid(radii, n_circle):
    """A plane grid whose angular nodes are the whole circle of n_circle."""
    n = n_circle
    return QuadratureGrid(
        mode="slice", scale=1.0, radial_nodes=np.asarray(radii, dtype=float),
        radial_weights=np.ones(len(radii)),
        angular_nodes=2.0 * math.pi * np.arange(n) / n,
        angular_weights=np.full(n, 2.0 * math.pi / n))


def term_scale(f, radii, alpha=0.0):
    """sum_k |a_k| r^k w_alpha(r) per radius, summed in log space."""
    mags = _row_norms(f.coeffs)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(mags) + np.multiply.outer(np.log(radii),
                                                np.arange(mags.size))
    logs[:, 0] = math.log(mags[0]) if mags[0] > 0.0 else -math.inf
    top = np.max(logs, axis=1)
    return np.exp(top - 0.5 * alpha * radii ** 2) \
        * np.sum(np.exp(logs - top[:, None]), axis=1)


def horner_on_circle(f, unit, radii, n_circle, index=None, alpha=0.0):
    """Horner's values times the weight at r_i exp(2 pi i index_j / n)."""
    index = np.arange(n_circle) if index is None else index
    z = np.outer(radii, np.exp(2j * math.pi * index / n_circle))
    vals = eval_on_slice(f, unit, z.ravel(), prepare=False)
    weight = np.exp(-0.5 * alpha * np.asarray(radii) ** 2)[:, None, None]
    return vals.reshape(z.shape + (4,)) * weight


def weighted(f, grid, alpha):
    """The kernel's (v, e) for the series f."""
    return _weighted_plane(f.directions, f.log_row_norms, grid, alpha)


def kernel_values(f, unit, grid, alpha=0.0):
    """The kernel's plane values (Re v + u Im v) 2^e."""
    v, e = weighted(f, grid, alpha)
    assert np.all(np.isfinite(v))
    return np.ldexp(_lift(v, unit), e)


def assert_close(got, want, f, radii, alpha=0.0):
    assert got.shape == want.shape
    assert np.all(np.isfinite(got))
    err = np.max(np.abs(got - want), axis=(1, 2)) / term_scale(f, radii, alpha)
    assert np.max(err) <= TOL, float(np.max(err))


def prepared(name, radius):
    # the series a weighted consumer integrates
    return _radius_certificate(FAMILIES[name](), radius)[0]


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("unit", [UNIT_I, SEEDED_UNIT], ids=["i", "seeded"])
def test_slice_layout_matches_horner(name, unit):
    grid = slice_grid(0.5, 24, 48)
    f = prepared(name, grid.max_radius)
    radii = grid.radial_nodes
    got = kernel_values(f, unit, grid, alpha=1.0)
    want = horner_on_circle(f, unit, radii, grid.circle_size, alpha=1.0)
    assert_close(got, want, f, radii, alpha=1.0)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_volume_half_circle_components_match_horner(name):
    grid = volume_grid(0.5, 12, 12, 8)
    n, index = grid.circle_size, grid.circle_index
    assert n == 2 * (grid.angular_nodes.size + 1)
    np.testing.assert_allclose(2.0 * math.pi * index / n, grid.angular_nodes,
                               rtol=0, atol=1e-15)
    f = prepared(name, grid.max_radius)
    radii = grid.radial_nodes
    assert_close(kernel_values(f, UNIT_I, grid, alpha=1.0),
                 horner_on_circle(f, UNIT_I, radii, n, index, alpha=1.0),
                 f, radii, alpha=1.0)
    # node n - j of the circle is the conjugate of node j
    full = kernel_values(f, UNIT_I, circle_grid(radii, n), alpha=1.0)
    assert_close(full[:, -index % n],
                 horner_on_circle(f, UNIT_I, radii, n, -index, alpha=1.0),
                 f, radii, alpha=1.0)
    # (a, b) of the representation formula are Re v and Im v
    v, e = weighted(f, grid, 1.0)
    z = np.outer(radii, np.exp(1j * grid.angular_nodes))
    want_a, want_b = slice_components(f, z.ravel(), prepare=False)
    weight = np.exp(-0.5 * radii ** 2)[:, None, None]
    assert_close(np.ldexp(v.real, e), want_a.reshape(v.shape) * weight, f, radii, 1.0)
    assert_close(np.ldexp(v.imag, e), want_b.reshape(v.shape) * weight, f, radii, 1.0)


@pytest.mark.parametrize("n_circle", [1, 2, 3, 7])
@pytest.mark.parametrize("name", ["exp", "random:8"])
def test_fold_aliases_above_the_node_count(name, n_circle):
    radii = np.array([0.0, 0.5, 3.0, 6.0])
    f = prepared(name, float(radii[-1]))
    assert f.degree >= n_circle
    got = kernel_values(f, SEEDED_UNIT, circle_grid(radii, n_circle))
    want = horner_on_circle(f, SEEDED_UNIT, radii, n_circle)
    assert_close(got, want, f, radii)


def test_single_node_is_the_real_axis():
    f = prepared("exp", 4.0)
    radii = np.array([0.0, 1.0, 4.0])
    got = kernel_values(f, SEEDED_UNIT, circle_grid(radii, 1))
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
    got = kernel_values(f, SEEDED_UNIT, circle_grid(radii, 16))
    want = horner_on_circle(f, SEEDED_UNIT, radii, 16)
    assert_close(got, want, f, radii)
    np.testing.assert_allclose(got[0, 0, 0], math.exp(radius), rtol=1e-13)


def test_zero_series_gives_zeros():
    f = random_series(3, 1) - random_series(3, 1)
    v, _ = weighted(f, circle_grid([0.0, 2.0], 5), 1.0)
    np.testing.assert_array_equal(v, 0.0)


def test_weighted_values_past_the_float_range_stay_finite():
    # q^250 at the outer nodes of the default p = 1 plane grid: r^250 is far
    # past the float range, r^250 e^{-r^2 / 2} is not, and neither is v
    grid = slice_grid(0.5)
    r = grid.radial_nodes
    assert 250 * math.log(r[-1]) > 709.8
    v, e = weighted(monomial(250), grid, 1.0)
    assert np.all(np.isfinite(v)) and np.max(np.abs(v)) <= 2.0
    amp = np.sqrt(np.sum(np.abs(v) ** 2, axis=-1))
    normal = amp[:, 0] > 1e-300           # the inner radii underflow, harmlessly
    assert normal[-1] and np.sum(normal) > r.size // 2
    got = np.log(amp[normal]) + e * math.log(2.0)
    want = 250 * np.log(r[normal]) - 0.5 * r[normal] ** 2
    np.testing.assert_allclose(got, np.broadcast_to(want[:, None], got.shape),
                               rtol=0.0, atol=1e-12 * np.max(np.abs(want)))
