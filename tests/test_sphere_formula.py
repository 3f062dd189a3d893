"""First-kind integrals through the representation formula, checked against
the per-plane sphere quadrature they replace.

On q = x + u y a slice-regular f equals a + u b with a, b read off one
plane, so every sphere integral is exact.  The oracles below are the
original loops over the sphere nodes of a volume grid, one plane
evaluation per node.
"""

import math

import numpy as np
import pytest

from conftest import first_kind_gram
from slicefock.approx import best_approx_first
from slicefock.errors import NotInSpaceError
from slicefock.quaternion import (
    ImaginaryUnit,
    left_mult_matrix,
    quat_conj_array,
    quat_mul_array,
    sphere_grid,
)
from slicefock.quadrature import _sphere_rule, volume_grid
from slicefock.series import (
    SliceSeries,
    eval_on_slice,
    gauss_series,
    prepared_for_radius,
    slice_components,
)
from slicefock.spaces import (
    NormSpec,
    _affine_square,
    _sphere_power,
    _volume_raw_power,
    _weighted_plane,
    inner_first,
    norm,
    prepared_for_grid,
)


def seeded_series(degree, seed):
    rng = np.random.default_rng(seed)
    return SliceSeries(rng.uniform(-1.0, 1.0, size=(degree + 1, 4)))


def plane_nodes(grid):
    z = np.outer(grid.radial_nodes, np.exp(1j * grid.angular_nodes)).ravel()
    w = np.outer(grid.radial_weights, grid.angular_weights).ravel()
    return z, w


def sphere_planes(grid):
    for u, wu in zip(grid.sphere_units, grid.sphere_weights):
        yield ImaginaryUnit(u[0], u[1], u[2]), wu


def loop_raw_power(f, grid, p, alpha):
    """Raw first-kind integral of the weighted |f|^p, plane by plane."""
    z = np.outer(grid.radial_nodes, np.exp(1j * grid.angular_nodes))
    half = np.exp(-0.5 * alpha * np.abs(z.ravel()) ** 2)
    raw = 0.0
    for unit, wu in sphere_planes(grid):
        vals = eval_on_slice(f, unit, z.ravel(), prepare=False)
        amp = (np.sqrt(np.sum(vals * vals, axis=1)) * half).reshape(z.shape)
        raw += wu * float(grid.radial_weights @ ((amp ** p) @ grid.angular_weights))
    return raw


def loop_norm_first(f, p, alpha, grid):
    fe = prepared_for_grid(f, alpha, grid)[0]
    raw = loop_raw_power(fe, grid, p, alpha)
    pref = alpha * p / (2.0 * math.pi)
    return (pref * pref * raw) ** (1.0 / p)


def loop_inner_first(f, g, alpha, grid):
    z, wq = plane_nodes(grid)
    fe, _ = prepared_for_radius(f, grid.max_radius)
    ge, _ = prepared_for_radius(g, grid.max_radius)
    half = np.exp(-0.5 * alpha * np.abs(z) ** 2)[:, None]
    comps = np.zeros(4)
    for unit, wu in sphere_planes(grid):
        fv = eval_on_slice(fe, unit, z, prepare=False) * half
        gv = eval_on_slice(ge, unit, z, prepare=False) * half
        comps += wu * (wq @ quat_mul_array(quat_conj_array(fv), gv))
    return comps * (alpha / math.pi) ** 2


def loop_first_kind_rhs(f, n, alpha, grid):
    z, wq = plane_nodes(grid)
    half = np.exp(-0.5 * alpha * np.abs(z) ** 2)
    fe, _ = prepared_for_radius(f, grid.max_radius)
    vand = (z[:, None] ** np.arange(n + 1)).conj() * half[:, None]
    b = np.zeros((n + 1, 4))
    nf2 = 0.0
    for unit, wu in sphere_planes(grid):
        lm = left_mult_matrix(unit.as_quaternion()).T
        fv = eval_on_slice(fe, unit, z, prepare=False) * half[:, None]
        b += wu * ((vand.real * wq[:, None]).T @ fv
                   + (vand.imag * wq[:, None]).T @ (fv @ lm))
        nf2 += wu * float(np.dot(wq, np.sum(fv * fv, axis=1)))
    pref = (alpha / math.pi) ** 2
    return pref * b, pref * nf2


def test_affine_square_is_plane_modulus():
    f = seeded_series(8, 5)
    z = np.array([0.3 + 1.1j, -1.2 + 0.4j, 0.7 - 0.9j])
    amp_sq, w = _affine_square(*slice_components(f, z))
    for unit in sphere_grid(7):
        vals = eval_on_slice(f, unit, z)
        np.testing.assert_allclose(amp_sq + w @ unit.vector(),
                                   np.sum(vals * vals, axis=1), rtol=1e-12)


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_first_norm_odd_p_matches_fine_sphere(p):
    f = seeded_series(8, 11)
    grid = volume_grid(p / 2.0)
    fine = volume_grid(p / 2.0, 64, 64, 1024)
    got = norm(f, NormSpec("first", p, 1.0), grid)
    want = loop_norm_first(f, p, 1.0, fine)
    assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_first_norm_even_p_matches_default_sphere(p):
    # (A + u.w)^(p/2) is a polynomial of degree p/2 on the sphere, which
    # the 64-node rule integrates exactly
    f = seeded_series(8, 12)
    grid = volume_grid(p / 2.0)
    got = norm(f, NormSpec("first", p, 1.0), grid)
    assert got == pytest.approx(loop_norm_first(f, p, 1.0, grid), rel=1e-13)


def test_volume_raw_power_matches_sphere_loop_for_real_coefficients():
    # real coefficients: |f| is the same on every plane, so a small sphere
    # rule is exact; the loop's Horner reads the stored rows, which are 0
    # from k0 = 280, the kernel their closed form, whose mass is below
    # every digit here
    f = gauss_series(0.25)
    grid = volume_grid(0.5, 64, 64, 8)
    fe = prepared_for_grid(f, 1.0, grid).series
    assert np.any(fe.row_norms[::2] == 0.0)
    v, e = _weighted_plane(fe.directions, fe.log_row_norms, grid, 1.0)
    raw = math.ldexp(_volume_raw_power(v, grid, 1.0), e)     # 2^{e p} at p = 1
    assert raw == pytest.approx(loop_raw_power(fe, grid, 1.0, 1.0), rel=1e-13)


@pytest.mark.parametrize("p", [1.0, 2.5, 3.0, 4.0])
def test_sphere_power_matches_sphere_rule(p):
    rng = np.random.default_rng(7)
    w = rng.normal(size=(40, 3))
    wnorm = np.linalg.norm(w, axis=1)
    amp_sq = wnorm * rng.uniform(1.5, 4.0, size=40)
    amp_sq[:3] = [1.0, 0.0, 2.0]
    w[:3] = 0.0
    wnorm[:3] = 0.0
    units, weights = _sphere_rule(1024)
    x = amp_sq[:, None] + w @ units.T
    want_power = (x ** (p / 2.0)) @ weights
    np.testing.assert_allclose(_sphere_power(amp_sq, wnorm, p), want_power,
                               rtol=1e-12, atol=0.0)


def test_inner_first_matches_sphere_loop():
    f, g = seeded_series(6, 21), seeded_series(5, 22)
    alpha = 1.3
    grid = volume_grid(alpha)
    got = inner_first(f, g, alpha, grid).to_array()
    want = loop_inner_first(f, g, alpha, grid)
    scale = math.sqrt(loop_inner_first(f, f, alpha, grid)[0]
                      * loop_inner_first(g, g, alpha, grid)[0])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * scale)


def test_best_approx_first_matches_sphere_loop():
    f = seeded_series(8, 31)
    alpha, n = 1.0, 5
    grid = volume_grid(alpha)
    want_b, want_nf2 = loop_first_kind_rhs(f, n, alpha, grid)
    gram = first_kind_gram(n, alpha, grid)
    coeffs = np.linalg.solve(gram, want_b)
    want_value = math.sqrt(want_nf2 - float(np.sum(coeffs * want_b)))
    res = best_approx_first(f, n, alpha, grid)
    np.testing.assert_allclose(res.minimizer.coeffs, coeffs, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(coeffs)))
    assert res.value ** 2 == pytest.approx(want_value ** 2, abs=1e-13 * want_nf2)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_sup_norm_is_max_of_plane_norms(p):
    f = seeded_series(8, 41)
    m = 12
    got = norm(f, NormSpec("second", p, 1.0, sup_samples=m))
    want = max(norm(f, NormSpec("second", p, 1.0, slice_unit=u))
               for u in sphere_grid(m))
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_first_kind_divergence_gate(p):
    with pytest.raises(NotInSpaceError):
        norm(gauss_series(0.6), NormSpec("first", p, 1.0))
