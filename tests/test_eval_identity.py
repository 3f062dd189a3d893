"""Scattered-point evaluation against a quaternion Horner recursion.

``eval_on_slice`` and ``slice_components`` read the values from the
componentwise sum S(z) = sum_k z^k a_k through f(x + u y) = Re S + u Im S.
The oracle here shares nothing with that identity: it runs Horner with the
quaternion q = x + u y multiplying from the left, s -> q s + a_k, through the
4x4 left-multiplication matrix of u.  Agreement is measured against each
point's term scale sum_k |a_k| |z|^k.
"""

import math

import numpy as np
import pytest

from slicefock.kernels import kernel_section
from slicefock.quaternion import (
    UNIT_I,
    UNIT_J,
    UNIT_K,
    ImaginaryUnit,
    Quaternion,
    left_mult_matrix,
)
from slicefock.series import (
    _row_norms,
    dilate,
    eval_on_slice,
    evaluate,
    exp_series,
    gauss_series,
    log_abs_evaluate,
    monomial,
    prepared_for_radius,
    random_series,
    slice_components,
)

TOL = 1e-13

FAMILIES = {
    "exp": (lambda: exp_series(), 30.0),
    "gauss:0.25": (lambda: gauss_series(0.25), 10.0),
    "gauss:-0.4": (lambda: gauss_series(-0.4), 6.0),
    "kernel-section": (lambda: kernel_section(Quaternion(0.6, -0.4, 1.1, 0.3), 1.0),
                       20.0),
    "dilated exp": (lambda: dilate(exp_series(), 0.3), 60.0),
    "monomial": (lambda: monomial(7, Quaternion(0.5, -1.0, 2.0, 0.25)), 3.0),
    "random:8": (lambda: random_series(8, 5), 4.0),
}

UNITS = (UNIT_I, UNIT_J, UNIT_K,
         ImaginaryUnit.from_vector(np.random.default_rng(9).normal(size=3)))


def quaternion_horner(coeffs, unit, z):
    """sum_k (x + unit y)^k a_k by s -> (x + unit y) s + a_k."""
    lm = left_mult_matrix(unit.as_quaternion()).T
    x = z.real[:, None]
    y = z.imag[:, None]
    out = np.broadcast_to(coeffs[-1], (z.shape[0], 4)).copy()
    for k in range(coeffs.shape[0] - 2, -1, -1):
        out = x * out + y * (out @ lm) + coeffs[k]
    return out


def term_scale(coeffs, z):
    """sum_k |a_k| |z|^k per point, summed in log space (at least the
    smallest normal float, so that a vanishing value divides cleanly)."""
    mags = _row_norms(coeffs)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(mags) + np.multiply.outer(np.log(np.abs(z)),
                                                np.arange(mags.size))
    logs[:, 0] = math.log(mags[0]) if mags[0] > 0.0 else -math.inf
    top = np.max(logs, axis=1)
    top = np.where(np.isfinite(top), top, 0.0)
    scale = np.exp(top) * np.sum(np.exp(logs - top[:, None]), axis=1)
    return np.maximum(scale, np.finfo(float).tiny)


def points(radius, n=200, seed=3):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    z = r * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    return np.concatenate([z, [0.0, radius, -radius, 1j * radius]])


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("unit", UNITS, ids=["i", "j", "k", "seeded"])
def test_eval_on_slice_matches_quaternion_horner(name, unit):
    make, radius = FAMILIES[name]
    z = points(radius)
    f, _ = prepared_for_radius(make(), radius)
    want = quaternion_horner(f.coeffs, unit, z)
    got = eval_on_slice(make(), unit, z)
    err = np.max(np.abs(got - want), axis=1) / term_scale(f.coeffs, z)
    assert np.max(err) <= TOL, float(np.max(err))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_slice_components_match_the_representation_formula(name):
    make, radius = FAMILIES[name]
    z = points(radius, n=100)
    f, _ = prepared_for_radius(make(), radius)
    plus = quaternion_horner(f.coeffs, UNIT_I, z)
    minus = quaternion_horner(f.coeffs, UNIT_I, z.conj())
    lm = left_mult_matrix(UNIT_I.as_quaternion()).T
    a, b = slice_components(make(), z)
    scale = term_scale(f.coeffs, z)[:, None]
    assert np.max(np.abs(a - 0.5 * (plus + minus)) / scale) <= TOL
    assert np.max(np.abs(b + 0.5 * ((plus - minus) @ lm)) / scale) <= TOL
    # f(x + u y) = a + u b on another plane
    unit = UNITS[-1]
    on_u = quaternion_horner(f.coeffs, unit, z)
    rebuilt = a + b @ left_mult_matrix(unit.as_quaternion()).T
    assert np.max(np.abs(rebuilt - on_u) / scale) <= TOL


def test_evaluate_matches_quaternion_powers():
    f = random_series(6, 17)
    q = Quaternion(0.4, -1.2, 0.7, 0.3)
    want = Quaternion()
    power = Quaternion(1.0)
    for k in range(f.degree + 1):
        want = want + power * f.coefficient(k)
        power = power * q
    assert (evaluate(f, q) - want).norm() <= 1e-13 * max(1.0, want.norm())


def test_empty_and_unprepared_inputs():
    f = exp_series(8)
    assert eval_on_slice(f, UNIT_J, np.array([])).shape == (0, 4)
    z = np.array([0.5 + 0.25j])
    assert np.allclose(eval_on_slice(f, UNIT_J, z, prepare=False),
                       quaternion_horner(f.coeffs, UNIT_J, z), rtol=0, atol=1e-15)


def test_tiny_arguments_keep_their_plane_and_modulus():
    # squares of these components underflow; the plane and |q| must not
    tiny = Quaternion(0.0, 0.0, 0.0, 6e-158)
    assert evaluate(exp_series(), tiny) == Quaternion(1.0, 0.0, 0.0, 6e-158)
    unit = ImaginaryUnit.from_vector([1e-320, 0.0, 3e-321])
    assert unit.x ** 2 + unit.z ** 2 == pytest.approx(1.0, abs=1e-15)
    assert Quaternion(3e-170, 4e-170, 0.0, 0.0).norm() == pytest.approx(5e-170,
                                                                         rel=1e-15)
    got = log_abs_evaluate(monomial(1), Quaternion(1e-170))
    assert got == pytest.approx(math.log(1e-170), rel=1e-15)
