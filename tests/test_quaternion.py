import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slicefock.quaternion import (
    DEFAULT_UNIT,
    ImaginaryUnit,
    Quaternion,
    UNIT_I,
    UNIT_J,
    UNIT_K,
    mul,
    perpendicular_unit,
    quat_mul_array,
    slice_exp,
    slice_unit,
    sphere_grid,
    trig_form,
    units_array,
)

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)


def test_unit_relations():
    assert I * J == K
    assert J * I == -K
    assert J * K == I
    assert K * J == -I
    assert K * I == J
    assert I * K == -J
    for u in (I, J, K):
        assert u * u == Quaternion(-1)


def test_mul_examples():
    q = Quaternion(0.3, -1.2, 0.5, 2.0)
    assert mul(q, Quaternion(1)) == q
    assert mul(Quaternion(1, 1, 0, 0), Quaternion(1, -1, 0, 0)) == Quaternion(2)


def quat_abs_array(p: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.square(p), axis=-1))


def test_mul_bulk_invariants(rng):
    n = 10_000
    a = rng.uniform(-1, 1, size=(n, 4))
    b = rng.uniform(-1, 1, size=(n, 4))
    c = rng.uniform(-1, 1, size=(n, 4))
    left = quat_mul_array(quat_mul_array(a, b), c)
    right = quat_mul_array(a, quat_mul_array(b, c))
    scale = np.maximum(quat_abs_array(left), 1e-30)
    assert np.max(quat_abs_array(left - right) / scale) < 1e-12

    norms = quat_abs_array(quat_mul_array(a, b))
    assert np.max(np.abs(norms - quat_abs_array(a) * quat_abs_array(b))
                  / np.maximum(norms, 1e-30)) < 1e-12


@given(quaternions, quaternions)
@settings(max_examples=50)
def test_norm_multiplicative(p, q):
    assert abs((p * q).norm() - p.norm() * q.norm()) <= 1e-10 * max(
        1.0, p.norm() * q.norm())


def test_slice_unit_examples():
    u, flag = slice_unit(Quaternion(1, 2, 0, 0))
    assert not flag and u == UNIT_I
    u, flag = slice_unit(Quaternion(0, 0, 3, 4))
    assert not flag
    assert u == ImaginaryUnit(0.0, 0.6, 0.8)
    u, flag = slice_unit(Quaternion(5))
    assert flag and u == DEFAULT_UNIT


def test_trig_form_examples():
    t = trig_form(Quaternion(1, 1, 0, 0))
    assert t.r == pytest.approx(math.sqrt(2))
    assert t.a == pytest.approx(math.pi / 4)
    assert t.unit == UNIT_I and not t.real_axis

    t = trig_form(Quaternion(-2))
    assert (t.r, t.a) == (2.0, math.pi)
    assert t.real_axis and t.unit == DEFAULT_UNIT

    t = trig_form(Quaternion(0, 1, 0, 0))
    assert t.r == 1.0 and t.a == pytest.approx(math.pi / 2)

    with pytest.raises(ValueError):
        trig_form(Quaternion())


def test_trig_form_reconstruct(rng):
    for _ in range(2000):
        q = Quaternion(*rng.uniform(-2, 2, size=4))
        if q.imag_norm() == 0.0:
            continue
        t = trig_form(q)
        assert 0.0 < t.a < math.pi
        err = (t.reconstruct() - q).norm() / q.norm()
        assert err < 1e-12


def test_slice_exp_examples():
    assert (slice_exp(UNIT_I, math.pi) - Quaternion(-1)).norm() < 1e-12
    assert (slice_exp(UNIT_J, math.pi / 2) - J).norm() < 1e-12
    u = ImaginaryUnit.from_vector((1.0, 1.0, -1.0))
    e = slice_exp(u, 0.7)
    assert ((e * e * e) - slice_exp(u, 2.1)).norm() < 1e-12


def test_slice_exp_power_law():
    u = ImaginaryUnit.from_vector((0.3, -1.0, 0.2))
    t = 0.31
    acc = Quaternion(1)
    for k in range(1, 65):
        acc = acc * slice_exp(u, t)
        assert (acc - slice_exp(u, k * t)).norm() < 1e-12


def test_slice_exp_addition(rng):
    for _ in range(500):
        u = ImaginaryUnit.from_vector(rng.normal(size=3))
        s, t = rng.uniform(-3, 3, size=2)
        lhs = slice_exp(u, s) * slice_exp(u, t)
        assert (lhs - slice_exp(u, s + t)).norm() < 1e-12


def test_sphere_grid_contains_canonical_units():
    g = sphere_grid(3)
    assert set(g) == {UNIT_I, UNIT_J, UNIT_K}
    g = sphere_grid(100)
    assert g[:3] == (UNIT_I, UNIT_J, UNIT_K)
    arr = units_array(g)
    assert np.max(np.abs(np.linalg.norm(arr, axis=1) - 1.0)) < 1e-14
    dots = np.clip(arr @ arr.T, -1.0, 1.0)
    np.fill_diagonal(dots, -1.0)
    assert np.arccos(np.max(dots)) > 0.0


def test_sphere_grid_rejects_empty():
    with pytest.raises(ValueError):
        sphere_grid(0)


def test_perpendicular_unit(rng):
    for _ in range(200):
        u = ImaginaryUnit.from_vector(rng.normal(size=3))
        v = perpendicular_unit(u)
        assert abs(u.dot(v)) < 1e-12


def test_imaginary_unit_validation():
    with pytest.raises(ValueError):
        ImaginaryUnit(1.0, 1.0, 0.0)
    u = ImaginaryUnit.from_vector((1.0, 1.0, 1.0))
    q = u.as_quaternion()
    assert (q * q - Quaternion(-1)).norm() < 1e-14
