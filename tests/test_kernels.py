import math

import numpy as np
import pytest

from slicefock.errors import ConditioningError
from slicefock.kernels import fit_with_sections, kernel_section, section_value
from slicefock.quaternion import Quaternion, UNIT_I
from slicefock.series import exp_series, monomial, taylor_truncate
from slicefock.spaces import inner_second


def test_section_at_zero_center_is_one():
    for r in (Quaternion(), Quaternion(2, 1, 0.5, 0)):
        v = section_value(Quaternion(), 1.0, r)
        assert (v - Quaternion(1)).norm() < 1e-14


def test_section_real_arguments_scalar_exponential():
    got = section_value(Quaternion(0.7), 1.3, Quaternion(0.5))
    assert got.w == pytest.approx(math.exp(1.3 * 0.5 * 0.7), rel=1e-14)
    assert got.imag_norm() == 0.0


def test_section_same_slice_matches_complex_kernel():
    z0 = complex(0.4, 0.6)
    r = complex(0.2, -0.9)
    alpha = 1.1
    got = section_value(Quaternion(z0.real, z0.imag, 0, 0), alpha,
                      Quaternion(r.real, r.imag, 0, 0))
    want = np.exp(alpha * r * np.conj(z0))
    assert abs(complex(got.w, got.x) - want) < 1e-10 * abs(want)
    assert abs(got.y) + abs(got.z) < 1e-14


def test_section_reproduces_basis_values():
    # <section(q0), e_k> = e_k(q0): the reproducing identity, by quadrature
    alpha = 1.0
    q0 = Quaternion(0.3, -0.5, 0.2, 0.4)
    s = kernel_section(q0, alpha)
    from slicefock.series import evaluate

    for k in (0, 1, 3):
        ek = monomial(k, Quaternion(math.sqrt(alpha ** k / math.factorial(k))))
        got = inner_second(s, ek, alpha)
        want = evaluate(ek, q0)
        assert (got - want).norm() < 1e-10 * max(1.0, want.norm())


def test_fit_exact_member():
    q0 = Quaternion(0.3, -0.2, 0.5, 0.1)
    fit = fit_with_sections(kernel_section(q0, 1.0), [q0], 1.0)
    assert (fit.coefficients[0] - Quaternion(1)).norm() < 1e-10
    assert fit.residual < 1e-10


def test_fit_constant_at_zero_center():
    fit = fit_with_sections(monomial(0), [Quaternion()], 1.0)
    assert (fit.coefficients[0] - Quaternion(1)).norm() < 1e-12
    assert fit.residual < 1e-12


def test_fit_nested_centers_monotone():
    f = monomial(2)
    centers3 = [Quaternion(t) for t in (-0.9, 0.0, 0.9)]
    centers5 = centers3 + [Quaternion(-0.45), Quaternion(0.45)]
    r3 = fit_with_sections(f, centers3, 1.0).residual
    r5 = fit_with_sections(f, centers5, 1.0).residual
    assert r5 <= r3 + 1e-12
    assert r5 < r3


def test_fit_rejects_duplicate_centers():
    with pytest.raises(ValueError):
        fit_with_sections(monomial(1), [Quaternion(0.5), Quaternion(0.5)], 1.0)
    with pytest.raises(ValueError):
        fit_with_sections(monomial(1), [], 1.0)


def test_fit_clustered_centers_condition_error():
    centers = [Quaternion(0.5), Quaternion(0.5 + 1e-12)]
    with pytest.raises(ConditioningError) as err:
        fit_with_sections(monomial(1), centers, 1.0)
    assert err.value.condition is None or err.value.condition > 1e12


def test_fit_quaternion_centers():
    # centers off a common plane still give a solvable quaternion system
    centers = [Quaternion(0.2, 0.4, 0, 0), Quaternion(-0.1, 0, 0.6, 0),
               Quaternion(0.0, 0, 0, -0.5)]
    f = taylor_truncate(exp_series(), 4)
    fit = fit_with_sections(f, centers, 1.0)
    assert fit.residual >= 0.0
    more = fit_with_sections(f, centers + [Quaternion(0.7)], 1.0)
    assert more.residual <= fit.residual + 1e-12


def test_density_trend_interior_grid():
    f8 = taylor_truncate(exp_series(), 8)
    for f in (monomial(1), monomial(2), f8):
        res = {}
        for n in (2, 8):
            centers = [Quaternion(-1 + 2 * k / (n + 1)) for k in range(1, n + 1)]
            res[n] = fit_with_sections(f, centers, 1.0).residual
        assert res[2] >= 10 * res[8]
