import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slicefock.operators import (
    MultiplierOperator,
    apply,
    fejer_kernel,
    fejer_op,
    jackson_kernel,
    jackson_op,
    jackson_rule_r,
    kernel_eval,
    moment_bound,
    multipliers,
    normalize_jackson,
    rotational_average,
    taylor_op,
    vdp_op,
)
from slicefock.quaternion import ImaginaryUnit, Quaternion, slice_exp
from slicefock.quadrature import circle_average
from slicefock.series import SliceSeries, dilate, evaluate, exp_series, random_series
from slicefock.spaces import NormSpec, norm
from conftest import random_poly_coeffs


def test_fejer_kernel_values():
    k = fejer_kernel(8)
    assert kernel_eval(k, 0.0) == pytest.approx(8 / (2 * math.pi), rel=1e-12)
    assert kernel_eval(k, 2 * math.pi / 8) == pytest.approx(0.0, abs=1e-30)
    t = 0.37
    assert kernel_eval(k, t) == kernel_eval(k, -t)


def test_kernel_singularity_guard_continuous():
    k = fejer_kernel(32)
    inside = kernel_eval(k, 5e-7)
    outside = kernel_eval(k, 2e-6)
    assert inside == pytest.approx(kernel_eval(k, 0.0), rel=1e-9)
    assert outside == pytest.approx(inside, rel=1e-6)


def test_normalize_jackson():
    assert normalize_jackson(5, 1) == pytest.approx(2 * math.pi * 5, rel=1e-12)
    for (n, r) in ((3, 2), (6, 3), (16, 2)):
        k = jackson_kernel(n, r)
        total = circle_average(lambda t: kernel_eval(k, t), 8 * r * n)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert k.lam > 0
        assert k.trig_degree == r * (n - 1)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
def test_fejer_multipliers_closed_form(n):
    rho = multipliers(fejer_kernel(n))
    assert rho.shape == (n,)
    assert np.max(np.abs(rho - (1 - np.arange(n) / n))) < 1e-12


def test_multipliers_start_at_one():
    for kernel in (fejer_kernel(6), jackson_kernel(6, 2), jackson_kernel(4, 3)):
        rho = multipliers(kernel)
        assert rho[0] == pytest.approx(1.0, abs=1e-12)


def test_vdp_multipliers():
    op = vdp_op(4)
    assert op.degree_bound == 7
    assert np.max(np.abs(op.rho[:5] - 1.0)) < 1e-12
    assert np.allclose(op.rho[5:], [0.75, 0.5, 0.25], atol=1e-12)
    op1 = vdp_op(1)
    assert np.max(np.abs(op1.rho - 1.0)) < 1e-12


def test_vdp_reproduces_low_degree(rng):
    for n in (2, 5, 9):
        f = SliceSeries(random_poly_coeffs(rng, n))
        g = apply(vdp_op(n), f)
        assert np.max(np.abs(g.coeffs[: n + 1] - f.coeffs)) < 1e-12


def test_jackson_rule():
    assert jackson_rule_r(1, 2.0) == 3
    assert jackson_rule_r(0, 1.0) == 2
    assert jackson_rule_r(0, 2.0) == 2
    assert jackson_rule_r(2, 1.0) == 3


def test_jackson_op_structure():
    op = jackson_op(6, 1, 2.0)
    assert op.degree_bound == 3 * 5
    assert op.rho[0] == pytest.approx(1.0, abs=1e-12)
    # single-term case m = 0 reduces to the kernel's own moments
    op0 = jackson_op(6, 0, 2.0)
    want = multipliers(jackson_kernel(6, 2))
    assert np.max(np.abs(op0.rho - want)) < 1e-12


def test_degree_bounds_are_sharp():
    rho = multipliers(fejer_kernel(7))
    assert rho.size == 7                       # vanishing from degree n on
    op = jackson_op(5, 1, 2.0)
    k = jackson_kernel(5, 3)
    nodes = 8 * 3 * 5
    beyond = [circle_average(lambda t: np.cos(j * t) * kernel_eval(k, t), nodes)
              for j in range(k.trig_degree + 1, k.trig_degree + 4)]
    assert np.max(np.abs(beyond)) < 1e-12


def test_apply_identity_and_dilate_commute(rng):
    f = SliceSeries(random_poly_coeffs(rng, 6))
    ident = MultiplierOperator(np.ones(7), "identity", 6)
    assert np.array_equal(apply(ident, f).coeffs, f.coeffs)
    op = vdp_op(3)
    a = apply(op, dilate(f, 0.5))
    b = dilate(apply(op, f), 0.5)
    assert np.allclose(a.coeffs, b.coeffs, rtol=0, atol=1e-15)


def test_fejer_against_rotational_integral():
    q = Quaternion(1, 1, 0, 0)
    lhs = evaluate(apply(fejer_op(5), exp_series()), q)
    rhs = rotational_average(fejer_kernel(5), exp_series(), q)
    assert (lhs - rhs).norm() < 1e-10


def test_multiplier_vs_integral_random_family(rng):
    for _ in range(10):
        f = SliceSeries(random_poly_coeffs(rng, 12))
        q = Quaternion(*rng.uniform(-1, 1, size=4))
        q = q * (2.0 / max(abs(q), 1e-9) * rng.uniform(0.2, 1.0))
        for op, kernel in ((fejer_op(6), fejer_kernel(6)),
                           (jackson_op(4, 0, 2.0), jackson_kernel(4, 2))):
            lhs = evaluate(apply(op, f), q)
            if kernel.family == "fejer":
                rhs = rotational_average(kernel, f, q)
                assert (lhs - rhs).norm() < 1e-9 * max(1.0, rhs.norm())


def test_slice_independence_of_coefficients(rng):
    # the same multiplier action matches the rotational integral on any slice
    f = SliceSeries(random_poly_coeffs(rng, 8))
    kernel = fejer_kernel(5)
    op = fejer_op(5)
    r, theta = 1.3, 0.8
    for unit in (ImaginaryUnit(1, 0, 0),
                 ImaginaryUnit.from_vector((1, 0, 1))):
        q = slice_exp(unit, theta) * r
        lhs = evaluate(apply(op, f), q)
        rhs = rotational_average(kernel, f, q)
        assert (lhs - rhs).norm() < 1e-10 * max(1.0, rhs.norm())


def test_jackson_direct_integral(rng):
    # alternating binomial combination of rotated samples, m = 1
    f = SliceSeries(random_poly_coeffs(rng, 8))
    n, m, p = 4, 1, 2.0
    r = jackson_rule_r(m, p)
    kernel = jackson_kernel(n, r)
    op = jackson_op(n, m, p)
    q = Quaternion(0.4, 0.8, -0.3, 0.1)
    from slicefock.quadrature import circle_nodes
    from slicefock.series import eval_on_slice, prepared_for_radius
    from slicefock.quaternion import slice_unit as axis_of

    unit, _ = axis_of(q)
    theta = math.atan2(q.imag_norm(), q.w)
    nodes = 4096
    t = circle_nodes(nodes)
    kv = kernel_eval(kernel, t)
    fe, _ = prepared_for_radius(f, abs(q))
    acc = np.zeros(4)
    for k in range(1, m + 2):
        z = abs(q) * np.exp(1j * (theta + k * t))
        vals = eval_on_slice(fe, unit, z, prepare=False)
        acc += -((-1.0) ** k) * math.comb(m + 1, k) * (
            (kv * (2 * math.pi / nodes)) @ vals)
    lhs = evaluate(apply(op, f), q)
    assert np.max(np.abs(lhs.to_array() - acc)) < 1e-9


@pytest.mark.parametrize("m,p", [(0, 1.0), (0, 2.0), (1, 2.0)])
def test_moment_bounds_uniform(m, p):
    vals = np.array([moment_bound(n, m, p) for n in (4, 8, 16, 32, 64)])
    assert np.all(vals > 0)
    assert vals.max() / vals.min() < 4.0


def test_moment_bound_monotone_in_p():
    for n in (4, 16):
        assert moment_bound(n, 0, 1.0) <= moment_bound(n, 0, 2.0) <= \
            moment_bound(n, 0, 3.0)


def test_vdp_contraction(rng):
    const = lambda p: 2.0 ** ((p - 1) / p) * (2.0 ** p + 1.0) ** (1.0 / p)
    for p in (1.0, 2.0, 3.0):
        spec = NormSpec("second", p, 1.0)
        for _ in range(5):
            f = SliceSeries(random_poly_coeffs(rng, 7))
            g = SliceSeries(random_poly_coeffs(rng, 7))
            n = int(rng.integers(1, 6))
            lhs = norm(apply(vdp_op(n), f) - apply(vdp_op(n), g), spec)
            rhs = const(p) * norm(f - g, spec)
            assert lhs <= rhs * (1 + 1e-9)


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=25, deadline=None)
def test_multipliers_real_and_bounded(n):
    rho = multipliers(fejer_kernel(n))
    assert np.all(np.abs(rho) <= 1.0 + 1e-12)
    assert np.all(np.isreal(rho))


def test_parameter_validation():
    with pytest.raises(ValueError):
        fejer_kernel(0)
    with pytest.raises(ValueError):
        normalize_jackson(2, 0)
    with pytest.raises(ValueError):
        jackson_op(4, -1, 2.0)
    with pytest.raises(ValueError):
        jackson_op(4, 0, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        taylor_op(-1)
    assert taylor_op(0).rho.tolist() == [1.0]


def test_moment_integrand_at_zero_is_kernel_value():
    n, m, p = 8, 0, 2.0
    r = jackson_rule_r(m, p)
    k = jackson_kernel(n, r)
    # the polynomial weight (n|t| + 1)^((m+1)p) equals 1 at t = 0
    t = np.array([0.0])
    weight = (n * np.abs(t) + 1.0) ** ((m + 1) * p)
    assert float(weight[0] * kernel_eval(k, 0.0)) == pytest.approx(
        kernel_eval(k, 0.0), rel=1e-15)


def test_apply_commutes_with_right_scalars(rng):
    lam = Quaternion(0.2, -0.5, 0.8, 0.1)
    f = SliceSeries(random_poly_coeffs(rng, 5))
    f_lam = SliceSeries(np.stack([
        (Quaternion.from_array(row) * lam).to_array() for row in f.coeffs]))
    op = vdp_op(2)
    lhs = apply(op, f_lam)
    rhs_rows = np.stack([
        (Quaternion.from_array(row) * lam).to_array()
        for row in apply(op, f).coeffs])
    assert np.allclose(lhs.coeffs, rhs_rows, rtol=0, atol=1e-14)
