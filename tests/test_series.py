import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slicefock.errors import TruncationError
from slicefock.quaternion import ImaginaryUnit, Quaternion, UNIT_I, UNIT_J, UNIT_K
from slicefock.series import (
    SliceSeries,
    dilate,
    eval_on_slice,
    evaluate,
    exp_series,
    from_quaternions,
    gauss_series,
    log_abs_evaluate,
    monomial,
    prepared_for_radius,
    random_series,
    read_coefficients,
    representation_formula,
    slice_components,
    slice_evaluator,
    split,
    taylor_truncate,
    write_coefficients,
)
from conftest import random_poly_coeffs, random_unit


def test_evaluate_monomial_power():
    v = evaluate(monomial(3), Quaternion(0, 2, 0, 0))
    assert (v - Quaternion(0, -8, 0, 0)).norm() < 1e-12


def test_evaluate_exp_real_axis():
    v = evaluate(exp_series(), Quaternion(1))
    assert v.norm() == pytest.approx(math.e, rel=1e-12)
    assert abs(v.w - math.e) < 1e-12


def test_evaluate_single_term_product():
    f = from_quaternions([Quaternion(), Quaternion(0, 0, 1, 0)])  # q * j
    v = evaluate(f, Quaternion(0, 1, 0, 0))
    assert (v - Quaternion(0, 0, 0, 1)).norm() < 1e-14


def test_evaluate_matches_horner_reference(rng):
    for _ in range(50):
        coeffs = random_poly_coeffs(rng, 12)
        f = SliceSeries(coeffs)
        q = Quaternion(*rng.uniform(-1, 1, size=4)) * 2.0
        ref = Quaternion()
        power = Quaternion(1)
        for k in range(13):
            ref = ref + power * Quaternion.from_array(coeffs[k])
            power = power * q
        got = evaluate(f, q)
        assert (got - ref).norm() <= 1e-12 * max(1.0, ref.norm())


def test_generator_coefficients_exact():
    f = exp_series(degree=10)
    for k in range(11):
        assert f.coeffs[k, 0] == pytest.approx(1.0 / math.factorial(k), rel=0, abs=0)
    g = gauss_series(0.25, degree=10)
    assert g.coeffs[4, 0] == 0.25 ** 2 / 2
    assert g.coeffs[5].tolist() == [0, 0, 0, 0]


def test_tail_guard_raises_past_cap():
    with pytest.raises(TruncationError):
        prepared_for_radius(exp_series(), 400.0)


def test_dilate_examples():
    f = exp_series()
    assert dilate(f, 1.0).coeffs is f.coeffs or np.array_equal(
        dilate(f, 1.0).coeffs, f.coeffs)
    d = dilate(monomial(2), 0.5)
    assert d.coeffs[2, 0] == 0.25
    d = dilate(f, 0.9)
    for k in range(10):
        assert d.coeffs[k, 0] == pytest.approx(0.9 ** k / math.factorial(k),
                                               rel=1e-15)
    q = Quaternion(0.5, 1.0, -0.25, 0.75)
    lhs = evaluate(d, q)
    rhs = evaluate(f, q * 0.9)
    assert (lhs - rhs).norm() < 1e-12 * rhs.norm()


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.0001])
def test_dilate_domain(bad):
    with pytest.raises(ValueError):
        dilate(exp_series(), bad)


#: Rounding budget of test_dilate_composes at degree 6, in units of
#: u = 2^-53.  Row k of dilate(f, r s) is fl(a_k fl(fl(r s)^k)): the product
#: r s rounds once (u), which the k-th power raises to k u, the power rounds
#: within an ulp (2 u) and the product with a_k once more (u), (k + 3) u in
#: all.  Row k of dilate(dilate(f, r), s) rounds two powers and two products,
#: 6 u.  The two rows differ by at most (k + 9) u = 15 u at k = 6, plus
#: second-order terms: 16 u covers it.  (r = s = 0.06323289822467333 gives
#: 9.7e-16 relative between (r s)^6 and r^6 s^6 alone.)
DILATE_ROUNDING = 16 * 2.0 ** -53


@given(st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=0.05, max_value=1.0))
@example(0.06323289822467333, 0.06323289822467333)
@settings(max_examples=50)
def test_dilate_composes(r, s):
    f = random_series(6, 99)
    once = dilate(f, r * s)
    twice = dilate(dilate(f, r), s)
    assert np.array_equal(once.coeffs, twice.coeffs) or np.allclose(
        once.coeffs, twice.coeffs, rtol=DILATE_ROUNDING, atol=0)


def test_dilated_generator_still_extends():
    d = dilate(exp_series(degree=4), 0.5)
    fe, tail = prepared_for_radius(d, 3.0)
    assert fe.degree > 4
    assert fe.coeffs[10, 0] == pytest.approx(0.5 ** 10 / math.factorial(10),
                                             rel=1e-14)
    assert tail < 1e-13


def test_truncate_examples():
    p = random_series(5, 3)
    assert np.array_equal(taylor_truncate(p, 8).coeffs[:6], p.coeffs)
    t = taylor_truncate(exp_series(), 2)
    assert t.coeffs[:, 0].tolist() == [1.0, 1.0, 0.5]
    again = taylor_truncate(t, 2)
    assert np.array_equal(again.coeffs, t.coeffs)


def test_truncate_right_linear(rng):
    f = SliceSeries(random_poly_coeffs(rng, 9))
    g = SliceSeries(random_poly_coeffs(rng, 9))
    lam = Quaternion(0.3, -0.6, 0.1, 0.9)
    fg = SliceSeries(np.stack([
        (Quaternion.from_array(a) * lam + Quaternion.from_array(b)).to_array()
        for a, b in zip(f.coeffs, g.coeffs)]))
    t = taylor_truncate(fg, 4)
    want = np.stack([
        (Quaternion.from_array(a) * lam + Quaternion.from_array(b)).to_array()
        for a, b in zip(taylor_truncate(f, 4).coeffs, taylor_truncate(g, 4).coeffs)])
    assert np.allclose(t.coeffs, want, rtol=0, atol=1e-15)


def test_split_real_coefficients():
    pair = split(exp_series(), UNIT_I, UNIT_J)
    assert np.max(np.abs(pair.g_coeffs)) == 0.0
    z = 0.8 + 0.3j
    assert pair.f_at(z) == pytest.approx(np.exp(z), rel=1e-12)


def test_split_basis_case():
    f = from_quaternions([Quaternion(0, 0, 1, 0)])  # constant j
    pair = split(f, UNIT_I, UNIT_J)
    assert np.max(np.abs(pair.f_coeffs)) == 0.0
    assert pair.g_coeffs[0] == pytest.approx(1.0)


def test_split_requires_orthogonal_units():
    with pytest.raises(ValueError):
        split(exp_series(), UNIT_I, ImaginaryUnit.from_vector((1, 1e-3, 0)))


def test_split_soundness_grid(rng):
    f = SliceSeries(random_poly_coeffs(rng, 10))
    unit_i = random_unit(rng)
    from slicefock.quaternion import perpendicular_unit

    unit_j = perpendicular_unit(unit_i)
    pair = split(f, unit_i, unit_j)
    xs = np.linspace(-2, 2, 20)
    for x in xs:
        for y in xs:
            z = complex(x, y)
            direct = Quaternion.from_array(eval_on_slice(f, unit_i, np.array([z]))[0])
            re = pair.reassemble(z)
            assert (re - direct).norm() < 1e-11 * max(1.0, direct.norm())


def test_representation_formula_polynomial_exact():
    f = monomial(2)
    q = Quaternion(1, 0, 1, 0)
    got = representation_formula(slice_evaluator(f, UNIT_I, 2.0), UNIT_I, q)
    want = q * q
    assert (got - want).norm() < 1e-13


def test_representation_formula_same_slice_collapse():
    f = exp_series()
    q = Quaternion(0.4, 1.1, 0, 0)
    got = representation_formula(slice_evaluator(f, UNIT_I, 2.0), UNIT_I, q)
    assert (got - evaluate(f, q)).norm() < 1e-12


def test_representation_formula_exp_cross_slice():
    f = exp_series()
    q = Quaternion(1, 0, 0, 1)
    got = representation_formula(slice_evaluator(f, UNIT_I, abs(q)), UNIT_I, q)
    assert (got - evaluate(f, q)).norm() < 1e-12


def test_representation_formula_random_family(rng):
    for _ in range(100):
        deg = int(rng.integers(0, 17))
        coeffs = random_poly_coeffs(rng, deg)
        norms = np.linalg.norm(coeffs, axis=1, keepdims=True)
        coeffs = coeffs / np.maximum(norms, 1.0)     # |a_k| <= 1
        f = SliceSeries(coeffs)
        unit = random_unit(rng)
        ev = slice_evaluator(f, unit, 2.0)
        q = Quaternion(*rng.uniform(-1, 1, size=4))
        q = q * (2.0 * rng.uniform() / max(abs(q), 1e-9))
        got = representation_formula(ev, unit, q)
        want = evaluate(f, q)
        assert (got - want).norm() < 1e-11 * max(1.0, want.norm())


def test_slice_components_reproduce_every_plane(rng):
    f = SliceSeries(random_poly_coeffs(rng, 8))
    z = rng.uniform(-2.0, 2.0, size=12) + 1j * rng.uniform(-2.0, 2.0, size=12)
    a, b = slice_components(f, z)
    for _ in range(5):
        unit = random_unit(rng)
        want = eval_on_slice(f, unit, z)
        ub = np.array([(unit.as_quaternion() * Quaternion.from_array(row)).to_array()
                       for row in b])
        assert np.max(np.abs(a + ub - want)) < 1e-12 * np.max(np.abs(want))


def test_log_abs_evaluate_matches_direct():
    f = exp_series()
    q = Quaternion(2.0, 1.0, 0.5, 0.0)
    assert log_abs_evaluate(f, q) == pytest.approx(
        math.log(abs(evaluate(f, q))), rel=1e-12)


def test_log_abs_evaluate_beyond_overflow():
    # |q|^50 at r = 1e7 is 1e350, far past float range; the log path copes
    got = log_abs_evaluate(monomial(50), Quaternion(1e7))
    assert got == pytest.approx(50 * math.log(1e7), rel=1e-12)
    g = gauss_series(0.25)
    got = log_abs_evaluate(g, Quaternion(16.0))
    assert got == pytest.approx(0.25 * 256.0, rel=1e-10)


def test_random_series_reproducible():
    a = random_series(6, 1234)
    b = random_series(6, 1234)
    c = random_series(6, 1235)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)
    assert np.max(np.abs(a.coeffs)) <= 1.0


def test_splitmix_reference_values():
    # published reference stream for seed 1234567 (first three outputs)
    from slicefock.prng import SplitMix64

    g = SplitMix64(1234567)
    assert [g.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_coefficient_file_round_trip(tmp_path, rng):
    f = SliceSeries(random_poly_coeffs(rng, 7))
    path = tmp_path / "coeffs.txt"
    write_coefficients(path, f)
    g = read_coefficients(path)
    assert np.array_equal(f.coeffs, g.coeffs)


def test_coefficient_file_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(ValueError):
        read_coefficients(path)
