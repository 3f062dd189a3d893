"""The exponential generator sum_m q^{s m} c^m / m! and its contract.

Every generator-backed series (exp, gauss:<beta>, kernel sections) is one
``ExpGenerator``; the tail certificate of ``prepared_for_radius`` rests on
its ``log_coeff``, ``term_ratio`` and ``log_total``, so these are checked
against the rows ``coeffs`` produces.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slicefock.kernels import kernel_section
from slicefock.quaternion import Quaternion
from slicefock.series import (
    DEGREE_CAP,
    ExpGenerator,
    _row_norms,
    dilate,
    evaluate,
    exp_series,
    from_generator,
    gauss_series,
    max_modulus_type,
    monomial,
    prepared_for_radius,
)

TINY = np.finfo(float).tiny

constants = st.tuples(*[st.floats(min_value=-3.0, max_value=3.0)] * 4)
strides = st.sampled_from([1, 2])


def normal_rows(g, degree):
    """(k, |a_k|) for the rows of the generator that are normal floats."""
    mags = _row_norms(g.coeffs(degree))
    ks = np.arange(0, degree + 1, g.stride)
    keep = mags[ks] >= TINY
    return ks[keep], mags[ks][keep]


# ---------------------------------------------------------------------------
# rows

def test_exp_and_gauss_rows_are_the_canonical_floats():
    e = exp_series(512).coeffs
    for k in range(171):
        assert e[k, 0] == 1.0 / math.factorial(k)
    assert not np.any(e[:, 1:])
    for beta in (0.6, -0.6):
        g = gauss_series(beta, 512).coeffs
        for m in range(171):
            assert g[2 * m, 0] == beta ** m / math.factorial(m)
        assert not np.any(g[1::2]) and not np.any(g[:, 1:])


def test_exp_rows_past_170_are_the_running_quotient():
    e = exp_series(512).coeffs[:, 0]
    acc = 1.0 / math.factorial(170)
    for k in range(171, 513):
        acc /= k
        assert e[k] == acc


def test_kernel_section_tag_builds_the_same_rows():
    q0 = Quaternion(0.6, -0.4, 1.1, 0.3)
    tagged = from_generator("kernel-section:0.6,-0.4,1.1,0.3,1.5", 64)
    direct = kernel_section(q0, 1.5, 64)
    assert np.array_equal(tagged.coeffs, direct.coeffs)
    assert tagged.generator == direct.generator
    # a_k = c^k / k! with c = alpha conj(q0), by quaternion powers
    c = q0.conjugate() * 1.5
    power = Quaternion(1.0)
    for k in range(20):
        want = power * (1.0 / math.factorial(k))
        assert np.allclose(direct.coeffs[k], want.to_array(), rtol=0,
                           atol=1e-15 * max(1.0, want.norm()))
        power = power * c


def test_mono_tag_is_the_monomial():
    q = Quaternion(0.3, 0.5, -0.2, 0.1)
    tagged = from_generator("mono:30")
    assert tagged.generator is None
    want = evaluate(monomial(30), q)
    assert want.norm() > 0.0
    assert evaluate(tagged, q) == want


@pytest.mark.parametrize("tag", ["bogus", "exp:1", "gauss:", "mono:x",
                                 "kernel-section:1,2,3", "gauss:nan"])
def test_bad_tags_raise_value_error(tag):
    with pytest.raises(ValueError):
        from_generator(tag)


def test_generator_rejects_bad_stride_and_constants():
    with pytest.raises(ValueError):
        ExpGenerator((1.0, 0.0, 0.0, 0.0), stride=3)
    with pytest.raises(ValueError):
        ExpGenerator((math.inf, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        ExpGenerator((1.0, 0.0, 0.0))


def test_order_two_type_only_for_stride_two():
    assert ExpGenerator((0.0, 0.3, 0.4, 0.0), stride=2).type == pytest.approx(0.5)
    assert ExpGenerator((0.0, 0.3, 0.4, 0.0)).type == 0.0
    assert max_modulus_type(monomial(4)) == 0.0


# ---------------------------------------------------------------------------
# contract of the tail certificate

@given(constants, strides, st.integers(min_value=0, max_value=400))
@settings(max_examples=60, deadline=None)
def test_log_coeff_matches_the_rows(c, s, degree):
    g = ExpGenerator(c, s)
    ks, mags = normal_rows(g, degree)
    for k, mag in zip(ks, mags):
        assert g.log_coeff(int(k)) == pytest.approx(math.log(mag), rel=1e-12,
                                                    abs=1e-12)
    odd = [k for k in range(degree + 1) if k % s]
    assert all(g.log_coeff(k) == -math.inf for k in odd)


@given(constants, st.integers(min_value=-110, max_value=1), strides,
       st.integers(min_value=0, max_value=DEGREE_CAP))
@settings(max_examples=60, deadline=None)
# subnormal components: Im c / |Im c| read directly was 2e-15 off unit length
@example(c=(0.0, 0.0, 7.4e-310, 7.4e-310), e=0, s=1, degree=1)
def test_log_polar_rows_are_storage_or_the_closed_form(c, e, s, degree):
    # the rows every weighted consumer reads: a row stored as a normal float
    # is read from storage (its log is the log of its norm, bit for bit, and
    # its direction times that norm is the row); one stored below the float
    # range, subnormal or 0, comes from the closed form, a unit direction
    # and log_coeff; a row off the stride is 0 either way
    g = ExpGenerator(tuple(x * 10.0 ** e for x in c), s)
    f = g.series(degree)
    mags, logs, dirs = f.row_norms, f.log_row_norms, f.directions
    normal = mags >= TINY
    assert np.array_equal(logs[normal], np.log(mags[normal]))
    err = np.abs(dirs[normal] * mags[normal, None] - f.coeffs[normal]).max(axis=1)
    assert np.all(err <= 1e-15 * mags[normal])
    for k in np.flatnonzero(~normal):
        if k % s:
            assert logs[k] == -math.inf and not np.any(dirs[k])
            continue
        assert logs[k] == g.log_coeff(int(k))
        if logs[k] > -math.inf:
            assert np.array_equal(dirs[k], g.directions(np.array([k]))[0])
            assert abs(np.linalg.norm(dirs[k]) - 1.0) <= 1e-15


@given(constants, strides, st.integers(min_value=0, max_value=200),
       st.one_of(st.just(0.0), st.floats(min_value=1e-100, max_value=8.0)))
@settings(max_examples=60, deadline=None)
def test_term_ratio_bounds_every_later_ratio(c, s, degree, r):
    # every ratio out of the last nonzero stored row on, the first one
    # (a_{k+s} just past ``degree``) included: that is the one the
    # geometric tail bound starts from
    g = ExpGenerator(c, s)
    bound = g.term_ratio(r, degree)
    mags = _row_norms(g.coeffs(degree + 80 * s))
    for k in range(max(degree - s + 1, 0), degree + 80 * s - s + 1):
        if k % s or mags[k] < TINY or mags[k + s] < TINY:
            continue
        actual = mags[k + s] / mags[k] * r ** s
        assert actual <= bound * (1.0 + 1e-12)


@given(constants, strides, st.floats(min_value=0.0, max_value=2.5))
@settings(max_examples=60, deadline=None)
def test_log_total_bounds_the_term_mass(c, s, r):
    g = ExpGenerator(c, s)
    f, _ = prepared_for_radius(g.series(16), r)
    mags = _row_norms(f.coeffs)
    mass = float(np.sum(mags * r ** np.arange(mags.size)))
    assert mass <= math.exp(g.log_total(r)) * (1.0 + 1e-12)


def test_series_and_dilated_are_consistent():
    g = ExpGenerator((0.5, -1.0, 0.25, 2.0))
    assert g.series(10).generator == g
    assert np.array_equal(g.series(10).coeffs, g.coeffs(10))
    d = g.dilated(0.5)
    assert d.c == (0.25, -0.5, 0.125, 1.0)
    assert ExpGenerator((0.8, 0.0, 0.0, 0.0), 2).dilated(0.5).c[0] == 0.2


# ---------------------------------------------------------------------------
# dilation folds r into c

def _mass(f, radius):
    """sum_k |a_k| radius^k of the generator's full series."""
    return math.exp(f.generator.log_total(radius))


@given(st.floats(min_value=-0.5, max_value=0.5),
       st.floats(min_value=0.05, max_value=1.0),
       st.tuples(*[st.floats(min_value=-3.0, max_value=3.0)] * 4))
@settings(max_examples=40, deadline=None)
def test_dilated_gauss_agrees_with_scaled_argument(beta, r, q):
    f = gauss_series(beta)
    q = Quaternion(*q)
    got = evaluate(dilate(f, r), q)
    want = evaluate(f, q * r)
    assert (got - want).norm() <= 1e-12 * _mass(f, r * q.norm())


@given(st.tuples(*[st.floats(min_value=-2.0, max_value=2.0)] * 4),
       st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.05, max_value=1.0),
       st.tuples(*[st.floats(min_value=-3.0, max_value=3.0)] * 4))
@settings(max_examples=40, deadline=None)
def test_dilated_kernel_section_agrees_with_scaled_argument(q0, alpha, r, q):
    f = kernel_section(Quaternion(*q0), alpha)
    q = Quaternion(*q)
    d = dilate(f, r)
    assert d.generator == f.generator.dilated(r)
    got = evaluate(d, q)
    want = evaluate(f, q * r)
    assert (got - want).norm() <= 1e-12 * _mass(f, r * q.norm())
