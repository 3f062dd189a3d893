import math

import numpy as np
import pytest

from slicefock.errors import NotInSpaceError, RefinementError
from slicefock.quadrature import slice_grid
from slicefock.quaternion import ImaginaryUnit, Quaternion, UNIT_I, UNIT_J, UNIT_K
from slicefock.series import (
    SliceSeries,
    dilate,
    exp_series,
    from_quaternions,
    gauss_series,
    monomial,
    random_series,
    zero_series,
)
from slicefock.spaces import (
    NormSpec,
    default_grid,
    embedding_check,
    growth_bound_check,
    growth_constant,
    inner_first,
    inner_second,
    norm,
    norm_report,
    order_type,
    sample_ball,
    slice_norm_ratio,
)
from conftest import random_poly_coeffs, random_unit

DIAG = ImaginaryUnit.from_vector((1.0, 1.0, 1.0))


def e_basis(k, alpha=1.0):
    return monomial(k, Quaternion(math.sqrt(alpha ** k / math.factorial(k))))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("k", [0, 1, 4, 12])
def test_monomial_norm_oracles(alpha, k):
    second = norm(monomial(k), NormSpec("second", 2.0, alpha))
    assert second ** 2 == pytest.approx(math.factorial(k) / alpha ** k, rel=1e-10)
    first = norm(monomial(k), NormSpec("first", 2.0, alpha))
    assert first ** 2 == pytest.approx(math.factorial(k + 1) / alpha ** k,
                                       rel=1e-10)


def test_zero_norm():
    assert norm(zero_series(), NormSpec("second", 2.0, 1.0)) == 0.0
    assert norm(zero_series(), NormSpec("first", 1.0, 1.0)) == 0.0


def test_exp_norm_closed_forms():
    # sum of 1/(k! alpha^k) telescopes to e^(1/alpha) on a plane
    for alpha in (0.5, 1.0, 2.0):
        v = norm(exp_series(), NormSpec("second", 2.0, alpha))
        assert v ** 2 == pytest.approx(math.exp(1.0 / alpha), rel=1e-12)
    # and to e^(1/alpha) over the algebra as well: the degree overlap
    # cancellation leaves sum (k+1)/k! - sum 1/k! = e at alpha = 1
    v = norm(exp_series(), NormSpec("first", 2.0, 1.0))
    assert v ** 2 == pytest.approx(math.e, rel=1e-12)


def test_inner_second_orthonormal_basis():
    got = inner_second(e_basis(3), e_basis(3), 1.0)
    assert (got - Quaternion(1)).norm() < 1e-12
    got = inner_second(e_basis(2), e_basis(5), 1.0)
    assert got.norm() < 1e-12


def test_inner_second_matches_norm():
    f = from_quaternions([Quaternion(0.2, 1, 0, 0), Quaternion(0, 0, -1, 0.5)])
    got = inner_second(f, f, 1.3)
    want = norm(f, NormSpec("second", 2.0, 1.3)) ** 2
    assert got.w == pytest.approx(want, rel=1e-12)
    assert abs(got.x) + abs(got.y) + abs(got.z) < 1e-12


def test_inner_second_right_linearity():
    lam = Quaternion(0.3, -0.7, 0.2, 0.9)
    f, g = monomial(2), monomial(2)
    glam = monomial(2, lam)
    lhs = inner_second(f, glam, 1.0)
    rhs = inner_second(f, g, 1.0) * lam
    assert (lhs - rhs).norm() < 1e-12 * max(1.0, rhs.norm())


def test_inner_first_oracles():
    alpha = 1.3
    for m in range(5):
        diag = inner_first(monomial(m), monomial(m), alpha)
        assert diag.w == pytest.approx(math.factorial(m + 1) / alpha ** m,
                                       rel=1e-11)
        cross = inner_first(monomial(m), monomial(m + 2), alpha)
        assert cross.w == pytest.approx(
            -math.factorial(m + 2) / (2 * alpha ** (m + 1)), rel=1e-10)
        odd = inner_first(monomial(m), monomial(m + 1), alpha)
        assert odd.norm() < 1e-10
        far = inner_first(monomial(m), monomial(m + 4), alpha)
        assert far.norm() < 1e-8


def test_first_kind_overlap_is_genuine():
    assert abs(inner_first(monomial(0), monomial(2), 1.0).w) > 1e-3


def test_growth_bound_second_kind():
    spec = NormSpec("second", 2.0, 1.0, sup_samples=16)
    rep = growth_bound_check(e_basis(0), spec, sample_ball(100, 3.0, seed=5))
    assert rep.passed and rep.constant == 4.0
    assert rep.max_ratio <= 1.0 + 1e-9


def test_growth_bound_first_kind():
    spec = NormSpec("first", 2.0, 1.0)
    c = growth_constant(spec)
    assert c == pytest.approx(4.0 * math.sqrt(math.pi), rel=1e-15)
    rep = growth_bound_check(exp_series(), spec, sample_ball(200, 3.0, seed=6))
    assert rep.passed
    assert rep.max_ratio <= c


def test_growth_bound_zero_function():
    rep = growth_bound_check(zero_series(), NormSpec("second", 2.0, 1.0),
                             sample_ball(10, 1.0, seed=1))
    assert rep.passed and rep.max_ratio == 0.0


def test_slice_norm_ratio_symmetric_cases():
    f = from_quaternions([Quaternion(1), Quaternion(0.5), Quaternion(-0.25)])
    assert slice_norm_ratio(f, 1.0, 1.0, UNIT_I, UNIT_J) == pytest.approx(
        1.0, abs=1e-10)
    assert slice_norm_ratio(monomial(3), 1.0, 1.0, UNIT_J, UNIT_K) == \
        pytest.approx(1.0, abs=1e-12)
    g = from_quaternions([Quaternion(), Quaternion(0, 0, 1, 0)])
    r = slice_norm_ratio(g, 2.0, 1.0, UNIT_I, UNIT_J)
    assert 0.5 <= r <= 2.0


def test_slice_norm_ratio_bound(rng):
    for _ in range(25):
        f = SliceSeries(random_poly_coeffs(rng, int(rng.integers(1, 9))))
        u, v = random_unit(rng), random_unit(rng)
        for p in (1.0, 2.0, 4.0):
            r = slice_norm_ratio(f, p, 1.0, u, v)
            assert 0.5 - 1e-9 <= r <= 2.0 + 1e-9


def test_slice_norm_ratio_zero_function():
    with pytest.raises(ZeroDivisionError):
        slice_norm_ratio(zero_series(), 2.0, 1.0, UNIT_I, UNIT_J)


def test_embedding_monomial_oracle():
    alpha, beta = 1.2, 0.7
    for k in (0, 2, 5):
        got = embedding_check(monomial(k), beta, alpha, 2.0)
        assert got == pytest.approx((beta / alpha) ** (k / 2), rel=1e-10)
    with pytest.raises(ValueError):
        embedding_check(monomial(1), 1.2, 0.7, 2.0)


def test_embedding_stable_under_refinement():
    from slicefock.quadrature import volume_grid

    r1 = embedding_check(exp_series(), 0.7, 1.2, 2.0)
    r2 = embedding_check(exp_series(), 0.7, 1.2, 2.0,
                         grid=volume_grid(1.2, 128, 128, 128),
                         ref_grid=volume_grid(0.7, 128, 128, 128))
    assert r1 == pytest.approx(r2, abs=1e-9 * max(1, r1))


def test_order_type_exp():
    rep = order_type(exp_series())
    assert abs(rep.order_estimate - 1.0) <= 0.05
    assert rep.type_estimate is None


def test_order_type_gaussian():
    alpha = 1.0
    rep = order_type(gauss_series(alpha / 4))
    assert abs(rep.order_estimate - 2.0) <= 0.05
    assert rep.type_estimate == pytest.approx(alpha / 4, rel=1e-6)
    assert rep.type_estimate <= alpha / 2


def test_order_type_builds_no_default_units(monkeypatch):
    # the default units of log_max_modulus are one array built at import:
    # a radius sweep builds no sphere grid, and reads the same units
    from slicefock import spaces

    want = order_type(gauss_series(0.25), np.geomspace(2.0, 16.0, 6))
    calls = []
    monkeypatch.setattr(spaces, "sphere_grid", lambda *a: calls.append(a))
    got = order_type(gauss_series(0.25), np.geomspace(2.0, 16.0, 6))
    assert calls == []
    np.testing.assert_array_equal(got.log_max_modulus, want.log_max_modulus)


def test_order_type_polynomial():
    rep = order_type(random_series(4, 21), radii=np.geomspace(1e2, 1e8, 12))
    assert rep.order_estimate < 0.15


def test_divergent_norm_rejected():
    with pytest.raises(NotInSpaceError):
        norm(gauss_series(0.6), NormSpec("second", 2.0, 1.0))
    with pytest.raises(NotInSpaceError):
        norm_report(gauss_series(0.55), NormSpec("second", 2.0, 1.0))


def test_dilation_norm_monotone_in_r():
    spec = NormSpec("second", 2.0, 1.0)
    values = [norm(dilate(exp_series(), r), spec)
              for r in (0.6, 0.8, 0.9, 0.99, 1.0)]
    assert all(a <= b + 1e-14 for a, b in zip(values, values[1:]))


def test_dilation_error_decreases():
    from slicefock.series import extended

    spec = NormSpec("second", 2.0, 1.0)
    grid = default_grid(spec)
    errs = []
    for r in (0.9, 0.99, 0.999):
        d = dilate(exp_series(), r)
        fe = extended(exp_series(), d.degree)
        errs.append(norm(d - fe, spec, grid))
    assert errs[0] > errs[1] > errs[2]
    # each tenfold step toward 1 cuts the error by nearly (but provably not
    # quite) a factor of ten; see the acceptance suite for the strict check
    assert errs[0] / errs[1] > 9.0
    assert errs[1] / errs[2] > 9.0


def test_norm_report_record_fields():
    rep = norm_report(monomial(2), NormSpec("second", 2.0, 1.0))
    rec = rep.to_record()
    assert set(rec) == {"kind", "p", "alpha", "slice", "value", "grid",
                        "tail_bound"}
    assert rec["slice"] == "i"
    assert rep.stability < 1e-12


@pytest.mark.parametrize("slice_spec", [{}, {"sup_samples": 8}])
def test_p2_norm_report_reads_no_grid(slice_spec):
    # a coefficient sum: evaluated once, no refinement and no grid sizes,
    # whatever grid is passed
    spec = NormSpec("second", 2.0, 1.0, **slice_spec)
    for grid in (None, slice_grid(1.0, 2, 2)):
        rep = norm_report(exp_series(), spec, grid)
        assert rep.stability == 0.0 and rep.grid_sizes == ()
        assert rep.to_record()["grid"] == []
        assert rep.value == pytest.approx(math.exp(0.5), rel=1e-15)
        assert 0.0 <= rep.tail_bound <= 1e-10


@pytest.mark.parametrize("kind", ["first", "second"])
def test_norm_report_reads_the_rows_gauss_stores_as_zero(kind):
    # gauss:0.25 at p = 1 stores its rows from k = 280 as 0 and reaches the
    # degree cap on the refined default grid, whose tail is then certified
    # weighted: the report meets the 40-digit closed form, |e(beta q^2)| =
    # e^{beta (x^2 - |y|^2)} splitting the integral into Gaussians, to a few
    # ulps (2e-15 here), and its tail bound is that certificate, not 0
    import mpmath

    rep = norm_report(gauss_series(0.25), NormSpec(kind, 1.0, 1.0))
    with mpmath.workdps(40):
        lo, hi = mpmath.mpf(1) / 4, mpmath.mpf(3) / 4      # 1/2 -+ beta
        want = float(mpmath.sqrt(mpmath.pi / lo) * (mpmath.pi / hi) ** 1.5
                     / (4 * mpmath.pi ** 2) if kind == "first"
                     else 1 / (2 * mpmath.sqrt(lo * hi)))
    assert rep.value == pytest.approx(want, rel=1e-14)
    assert 0.0 < rep.tail_bound <= 1e-10


@pytest.mark.parametrize("kind", ["first", "second"])
def test_membership_is_type_below_half_alpha(kind):
    # at type alpha / 2 the weighted integrand of e(beta q^2) is constant
    # along the real axis, for every p
    for p in (1.0, 2.0):
        with pytest.raises(NotInSpaceError, match="not below alpha / 2"):
            norm(gauss_series(0.5), NormSpec(kind, p, 1.0))
        with pytest.raises(NotInSpaceError):
            norm(gauss_series(-0.25), NormSpec(kind, p, 0.5))
    assert norm(gauss_series(0.2), NormSpec(kind, 1.0, 1.0)) > 0.0


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec("third", 2.0, 1.0)
    with pytest.raises(ValueError):
        NormSpec("second", -1.0, 1.0)
    with pytest.raises(ValueError):
        NormSpec("first", 2.0, 1.0, slice_unit=UNIT_I)
    with pytest.raises(ValueError):
        NormSpec("second", 2.0, 1.0, slice_unit=UNIT_I, sup_samples=8)
    spec = NormSpec("second", 2.0, 1.0)
    assert spec.slice_unit == UNIT_I
    assert NormSpec("second", 2.0, 1.0, sup_samples=9).slice_label() == "sup:9"


def test_gram_orthonormality_sample():
    alpha = 2.0
    n = 9
    basis = [e_basis(k, alpha) for k in range(n)]
    gram = np.zeros((n, n))
    for a in range(n):
        for b in range(a, n):
            gram[a, b] = gram[b, a] = inner_second(basis[a], basis[b], alpha,
                                                   DIAG).w
    assert np.max(np.abs(gram - np.eye(n))) < 1e-8


@pytest.mark.parametrize("kind", ["first", "second"])
def test_growth_bound_check_matches_pointwise_evaluation(kind):
    from slicefock.series import evaluate

    f = SliceSeries(random_poly_coeffs(np.random.default_rng(8), 6))
    spec = NormSpec(kind, 2.0, 1.0)
    samples = sample_ball(40, 3.0, seed=9) + [Quaternion(1.5), Quaternion()]
    rep = growth_bound_check(f, spec, samples)
    ratios = [abs(evaluate(f, q)) * math.exp(-0.5 * q.norm_sq()) / rep.norm_value
              for q in samples]
    assert rep.max_ratio == pytest.approx(max(ratios), rel=1e-13)
    assert rep.worst_point == samples[int(np.argmax(ratios))]
    assert rep.passed


@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
def test_gauss_above_the_weight_type_is_not_in_space(kind, p):
    with pytest.raises(NotInSpaceError):
        norm(gauss_series(0.6), NormSpec(kind, p, 1.0))
    with pytest.raises(NotInSpaceError):
        norm(gauss_series(-0.3), NormSpec(kind, p, 0.5))


def test_max_modulus_type_follows_dilation():
    from slicefock.series import max_modulus_type

    assert max_modulus_type(gauss_series(-0.6)) == 0.6
    assert max_modulus_type(dilate(gauss_series(0.6), 0.5)) == pytest.approx(0.15)
    assert max_modulus_type(exp_series()) == 0.0
    assert max_modulus_type(monomial(3)) == 0.0
    value = norm(dilate(gauss_series(0.6), 0.5), NormSpec("first", 1.0, 1.0))
    assert math.isfinite(value) and value > 0.0


def test_norm_report_rejects_a_shrinking_value_under_refinement():
    # at p = 1 the coarse value overshoots sqrt(e) = 1.6487 (the norm of exp
    # at every p) by nearly half and falls by 0.412 relative under
    # refinement: no growth, so not a divergence, but no norm either
    spec = NormSpec("second", 1.0, 1.0)
    with pytest.raises(RefinementError, match="refinement"):
        norm_report(exp_series(), spec, slice_grid(0.5, 2, 2))
    rep = norm_report(exp_series(), spec, slice_grid(0.5, 16, 32))
    assert rep.value == pytest.approx(math.exp(0.5), rel=1e-10)
    assert not issubclass(RefinementError, NotInSpaceError)


@pytest.mark.parametrize("kind", ["first", "second", "sup"])
def test_grid_short_of_the_mass_is_unresolved(kind):
    # |q^40|^p e^{-p |q|^2 / 2} peaks at |q|^2 = 40; 8 Laguerre nodes reach
    # about 23, so the radial profile peaks in the last shells and the
    # single-grid norm (no refinement) is refused instead of returned too
    # small.  The sup reads a grid at every p != 2, either kind at p != 2
    # other than an even p up to EVEN_P_CAP, a coefficient sum: p = 4 for
    # the sup, p = 3 for the others.
    spec = NormSpec("second", 4.0, 1.0, sup_samples=4) if kind == "sup" \
        else NormSpec(kind, 3.0, 1.0)
    coarse = default_grid(spec, 8, 16, 8)
    with pytest.raises(RefinementError, match="outermost"):
        norm(monomial(40), spec, coarse)
    # at p = 2 the closed forms 40! and 41!, from coefficients, whatever the grid
    want = math.factorial(41 if kind == "first" else 40)
    exact = NormSpec("second", 2.0, 1.0, sup_samples=4) if kind == "sup" \
        else NormSpec(kind, 2.0, 1.0)
    assert norm(monomial(40), exact) ** 2 == pytest.approx(want, rel=1e-10)
    assert norm(monomial(40), exact, coarse) ** 2 == pytest.approx(want, rel=1e-13)


def _sup_one_plane_at_a_time(amp_sq, lin, units, grid, p):
    from slicefock.spaces import _plane_raw_power
    return np.max([_plane_raw_power(np.sqrt(np.maximum(amp_sq + lin @ u, 0.0)), grid, p)
                   for u in units], axis=0)


@pytest.mark.parametrize("block", [1, 3 * 12 * 24, 1 << 16])
@pytest.mark.parametrize("images", [(), (5,)])
def test_sup_planes_in_blocks_match_one_plane_at_a_time(monkeypatch, block, images):
    from slicefock import spaces
    from slicefock.quaternion import sphere_grid

    rng = np.random.default_rng(28)
    grid = slice_grid(1.0, 12, 24)
    shells = np.exp(-2.0 * np.arange(12.0))[:, None, None]     # the mass in the first shells
    a, b = (shells * rng.normal(size=images + (12, 24, 4)) for _ in range(2))
    amp_sq, lin = spaces._affine_square(a, b)
    units = [u.vector() for u in sphere_grid(32)]
    monkeypatch.setattr(spaces, "_IMAGE_BLOCK", block)
    got = spaces._sup_raw_power(amp_sq, lin, units, grid, 1.5)
    np.testing.assert_array_equal(got, _sup_one_plane_at_a_time(amp_sq, lin, units, grid, 1.5))


def test_sup_refusal_names_the_first_failing_plane_s_node():
    # the plane of j overflows at node 50, the later plane of k at node 10:
    # the refusal names node 50, as when the planes are summed in order
    from slicefock.errors import IntegrandOverflowError
    from slicefock.quadrature import slice_points
    from slicefock.spaces import _sup_raw_power

    grid = slice_grid(1.0, 12, 24)
    amp_sq = np.repeat(np.exp(-4.0 * np.arange(12.0))[:, None], 24, axis=1)   # in shell 0
    lin = np.zeros((12, 24, 3))
    lin.reshape(-1, 3)[50, 1] = lin.reshape(-1, 3)[10, 2] = 1e300
    units = [np.eye(3)[c] for c in range(3)]
    with pytest.raises(IntegrandOverflowError) as err:
        _sup_raw_power(amp_sq, lin, units, grid, 4.0)
    np.testing.assert_array_equal(err.value.node, slice_points(grid)[0][50])
