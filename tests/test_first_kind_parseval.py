"""Exact p = 2 numbers over the whole algebra and on every plane, from the
Parseval certificate and the banded monomial Gram, checked against 40-digit
mpmath, against the quadratures they replace (kept here as oracles), and
against closed forms, also where f's rows lie below the float range and are
read from their closed form; the charge of f's tail is checked to be the
Gershgorin bound.
"""

import functools
import json
import math

import mpmath
import numpy as np
import pytest

from conftest import first_kind_gram
from slicefock import cli
from slicefock.approx import ModulusQuery, best_approx_first, best_approx_second, modulus
from slicefock.errors import IntegrandOverflowError, TruncationError
from slicefock.quadrature import slice_grid, volume_grid
from slicefock.quaternion import ImaginaryUnit, quat_conj_array, quat_mul_array
from slicefock.series import (
    ExpGenerator,
    SliceSeries,
    _lift,
    exp_series,
    gauss_series,
    random_series,
)
from slicefock.spaces import (
    NormSpec,
    ParsevalTerms,
    _first_factor,
    _charged,
    _first_images,
    _parseval_terms,
    _volume_raw_power,
    _weighted_plane,
    inner_first,
    inner_second,
    norm,
    norm_report,
    prepared_for_grid,
)

FAMILIES = {"exp": exp_series(), "gauss:0.25": gauss_series(0.25),
            "random:8": random_series(8, 3), "random:20": random_series(20, 5)}
# gauss:0.25 has type 1/4, in the spaces of weight alpha only above 1/2
CASES = [(name, alpha) for alpha in (1.0, 0.5) for name in FAMILIES
         if not (name == "gauss:0.25" and alpha == 0.5)]
ORACLE = 96          # radial and polar nodes of the oracle's volume grid


def oracle_rows(f, alpha):
    """f's rows on the oracle grid, scaled to s_k = a_k sqrt(k! / alpha^k)
    in log space, the scaled quadrature Gram of its monomials there, and
    the grid."""
    from scipy.special import gammaln

    grid = volume_grid(alpha, ORACLE, ORACLE)
    a = prepared_for_grid(f, alpha, grid).series.coeffs
    k = np.arange(a.shape[0])
    half = 0.5 * (gammaln(k + 1.0) - k * math.log(alpha))
    with np.errstate(divide="ignore"):
        s = np.sign(a) * np.exp(np.log(np.abs(a)) + half[:, None])
    return s, first_kind_gram(k[-1], alpha, grid, scaled=True), grid, half


@pytest.mark.parametrize("name,alpha", CASES)
def test_first_kind_norm_matches_both_quadratures(name, alpha):
    f = FAMILIES[name]
    s, gram, grid, _ = oracle_rows(f, alpha)
    got = norm(f, NormSpec("first", 2.0, alpha)) ** 2
    # the volume norm the closed form replaces, and the quadrature Gram
    fe = prepared_for_grid(f, alpha, grid).series
    v, e = _weighted_plane(fe.directions, fe.log_row_norms, grid, alpha)
    raw = _volume_raw_power(v, grid, 2.0)
    volume = (alpha / math.pi) ** 2 * math.ldexp(raw, 2 * e)
    assert got == pytest.approx(volume, rel=1e-12)
    assert got == pytest.approx(float(np.sum(s * (gram @ s))), rel=1e-12)


@pytest.mark.parametrize("name,alpha", CASES)
def test_first_kind_best_approximation_matches_the_quadrature_gram(name, alpha):
    f = FAMILIES[name]
    s, gram, _, half = oracle_rows(f, alpha)
    full = float(np.sum(s * (gram @ s)))
    for n in (2, 4, 6):
        head, tail = slice(0, n + 1), slice(n + 1, None)
        shift = np.linalg.solve(gram[head, head], gram[head, tail] @ s[tail])
        want = float(np.sum(s[tail] * (gram[tail, tail] @ s[tail]))) \
            - float(np.sum(shift * (gram[head, tail] @ s[tail])))
        res = best_approx_first(f, n, alpha)
        # the oracle's Schur complement cancels against ||f||^2
        assert res.value ** 2 == pytest.approx(want, abs=1e-12 * full)
        np.testing.assert_allclose(res.minimizer.coeffs * np.exp(half[head])[:, None],
                                   s[head] + shift, rtol=0.0, atol=1e-12 * math.sqrt(full))


@pytest.mark.parametrize("name,alpha", CASES)
def test_inner_first_matches_the_quadrature_gram(name, alpha):
    f, g = FAMILIES[name], random_series(6, 11)
    s, gram, _, half = oracle_rows(f, alpha)
    t = np.zeros_like(s)
    t[:7] = g.coeffs * np.exp(half[:7])[:, None]
    want = sum(gram[m, n] * quat_mul_array(quat_conj_array(s[m]), t[n])
               for m in range(s.shape[0]) for n in range(max(m - 2, 0), min(m + 3, 7)))
    scale = math.sqrt(float(np.sum(s * (gram @ s))) * float(np.sum(t * (gram @ t))))
    np.testing.assert_allclose(inner_first(f, g, alpha).to_array(), want,
                               rtol=0.0, atol=1e-12 * scale)


def test_first_kind_best_approximation_of_exp_meets_mpmath():
    # E_n^2 = s_t^T (H_tt - H_th H_hh^{-1} H_ht) s_t over s_k = 1 / sqrt(k!),
    # n = 16 included, where ||f||^2 minus the projection was 2.7 % low
    size = 60
    with mpmath.workdps(40):
        s = [1 / mpmath.sqrt(mpmath.factorial(k)) for k in range(size)]
        gram = mpmath.matrix(size, size)
        for k in range(size):
            gram[k, k] = k + 1
            if k + 2 < size:
                gram[k, k + 2] = gram[k + 2, k] = -mpmath.sqrt((k + 1) * (k + 2)) / 2
        full = sum(s[m] * gram[m, n] * s[n] for m in range(size) for n in range(size))
        for n in range(21):
            h = n + 1
            rhs = mpmath.matrix([sum(gram[i, j] * s[j] for j in range(h, size))
                                 for i in range(h)])
            sol = mpmath.lu_solve(gram[0:h, 0:h], rhs)
            tail = sum(s[i] * gram[i, j] * s[j] for i in range(h, size)
                       for j in range(h, size))
            want = float(mpmath.sqrt(tail - sum(sol[i] * rhs[i] for i in range(h))))
            got = best_approx_first(exp_series(), n, 1.0).value
            assert got == pytest.approx(want, rel=1e-12), n
        assert norm(exp_series(), NormSpec("first", 2.0, 1.0)) == pytest.approx(
            float(mpmath.sqrt(full)), rel=1e-14)


@pytest.mark.parametrize("n", [60, 120])
def test_first_kind_best_approximation_past_the_first_certificate_meets_mpmath(n):
    # E_n of exp is far below the tail the first certificate leaves (1e-30
    # of e), so f's terms are certified again; the Schur complement of each
    # parity's chain in 40 digits
    size = n + 40
    with mpmath.workdps(40):
        s = [1 / mpmath.sqrt(mpmath.factorial(k)) for k in range(size)]
        total = mpmath.mpf(0)
        for parity in (0, 1):
            idx = list(range(parity, size, 2))
            gram = mpmath.zeros(len(idx), len(idx))
            for i, k in enumerate(idx):
                gram[i, i] = k + 1
                if i + 1 < len(idx):
                    gram[i, i + 1] = gram[i + 1, i] = -mpmath.sqrt((k + 1) * (k + 2)) / 2
            h = sum(1 for k in idx if k <= n)
            tail = mpmath.matrix([s[k] for k in idx[h:]])
            rhs = gram[0:h, h:len(idx)] * tail
            total += (tail.T * gram[h:len(idx), h:len(idx)] * tail)[0] \
                - (rhs.T * mpmath.lu_solve(gram[0:h, 0:h], rhs))[0]
        want = float(mpmath.sqrt(total))
    assert best_approx_first(exp_series(), n, 1.0).value == pytest.approx(want, rel=1e-12, abs=0.0)


def test_inner_second_matches_the_plane_quadrature_on_every_plane():
    rng = np.random.default_rng(16)
    unit = ImaginaryUnit.from_vector(rng.normal(size=3))
    f, g = SliceSeries(rng.normal(size=(9, 4))), SliceSeries(rng.normal(size=(7, 4)))
    alpha = 0.7
    grid = slice_grid(alpha, 96, 192)

    def plane(h):
        v, e = _weighted_plane(h.directions, h.log_row_norms, grid, alpha)
        return _lift(v, unit).reshape(-1, 4) * 2.0 ** e

    w = grid.plane_weights.ravel()
    want = alpha / math.pi * (w @ quat_mul_array(quat_conj_array(plane(f)), plane(g)))
    scale = math.sqrt(norm(f, NormSpec("second", 2.0, alpha))
                      * norm(g, NormSpec("second", 2.0, alpha))) ** 2
    got = inner_second(f, g, alpha, unit).to_array()
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)
    # the coefficient sum reads neither the unit nor a grid
    np.testing.assert_array_equal(inner_second(f, g, alpha, grid=grid).to_array(), got)


def mpmath_first_kind_tail_sq(s, n):
    """E_n^2 over the algebra in mpmath for real scaled rows s_k = a_k
    sqrt(k! / alpha^k): per parity the Schur complement of the tridiagonal
    H (k + 1 on the diagonal, -sqrt((k + 1)(k + 2)) / 2 beside it) on the
    rows past n, whose head block couples to the tail through its last row
    only, so it is the tail's form minus (H_{h-1,h} s_h)^2 / d_{h-1}, d the
    head's last LU pivot."""
    total = mpmath.mpf(0)
    for parity in (0, 1):
        idx = list(range(parity, len(s), 2))
        off = [-mpmath.sqrt((k + 1) * (k + 2)) / 2 for k in idx]    # (i, i + 1)
        h = sum(1 for k in idx if k <= n)
        total += sum((k + 1) * s[k] ** 2 for k in idx[h:]) \
            + 2 * sum(off[i] * s[idx[i]] * s[idx[i + 1]] for i in range(h, len(idx) - 1))
        if h:
            pivot = mpmath.mpf(idx[0] + 1)
            for i in range(1, h):
                pivot = idx[i] + 1 - off[i - 1] ** 2 / pivot
            total -= (off[h - 1] * s[idx[h]]) ** 2 / pivot
    return total


def test_best_approximation_past_the_stored_rows_meets_mpmath():
    # every row of E_180, E_200 and E_240 of exp lies where 1/k! is 0 in
    # storage (from k = 178): both kinds read those rows from their closed
    # form, and the residual's squared rows (below e^-745 of f's largest
    # from n = 180) keep their size on the residual's own scale, where the
    # first kind's charge still bounds the distance to mpmath
    assert exp_series().generator.coeffs(200)[178:].max() == 0.0
    with mpmath.workdps(50):
        s = [1 / mpmath.sqrt(mpmath.factorial(k)) for k in range(300)]
        for n in (170, 180, 200, 240):
            second = float(mpmath.sqrt(mpmath.fsum(x * x for x in s[n + 1:])))
            first = mpmath.sqrt(mpmath_first_kind_tail_sq(s, n))
            assert best_approx_second(exp_series(), n, 1.0).value == pytest.approx(
                second, rel=1e-12, abs=0.0), n
            value = best_approx_first(exp_series(), n, 1.0).value
            assert value == pytest.approx(float(first), rel=1e-12, abs=0.0), n
            _, (charge,), *_ = _charged(functools.partial(_first_images, alpha=1.0, n=n),
                                        _parseval_terms(exp_series(), 1.0), 1.0)
            assert abs(value - first) <= charge * first, n


def test_first_kind_report_reads_no_grid():
    spec = NormSpec("first", 2.0, 1.0)
    for grid in (None, volume_grid(1.0, 2, 2)):
        rep = norm_report(exp_series(), spec, grid)
        assert rep.stability == 0.0 and rep.grid_sizes == ()
        assert rep.to_record()["grid"] == []
        assert rep.value == pytest.approx(math.exp(0.5), rel=1e-15)


def test_scaled_form_reaches_the_gershgorin_constant():
    # L L^T is the scaled Gram H; with D its diagonal, x^T H x <= 2 x^T D x,
    # and rows alternating along each parity come within 1 % of it, so no
    # smaller constant bounds rows known only by their size
    diag, sub = _first_factor()
    size = 400
    lower = np.diag(diag[:size]) + np.diag(sub[2:size], -2)
    gram = lower @ lower.T
    k = np.arange(size)
    np.testing.assert_allclose(np.diag(gram), k + 1.0, rtol=1e-13)
    np.testing.assert_allclose(np.diag(gram, 2), -0.5 * np.sqrt((k[:-2] + 1.0) * (k[:-2] + 2.0)),
                               rtol=1e-13)
    x = np.where(k % 4 < 2, 1.0, -1.0) / np.sqrt(k + 1.0)
    assert 1.98 < (x @ gram @ x) / (x @ ((k + 1.0) * x)) < 2.0


def stored_to(k, log_tail=-math.inf):
    """exp's Parseval terms stored to degree k - 1, rows k - 2 and k - 1
    zero, with the tail bound e^log_tail past them."""
    terms = _parseval_terms(exp_series(), 1.0)
    coeffs = np.array(terms.series.coeffs[:k])
    coeffs[k - 2:] = 0.0
    logw = np.where(np.arange(k) < k - 2, terms.logw[:k], -math.inf)
    return ParsevalTerms(SliceSeries(coeffs, terms.series.generator), logw, log_tail)


def test_first_kind_charge_is_the_gershgorin_bound():
    # the rows past the stored degree D = 19, from K = 20, charged at
    # W = (D + 1 + 1 / (1 - rho)) tau sum_k t_k, tau their relative tail
    # bound, next to two rows of zeros (b = 0): the charge is 2 W, relative
    # to the power, halved at the norm's scale
    k = 20
    fake = stored_to(k, math.log(1e-13))
    (log_p,), (charge,), *_ = _first_images(fake, 1.0)
    rho = fake.series.generator.parseval_ratio(1.0, k - 1)
    w = (k + 1.0 / (1.0 - rho)) * 1e-13 * float(np.sum(np.exp(fake.logw)))
    assert charge == pytest.approx(2.0 * w / math.exp(log_p) / 2.0, rel=1e-12)


def test_first_kind_p2_rounding_charge_bounds_an_mpmath_sum():
    # a polynomial has no tail: the charge of random:8:1 is the rounding of
    # its rows' logs, of L^T and of the sum, and bounds the distance to
    # ||L^T s|| at 50 digits, s_k = a_k (k! / alpha^k)^(1/2), L from its
    # recurrence
    f = random_series(8, 1)
    rep = norm_report(f, NormSpec("first", 2.0, 1.0))
    assert 0.0 < rep.tail_bound <= 1e-13
    size = f.coeffs.shape[0] + 2
    with mpmath.workdps(50):
        diag, sub = [mpmath.mpf(0)] * size, [mpmath.mpf(0)] * size
        for k in range(size):
            if k >= 2:
                sub[k] = -mpmath.sqrt((k - 1) * k) / (2 * diag[k - 2])
            diag[k] = mpmath.sqrt(k + 1 - sub[k] ** 2)
        s = [[mpmath.mpf(float(c)) * mpmath.sqrt(mpmath.factorial(k)) for c in row]
             for k, row in enumerate(f.coeffs)] + [[mpmath.mpf(0)] * 4] * 2
        want = mpmath.sqrt(mpmath.fsum((diag[k] * s[k][c] + sub[k + 2] * s[k + 2][c]) ** 2
                                       for k in range(size - 2) for c in range(4)))
        assert abs(rep.value - want) / want <= rep.tail_bound


def test_inner_products_charge_the_gershgorin_constant(monkeypatch):
    # the same record: <f, f> moves by at most c W, c = 2 over the algebra
    # (|H| <= 2 D) and 1 on a plane; with W at 0.7e-10 of the first-kind
    # power the algebra refuses it, and the plane (W below that there) does not
    from slicefock import spaces

    k = 20
    fake = stored_to(k)
    rho = fake.series.generator.parseval_ratio(1.0, k - 1)
    weighted = (k + 1.0 / (1.0 - rho)) * float(np.sum(np.exp(fake.logw)))
    tail = 0.7e-10 * math.exp(_first_images(fake, 1.0)[0][0]) / weighted
    monkeypatch.setattr(spaces, "_parseval_terms",
                        lambda f, alpha: fake._replace(log_tail=math.log(tail)))
    f = fake.series
    with pytest.raises(TruncationError, match="truncated-tail"):
        inner_first(f, f, 1.0)
    assert inner_second(f, f, 1.0).w == pytest.approx(
        float(np.sum(np.exp(fake.logw))), rel=1e-14)


@pytest.mark.parametrize("alpha", [1.0, 0.05, 0.0105])
def test_first_kind_norm_counts_the_rows_stored_as_zero(alpha):
    # ||e^{j q}||^2 = (2 / alpha + 1) e^{1 / alpha} over the algebra: its rows
    # alternate along each parity, and at alpha = 0.0105 the rows from 178,
    # where 1 / k! is 0 in storage, weigh 1e-11 of it; read from their closed
    # form, the value meets the 40-digit one
    f = ExpGenerator((0.0, 1.0, 0.0, 0.0)).series(8)
    rep = norm_report(f, NormSpec("first", 2.0, alpha))
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        want = float(mpmath.sqrt((2 / a + 1) * mpmath.exp(1 / a)))
    assert abs(rep.value - want) <= (rep.tail_bound + 4e-15) * want
    assert rep.tail_bound <= 1e-10


# ---------------------------------------------------------------------------
# moduli whose multipliers fall below the float range

def test_modulus_rows_below_the_float_range_keep_their_size():
    # (2 sin(h / 2))^400 is about 1e-400 at h = 0.1, below the float range,
    # while 1e200 q carries it back to 1.2e-200: at p = 2 sqrt(pi) 1e200 r,
    # at p = 1 2 pi sqrt(pi / 2) 1e200 r (alpha = 1, no prefactor)
    f = SliceSeries(np.array([[0.0] * 4, [1e200, 0.0, 0.0, 0.0]]))
    log_r = 400 * math.log(2.0 * math.sin(0.05))
    for p, const, rel in ((2.0, math.sqrt(math.pi), 1e-12),
                          (1.0, 2.0 * math.pi * math.sqrt(math.pi / 2.0), 1e-9)):
        got = modulus(f, ModulusQuery(k=400, delta=0.1, p=p, alpha=1.0))
        assert got == pytest.approx(const * math.exp(log_r + math.log(1e200)), rel=rel)


@pytest.mark.parametrize("p", ["2", "1"])
def test_modulus_below_the_float_range_is_refused(capsys, p):
    # omega of q is about (2 sin 0.05)^400 sqrt(pi) = 1e-400: refused, not 0.0
    code = cli.main(["smoothness", "--fn", "mono:1", "--k", "400",
                     "--delta-list", "0.1", "--p", p])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: order-400 modulus is nonzero and below the float range")


def test_difference_series_multiplies_the_scale_back():
    # difference_series returns the true coefficients, which underflow here
    from conftest import difference_series
    from slicefock.quaternion import UNIT_I

    d = difference_series(SliceSeries(np.array([[0.0] * 4, [1.0, 0, 0, 0]])), 400, 0.01, UNIT_I)
    assert np.all(d.coeffs == 0.0)
    with pytest.raises(IntegrandOverflowError, match="below the float range"):
        modulus(SliceSeries(np.array([[0.0] * 4, [1.0, 0, 0, 0]])),
                ModulusQuery(k=400, delta=0.01, p=2.0, alpha=1.0))


# ---------------------------------------------------------------------------
# kernel fits read f's rows below the float range from their closed form

@pytest.mark.parametrize("alpha", ["0.01", "0.005"])
def test_kernel_fit_reads_the_rows_exp_stores_as_zero(capsys, alpha):
    # ||exp||^2 = e^{1/alpha}, and the section at 0.5 spans e^{alpha q / 2},
    # whose overlap with exp is e^{1/2} against its norm e^{alpha / 4}: the
    # residual is e^{1/(2 alpha)} (1 - e^{1 - alpha/4 - 1/alpha})^{1/2}; the
    # rows from 178, 0 in storage, hold 1.35e-12 of the mass at alpha = 0.01
    # and most of it at 0.005
    assert cli.main(["kernel-fit", "--fn", "exp", "--alpha", alpha,
                     "--centers", "0.5", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        want = float(mpmath.exp(1 / (2 * a)) * mpmath.sqrt(1 - mpmath.exp(1 - a / 4 - 1 / a)))
    assert rows[0]["residual"] == pytest.approx(want, rel=1e-13)
