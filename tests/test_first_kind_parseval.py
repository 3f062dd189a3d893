"""Exact p = 2 numbers over the whole algebra and on every plane, from the
Parseval certificate and the banded monomial Gram, checked against 40-digit
mpmath, against the quadratures they replace (kept here as oracles), and
against closed forms; the charge of f's underflowed rows is checked to
cover the error it bounds.
"""

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
    raw, _, e = _volume_raw_power(prepared_for_grid(f, alpha, grid).series, grid, 2.0, alpha)
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
    assert best_approx_first(exp_series(), n, 1.0).value == pytest.approx(want, rel=1e-12)


def test_inner_second_matches_the_plane_quadrature_on_every_plane():
    rng = np.random.default_rng(16)
    unit = ImaginaryUnit.from_vector(rng.normal(size=3))
    f, g = SliceSeries(rng.normal(size=(9, 4))), SliceSeries(rng.normal(size=(7, 4)))
    alpha = 0.7
    grid = slice_grid(alpha, 96, 192)

    def plane(h):
        v, e = _weighted_plane(h, grid, alpha)
        return _lift(v, unit).reshape(-1, 4) * 2.0 ** e

    w = grid.plane_weights.ravel()
    want = alpha / math.pi * (w @ quat_mul_array(quat_conj_array(plane(f)), plane(g)))
    scale = math.sqrt(norm(f, NormSpec("second", 2.0, alpha))
                      * norm(g, NormSpec("second", 2.0, alpha))) ** 2
    got = inner_second(f, g, alpha, unit).to_array()
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)
    # the coefficient sum reads neither the unit nor a grid
    np.testing.assert_array_equal(inner_second(f, g, alpha, grid=grid).to_array(), got)


def test_first_kind_best_approximation_past_the_stored_rows_is_refused():
    # every row of E_200 lies where 1/k! underflowed in storage
    for best in (best_approx_first, best_approx_second):
        with pytest.raises(TruncationError, match="underflowed-row"):
            best(exp_series(), 200, 1.0)


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


def test_first_kind_charge_is_the_gershgorin_bound():
    # rows from K = 20 charged at W = (K + 1 + rho / (1 - rho)) d sum_k t_k,
    # d their relative drop bound, next to two rows of zeros (b = 0): the
    # charge is 2 W, relative to the power, halved at the norm's scale
    terms = _parseval_terms(exp_series(), 1.0)
    k0, log_drop = 20, math.log(1e-13)
    coeffs = np.array(terms.series.coeffs)
    coeffs[k0 - 2:] = 0.0
    logw = np.where(np.arange(terms.logw.size) < k0 - 2, terms.logw, -math.inf)
    fake = ParsevalTerms(SliceSeries(coeffs, terms.series.generator), logw,
                         -math.inf, log_drop, k0)
    log_p, charge, *_ = _first_images(fake, 1.0)
    rho = terms.series.generator.parseval_ratio(1.0, k0)
    w = (k0 + 1 + rho / (1.0 - rho)) * 1e-13 * float(np.sum(np.exp(logw)))
    assert charge == pytest.approx(2.0 * w / math.exp(log_p) / 2.0, rel=1e-12)


def test_inner_products_charge_the_gershgorin_constant(monkeypatch):
    # the same record: <f, f> moves by at most c W, c = 2 over the algebra
    # (|H| <= 2 D) and 1 on a plane; with W at 0.7e-10 of the first-kind
    # power the algebra refuses it, and the plane (W below that there) does not
    from slicefock import spaces

    terms = _parseval_terms(exp_series(), 1.0)
    k0 = 20
    coeffs = np.array(terms.series.coeffs)
    coeffs[k0 - 2:] = 0.0
    logw = np.where(np.arange(terms.logw.size) < k0 - 2, terms.logw, -math.inf)
    fake = ParsevalTerms(SliceSeries(coeffs, terms.series.generator), logw,
                         -math.inf, -math.inf, k0)
    rho = terms.series.generator.parseval_ratio(1.0, k0)
    weighted = (k0 + 1 + rho / (1.0 - rho)) * float(np.sum(np.exp(logw)))
    drop = 0.7e-10 * math.exp(_first_images(fake, 1.0)[0]) / weighted
    monkeypatch.setattr(spaces, "_parseval_terms",
                        lambda f, alpha: fake._replace(log_drop=math.log(drop)))
    f = SliceSeries(coeffs)
    with pytest.raises(TruncationError, match="underflowed-row"):
        inner_first(f, f, 1.0)
    assert inner_second(f, f, 1.0).w == pytest.approx(float(np.sum(np.exp(logw))), rel=1e-14)


@pytest.mark.parametrize("alpha", [1.0, 0.05, 0.0105])
def test_first_kind_charge_covers_the_rows_it_does_not_store(alpha):
    # ||e^{j q}||^2 = (2 / alpha + 1) e^{1 / alpha} over the algebra: its rows
    # alternate along each parity, so the rows from 178, where 1 / k!
    # underflows, add nearly twice their weighted mass; the reported bound
    # covers what they add to the value
    f = ExpGenerator((0.0, 1.0, 0.0, 0.0)).series(8)
    rep = norm_report(f, NormSpec("first", 2.0, alpha))
    want = math.exp(0.5 * (math.log(2.0 / alpha + 1.0) + 1.0 / alpha))
    assert abs(rep.value - want) <= (rep.tail_bound + 4e-15) * want
    assert rep.tail_bound <= 1e-10
    if alpha == 0.0105:
        assert abs(rep.value - want) > 2e-14 * want     # the rows do matter here


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
    from slicefock.approx import difference_series
    from slicefock.quaternion import UNIT_I

    d = difference_series(SliceSeries(np.array([[0.0] * 4, [1.0, 0, 0, 0]])), 400, 0.01, UNIT_I)
    assert np.all(d.coeffs == 0.0)
    with pytest.raises(IntegrandOverflowError, match="below the float range"):
        modulus(SliceSeries(np.array([[0.0] * 4, [1.0, 0, 0, 0]])),
                ModulusQuery(k=400, delta=0.01, p=2.0, alpha=1.0))


# ---------------------------------------------------------------------------
# kernel fits charge f's underflowed rows

def test_kernel_fit_charges_the_rows_exp_drops_at_alpha_001(capsys):
    # ||exp||^2 = e^100, and the section at 0.5 spans e^{0.005 q}, whose
    # overlap with exp is e^{1/2} against its norm e^{1/400}: the residual is
    # e^50 (1 - e^{-99.0025})^{1/2}, to the 1.35e-12 the dropped rows carry
    assert cli.main(["kernel-fit", "--fn", "exp", "--alpha", "0.01",
                     "--centers", "0.5", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[0]["residual"] == pytest.approx(math.exp(50.0), rel=1e-11)
    # at alpha = 0.005 they hold most of the mass, and the fit is refused
    assert cli.main(["kernel-fit", "--fn", "exp", "--alpha", "0.005",
                     "--centers", "0.5"]) == 1
    assert capsys.readouterr().err.startswith("error: truncated-tail or underflowed-row")
