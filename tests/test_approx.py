import math

import numpy as np
import pytest

from slicefock.approx import (
    BestApproxResult,
    ModulusQuery,
    best_approx_first,
    best_approx_lp,
    best_approx_second,
    finite_difference,
    modulus,
    operator_error,
    parseval_norm_sq,
    vdp_constant,
    verify_jackson,
    verify_vdp,
)
from slicefock.errors import SolverError
from slicefock.quaternion import ImaginaryUnit, Quaternion, UNIT_I, slice_exp
from slicefock.quadrature import DEFAULT_ANGULAR, DEFAULT_RADIAL, slice_grid, volume_grid
from slicefock.series import (
    ExpGenerator,
    SliceSeries,
    evaluate,
    exp_series,
    from_quaternions,
    gauss_series,
    monomial,
    random_series,
    taylor_truncate,
)
from slicefock.spaces import (
    NormSpec,
    default_grid,
    inner_first,
    inner_second,
    norm,
    prepared_for_grid,
)
from slicefock.operators import apply, fejer_op, jackson_op, taylor_op, vdp_op
from conftest import difference_series, first_kind_gram, random_poly_coeffs


def _plane_power(g, unit, grid, p, alpha):
    """(raw, e): the raw plane integral of |g|^p w_alpha^p on ``grid`` is
    raw 2^{e p}, from the plane kernel's values of g's rows."""
    from slicefock.series import _lift
    from slicefock.spaces import _plane_raw_power, _weighted_plane

    v, e = _weighted_plane(g.directions, g.log_row_norms, grid, alpha)
    amp = np.sqrt(np.sum(np.square(_lift(v, unit)), axis=-1))
    return _plane_raw_power(amp, grid, p), e


def _quadrature_p2(g, unit, alpha, grid):
    """The plane norm at p = 2 by quadrature on ``grid``: the check the
    coefficient sums replace."""
    raw, e = _plane_power(g, unit, grid, 2.0, alpha)
    return math.ldexp(math.sqrt(alpha / math.pi * raw), e)


def test_finite_difference_annihilates_constants():
    f = from_quaternions([Quaternion(2.5, 1, 0, 0)])
    for k in (1, 2, 3):
        d = finite_difference(f, k, 0.3, Quaternion(0.7, 0.2, 0, 0), UNIT_I)
        assert d.norm() < 1e-12


def test_finite_difference_first_order_monomials():
    z = Quaternion(0.8, 0.5, 0, 0)
    h = 0.4
    d = finite_difference(monomial(1), 1, h, z, UNIT_I)
    rot = slice_exp(UNIT_I, h) - Quaternion(1)
    assert (d - z * rot).norm() < 1e-13
    for j in (2, 5):
        d = finite_difference(monomial(j), 1, h, z, UNIT_I)
        zj = evaluate(monomial(j), z)
        rot = slice_exp(UNIT_I, j * h) - Quaternion(1)
        assert (d - zj * rot).norm() < 1e-12 * max(1.0, zj.norm())


def test_difference_series_matches_direct(rng):
    f = SliceSeries(random_poly_coeffs(rng, 7))
    h, k = 0.21, 2
    d = difference_series(f, k, h, UNIT_I)
    z = Quaternion(0.4, -0.9, 0, 0)
    direct = finite_difference(f, k, h, z, UNIT_I)
    assert (evaluate(d, z) - direct).norm() < 1e-12 * max(1.0, direct.norm())


def test_modulus_vanishes_for_constants():
    f = from_quaternions([Quaternion(3, 0, 1, 0)])
    q = ModulusQuery(k=1, delta=0.7, p=2.0, alpha=1.0)
    assert modulus(f, q) == 0.0
    # at delta = 0 also for members whose tail or underflowed rows a nonzero
    # value would be charged for
    for f, alpha in ((exp_series(), 1.0), (exp_series(), 0.05),
                     (gauss_series(0.25), 1.0)):
        for p in (1.0, 2.0, 4.0):
            assert modulus(f, ModulusQuery(k=1, delta=0.0, p=p, alpha=alpha)) == 0.0


def test_modulus_first_order_monomial_closed_form():
    alpha = 1.0
    for delta in (0.25, 0.7, 1.3):
        got = modulus(monomial(1), ModulusQuery(k=1, delta=delta, p=2.0,
                                                alpha=alpha))
        want = 2 * math.sin(delta / 2) * math.sqrt(math.pi / alpha ** 2)
        assert got == pytest.approx(want, rel=1e-12)


def test_modulus_monotone_and_scaling():
    f = exp_series()
    alpha = 1.0
    deltas = (0.1, 0.2, 0.4, 0.8)
    vals = [modulus(f, ModulusQuery(k=2, delta=d, p=2.0, alpha=alpha))
            for d in deltas]
    assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))
    base = modulus(f, ModulusQuery(k=2, delta=0.2, p=2.0, alpha=alpha,
                                   h_grid=64))
    for lam in (1.5, 2.0, 3.0):
        scaled = modulus(f, ModulusQuery(k=2, delta=0.2 * lam, p=2.0,
                                         alpha=alpha, h_grid=64))
        assert scaled <= (lam + 1) ** 2 * base * (1 + 1e-9)


def test_modulus_scaling_small_p_power_form():
    f = exp_series()
    p = 0.5
    base = modulus(f, ModulusQuery(k=1, delta=0.2, p=p, alpha=1.0, h_grid=64))
    for lam in (1.5, 2.0, 3.0):
        scaled = modulus(f, ModulusQuery(k=1, delta=0.2 * lam, p=p, alpha=1.0,
                                         h_grid=64))
        assert scaled ** p <= (lam + 1) ** 1 * base ** p * (1 + 1e-9)


def test_modulus_query_validation():
    with pytest.raises(ValueError):
        ModulusQuery(k=0, delta=0.1, p=2.0, alpha=1.0)
    with pytest.raises(ValueError):
        ModulusQuery(k=1, delta=4.0, p=2.0, alpha=1.0)
    with pytest.raises(ValueError):
        ModulusQuery(k=1, delta=0.1, p=2.0, alpha=1.0, h_grid=4)


def test_best_approx_second_residual_structure():
    b = Quaternion(0.3, -0.4, 0.1, 0.2)
    f = from_quaternions([Quaternion(2), Quaternion(), Quaternion(),
                          Quaternion()]) + monomial(3, b)
    res = best_approx_second(f, 2, 1.0)
    assert res.value == pytest.approx(
        b.norm() * math.sqrt(math.factorial(3)), rel=1e-12)
    assert res.method == "projection"


def test_best_approx_second_polynomial_exact(rng):
    f = SliceSeries(random_poly_coeffs(rng, 4))
    res = best_approx_second(f, 4, 1.0)
    assert res.value == 0.0
    assert np.array_equal(res.minimizer.coeffs, f.coeffs)


def test_best_approx_second_exp_tail():
    res = best_approx_second(exp_series(), 4, 1.0)
    want = math.sqrt(sum(1 / math.factorial(k) for k in range(5, 60)))
    assert res.value == pytest.approx(want, rel=1e-12)


def test_best_approx_second_quadrature_cross_check():
    # coefficient formula against the weighted integral, two independent routes
    spec = NormSpec("second", 2.0, 1.0)
    grid = default_grid(spec)
    from slicefock.series import prepared_for_radius

    fe, _ = prepared_for_radius(exp_series(), grid.max_radius)
    for n in (0, 2, 5):
        res = best_approx_second(exp_series(), n, 1.0)
        direct = _quadrature_p2(fe - taylor_truncate(fe, n), UNIT_I, 1.0, grid)
        assert direct == pytest.approx(res.value, rel=1e-9)


def test_first_kind_gram_matches_inner_products():
    alpha = 1.3
    g = first_kind_gram(5, alpha)
    for m in range(6):
        for k in range(6):
            want = inner_first(monomial(m), monomial(k), alpha).w
            assert g[m, k] == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_best_approx_first_examples():
    assert best_approx_first(monomial(0), 0, 1.0).value == pytest.approx(
        0.0, abs=1e-8)
    res = best_approx_first(monomial(2), 1, 1.0)
    # normal equations by hand: <1,1> c0 = <1, q^2> gives c0 = -1, c1 = 0
    assert res.minimizer.coeffs[0, 0] == pytest.approx(-1.0, rel=1e-9)
    assert abs(res.minimizer.coeffs[1, 0]) < 1e-9
    want = math.sqrt(norm(monomial(2), NormSpec("first", 2.0, 1.0)) ** 2 - 1.0)
    assert res.value == pytest.approx(want, rel=1e-9)


def test_best_approx_first_decreasing():
    vals = [best_approx_first(exp_series(), n, 1.0).value for n in range(6)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < vals[0] / 10


def test_best_approx_lp_matches_projection_at_p2():
    r_desc = best_approx_lp(exp_series(), 4, 2.0, 1.0)
    r_proj = best_approx_second(exp_series(), 4, 1.0)
    assert r_desc.value == pytest.approx(r_proj.value, rel=1e-8)
    assert r_desc.method == "descent"


def test_best_approx_lp_symmetric_monomial():
    # all lower monomials are orthogonal to q^5 in every radial weight:
    # the zero polynomial is optimal and the start is already stationary
    res = best_approx_lp(monomial(5), 4, 3.0, 1.0, tol=1e-10)
    assert np.max(np.abs(res.minimizer.coeffs)) < 1e-10
    assert res.value <= norm(monomial(5), NormSpec("second", 3.0, 1.0)) + 1e-10


def test_best_approx_lp_beats_truncation(rng):
    f = SliceSeries(random_poly_coeffs(rng, 6))
    spec = NormSpec("second", 1.0, 1.0)
    res = best_approx_lp(f, 3, 1.0, 1.0)
    trunc = norm(f - taylor_truncate(f, 3), spec)
    assert res.value <= trunc * (1 + 1e-9)


def test_best_approx_lp_solver_error_carries_best():
    with pytest.raises(SolverError) as err:
        best_approx_lp(exp_series(), 3, 1.5, 1.0, tol=1e-30, max_iter=2)
    assert isinstance(err.value.best, BestApproxResult)


def test_best_approx_lp_rejects_nonconvex_range():
    with pytest.raises(ValueError):
        best_approx_lp(exp_series(), 3, 0.5, 1.0)


def test_vdp_constant_values():
    assert vdp_constant(2.0) == pytest.approx(math.sqrt(10) + 1, rel=1e-15)
    assert vdp_constant(1.0) == pytest.approx(4.0, rel=1e-15)


def test_verify_vdp_polynomial_degenerate(rng):
    f = SliceSeries(random_poly_coeffs(rng, 3))
    rep = verify_vdp(f, 5, 2.0, 1.0)
    assert rep.lhs < 1e-12
    assert rep.slack >= -1e-12


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_verify_vdp_exp(p, n):
    rep = verify_vdp(exp_series(), n, p, 1.0,
                     grid=slice_grid(p / 2.0, 48, 96))
    assert rep.slack >= 0.0
    assert rep.method == ("projection" if p == 2.0 else "descent")


def test_verify_vdp_record():
    rep = verify_vdp(exp_series(), 2, 2.0, 1.0)
    rec = rep.to_record()
    assert rec["lhs"] <= rec["rhs"]
    assert rec["params"]["constant"] == pytest.approx(math.sqrt(10) + 1)


def test_verify_jackson_exp_finite_ratio():
    rep = verify_jackson(exp_series(), 8, 0, 2.0, 1.0)
    assert not rep.degenerate
    assert rep.r == 2
    assert 0 < rep.ratio < 10


def test_verify_jackson_constant_degenerate():
    f = from_quaternions([Quaternion(1.5)])
    rep = verify_jackson(f, 4, 0, 2.0, 1.0)
    assert rep.degenerate and rep.ratio is None
    assert rep.lhs < 1e-12


def test_verify_jackson_m1_ratio_stable():
    ratios = [verify_jackson(exp_series(), n, 1, 2.0, 1.0).ratio
              for n in (4, 8, 16)]
    assert max(ratios) / min(ratios) < 10


def test_parseval_norm_matches_quadrature(rng):
    f = SliceSeries(random_poly_coeffs(rng, 9))
    grid = default_grid(NormSpec("second", 2.0, 1.0))
    assert math.sqrt(parseval_norm_sq(f, 1.0)) == pytest.approx(
        _quadrature_p2(f, UNIT_I, 1.0, grid), rel=1e-11)


def test_verify_vdp_gauss_family():
    for p in (1.0, 2.0, 3.0):
        rep = verify_vdp(gauss_series(0.25), 4, p, 1.0,
                         grid=slice_grid(p / 2.0, 48, 96))
        assert rep.slack >= 0.0


def test_parseval_sums_read_exp_rows_stored_as_zero():
    # exp at alpha = 0.01: 1/k! is 0 in storage from k = 178, where the
    # terms 100^k / k! are still 1e-9 of the largest one (1.35e-12 of the
    # sum), and the tails E_n from n = 176 on lie mostly there: read from
    # their closed form, the sums meet e^100 and 40-digit mpmath
    import mpmath

    assert exp_series().generator.coeffs(180)[178, 0] == 0.0
    assert parseval_norm_sq(exp_series(), 0.01) == pytest.approx(
        math.exp(100.0), rel=1e-13)
    with mpmath.workdps(40):
        terms = [mpmath.mpf(100) ** k / mpmath.factorial(k) for k in range(600)]
        for n in (176, 180):
            want = float(mpmath.sqrt(mpmath.fsum(terms[n + 1:])))
            assert best_approx_second(exp_series(), n, 0.01).value == pytest.approx(
                want, rel=1e-12), n
    assert parseval_norm_sq(exp_series(), 0.1) == pytest.approx(
        math.exp(10.0), rel=1e-14)


def test_parseval_rows_below_the_float_range_while_terms_grow():
    # |c| = 1e-100: rows past a_3 are 0 in storage, while the Parseval terms
    # 10^k / k! still grow there (ratio 2 at k = 4); from their closed form
    # the sum is e^10.  Each term is read as k log(|c|^2 / alpha) - log k!,
    # rounded once, not as 2 log |a_k| + log k! - k log alpha, whose logs
    # near 230 k cancel (3.5e-13 off)
    f = ExpGenerator((1e-100, 0.0, 0.0, 0.0)).series(24)
    assert f.coeffs[4, 0] == 0.0
    assert parseval_norm_sq(f, 1e-201) == pytest.approx(math.exp(10.0), rel=1e-14)


@pytest.mark.parametrize("beta,alpha", [(0.25, 1.0), (0.4, 1.0), (0.1, 0.5)])
def test_parseval_stride_two_ratio_bounds_every_later_ratio(beta, alpha):
    f = gauss_series(beta)
    g = f.generator
    k = np.arange(0, 1200, 2)
    logt = [2.0 * g.log_coeff(int(j)) + math.lgamma(j + 1.0) - j * math.log(alpha)
            for j in k]
    ratios = np.exp(np.diff(logt))
    for deg in (0, 16, 64, 256):
        assert np.all(ratios[k[:-1] >= deg] <= g.parseval_ratio(alpha, deg))
    # the sum itself: sum_m C(2m, m) (beta / alpha)^(2m) = (1 - 4 beta^2 / alpha^2)^(-1/2)
    assert parseval_norm_sq(f, alpha) == pytest.approx(
        (1.0 - 4.0 * beta * beta / (alpha * alpha)) ** -0.5, rel=1e-14)


#: Every Gaussian-weighted consumer, on a grid of scale alpha / 2 (the
#: p = 1 plane grid), as a function of (f, alpha) returning a float.
WEIGHTED_CONSUMERS = {
    "norm": lambda f, a: norm(f, NormSpec("second", 1.0, a)),
    "norm first": lambda f, a: norm(f, NormSpec("first", 1.0, a)),
    "inner_second": lambda f, a: inner_second(f, f, a, grid=slice_grid(a / 2.0)).w,
    "inner_first": lambda f, a: inner_first(f, f, a, grid=volume_grid(a / 2.0)).w,
    "best_approx_first": lambda f, a: best_approx_first(
        f, 4, a, volume_grid(a / 2.0)).value,
    "best_approx_lp": lambda f, a: best_approx_lp(f, 4, 1.0, a).value,
    "modulus": lambda f, a: a * modulus(f, ModulusQuery(k=2, delta=0.5, p=1.0, alpha=a)),
    "verify_vdp": lambda f, a: verify_vdp(f, 4, 1.0, a).lhs,
    "verify_jackson": lambda f, a: verify_jackson(f, 4, 0, 1.0, a).lhs,
}

#: The closed forms, (c, rel) for e^{c / alpha}: ||e^q|| = e^{1 / (2 alpha)}
#: in both kinds at every p, to the 1e-10 budget at p = 1 (quadrature),
#: and <e^q, e^q> = e^{1 / alpha}, a coefficient sum.
CLOSED_FORMS = {"norm": (0.5, 1e-10), "norm first": (0.5, 1e-10),
                "inner_second": (1.0, 1e-11), "inner_first": (1.0, 1e-11)}


@pytest.mark.parametrize("alpha", [0.01, 0.005])
@pytest.mark.parametrize("name", sorted(WEIGHTED_CONSUMERS))
def test_every_weighted_consumer_reads_exp_rows_stored_as_zero(name, alpha):
    # 1/k! is 0 in storage from k = 178, where exp's weighted terms still
    # matter at these weights (1.35e-12 of ||exp||^2 at 0.01, most of it at
    # 0.005).  Read from their closed form, every consumer gives the value
    # of the dilated problem, e^{q / sqrt(alpha)} at alpha = 1 on the grid
    # scaled alike, whose rows that matter are normal floats (the raw
    # modulus scales by 1 / alpha, undone in its entry), to the 1e-10 the
    # library states, and the closed form where there is one
    consume = WEIGHTED_CONSUMERS[name]
    assert exp_series().generator.coeffs(180)[178, 0] == 0.0
    got = consume(exp_series(), alpha)
    dilated = ExpGenerator((1.0 / math.sqrt(alpha), 0.0, 0.0, 0.0)).series(24)
    assert got == pytest.approx(consume(dilated, 1.0), rel=1e-10)
    if name in CLOSED_FORMS:
        c, rel = CLOSED_FORMS[name]
        assert got == pytest.approx(math.exp(c / alpha), rel=rel)
    assert consume(gauss_series(0.25), 1.0) > 0.0


def test_difference_series_overflow_is_a_named_error():
    import warnings

    from slicefock.errors import IntegrandOverflowError

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IntegrandOverflowError, match="difference"):
            difference_series(exp_series(), 100000, 0.5, UNIT_I)


# ---------------------------------------------------------------------------
# the p = 2 modulus from Parseval terms

SKEW_UNIT = ImaginaryUnit.from_vector([0.3, -0.4, 0.5])
P2_FAMILIES = {"exp": exp_series(), "gauss:0.25": gauss_series(0.25),
               "random:8": random_series(8, 7)}


def _quadrature_modulus(f, query, grid):
    """The modulus by plane quadrature: each sampled step's k-th difference
    integrated on ``grid``, without the norm's prefactor alpha / pi."""
    fe = prepared_for_grid(f, query.alpha, grid)[0]
    best = max(_quadrature_p2(difference_series(fe, query.k, float(h), query.unit),
                              query.unit, query.alpha, grid)
               for h in np.linspace(0.0, query.delta, query.h_grid)[1:])
    return best * math.sqrt(math.pi / query.alpha)


@pytest.mark.parametrize("name", sorted(P2_FAMILIES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_p2_modulus_matches_quadrature_on_a_refined_grid(name, k):
    f = P2_FAMILIES[name]
    grid = slice_grid(1.0, 2 * DEFAULT_RADIAL, 2 * DEFAULT_ANGULAR)
    for unit in (UNIT_I, SKEW_UNIT):
        for delta in (1.0 / 16.0, 1.5):
            query = ModulusQuery(k=k, delta=delta, p=2.0, alpha=1.0, unit=unit)
            assert modulus(f, query) == pytest.approx(
                _quadrature_modulus(f, query, grid), rel=1e-12)


@pytest.mark.parametrize("name", sorted(P2_FAMILIES))
def test_p2_modulus_reads_neither_grid_nor_unit(name):
    f = P2_FAMILIES[name]
    for alpha in (1.0, 2.5):
        query = ModulusQuery(k=2, delta=0.3, p=2.0, alpha=alpha)
        want = modulus(f, query)
        assert want > 0.0
        assert modulus(f, query, slice_grid(alpha, 2, 2)) == want
        assert modulus(f, ModulusQuery(k=2, delta=0.3, p=2.0, alpha=alpha,
                                       unit=SKEW_UNIT)) == want


@pytest.mark.parametrize("name", sorted(P2_FAMILIES))
def test_p2_modulus_monotone_in_delta(name):
    # below pi / 8 every term (2 sin(j h / 2))^(2k) of degree j <= 8 grows
    # with h, and the higher terms of exp and gauss are far below them
    f = P2_FAMILIES[name]
    for k in (1, 2, 3):
        vals = [modulus(f, ModulusQuery(k=k, delta=d, p=2.0, alpha=1.0))
                for d in np.geomspace(1.0 / 256.0, 0.375, 12)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def _mp_modulus(log_term, k, delta, degree):
    """sqrt(pi max_h sum_j (2 sin(j h / 2))^(2k) t_j) at alpha = 1 over the
    sampled steps, the Parseval terms t_j = e^{log_term(j)} for j < degree,
    at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        best = max(mpmath.fsum((2 * mpmath.sin(j * mpmath.mpf(float(h)) / 2)) ** (2 * k)
                               * mpmath.exp(log_term(j)) for j in range(degree))
                   for h in np.linspace(0.0, delta, 16)[1:])
        return float(mpmath.sqrt(mpmath.pi * best))


@pytest.mark.parametrize("name,delta", [("exp", 1.5e-6), ("gauss:0.25", 1e-3)])
def test_p2_modulus_recertifies_the_tail_a_tiny_step_needs(monkeypatch, name, delta):
    import mpmath

    from slicefock import approx
    from slicefock.spaces import NORM_TAIL_BUDGET

    from slicefock import spaces

    f, k = P2_FAMILIES[name], 5
    calls = []
    certify = approx._parseval_terms

    def spy(g, alpha, log_tol=math.log(approx.PARSEVAL_TAIL_TOL)):
        out = certify(g, alpha, log_tol)
        calls.append((math.exp(log_tol), out))
        return out

    # the first certificate is made by modulus, a further one by the sum
    monkeypatch.setattr(approx, "_parseval_terms", spy)
    monkeypatch.setattr(spaces, "_parseval_terms", spy)
    got = modulus(f, ModulusQuery(k=k, delta=delta, p=2.0, alpha=1.0))
    # at PARSEVAL_TAIL_TOL the stored difference's tail, up to 4^k times
    # f's, misses the budget of the tiny value, so f's terms are certified
    # once more at the tolerance that step needs
    assert len(calls) == 2
    (_, (_, logw, log_tail, *_)), (tol, _) = calls
    tail = math.exp(log_tail)
    total, sq = float(np.sum(np.exp(logw))), got * got / math.pi
    assert NORM_TAIL_BUDGET * sq < 4.0 ** k * tail * total
    assert tol <= NORM_TAIL_BUDGET * sq / (4.0 ** k * total) * (1.0 + 1e-9)
    if name == "exp":
        # f's tail alone meets the budget here: the 4^k is what misses it
        assert tail * total < NORM_TAIL_BUDGET * sq
        want = _mp_modulus(lambda j: -mpmath.loggamma(j + 1), k, delta, 80)
    else:   # t_{2m} = beta^(2m) (2m)! / m!^2
        want = _mp_modulus(lambda j: -mpmath.inf if j % 2 else
                           j * mpmath.log(0.25) + mpmath.loggamma(j + 1)
                           - 2 * mpmath.loggamma(j // 2 + 1), k, delta, 400)
    assert got == pytest.approx(want, rel=1e-12)
    # a polynomial has no tail: any step is certified at once
    calls.clear()
    assert modulus(monomial(3), ModulusQuery(k=k, delta=delta, p=2.0,
                                             alpha=1.0)) > 0.0
    assert len(calls) == 1


def test_p2_modulus_past_the_float_range_names_the_order():
    import warnings

    from slicefock.errors import IntegrandOverflowError

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IntegrandOverflowError, match="order-1023"):
            modulus(exp_series(), ModulusQuery(k=1023, delta=0.5, p=2.0,
                                               alpha=0.1))


def test_p2_modulus_at_order_1023_matches_a_50_digit_sum():
    import mpmath

    with mpmath.workdps(50):
        # exp: Parseval terms 1/j!; 4^1023 / j! is negligible past j = 120
        best = max(mpmath.fsum((2 * mpmath.sin(j * mpmath.mpf(float(h)) / 2)) ** 2046
                               / mpmath.factorial(j) for j in range(120))
                   for h in np.linspace(0.0, 0.5, 16)[1:])
        want = float(mpmath.sqrt(mpmath.pi * best))
    got = modulus(exp_series(), ModulusQuery(k=1023, delta=0.5, p=2.0, alpha=1.0))
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# second-kind p = 2 norms and operator errors from Parseval terms

P2_OPERATORS = {"taylor": lambda n: taylor_op(n), "fejer": lambda n: fejer_op(n),
                "vdp": lambda n: vdp_op(n), "jackson": lambda n: jackson_op(n, 0, 2.0)}


@pytest.mark.parametrize("name", sorted(P2_FAMILIES))
def test_p2_norms_and_operator_errors_match_quadrature_on_a_refined_grid(name):
    from slicefock.spaces import prepared_for_spec

    f = P2_FAMILIES[name]
    grid = slice_grid(1.0, 2 * DEFAULT_RADIAL, 2 * DEFAULT_ANGULAR)
    fe = prepared_for_grid(f, 1.0, grid).series
    for unit in (UNIT_I, SKEW_UNIT):
        spec = NormSpec("second", 2.0, 1.0, slice_unit=unit)
        want = _quadrature_p2(fe, unit, 1.0, grid)
        assert norm(f, spec) == pytest.approx(want, rel=1e-12)
        assert norm(f, NormSpec("second", 2.0, 1.0, sup_samples=8)) == \
            pytest.approx(want, rel=1e-12)
        terms = prepared_for_spec(f, spec, grid)
        for op_name, make in P2_OPERATORS.items():
            for n in (2, 4, 8, 16, 32):
                op = make(n)
                want = _quadrature_p2(apply(op, fe) - fe, unit, 1.0, grid)
                got = operator_error(op, terms, spec, grid)
                assert got == pytest.approx(want, rel=1e-12), (op_name, n, unit)
                if op_name == "vdp":
                    assert verify_vdp(f, n, 2.0, 1.0, unit).lhs == got
                if op_name == "jackson":
                    assert verify_jackson(f, n, 0, 2.0, 1.0, unit).lhs == got


# ---------------------------------------------------------------------------
# the grid side of the multiplier-image norm against per-image loops

def _step_loop_modulus(f, query, grid):
    """The modulus as a loop over the sampled steps: each step's difference
    coefficients (e^{I j h} - 1)^k a_j formed directly, integrated on the
    plane by quadrature, and the largest taken on the scale of the largest
    exponent."""
    from slicefock.quaternion import left_mult_matrix

    fe = prepared_for_grid(f, query.alpha, grid).series
    lm = left_mult_matrix(query.unit.as_quaternion()).T
    steps = []
    for h in np.linspace(0.0, query.delta, query.h_grid)[1:]:
        w = (np.exp(1j * h * np.arange(fe.coeffs.shape[0])) - 1.0) ** query.k
        g = SliceSeries(w.real[:, None] * fe.coeffs + w.imag[:, None] * (fe.coeffs @ lm))
        steps.append(_plane_power(g, query.unit, grid, query.p, query.alpha))
    top = max(e for _, e in steps)
    best = max(raw * 2.0 ** (query.p * (e - top)) for raw, e in steps)
    return math.ldexp(best ** (1.0 / query.p), top)


@pytest.mark.parametrize("p", [1.0, 3.0])
@pytest.mark.parametrize("name", sorted(P2_FAMILIES))
def test_grid_modulus_and_operator_errors_match_their_per_image_loops(name, p):
    f = P2_FAMILIES[name]
    grid = slice_grid(p / 2.0, 32, 64)
    for unit in (UNIT_I, SKEW_UNIT):
        for k, delta in ((1, 0.5), (3, 1.5)):
            query = ModulusQuery(k=k, delta=delta, p=p, alpha=1.0, unit=unit)
            assert modulus(f, query, grid) == pytest.approx(
                _step_loop_modulus(f, query, grid), rel=1e-13), (k, unit)
        spec = NormSpec("second", p, 1.0, slice_unit=unit)
        prepared = prepared_for_grid(f, 1.0, grid)
        fe = prepared.series
        for op in (fejer_op(8), vdp_op(4), jackson_op(8, 1, p)):
            assert operator_error(op, prepared, spec, grid) == pytest.approx(
                norm(apply(op, fe) - fe, spec, grid), rel=1e-13), (op.provenance, unit)


def test_grid_modulus_reads_the_rows_stored_as_zero():
    # exp at alpha = 0.015 on the p = 1 grid: 1/k! is 0 in storage from
    # k = 178, where the weighted terms are 2e-12 of the norm.  The small
    # 4th-difference modulus at delta = 0.003, which a 2^4-fold charge of
    # those rows refused, meets the dilated problem's, e^{q / sqrt(alpha)}
    # at alpha = 1, whose rows that matter are normal floats
    f, alpha = exp_series(), 0.015
    dilated = ExpGenerator((1.0 / math.sqrt(alpha), 0.0, 0.0, 0.0)).series(24)
    for delta in (0.003, 0.01):
        got = modulus(f, ModulusQuery(k=4, delta=delta, p=1.0, alpha=alpha))
        want = modulus(dilated, ModulusQuery(k=4, delta=delta, p=1.0, alpha=1.0)) / alpha
        assert got == pytest.approx(want, rel=1e-10), delta


def test_p2_operator_error_reads_the_rows_stored_as_zero():
    # exp at alpha = 0.01: the rows from 178, 0 in storage, are 1.35e-12 of
    # the sum of the Parseval terms, and hold most of the error from n = 176
    # on, the tail of the terms themselves: from their closed form it meets
    # 40-digit mpmath
    import mpmath

    from slicefock.spaces import prepared_for_spec

    spec = NormSpec("second", 2.0, 0.01)
    terms = prepared_for_spec(exp_series(), spec, None)
    assert terms.series.coeffs[178, 0] == 0.0 and terms.series.log_row_norms[178] > -math.inf
    assert operator_error(taylor_op(4), terms, spec, None) == pytest.approx(
        math.exp(50.0), rel=1e-12)
    with mpmath.workdps(40):
        want = float(mpmath.sqrt(mpmath.fsum(mpmath.mpf(100) ** k / mpmath.factorial(k)
                                             for k in range(177, 600))))
    assert operator_error(taylor_op(176), terms, spec, None) == pytest.approx(want, rel=1e-12)


def test_a_record_of_the_other_kind_is_refused():
    # the spec decides which preparation of f its numbers read; a record of
    # the other kind is a clear error, not a number of the wrong norm
    from slicefock.spaces import prepared_for_spec

    f, grid = exp_series(), slice_grid(1.0)
    p2, p1 = NormSpec("second", 2.0, 1.0), NormSpec("second", 1.0, 1.0)
    terms = prepared_for_spec(f, p2, grid)
    on_grid = prepared_for_spec(f, p1, grid)
    with pytest.raises(ValueError, match="need a grid preparation"):
        operator_error(taylor_op(4), terms, p1, grid)
    with pytest.raises(ValueError, match="need Parseval terms"):
        operator_error(taylor_op(4), on_grid, p2, grid)
    with pytest.raises(ValueError, match="need Parseval terms"):
        modulus(f, ModulusQuery(k=1, delta=0.5, p=2.0, alpha=1.0), grid, on_grid)
    with pytest.raises(ValueError, match="need Parseval terms"):
        verify_vdp(f, 4, 2.0, 1.0, grid=grid, prepared=on_grid)
    with pytest.raises(ValueError, match="need a grid preparation"):
        verify_jackson(f, 4, 0, 1.0, 1.0, grid=grid, prepared=terms)


def test_converge_sweep_certifies_f_once(monkeypatch, capsys):
    from slicefock import cli, series, spaces

    calls = []
    certify = series._certified

    def spy(*args):
        calls.append(args)
        return certify(*args)

    monkeypatch.setattr(series, "_certified", spy)
    monkeypatch.setattr(spaces, "_certified", spy)
    for fn in ("gauss:0.25", "random:8:3"):
        calls.clear()
        assert cli.main(["converge", "--fn", fn, "--operator", "vdp",
                         "--n-list", "2,4,8,16,32"]) == 0
        assert len(calls) == 1, fn
        rows = capsys.readouterr().out.strip().splitlines()[2:]
        assert len(rows) == 5


def test_verify_jackson_prepares_f_once(monkeypatch):
    from slicefock import approx, spaces

    calls = []
    prepare = spaces.prepared_for_grid

    def spy(*args):
        calls.append(args)
        return prepare(*args)

    # verify_jackson prepares f through spaces, a second preparation inside
    # modulus would go through the name bound in approx
    monkeypatch.setattr(approx, "prepared_for_grid", spy)
    monkeypatch.setattr(spaces, "prepared_for_grid", spy)
    rep = verify_jackson(gauss_series(0.25), 8, 1, 1.5, 1.0)
    assert len(calls) == 1
    monkeypatch.undo()
    assert rep.rhs == modulus(gauss_series(0.25), ModulusQuery(
        k=2, delta=1.0 / 8, p=1.5, alpha=1.0), slice_grid(0.75))


def test_parseval_consumers_refuse_type_at_least_half_alpha():
    from slicefock.approx import parseval_log_weights
    from slicefock.errors import NotInSpaceError
    from slicefock.kernels import fit_with_sections

    f = gauss_series(0.5)
    for consume in (lambda: parseval_log_weights(f, 1.0),
                    lambda: parseval_norm_sq(f, 1.0),
                    lambda: best_approx_second(f, 4, 1.0),
                    lambda: modulus(f, ModulusQuery(k=1, delta=0.5, p=2.0, alpha=1.0)),
                    lambda: fit_with_sections(f, [Quaternion(0.5)], 1.0)):
        with pytest.raises(NotInSpaceError, match="not below alpha / 2"):
            consume()
    # just inside, the coefficient sum converges
    assert parseval_norm_sq(gauss_series(0.25), 1.0) == pytest.approx(
        1.0 / math.sqrt(1.0 - 4 * 0.25 ** 2), rel=1e-12)
