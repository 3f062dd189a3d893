"""Second-kind numbers at even p on one plane as coefficient sums.

With f = F + G J on the plane of I, ||f||_{2m}^{2m} = sum_j C(m, j) sum_k
|c_k^(j)|^2 k! / (m alpha)^k, c^(j) the coefficients of F^j G^{m-j}
(``spaces._even_power``).  Each number is checked against a quadrature of
its image on the refined default plane grid, against closed forms and
against an mpmath sum of the same products; its reported charge must bound
the rounding it carries.
"""

import math

import mpmath
import numpy as np
import pytest

from conftest import difference_series
from slicefock import approx, cli, operators, series, spaces
from slicefock.approx import ModulusQuery, modulus, operator_error
from slicefock.quaternion import ImaginaryUnit, UNIT_I, perpendicular_unit
from slicefock.series import SliceSeries, exp_series, from_generator, random_series
from slicefock.spaces import NormSpec, norm, norm_report

ALPHA = 1.0
PS = (4.0, 6.0, 8.0)
NS = (2, 4, 8, 16, 32)
FUNCTIONS = {
    "exp": lambda: exp_series(),
    "gauss:0.2": lambda: from_generator("gauss:0.2"),
    "gauss:-0.2": lambda: from_generator("gauss:-0.2"),
    "kernel-section": lambda: from_generator("kernel-section:0.3,0.5,-0.2,0.1,1"),
    "random:8": lambda: random_series(8, 11),
}
UNITS = {"i": UNIT_I, "seeded": ImaginaryUnit.from_vector(
    np.random.default_rng(7).normal(size=3))}


def grid_norm(rows: np.ndarray, spec: NormSpec, prefactor: bool = True) -> float:
    """The quadrature of the plane kernel on the refined default grid of
    ``spec``, for the series with the given rows (no tail)."""
    grid = spaces.refined(spaces.default_grid(spec))
    img = SliceSeries(rows)
    v, e = spaces._weighted_plane(img.directions, img.log_row_norms, grid, spec.alpha)
    amp = np.sqrt(np.sum(np.square(series._lift(v, spec.slice_unit)), axis=-1))
    raw = spaces._plane_raw_power(amp, grid, spec.p)
    pref = spec.alpha * spec.p / (2.0 * math.pi) if prefactor else 1.0
    return (pref * raw) ** (1.0 / spec.p) * 2.0 ** e


def make_op(name: str, n: int, p: float) -> operators.MultiplierOperator:
    if name == "jackson":
        return operators.jackson_op(n, 0, p)
    return {"taylor": operators.taylor_op, "fejer": operators.fejer_op,
            "vdp": operators.vdp_op}[name](n)


@pytest.mark.parametrize("unit", UNITS)
@pytest.mark.parametrize("fn", FUNCTIONS)
def test_even_p_numbers_match_the_refined_quadrature(fn, unit):
    f = FUNCTIONS[fn]()
    for p in PS:
        spec = NormSpec("second", p, ALPHA, slice_unit=UNITS[unit])
        # f's rows up to its radius certificate on the refined grid
        fe = spaces.prepared_for_grid(f, ALPHA, spaces.refined(spaces.default_grid(spec))).series
        a = fe.coeffs
        terms = spaces.prepared_for_spec(f, spec, None)
        assert isinstance(terms, spaces.ParsevalTerms)
        assert norm(f, spec) == pytest.approx(grid_norm(a, spec), rel=1e-12)
        for name in ("taylor", "fejer", "vdp", "jackson"):
            for n in NS:
                op = make_op(name, n, p)
                m = np.append(1.0 - op.rho, 1.0)       # 1 - rho_k, 1 past the operator
                rows = m[np.minimum(np.arange(a.shape[0]), m.size - 1), None] * a
                got = operator_error(op, terms, spec, None)
                assert got == pytest.approx(grid_norm(rows, spec), rel=1e-12), (name, n, p)
        for k in (1, 2, 3):
            query = ModulusQuery(k=k, delta=0.5, p=p, alpha=ALPHA, unit=UNITS[unit], h_grid=8)
            want = max(grid_norm(difference_series(fe, k, h, UNITS[unit]).coeffs, spec, False)
                       for h in np.linspace(0.0, 0.5, 8)[1:])
            assert modulus(f, query) == pytest.approx(want, rel=1e-12), (k, p)


@pytest.mark.parametrize("alpha", [1.0, 0.05, 0.012])
@pytest.mark.parametrize("p", PS)
def test_exp_norm_is_its_closed_form(p, alpha):
    # |e^z| e^{-alpha |z|^2 / 2} is a Gaussian centred at 1 / alpha: every
    # p gives e^{1 / (2 alpha)}
    rep = norm_report(exp_series(), NormSpec("second", p, alpha))
    assert rep.value == pytest.approx(math.exp(0.5 / alpha), rel=1e-12)
    assert rep.stability == 0.0 and rep.grid_sizes == ()
    assert 0.0 < rep.tail_bound <= spaces.NORM_TAIL_BUDGET


def test_the_rounding_charge_bounds_an_mpmath_sum():
    # random:8 at p = 6 on the plane of i, where J = j: F_k = a_k0 + i a_k1
    # and G_k = a_k2 + i a_k3 exactly, and a polynomial has no tail
    f, p, m = random_series(8, 5), 6.0, 3
    spec = NormSpec("second", p, ALPHA)
    assert perpendicular_unit(UNIT_I).vector().tolist() == [0.0, 1.0, 0.0]
    rep = norm_report(f, spec)
    with mpmath.workdps(50):
        fc = [mpmath.mpc(r[0], r[1]) for r in f.coeffs]
        gc = [mpmath.mpc(r[2], r[3]) for r in f.coeffs]

        def times(x, y):
            out = [mpmath.mpc(0)] * (len(x) + len(y) - 1)
            for i, xi in enumerate(x):
                for j, yj in enumerate(y):
                    out[i + j] += xi * yj
            return out

        def power(x, e):
            out = [mpmath.mpc(1)]
            for _ in range(e):
                out = times(out, x)
            return out

        total = mpmath.mpf(0)
        for j in range(m + 1):
            c = times(power(fc, j), power(gc, m - j))
            total += math.comb(m, j) * sum(abs(ck) ** 2 * mpmath.factorial(k)
                                           / (m * ALPHA) ** k for k, ck in enumerate(c))
        want = total ** (1 / mpmath.mpf(p))
        err = abs(rep.value - want) / want
    assert err <= rep.tail_bound <= 1e-12


@pytest.mark.parametrize("p", PS)
def test_the_tail_is_charged_through_the_embedding(p):
    # no orthogonality at p != 2: f's tail T moves the norm to first order,
    # by at most ||T||_p <= ||T||_2 <= (tau sum_k t_k)^(1/2)
    spec = NormSpec("second", p, ALPHA)
    terms = spaces._parseval_terms(exp_series(), ALPHA)
    (log_pow,), (charge,), (rounding,) = spaces._even_power(
        terms._replace(log_tail=math.log(1e-22)), spec)
    tail = math.sqrt(1e-22 * np.sum(np.exp(terms.logw))) / math.exp(log_pow / p)
    assert charge == pytest.approx(tail, rel=1e-12) and 0.0 < rounding <= 1e-12


@pytest.mark.parametrize("p", PS)
def test_modulus_is_zero_at_step_zero(p):
    query = ModulusQuery(k=2, delta=0.0, p=p, alpha=ALPHA)
    assert modulus(from_generator("gauss:0.25"), query) == 0.0


def test_only_even_p_up_to_the_cap_on_one_plane_are_coefficient_sums():
    for p in (2.0, 4.0, 6.0, 8.0):
        assert NormSpec("second", p, ALPHA).coefficient_sum
    for p in (1.0, 3.0, 5.0, 10.0, 4.5, 1e6):
        assert not NormSpec("second", p, ALPHA).coefficient_sum
    assert not NormSpec("second", 4.0, ALPHA, sup_samples=4).coefficient_sum
    # the first kind at the same p, the mean over a design of planes
    for p in (2.0, 4.0, 6.0, 8.0):
        assert NormSpec("first", p, ALPHA).coefficient_sum
    for p in (3.0, 10.0):
        assert not NormSpec("first", p, ALPHA).coefficient_sum


# the outputs of the grid path before even p became coefficient sums
P10_EXP = """{
  "alpha": 1.0,
  "grid": [
    128,
    256
  ],
  "kind": "second",
  "p": 10.0,
  "slice": "i",
  "tail_bound": 9.694969779574688e-20,
  "value": 1.6487212707001309
}
"""


@pytest.mark.parametrize("p,code,out,err", [
    ("10", 0, P10_EXP, ""),
    ("1e6", 1, "", "error: integrand overflow at node (0.000762057404685548+0j)\n"),
])
def test_past_the_cap_the_grid_path_prints_what_it_did(capsys, p, code, out, err):
    assert cli.main(["norm", "--fn", "exp", "--p", p]) == code
    assert capsys.readouterr() == (out, err)


def test_a_p4_vdp_sweep_certifies_f_once_and_prepares_it_on_the_grid_once(monkeypatch, capsys):
    # the errors are coefficient sums over one Parseval certificate, made
    # once for the sweep, and are one multiplier-image call; E_n's descent
    # reads f on the grid, prepared once too.  The errors too small for
    # that certificate's tail charge (here n = 24 to 64, down to 1e-11)
    # certify f's terms once more, together, at the tail the smallest needs
    made = []
    certified, prepared = series._certified, spaces.prepared_for_grid

    def count_certified(f, log_terms, ratio, log_tol, log_floor, where):
        made.append((where.split()[0], log_tol))
        return certified(f, log_terms, ratio, log_tol, log_floor, where)

    def count_prepared(*args):
        made.append(("grid", None))
        return prepared(*args)

    def alpha_tols():
        return [tol for kind, tol in made if kind == "alpha"]

    monkeypatch.setattr(series, "_certified", count_certified)
    monkeypatch.setattr(spaces, "_certified", count_certified)
    monkeypatch.setattr(spaces, "prepared_for_grid", count_prepared)
    monkeypatch.setattr(approx, "prepared_for_grid", count_prepared)
    first = math.log(spaces.PARSEVAL_TAIL_TOL)
    argv = ["converge", "--fn", "gauss:0.25", "--p", "4", "--n-list", "4,8,16,24,32,48,64"]
    assert cli.main([*argv, "--operator", "vdp"]) == 0
    tols = alpha_tols()
    assert len(tols) == 2 and tols[0] == first and tols[1] < first
    assert made.count(("grid", None)) == 1
    assert sum(kind == "radius" for kind, _ in made) == 1     # the grid's
    capsys.readouterr()
    made.clear()
    assert cli.main([*argv, "--operator", "fejer"]) == 0
    assert alpha_tols() == [first]
    assert not any(kind in ("grid", "radius") for kind, _ in made)
    # a p = 2 jackson sweep: its errors and moduli are one call, over one
    # certificate and at most one deeper for every n together
    capsys.readouterr()
    made.clear()
    assert cli.main(["converge", "--fn", "gauss:0.25", "--operator", "jackson", "--m", "6",
                     "--n-list", "8,16,32,64"]) == 0
    tols = alpha_tols()
    assert 1 <= len(tols) <= 2 and tols[0] == first and all(t < first for t in tols[1:])
    assert not any(kind in ("grid", "radius") for kind, _ in made)