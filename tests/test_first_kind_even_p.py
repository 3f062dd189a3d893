"""First-kind numbers at even p as coefficient sums over the planes of a
spherical design.

On the plane of u, with f = F + G J and s^(j) the scaled coefficients of
F^j G^{m-j}, ||f||_{2m, first}^{2m} is the mean over u of sum_j C(m, j)
||L^T s^(j)||^2, L the first kind's bidiagonal factor (``spaces._even_power``).
Each number is checked against a quadrature on the refined default volume
grid, against closed forms and against an mpmath sum of the same products;
its charges must bound the rounding and the tail it carries, and none of
them may read a grid.
"""

import json
import math

import mpmath
import numpy as np
import pytest

from slicefock import approx, cli, operators, spaces
from slicefock.approx import operator_error
from slicefock.errors import IntegrandOverflowError
from slicefock.quaternion import ImaginaryUnit
from slicefock.series import SliceSeries, exp_series, from_generator, monomial, random_series
from slicefock.spaces import NormSpec, embedding_check, norm, norm_report

ALPHA = 1.0
PS = (4.0, 6.0, 8.0)
NS = (2, 4, 8, 16, 32)
FUNCTIONS = {
    "gauss:0.2": lambda: from_generator("gauss:0.2"),
    "gauss:-0.2": lambda: from_generator("gauss:-0.2"),
    "kernel-section": lambda: from_generator("kernel-section:0.3,0.5,-0.2,0.1,1"),
    "random:8": lambda: random_series(8, 11),
}


def grid_norm(rows: np.ndarray, spec: NormSpec) -> float:
    """The quadrature of the plane kernel with the closed-form sphere
    integral on the refined default volume grid of ``spec``, for the series
    with the given rows (no tail)."""
    grid = spaces.refined(spaces.default_grid(spec))
    img = SliceSeries(rows)
    v, e = spaces._weighted_plane(img.directions, img.log_row_norms, grid, spec.alpha)
    raw = spaces._volume_raw_power(v, grid, spec.p)
    return ((spec.scale / math.pi) ** 2 * raw) ** (1.0 / spec.p) * 2.0 ** e


@pytest.mark.parametrize("fn", FUNCTIONS)
def test_first_kind_numbers_match_the_refined_volume_grid(fn):
    f = FUNCTIONS[fn]()
    for p in PS:
        spec = NormSpec("first", p, ALPHA)
        # f's rows up to its radius certificate on the refined grid
        fine = spaces.refined(spaces.default_grid(spec))
        a = spaces.prepared_for_grid(f, ALPHA, fine).series.coeffs
        terms = spaces.prepared_for_spec(f, spec, None)
        assert isinstance(terms, spaces.ParsevalTerms)
        assert norm(f, spec) == pytest.approx(grid_norm(a, spec), rel=1e-12), p
        for make in (operators.taylor_op, operators.fejer_op):
            for n in NS:
                op = make(n)
                m = np.append(1.0 - op.rho, 1.0)       # 1 - rho_k, 1 past the operator
                rows = m[np.minimum(np.arange(a.shape[0]), m.size - 1), None] * a
                got = operator_error(op, terms, spec, None)
                assert got == pytest.approx(grid_norm(rows, spec), rel=1e-12), (make, n, p)


@pytest.mark.parametrize("alpha", [1.0, 0.05])
@pytest.mark.parametrize("k", [0, 1, 5, 40, 250])
def test_monomial_norms_are_their_closed_form(k, alpha):
    # ||q^k||_{p, first}^p = Gamma(k p / 2 + 2) / (p alpha / 2)^{k p / 2}
    for p in PS:
        m = p / 2.0
        with mpmath.workdps(40):
            log_want = (mpmath.loggamma(k * m + 2) - k * m * mpmath.log(m * alpha)) / p
        spec = NormSpec("first", p, alpha)
        if log_want > 709.0:                   # q^250 at alpha = 0.05
            with pytest.raises(IntegrandOverflowError, match="exceeds the float range"):
                norm(monomial(k), spec)
            continue
        rep = norm_report(monomial(k), spec)
        assert rep.value == pytest.approx(float(mpmath.exp(log_want)), rel=1e-12), p
        assert rep.stability == 0.0 and rep.grid_sizes == ()


@pytest.mark.parametrize("alpha", [1.0, 0.05, 0.012])
@pytest.mark.parametrize("p", PS)
def test_exp_norm_is_its_closed_form(p, alpha):
    # |e^q| e^{-alpha |q|^2 / 2} is a Gaussian centred at 1 / alpha over the
    # algebra too: every p gives e^{1 / (2 alpha)}
    rep = norm_report(exp_series(), NormSpec("first", p, alpha))
    assert rep.value == pytest.approx(math.exp(0.5 / alpha), rel=1e-12)
    assert rep.stability == 0.0 and rep.grid_sizes == ()
    assert 0.0 < rep.tail_bound <= spaces.NORM_TAIL_BUDGET


def test_no_first_kind_number_at_even_p_reads_a_grid(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a grid was read")

    monkeypatch.setattr(spaces, "_weighted_plane", refuse)
    monkeypatch.setattr(approx, "_weighted_plane", refuse)
    f = random_series(8, 3)
    for p in PS:
        spec = NormSpec("first", p, ALPHA)
        assert norm(f, spec) > 0.0
        rep = norm_report(f, spec)
        assert rep.stability == 0.0 and rep.grid_sizes == ()
        assert embedding_check(f, 0.5, ALPHA, p) > 0.0
        terms = spaces.prepared_for_spec(f, spec, None)
        assert operator_error(operators.fejer_op(4), terms, spec, None) > 0.0
        # the record keeps the key set of a grid's, with no grid sizes
        assert cli.main(["norm", "--fn", "random:8:3", "--kind", "first",
                         "--p", f"{p:g}"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert sorted(record) == ["alpha", "grid", "kind", "p", "slice", "tail_bound", "value"]
        assert record["grid"] == [] and record["value"] == rep.value


def _exact_first_kind(coeffs: np.ndarray, p: float, alpha: float) -> mpmath.mpf:
    """The mean over i, j, k of sum_j C(m, j) ||L^T s^(j)||^2 in mpmath, L
    from its recurrence, the split exact on these planes."""
    m = int(p) // 2

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

    size = m * (len(coeffs) - 1) + 1
    diag, sub = [mpmath.mpf(0)] * size, [mpmath.mpf(0)] * (size + 2)
    for k in range(size):
        if k >= 2:
            sub[k] = -mpmath.sqrt((k - 1) * k) / (2 * diag[k - 2])
        diag[k] = mpmath.sqrt(k + 1 - sub[k] ** 2)
    total = mpmath.mpf(0)
    for unit in spaces._PLANE_DESIGNS[0][0]:
        split = spaces._plane_splits((unit,))
        assert set(split.real.ravel()) | set(split.imag.ravel()) <= {-1.0, 0.0, 1.0}
        fg = [[sum(mpmath.mpf(d[c]) * mpmath.mpc(split[c, col].real, split[c, col].imag)
                   for c in range(4)) for d in coeffs] for col in (0, 1)]
        for j in range(m + 1):
            c = times(power(fg[0], j), power(fg[1], m - j))
            s = [ck * mpmath.sqrt(mpmath.factorial(k) / (m * alpha) ** k) for k, ck in enumerate(c)]
            s += [mpmath.mpc(0)] * 2
            total += math.comb(m, j) * sum(abs(diag[k] * s[k] + sub[k + 2] * s[k + 2]) ** 2
                                           for k in range(size))
    return total / 3


@pytest.mark.parametrize("p", [4.0, 6.0])
def test_the_rounding_charge_bounds_an_mpmath_sum(p):
    # a polynomial has no tail: its charge is the rounding alone
    f = random_series(8, 5)
    rep = norm_report(f, NormSpec("first", p, ALPHA))
    with mpmath.workdps(50):
        want = _exact_first_kind(f.coeffs, p, ALPHA) ** (1 / mpmath.mpf(p))
        err = abs(rep.value - want) / want
    assert err <= rep.tail_bound <= 1e-12


def test_the_design_at_p8_is_exact_and_i_j_k_is_not(monkeypatch):
    # at p = 8 the integrand is a quartic form in the unit: the icosahedron's
    # six axes average it exactly, as does the same design turned about an
    # axis, while i, j, k (a 3-design) miss it
    spec = NormSpec("first", 8.0, ALPHA)
    terms = spaces._parseval_terms(random_series(8, 1), ALPHA)
    octahedron, icosahedron = spaces._PLANE_DESIGNS
    turn = np.array([[math.cos(0.7), -math.sin(0.7), 0.0], [math.sin(0.7), math.cos(0.7), 0.0],
                     [0.0, 0.0, 1.0]])
    turned = tuple(ImaginaryUnit.from_vector(turn @ u.vector()) for u in icosahedron[0])
    means = []
    for design in (icosahedron, (turned, icosahedron[1]), octahedron):
        monkeypatch.setattr(spaces, "_PLANE_DESIGNS", (octahedron, design))
        means.append(spaces._even_images(terms, spec)[0][0])
    assert means[1] == pytest.approx(means[0], abs=1e-13)
    assert abs(means[2] - means[0]) > 1e-4


def test_the_tail_is_charged_by_minkowski_over_the_monomials():
    # exp's terms stored to degree 22, certified at a loose 1e-6: its tail
    # moves the norm by at most sum_{k>22} ||q^k|| / k!, to first order,
    # and that charge (not the rounding) dominates
    terms = spaces._parseval_terms(exp_series(22), ALPHA, math.log(1e-6))
    assert terms.series.degree == 22
    for p in PS:
        spec = NormSpec("first", p, ALPHA)
        m = p / 2.0
        with mpmath.workdps(30):
            tail = float(mpmath.nsum(lambda k: mpmath.exp(
                (mpmath.loggamma(k * m + 2) - k * m * mpmath.log(m * ALPHA)) / p)
                / mpmath.factorial(k), [23, mpmath.inf]))
        bound = math.exp(spaces._first_tail(terms, spec))
        assert tail <= bound <= 8.0 * tail
        (log_pow,), (charge,), (rounding,) = spaces._even_power(terms, spec)
        value = math.exp(log_pow / p)
        assert tail / value <= charge and rounding < charge <= spaces.NORM_TAIL_BUDGET
        assert abs(value - math.exp(0.5)) <= (charge + rounding) * value


@pytest.mark.parametrize("kind,p", [("second", 2.0), ("first", 2.0), ("second", 4.0),
                                    ("first", 4.0), ("first", 6.0), ("first", 8.0)])
def test_a_tail_over_half_the_budget_certifies_f_once_more(monkeypatch, kind, p):
    # one rule for every coefficient sum (spaces._charged): exp's terms to
    # degree 16, their tail bound loosened to 1e-6, charge e^{1/2} more than
    # half the budget, so they are certified once more, deeper, and the
    # value meets it
    made = []
    certified = spaces._certified

    def count(*args):
        made.append(args[3])
        return certified(*args)

    terms = spaces._parseval_terms(exp_series(16), ALPHA, math.log(1e-6))._replace(
        log_tail=math.log(1e-6))
    spec = NormSpec(kind, p, ALPHA)
    monkeypatch.setattr(spaces, "_certified", count)
    (value,), (charge,) = spaces._multiplier_norm(terms, spec, None)
    assert len(made) == 1 and made[0] < math.log(1e-6)
    assert value == pytest.approx(math.exp(0.5), rel=1e-12)
    assert charge <= spaces.NORM_TAIL_BUDGET


def test_converge_first_kind_prints_the_closed_form(capsys):
    # taylor at n = 2 leaves q^6 whole: ||q^6||_{4, first}^4 = 13! / 2^12
    assert cli.main(["converge", "--kind", "first", "--operator", "taylor", "--fn", "mono:6",
                     "--p", "4", "--n-list", "2"]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert row[0] == "2"
    assert float(row[1]) == pytest.approx((math.factorial(13) / 2.0 ** 12) ** 0.25, rel=1e-12)


def test_converge_first_kind_fejer_at_p2_is_the_parseval_value(capsys):
    f = from_generator("gauss:0.25")
    terms = spaces._parseval_terms(f, ALPHA)
    want = []
    for n in (2, 8, 32):
        m = np.append(1.0 - operators.fejer_op(n).rho, 1.0)
        (log_pow,) = spaces._first_images(terms, ALPHA, -1, [lambda k: spaces._real_multipliers(
            m[np.minimum(k, m.size - 1)])], [1.0])[0]
        want.append(math.exp(0.5 * log_pow))
    assert cli.main(["converge", "--kind", "first", "--operator", "fejer", "--fn", "gauss:0.25",
                     "--n-list", "2,8,32"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [float(r.split(",")[1]) for r in rows] == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("operator", ["vdp", "jackson"])
def test_converge_first_kind_refuses_the_plane_checks(capsys, operator):
    code = cli.main(["converge", "--kind", "first", "--operator", operator, "--fn", "exp",
                     "--p", "4"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


# the outputs of the grid path before the first kind's even p became
# coefficient sums
FIRST_P3_EXP = """{
  "alpha": 1.0,
  "grid": [
    128,
    128,
    136
  ],
  "kind": "first",
  "p": 3.0,
  "slice": null,
  "tail_bound": 1.3482802376212247e-15,
  "value": 1.648721270700129
}
"""
FIRST_P10_RANDOM = """{
  "alpha": 1.0,
  "grid": [
    128,
    128,
    136
  ],
  "kind": "first",
  "p": 10.0,
  "slice": null,
  "tail_bound": 0.0,
  "value": 121.34139492374122
}
"""
SUP_P4_RANDOM = """{
  "alpha": 1.0,
  "grid": [
    128,
    256
  ],
  "kind": "second",
  "p": 4.0,
  "slice": "sup:8",
  "tail_bound": 0.0,
  "value": 108.24990035026978
}
"""


@pytest.mark.parametrize("argv,out", [
    (("--fn", "exp", "--kind", "first", "--p", "3"), FIRST_P3_EXP),
    (("--fn", "random:8:1", "--kind", "first", "--p", "10"), FIRST_P10_RANDOM),
    (("--fn", "random:8:1", "--slice", "sup:8", "--p", "4"), SUP_P4_RANDOM),
])
def test_the_grid_path_prints_what_it_did(capsys, argv, out):
    assert cli.main(["norm", *argv]) == 0
    assert capsys.readouterr() == (out, "")
