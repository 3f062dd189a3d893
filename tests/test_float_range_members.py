"""Members of the space whose values leave the float range while their
weighted integrand does not.

Every grid consumer reads one kernel, ``spaces._weighted_plane``, which
applies the Gaussian weight before the scale of the terms is multiplied
back and keeps the result as v 2^e.  So q^250, whose values reach 1e333 on
the default grids, has finite norms, inner products and best
approximations of both kinds; each is checked here against its closed form
(alpha = 1).  Results past the float range, and grids that stop short of
the weighted mass, give one named error and no numpy warning.
"""

import json
import math
import warnings

import mpmath
import pytest

from slicefock import approx, cli, spaces
from slicefock.errors import IntegrandOverflowError
from slicefock.quadrature import volume_grid
from slicefock.series import exp_series, monomial


def mono_first_p1(k):
    """First kind, p = 1: (1 / 4 pi^2) 2 pi^2 int r^{k+3} e^{-r^2/2} dr
    = 2^{k/2} Gamma(k/2 + 2)."""
    with mpmath.workdps(40):
        return float(mpmath.mpf(2) ** (k / 2) * mpmath.gamma(k / 2 + 2))


def mono_second_p1(k):
    """Second kind, p = 1, on every plane: 2^{k/2} Gamma(k/2 + 1)."""
    with mpmath.workdps(40):
        return float(mpmath.mpf(2) ** (k / 2) * mpmath.gamma(k / 2 + 1))


def mono_first_p4(k):
    """First kind, p = 4: ((2k + 1)! / 4^k)^(1/4)."""
    with mpmath.workdps(40):
        return float((mpmath.factorial(2 * k + 1) / mpmath.mpf(4) ** k) ** 0.25)


def mono_second_p4(k):
    """Second kind, p = 4, on every plane: ((2k)! / 2^(2k))^(1/4)."""
    with mpmath.workdps(40):
        return float((mpmath.factorial(2 * k) / mpmath.mpf(2) ** (2 * k)) ** 0.25)


def run(capsys, *argv):
    """(exit code, stdout, stderr) of the CLI; a RuntimeWarning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def rows(out):
    """The CSV rows after the stamp and the header."""
    return [line.split(",") for line in out.strip().splitlines()[2:]]


@pytest.mark.parametrize("k", [150, 200, 250])
def test_first_kind_p1_norm_of_a_high_monomial(capsys, k):
    code, out, err = run(capsys, "norm", "--fn", f"mono:{k}", "--kind", "first",
                         "--p", "1")
    assert code == 0 and err == ""
    assert json.loads(out)["value"] == pytest.approx(mono_first_p1(k), rel=1e-12)


def test_first_kind_p4_norm_of_mono_100(capsys):
    # its fourth power, 1.0e316, is past the float range; the root is not
    code, out, err = run(capsys, "norm", "--fn", "mono:100", "--kind", "first",
                         "--p", "4")
    assert code == 0 and err == ""
    assert json.loads(out)["value"] == pytest.approx(mono_first_p4(100), rel=1e-12)


@pytest.mark.parametrize("argv,k", [
    (("norm", "--fn", "mono:250", "--p", "4"), 250),
    # its fourth power, 3.0e1227, is far past the float range; the root is
    # not (it printed an error while p = 4 read a grid)
    (("converge", "--fn", "mono:300", "--operator", "taylor", "--n-list", "4",
      "--p", "4"), 300),
])
def test_second_kind_p4_norm_of_a_high_monomial(capsys, argv, k):
    # a coefficient sum: q^k = F with G = 0, so ||q^k||_4^4 = (2k)! / 2^(2k)
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    value = json.loads(out)["value"] if argv[0] == "norm" else float(rows(out)[0][1])
    assert value == pytest.approx(mono_second_p4(k), rel=1e-12)


def test_sup_norm_of_mono_250_equals_the_plane_norm(capsys):
    want = mono_second_p1(250)
    for plane in ("i", "sup:8"):
        code, out, err = run(capsys, "norm", "--fn", "mono:250", "--p", "1",
                             "--slice", plane)
        assert code == 0 and err == ""
        assert json.loads(out)["value"] == pytest.approx(want, rel=1e-12)


def test_p1_best_approximation_and_vdp_bound_of_mono_200(capsys):
    # every polynomial of degree 4 is at least as far from q^200 as 0 is,
    # so E_4 = ||q^200||_1 = 2^100 100!, and so is the vdp error
    want = mono_second_p1(200)
    code, out, err = run(capsys, "bestapprox", "--fn", "mono:200", "--p", "1",
                         "--n-list", "4")
    assert code == 0 and err == ""
    assert float(rows(out)[0][1]) == pytest.approx(want, rel=1e-12)
    code, out, err = run(capsys, "converge", "--fn", "mono:200", "--p", "1",
                         "--operator", "vdp", "--n-list", "4")
    assert code == 0 and err == ""
    _, error, bound, slack = (float(x) for x in rows(out)[0])
    assert error == pytest.approx(want, rel=1e-12)
    assert bound == pytest.approx(approx.vdp_constant(1.0) * want, rel=1e-12)
    assert slack > 0.0


def test_first_kind_best_approximation_of_mono_250_on_a_grid_that_reaches_it():
    # q^250 is orthogonal to every polynomial of degree 4 over the algebra
    res = approx.best_approx_first(monomial(250), 4, 1.0, volume_grid(1.0, 96))
    with mpmath.workdps(40):
        want = float(mpmath.sqrt(mpmath.factorial(251)))
    assert res.value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("argv", [
    # the default first-kind grid stops short of q^250's mass (|q|^2 = 250)
    ("--fn", "mono:250", "--kind", "first"),
    # 8 Laguerre nodes stop short of q^40's (|q|^2 = 40)
    ("--fn", "mono:40", "--kind", "first", "--quad-radial", "8"),
])
def test_bestapprox_refuses_where_norm_refuses(capsys, argv):
    # at p = 2 neither reads a grid: both print ||q^k|| = sqrt((k+1)!), as
    # E_4 of q^k is its norm (it is orthogonal to every polynomial of degree 4)
    k = int(argv[1].split(":")[1])
    with mpmath.workdps(40):
        want = float(mpmath.sqrt(mpmath.factorial(k + 1)))
    code, out, err = run(capsys, "norm", *argv)
    assert code == 0 and err == ""
    assert json.loads(out)["value"] == pytest.approx(want, rel=1e-12)
    code, out, err = run(capsys, "bestapprox", "--n-list", "4", *argv)
    assert code == 0 and err == ""
    assert float(out.splitlines()[-1].split(",")[1]) == pytest.approx(want, rel=1e-12)
    # at p = 4 neither does the norm: it prints the closed form ||q^k||^4 =
    # (2k + 1)! / 2^{2k}, (501! / 2^500)^{1/4} for k = 250
    code, out, err = run(capsys, "norm", *argv, "--p", "4")
    assert code == 0 and err == ""
    with mpmath.workdps(40):
        want = float((mpmath.factorial(2 * k + 1) / mpmath.mpf(2) ** (2 * k)) ** 0.25)
    assert json.loads(out)["value"] == pytest.approx(want, rel=1e-12)
    # at p = 3 the norm reads the grid, and is refused as before (the first
    # kind's bestapprox answers p = 2 only)
    code, out, err = run(capsys, "norm", *argv, "--p", "3")
    assert code == 1 and out == ""
    assert err.startswith("error: weighted integrand peaks")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("inner", [spaces.inner_first, spaces.inner_second])
def test_inner_product_of_orthogonal_members_is_zero(inner):
    # the norms of q^300 are sqrt(300!) on a plane and sqrt(301!) over the
    # algebra, the latter past the float range: compare in log space
    value = inner(monomial(300), monomial(0), 1.0).to_array()
    assert all(math.isfinite(c) for c in value)
    log_size = 0.5 * math.lgamma(302.0)
    assert math.log(max(abs(c) for c in value) or 1e-300) <= math.log(1e-12) + log_size


@pytest.mark.parametrize("inner", [spaces.inner_first, spaces.inner_second])
def test_inner_product_past_the_float_range_is_refused(inner):
    # <q^250, q^250> is 250! on a plane, 251! over the algebra
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IntegrandOverflowError, match="exceeds the float range"):
            inner(monomial(250), monomial(250), 1.0)


def test_parseval_tail_below_the_smallest_float_meets_mpmath(capsys):
    # 1/k! is 0 in storage from k = 178: E_170 sums stored rows, while every
    # row of E_180 and E_200 lies past them, read from the closed form and
    # summed in log space, so each prints its value instead of 0.0
    with mpmath.workdps(40):
        want = {n: float(mpmath.sqrt(mpmath.nsum(lambda j: 1 / mpmath.factorial(j),
                                                 [n + 1, mpmath.inf])))
                for n in (170, 180, 200)}
    code, out, err = run(capsys, "bestapprox", "--fn", "exp", "--n-list", "170,180,200")
    assert code == 0 and err == ""
    assert rows(out)[0][1] == "2.846931860618236e-155"
    for row in rows(out):
        assert float(row[1]) == pytest.approx(want[int(row[0])], rel=1e-12), row
    # the same value through the library
    assert approx.best_approx_second(exp_series(), 180, 1.0).value == pytest.approx(
        want[180], rel=1e-12)


def test_vdp_sweep_prepares_f_once(monkeypatch, capsys):
    from slicefock import spaces as spaces_module

    calls = []
    prepare = spaces_module.prepared_for_grid

    def spy(*args):
        calls.append(args)
        return prepare(*args)

    # the sweep prepares f through spaces; a second preparation inside the
    # descent would go through the name bound in approx
    monkeypatch.setattr(approx, "prepared_for_grid", spy)
    monkeypatch.setattr(spaces_module, "prepared_for_grid", spy)
    code, out, err = run(capsys, "converge", "--fn", "exp", "--operator", "vdp",
                         "--p", "1", "--n-list", "2,4,8", "--quad-radial", "24",
                         "--quad-angular", "48")
    assert code == 0 and err == ""
    assert len(rows(out)) == 3
    assert len(calls) == 1
