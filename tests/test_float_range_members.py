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
from slicefock.errors import IntegrandOverflowError, TruncationError
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
    for command in (("norm",), ("bestapprox", "--n-list", "4")):
        code, out, err = run(capsys, *command, *argv)
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


def test_parseval_tail_below_the_smallest_float_is_charged(capsys):
    # 1/k! underflows from k = 178: E_170 sums stored rows, while every row
    # of E_180 and E_200 is past the stored ones, whose mass is charged in
    # log space and refused instead of read as 0
    with mpmath.workdps(40):
        e_170 = float(mpmath.sqrt(mpmath.nsum(lambda j: 1 / mpmath.factorial(j),
                                              [171, mpmath.inf])))
    code, out, err = run(capsys, "bestapprox", "--fn", "exp", "--n-list", "170")
    assert code == 0 and err == ""
    assert rows(out)[0][1] == "2.846931860618236e-155"
    assert float(rows(out)[0][1]) == pytest.approx(e_170, rel=1e-10)
    for n in (180, 200):
        code, out, err = run(capsys, "bestapprox", "--fn", "exp", "--n-list", str(n))
        assert code == 1 and out == ""
        assert err.startswith("error: truncated-tail or underflowed-row")
        assert len(err.splitlines()) == 1
    # the same charge through the library, past the stored rows as well
    with pytest.raises(TruncationError, match="underflowed-row"):
        approx.best_approx_second(exp_series(), 180, 1.0)


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
