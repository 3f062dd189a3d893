import json
import math
import subprocess
import sys

import pytest

from conftest import child_env


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "slicefock", *args],
                          capture_output=True, text=True, env=child_env())


def test_norm_monomial_value():
    res = run_cli("norm", "--fn", "mono:3", "--kind", "second", "--p", "2",
                  "--alpha", "1", "--slice", "i")
    assert res.returncode == 0
    record = json.loads(res.stdout)
    assert record["value"] == pytest.approx(math.sqrt(6), rel=1e-10)
    assert set(record) == {"kind", "p", "alpha", "slice", "value", "grid",
                           "tail_bound"}


def test_norm_divergent_exits_2():
    res = run_cli("norm", "--fn", "gauss:0.6", "--kind", "second", "--p", "2",
                  "--alpha", "1")
    assert res.returncode == 2
    assert "not in space" in res.stderr


def test_norm_zero_polynomial_file(tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("0 0 0 0\n")
    res = run_cli("norm", "--fn", f"poly:{path}")
    assert res.returncode == 0
    assert json.loads(res.stdout)["value"] == 0.0


@pytest.mark.parametrize("spec", ["bogus", "mono:x", "gauss:", "random:3",
                                  "poly:/nonexistent/file.txt"])
def test_malformed_function_specs_exit_1(spec):
    res = run_cli("norm", "--fn", spec)
    assert res.returncode == 1
    assert res.stderr.startswith("error:")


def test_unknown_flag_exits_1():
    res = run_cli("norm", "--fn", "exp", "--nope", "1")
    assert res.returncode == 1


def test_multipliers_fejer_values():
    res = run_cli("multipliers", "--family", "fejer", "--n", "4")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0].startswith("# generated-at")
    assert lines[1] == "k,rho_k,family,n,m,r"
    rho = [float(line.split(",")[1]) for line in lines[2:]]
    assert rho == pytest.approx([1.0, 0.75, 0.5, 0.25], abs=1e-12)


def test_csv_determinism_excluding_timestamp():
    a = run_cli("multipliers", "--family", "jackson", "--n", "6", "--m", "1",
                "--p", "2")
    b = run_cli("multipliers", "--family", "jackson", "--n", "6", "--m", "1",
                "--p", "2")
    assert a.returncode == b.returncode == 0
    assert a.stdout.splitlines()[1:] == b.stdout.splitlines()[1:]


def test_random_spec_deterministic():
    a = run_cli("norm", "--fn", "random:5:42")
    b = run_cli("norm", "--fn", "random:5:42")
    assert json.loads(a.stdout)["value"] == json.loads(b.stdout)["value"]


def test_converge_vdp_nonnegative_slack():
    res = run_cli("converge", "--fn", "exp", "--operator", "vdp",
                  "--n-list", "2,4,8")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[1] == "n,error,bound,slack"
    errors, slacks = [], []
    for line in lines[2:]:
        parts = line.split(",")
        errors.append(float(parts[1]))
        slacks.append(float(parts[3]))
    assert all(s >= 0 for s in slacks)
    assert errors == sorted(errors, reverse=True)


def test_converge_taylor_matches_tail_formula():
    res = run_cli("converge", "--fn", "exp", "--operator", "taylor",
                  "--n-list", "1,3,5", "--format", "csv")
    rows = res.stdout.strip().splitlines()[2:]
    for line, n in zip(rows, (1, 3, 5)):
        err = float(line.split(",")[1])
        want = math.sqrt(sum(1 / math.factorial(k) for k in range(n + 1, 60)))
        assert err == pytest.approx(want, rel=1e-9)


def test_growth_exp_order_one():
    res = run_cli("growth", "--fn", "exp")
    record = json.loads(res.stdout)
    assert abs(record["order_estimate"] - 1.0) < 0.05
    assert record["type_estimate"] is None


def test_kernel_fit_residual_decreasing():
    res = run_cli("kernel-fit", "--fn", "mono:2",
                  "--centers=-0.8,-0.4,0,0.4,0.8")
    assert res.returncode == 0
    rows = res.stdout.strip().splitlines()[2:]
    residuals = [float(r.split(",")[1]) for r in rows]
    assert residuals == sorted(residuals, reverse=True)


def test_smoothness_monotone_in_delta():
    res = run_cli("smoothness", "--fn", "exp", "--k", "1",
                  "--delta-list", "0.1,0.2,0.4")
    rows = res.stdout.strip().splitlines()[2:]
    omegas = [float(r.split(",")[1]) for r in rows]
    assert omegas == sorted(omegas)


def test_bestapprox_json_format():
    res = run_cli("bestapprox", "--fn", "exp", "--n-list", "0,2,4",
                  "--format", "json")
    record = json.loads(res.stdout)
    values = [row["value"] for row in record["rows"]]
    assert values == sorted(values, reverse=True)


def canonical_argv(args) -> list[str]:
    """A canonical command line from a parsed configuration: the subcommand,
    then every set option as ``--flag value`` in sorted order."""
    out = [args.command]
    for key in sorted(vars(args)):
        value = getattr(args, key)
        if key not in ("command", "func") and value is not None:
            out.extend(["--" + key.replace("_", "-"), str(value)])
    return out


def test_config_round_trips_canonically():
    from slicefock.cli import build_parser

    parser = build_parser()
    argv = ["converge", "--fn", "exp", "--operator", "vdp", "--n-list", "2,4",
            "--p", "2.0", "--alpha", "1.0"]
    args = parser.parse_args(argv)
    canon = canonical_argv(args)
    again = parser.parse_args(canon)
    assert canonical_argv(again) == canon
    a, b = vars(args), vars(again)
    a.pop("func"), b.pop("func")
    assert a == b


@pytest.mark.parametrize("argv", [
    ("norm", "--fn", "exp", "--p", "0"),
    ("norm", "--fn", "exp", "--alpha", "-1"),
    # refinement doubles the radial count past MAX_RADIAL
    ("norm", "--fn", "mono:2", "--quad-radial", "100"),
    ("multipliers", "--family", "fejer", "--n", "0"),
    ("norm", "--fn", "exp", "--quad-radial", "0"),
    ("norm", "--fn", "exp", "--quad-angular", "0"),
    ("norm", "--fn", "mono:2", "--kind", "first", "--quad-sphere", "0"),
])
def test_invalid_values_exit_1_without_traceback(argv):
    res = run_cli(*argv)
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("kind,p", [("first", "1"), ("first", "2"),
                                    ("second", "1")])
def test_norm_gauss_outside_space_exits_2(kind, p):
    res = run_cli("norm", "--fn", "gauss:0.6", "--kind", kind, "--p", p,
                  "--alpha", "1")
    assert res.returncode == 2
    assert "not in space" in res.stderr
    assert "Traceback" not in res.stderr


def test_main_reuses_one_parser(capsys):
    from slicefock import cli

    assert cli._shared_parser() is cli._shared_parser()
    assert cli.build_parser() is not cli.build_parser()
    outputs = []
    for n in ("2", "3", "2"):
        assert cli.main(["multipliers", "--family", "fejer", "--n", n,
                         "--format", "json"]) == 0
        outputs.append(json.loads(capsys.readouterr().out)["rho"])
    assert outputs[0] == outputs[2] == [1.0, 0.5]
    assert outputs[1] == pytest.approx([1.0, 2 / 3, 1 / 3])
    assert cli.main(["multipliers", "--n", "2"]) == 1
    assert "error:" in capsys.readouterr().err



def _json_rows(res, key):
    assert res.returncode == 0
    return [row[key] for row in json.loads(res.stdout)["rows"]]


def test_bestapprox_uses_grid_flags():
    from slicefock.approx import best_approx_first, best_approx_lp
    from slicefock.quadrature import slice_grid, volume_grid
    from slicefock.series import exp_series

    flags = ("--fn", "exp", "--n-list", "3", "--quad-radial", "8",
             "--quad-angular", "16", "--format", "json")
    got = _json_rows(run_cli("bestapprox", "--p", "1", *flags), "value")
    want = best_approx_lp(exp_series(), 3, 1.0, 1.0, grid=slice_grid(0.5, 8, 16))
    assert got[0] == pytest.approx(want.value, rel=1e-12)
    got = _json_rows(run_cli("bestapprox", "--kind", "first", *flags), "value")
    want = best_approx_first(exp_series(), 3, 1.0, volume_grid(1.0, 8, 16))
    assert got[0] == pytest.approx(want.value, rel=1e-12)


def test_smoothness_uses_grid_flags():
    from slicefock.approx import ModulusQuery, modulus
    from slicefock.quadrature import slice_grid
    from slicefock.series import exp_series

    res = run_cli("smoothness", "--fn", "exp", "--p", "1", "--delta-list",
                  "0.5", "--quad-radial", "8", "--quad-angular", "16",
                  "--format", "json")
    query = ModulusQuery(k=1, delta=0.5, p=1.0, alpha=1.0)
    want = modulus(exp_series(), query, slice_grid(0.5, 8, 16))
    assert _json_rows(res, "omega")[0] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("spec", ["mono:513", "random:513:1"])
def test_generator_degree_above_cap_exits_1(spec):
    res = run_cli("norm", "--fn", spec)
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert "degree cap" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("argv", [
    ("norm", "--fn", "exp", "--alpha", "0.01", "--p", "1"),
    ("smoothness", "--fn", "exp", "--alpha", "0.01", "--p", "1"),
    ("converge", "--fn", "exp", "--alpha", "0.01", "--operator", "jackson",
     "--n-list", "4", "--p", "1"),
    ("norm", "--fn", "exp", "--alpha", "0.01"),
    ("norm", "--fn", "exp", "--alpha", "0.01", "--kind", "first"),
    ("smoothness", "--fn", "exp", "--alpha", "0.01"),
    ("converge", "--fn", "exp", "--alpha", "0.01", "--operator", "jackson",
     "--n-list", "4"),
])
def test_exp_at_alpha_001_is_certified_at_p1_and_p2(capsys, argv):
    # 1/k! is 0 in storage from k = 178, while the weighted terms still
    # matter (1.35e-12 of the Parseval sum, 2.4e-10 of it over the algebra,
    # where row k weighs k + 1).  Read from their closed form, every value
    # is certified, on the p = 1 plane grid and as a coefficient sum; the
    # norm is e^50 in either kind at every p
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, out, err = _main(capsys, argv)
    assert got == 0 and err == ""
    if argv[0] == "norm":
        assert json.loads(out)["value"] == pytest.approx(math.exp(50.0), rel=1e-12)


EXP_001 = ("--fn", "exp", "--alpha", "0.01", "--n-list", "4")
GAUSS_P1 = ("--fn", "gauss:0.25", "--p", "1", "--n-list", "4,16")


@pytest.mark.parametrize("argv,code,says", [
    # exp at alpha = 0.01 stores its rows from k = 178 as 0, while their
    # weighted mass still counts on the p = 1 grid: read from their closed
    # form, every value is certified (p = 2 rows at the end); the norm is
    # e^50 (checked below)
    (("norm", *EXP_001[:4], "--p", "1"), 0, "5.18470552858"),
    (("smoothness", *EXP_001[:4], "--p", "1"), 0, "0.5,6.4752444991"),
    (("converge", *EXP_001, "--operator", "fejer", "--p", "1"), 0, "4,5.18470552858"),
    (("converge", *EXP_001, "--operator", "vdp", "--p", "1"), 0, "4,5.18470552858"),
    (("converge", *EXP_001, "--operator", "taylor", "--p", "1"), 0, "4,5.18470552858"),
    # gauss:0.25 at p = 1 stores its rows from k = 280 as 0
    (("converge", *GAUSS_P1, "--operator", "taylor"), 0, "4,0.1373466105975517,,"),
    (("converge", *GAUSS_P1, "--operator", "fejer"), 0, "4,0.3517887522768784,,"),
    # closed forms below: (1/4 pi^2) (pi/(1/2 - beta))^(1/2) (pi/(1/2 + beta))^(3/2)
    (("norm", "--fn", "gauss:0.25", "--p", "1", "--kind", "first"), 0,
     "0.76980035891950"),
    (("norm", "--fn", "gauss:0.25", "--p", "1", "--kind", "second"), 0,
     "1.154700538379254"),
    (("norm", "--fn", "exp", "--alpha", "0.012", "--kind", "first"), 0,
     "1.24624495329"),
    (("norm", "--fn", "exp", "--alpha", "0.012", "--kind", "second"), 0,
     "1.2462449532958"),
    # membership is type < alpha / 2, whatever p
    (("norm", "--fn", "gauss:0.5", "--p", "1"), 2, "not in space:"),
    (("norm", "--fn", "gauss:0.5", "--p", "2"), 2, "not in space:"),
    (("norm", "--fn", "gauss:0.499", "--p", "1"), 1, "error:"),
    (("norm", "--fn", "gauss:0.499", "--p", "2"), 1, "error:"),
    # the Parseval consumers (p = 2) decide membership by the same rule
    (("smoothness", "--fn", "gauss:0.5"), 2, "not in space:"),
    (("smoothness", "--fn", "gauss:0.5", "--p", "1"), 2, "not in space:"),
    (("bestapprox", "--fn", "gauss:0.5"), 2, "not in space:"),
    (("kernel-fit", "--fn", "gauss:0.1", "--centers", "1", "--alpha", "1e-200"), 2,
     "not in space:"),
    # a grid that stops short of the weighted mass: the profile peaks at its
    # edge (q^40 peaks at |z|^2 = 40, 8 Laguerre nodes reach about 23)
    (("converge", "--fn", "mono:40", "--operator", "taylor", "--n-list", "4",
      "--quad-radial", "8", "--p", "1"), 1, "error: weighted integrand peaks"),
    (("smoothness", "--fn", "mono:40", "--p", "1", "--quad-radial", "8"), 1,
     "error: weighted integrand peaks"),
    # even p on one plane is a coefficient sum: E_4 of q^300 at p = 4 is
    # ||q^300||_4 = (600! / 2^600)^(1/4) = 7.4314300109647e306, read from no
    # grid, where the grid path's weighted integrand left the float range
    (("converge", "--fn", "mono:300", "--operator", "taylor", "--n-list", "4",
      "--p", "4"), 0, "4,7.43143001096"),
    # second kind at p = 2: coefficient sums, whatever the grid flags
    (("norm", *EXP_001[:4]), 0, "5.18470552858"),
    (("smoothness", *EXP_001[:4]), 0, "0.5,1.80489041392"),
    (("bestapprox", *EXP_001), 0, "4,5.18470552858"),
    (("bestapprox", *EXP_001, "--p", "1"), 0, "4,5.18470552858"),
    (("converge", *EXP_001, "--operator", "fejer"), 0, "4,5.18470552858"),
    (("converge", *EXP_001, "--operator", "vdp"), 0, "4,5.18470552858"),
    (("converge", *EXP_001, "--operator", "taylor"), 0, "4,5.18470552858"),
    (("converge", *EXP_001, "--operator", "jackson"), 0, "4,5.18470552858"),
    (("converge", *EXP_001, "--operator", "jackson", "--p", "1"), 0, "4,5.18470552858"),
    # sqrt(40!) = 9.0328e23, on the grid that is short of the mass at p = 1
    (("converge", "--fn", "mono:40", "--operator", "taylor", "--n-list", "4",
      "--quad-radial", "8"), 0, "4,9.0328029052332"),
    # finite weighted amplitude, 1e158 at its peak: the root is taken
    # before the scale is multiplied back, so nothing overflows
    (("norm", "--fn", "mono:250", "--p", "1"), 0, "8.00802307374"),
    # at delta = 0 every difference is 0, past the stored rows too: nothing
    # of the tail or of the underflowed rows is charged, at any p
    (("smoothness", "--fn", "gauss:0.25", "--delta-list", "0"), 0, "0.0,0.0"),
    (("smoothness", "--fn", "gauss:0.25", "--delta-list", "0,0.5"), 0,
     "0.5,0.8018030587238616"),
    (("smoothness", "--fn", "exp", "--alpha", "0.05", "--delta-list", "0"), 0,
     "0.0,0.0"),
    (("smoothness", "--fn", "gauss:0.25", "--delta-list", "0", "--p", "1"), 0,
     "0.0,0.0"),
    # membership is still decided first
    (("smoothness", "--fn", "gauss:0.5", "--delta-list", "0"), 2, "not in space:"),
    # ||q^4|| = sqrt(24) 1e-400 is nonzero and below the float range, a
    # coefficient sum at p = 2 and a quadrature at p = 1: refused, not 0.0
    (("norm", "--fn", "mono:4", "--alpha", "1e200"), 1, "error:"),
    (("norm", "--fn", "mono:4", "--alpha", "1e200", "--p", "1"), 1, "error:"),
    # a true zero still prints 0.0: E_n of a polynomial within the degree
    (("bestapprox", "--fn", "mono:4", "--n-list", "4"), 0, "4,0.0,"),
])
def test_one_verdict_per_input(capsys, argv, code, says):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, out, err = _main(capsys, argv)
    assert got == code
    if code:
        assert out == "" and err.startswith(says) and len(err.splitlines()) == 1
    else:
        assert err == "" and says in out
    if code == 0 and argv[:3] == ("norm", "--fn", "exp"):
        # either kind at every p: the closed form e^{1/(2 alpha)}
        alpha = float(argv[argv.index("--alpha") + 1])
        assert json.loads(out)["value"] == pytest.approx(math.exp(0.5 / alpha),
                                                         rel=1e-12)
    if code == 0 and argv[:3] == ("norm", "--fn", "gauss:0.25") and "first" in argv:
        # p = 1 over the algebra: |e(beta q^2)| = e^{beta (x^2 - |y|^2)}, so
        # the integral splits into one Gaussian in x and one in y
        want = math.sqrt(math.pi / 0.25) * (math.pi / 0.75) ** 1.5 / (4 * math.pi ** 2)
        assert json.loads(out)["value"] == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("alpha", ["1", "0.05", "0.012"])
@pytest.mark.parametrize("plane", ["i", "0.3,-0.4,0.5", "sup:8"])
def test_p2_norm_of_exp_is_the_closed_form_on_every_plane(capsys, alpha, plane):
    code, out, err = _main(capsys, ("norm", "--fn", "exp", "--alpha", alpha,
                                    "--slice", plane))
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["value"] == pytest.approx(math.exp(0.5 / float(alpha)), rel=1e-13)
    assert record["grid"] == []


def test_norm_of_mono_250_at_p1_is_the_closed_form():
    # ||q^k||_1 = (alpha / 2 pi) int r^k e^{-alpha r^2 / 2} dm
    # = 2^{k/2} Gamma(k/2 + 1) at alpha = 1: 2^125 Gamma(126) = 8.008e246
    import mpmath

    res = run_cli("norm", "--fn", "mono:250", "--p", "1")
    assert res.returncode == 0 and res.stderr == ""
    want = float(mpmath.mpf(2) ** 125 * mpmath.gamma(126))
    assert json.loads(res.stdout)["value"] == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25])
def test_exp_best_approximation_near_the_subnormal_rows_meets_mpmath(capsys, alpha):
    # 1/k! is stored as a subnormal float from k = 171 and as 0 from
    # k = 178; E_n^2 = sum_{k>n} alpha^{-k} / k! lives in those rows, which
    # are read from their closed form, so every n is certified
    import mpmath

    from slicefock.series import exp_series

    with mpmath.workdps(40):
        tail = [mpmath.mpf(alpha) ** -k / mpmath.factorial(k) for k in range(166, 400)]
        want = {n: float(mpmath.sqrt(mpmath.fsum(tail[n - 165:]))) for n in range(166, 178)}
    assert exp_series().coeffs.shape[0] < 166
    for n, value in want.items():
        code, out, err = _main(capsys, ("bestapprox", "--fn", "exp", "--alpha",
                                        repr(alpha), "--n-list", str(n)))
        assert code == 0 and err == "", (alpha, n)
        got = float(out.splitlines()[-1].split(",")[1])
        assert got == pytest.approx(value, rel=1e-10), (alpha, n)
    if alpha == 1.0:
        code, out, _ = _main(capsys, ("bestapprox", "--fn", "exp", "--n-list", "170"))
        assert code == 0 and "170,2.8469318606182" in out


def test_p2_norm_past_the_float_range_is_one_error_line():
    # ||q^4||_2 = sqrt(4!) / alpha^2 = 4.9e400 at alpha = 1e-200
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                          "slicefock", "norm", "--fn", "mono:4", "--alpha", "1e-200"],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1
    assert "float range" in res.stderr


def test_norm_unresolved_by_coarse_grid_exits_1():
    # at p = 1, 2 x 2 nodes give 2.409, their refinement 1.705, against sqrt(e)
    res = run_cli("norm", "--fn", "exp", "--quad-radial", "2",
                  "--quad-angular", "2", "--p", "1")
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert "refinement" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("argv", [
    ("bestapprox", "--fn", "exp", "--kind", "first", "--p", "1",
     "--n-list", "2"),
    ("smoothness", "--fn", "exp", "--kind", "first", "--delta-list", "0.5"),
])
def test_first_kind_requests_without_a_first_kind_answer_exit_1(argv):
    res = run_cli(*argv)
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("argv", [
    ("growth", "--fn", "exp", "--radii", "3"),
    ("growth", "--fn", "exp", "--radii", "1001"),
    ("smoothness", "--fn", "exp", "--h-grid", "4097"),
    ("multipliers", "--family", "fejer", "--n", "514"),
    ("multipliers", "--family", "vdp", "--n", "257"),
    ("multipliers", "--family", "jackson", "--n", "258"),
    ("converge", "--fn", "exp", "--operator", "taylor", "--n-list", "2,513"),
    ("converge", "--fn", "exp", "--operator", "fejer", "--n-list", "514"),
    ("converge", "--fn", "exp", "--operator", "vdp", "--n-list", "257"),
    ("converge", "--fn", "exp", "--operator", "jackson", "--n-list", "258"),
    ("multipliers", "--family", "jackson", "--n", "4", "--p", "inf"),
])
def test_size_caps_exit_1_before_allocating(argv):
    from slicefock import cli

    assert cli.main(list(argv)) == 1


def test_size_cap_messages(capsys):
    from slicefock import cli

    assert cli.main(["multipliers", "--family", "vdp", "--n", "257"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "degree cap 512" in err
    assert cli.main(["growth", "--fn", "exp", "--radii", "1001"]) == 1
    assert capsys.readouterr().err.startswith("error:")



def test_growth_with_vanishing_log_modulus_prints_one_error_line():
    # log M(r) <= 0 at these radii: the fit is refused before any log of it
    res = run_cli("growth", "--fn", "exp", "--r-min", "1e-300", "--r-max", "1e-290")
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr


def _main(capsys, argv):
    from slicefock import cli

    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    # flags a subcommand does not read
    ("kernel-fit", "--fn", "exp", "--centers", "0.5", "--kind", "first"),
    ("growth", "--fn", "exp", "--alpha", "5"),
    ("multipliers", "--family", "fejer", "--n", "4", "--slice", "j"),
    ("norm", "--fn", "exp", "--format", "csv"),
    ("norm", "--fn", "exp", "--quad-sphere", "8"),
    # a slice is no part of a first-kind norm
    ("norm", "--fn", "mono:3", "--kind", "first", "--slice", "j"),
    ("bestapprox", "--fn", "exp", "--kind", "first", "--slice", "sup:4"),
    ("converge", "--fn", "exp", "--kind", "first", "--operator", "fejer", "--slice", "j"),
    # one plane only
    ("smoothness", "--fn", "exp", "--slice", "sup:3"),
    ("bestapprox", "--fn", "exp", "--slice", "sup:3", "--p", "1"),
])
def test_options_without_a_meaning_exit_1(capsys, argv):
    code, out, err = _main(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and out == ""


def test_each_subcommand_accepts_exactly_the_flags_it_reads():
    import argparse

    from slicefock.cli import build_parser

    grid = ["--fn", "--p", "--alpha", "--slice", "--quad-radial",
            "--quad-angular", "--out"]
    want = {
        "norm": grid + ["--kind"],
        "converge": grid + ["--kind", "--format", "--operator", "--n-list", "--m"],
        "multipliers": ["--family", "--n", "--m", "--p", "--out", "--format"],
        "smoothness": grid + ["--format", "--k", "--delta-list", "--h-grid"],
        "bestapprox": grid + ["--kind", "--format", "--n-list"],
        "growth": ["--fn", "--r-min", "--r-max", "--radii", "--out"],
        "kernel-fit": ["--fn", "--alpha", "--centers", "--out", "--format"],
    }
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: [a.option_strings[0] for a in p._actions
                  if a.option_strings and a.option_strings[0] != "-h"]
           for name, p in sub.choices.items()}
    assert {k: sorted(v) for k, v in got.items()} == \
        {k: sorted(v) for k, v in want.items()}
    assert sum(len(v) for v in got.values()) == 57


@pytest.mark.parametrize("argv", [
    ("norm", "--fn", "exp", "--p", "inf"),
    ("norm", "--fn", "mono:3", "--p", "inf", "--kind", "first"),
    ("norm", "--fn", "exp", "--p", "nan"),
    ("norm", "--fn", "exp", "--alpha", "inf"),
    ("norm", "--fn", "exp", "--slice", "nan,1,0"),
    ("norm", "--fn", "exp", "--slice", "inf,0,0"),
    ("smoothness", "--fn", "exp", "--p", "inf", "--delta-list", "0.5"),
    ("smoothness", "--fn", "exp", "--alpha", "nan", "--delta-list", "0.5"),
    ("bestapprox", "--fn", "exp", "--p", "inf", "--n-list", "2"),
    ("converge", "--fn", "exp", "--operator", "vdp", "--p", "inf",
     "--n-list", "2"),
    ("multipliers", "--family", "jackson", "--n", "4", "--p", "1e308",
     "--m", "3"),
])
def test_non_finite_values_exit_1(capsys, argv):
    code, out, err = _main(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and "finite" in err and out == ""


def test_library_rejects_non_finite_values():
    from slicefock.approx import ModulusQuery, best_approx_lp
    from slicefock.quaternion import ImaginaryUnit
    from slicefock.series import exp_series
    from slicefock.spaces import NormSpec

    nan, inf = math.nan, math.inf
    for p, alpha in ((inf, 1.0), (nan, 1.0), (2.0, inf), (2.0, nan)):
        with pytest.raises(ValueError, match="finite"):
            NormSpec("second", p, alpha)
        with pytest.raises(ValueError, match="finite"):
            ModulusQuery(k=1, delta=0.5, p=p, alpha=alpha)
        with pytest.raises(ValueError, match="finite"):
            best_approx_lp(exp_series(), 2, 1.0 if p == 2.0 else p, alpha)
    for v in ((nan, 1.0, 0.0), (0.0, inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            ImaginaryUnit.from_vector(v)


@pytest.mark.parametrize("argv", [
    ("kernel-fit", "--fn", "exp", "--centers", "1e200"),
])
def test_kernel_fit_past_the_float_range_exits_1(capsys, argv):
    code, out, err = _main(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and out == ""
    assert len(err.splitlines()) == 1


def test_parseval_ratio_overflow_is_a_truncation_error():
    from conftest import parseval_log_weights
    from slicefock.errors import TruncationError
    from slicefock.series import ExpGenerator

    # a_0 = 1 only, so no stored term overflows: the tail ratio does
    with pytest.raises(TruncationError):
        parseval_log_weights(ExpGenerator((1e200, 0.0, 0.0, 0.0)).series(0), 1.0)


@pytest.mark.parametrize("argv", [
    ("norm", "--fn", "exp", "--slice", "sup:1025"),
    ("norm", "--fn", "exp", "--slice", "sup:1000000000000"),
    ("kernel-fit", "--fn", "exp",
     "--centers", ",".join(str(k) for k in range(65))),
    ("kernel-fit", "--fn", "exp", "--centers", "1," * 100000),
    ("bestapprox", "--fn", "exp", "--n-list", "2,513"),
    ("bestapprox", "--fn", "exp", "--n-list", "1000000000", "--kind", "first"),
    ("bestapprox", "--fn", "exp", "--n-list", "-1"),
    ("norm", "--fn", "exp", "--quad-angular", "1000000000000"),
    ("multipliers", "--family", "jackson", "--n", "1", "--m", "1000000000"),
    ("multipliers", "--family", "jackson", "--n", "1", "--p", "1e300"),
    ("converge", "--fn", "exp", "--operator", "jackson", "--n-list", "1",
     "--m", "1000000000"),
    ("smoothness", "--fn", "exp", "--k", "100000", "--delta-list", "0.5"),
])
def test_outside_sizes_refused_before_allocating(capsys, argv):
    code, out, err = _main(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and "must lie in" in err and out == ""


@pytest.mark.parametrize("r_min,r_max", [("2", "inf"), ("-0.3", "16"),
                                         ("nan", "16"), ("16", "2")])
def test_growth_needs_an_increasing_finite_radius_range(capsys, r_min, r_max):
    # the fit reads the outer half of the grid, which must be its large radii
    code, out, err = _main(capsys, ("growth", "--fn", "exp", "--r-min", r_min,
                                    "--r-max", r_max))
    assert code == 1
    assert err.splitlines() == [err.strip()] and err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("argv,names", [
    # ||q^4|| = sqrt(24) 1e400 (||q^2|| = sqrt(2) 1e200 is a float and fits)
    (("kernel-fit", "--fn", "mono:4", "--centers", "0.5", "--alpha", "1e-200"),
     "k!/alpha^k"),
    (("norm", "--fn", "kernel-section:1e200,1,0,0,1"), "overflow"),
    # (2 sin 0.05)^400 sqrt(pi) = 1e-400: nonzero, below the float range
    (("smoothness", "--fn", "mono:1", "--k", "400", "--delta-list", "0.1"),
     "below the float range"),
    # past the float range on grids that resolve them: the weighted mass
    # sits where it does at alpha = 1, at radii 1 / sqrt(alpha) times larger
    (("smoothness", "--fn", "mono:4", "--alpha", "1e-200", "--delta-list", "0.5",
      "--p", "4"), "order-1 modulus exceeds the float range"),
    (("norm", "--fn", "mono:8", "--kind", "first", "--p", "4", "--alpha", "1e-150"),
     "weighted norm exceeds the float range"),
])
def test_float_range_failures_are_one_error_line_without_warnings(capsys, argv,
                                                                  names):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = _main(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and names in err
    assert "np." not in err          # numbers print as plain Python numbers
    assert len(err.splitlines()) == 1


def test_negative_taylor_degree_exits_1(capsys):
    # a "degree -1" truncation would report ||f|| as its error
    code, out, err = _main(capsys, ("converge", "--fn", "exp", "--operator",
                                    "taylor", "--n-list", "-1"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "nonnegative" in err


@pytest.mark.parametrize("argv", [
    ("converge", "--fn", "exp", "--operator", "taylor", "--n-list", ""),
    ("converge", "--fn", "exp", "--operator", "fejer", "--n-list", " , "),
    ("bestapprox", "--fn", "exp", "--n-list", ""),
    ("smoothness", "--fn", "exp", "--delta-list", ""),
])
def test_empty_lists_exit_1(capsys, argv):
    code, out, err = _main(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: empty") and len(err.splitlines()) == 1
