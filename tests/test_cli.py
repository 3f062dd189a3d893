import json
import math
import subprocess
import sys

import pytest


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "slicefock", *args],
                          capture_output=True, text=True)


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


def test_config_round_trips_canonically():
    from slicefock.cli import build_parser, canonical_argv

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


def test_norm_unresolved_by_coarse_grid_exits_1():
    # 2 x 2 nodes give 2.239, their refinement 1.741, against sqrt(e)
    res = run_cli("norm", "--fn", "exp", "--quad-radial", "2",
                  "--quad-angular", "2")
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
