"""Acceptance gate: every numbered criterion below runs at its stated
tolerance and prints one PASS/FAIL line.  Criteria are independent tests so
a single failure leaves the rest visible."""

import math
import time

import numpy as np
import pytest

from slicefock.approx import (
    best_approx_second,
    modulus,
    ModulusQuery,
    parseval_norm_sq,
    vdp_constant,
    verify_jackson,
)
from slicefock.errors import NotInSpaceError
from slicefock.kernels import fit_with_sections
from slicefock.operators import (
    apply,
    fejer_kernel,
    fejer_op,
    jackson_op,
    jackson_rule_r,
    moment_bound,
    multipliers,
    rotational_average,
    vdp_op,
)
from slicefock.quaternion import (
    ImaginaryUnit,
    Quaternion,
    UNIT_I,
    UNIT_J,
    slice_exp,
)
from slicefock.quadrature import refined, slice_grid, volume_grid
from slicefock.series import (
    SliceSeries,
    dilate,
    evaluate,
    exp_series,
    extended,
    gauss_series,
    monomial,
    prepared_for_radius,
    random_series,
    taylor_truncate,
)
from slicefock.spaces import (
    NormSpec,
    default_grid,
    growth_bound_check,
    growth_constant,
    inner_first,
    inner_second,
    norm,
    order_type,
    prepared_for_grid,
    sample_ball,
)

DIAG = ImaginaryUnit.from_vector((1.0, 1.0, 1.0))


def report(tag, ok, detail=""):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    return ok


def e_basis(k, alpha):
    return monomial(k, Quaternion(math.sqrt(alpha ** k / math.factorial(k))))


def random_family(count, degree=8, scale=1.0, seed0=100):
    out = []
    for i in range(count):
        f = random_series(degree, seed0 + i)
        out.append(SliceSeries(scale * f.coeffs))
    return out


def test_criterion_01_basis_orthonormality():
    start = time.monotonic()
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        grid = slice_grid(alpha)
        basis = [e_basis(k, alpha) for k in range(13)]
        for unit in (UNIT_I, UNIT_J, DIAG):
            gram = np.zeros((13, 13))
            for a in range(13):
                for b in range(a, 13):
                    gram[a, b] = gram[b, a] = inner_second(
                        basis[a], basis[b], alpha, unit, grid).w
            worst = max(worst, float(np.max(np.abs(gram - np.eye(13)))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 10.0
    assert report("1 basis orthonormality", ok,
                  f"max |Gram - I| = {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_norm_oracles():
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for k in range(13):
            second = norm(monomial(k), NormSpec("second", 2.0, alpha)) ** 2
            worst = max(worst, abs(second - math.factorial(k) / alpha ** k)
                        / (math.factorial(k) / alpha ** k))
            first = norm(monomial(k), NormSpec("first", 2.0, alpha)) ** 2
            worst = max(worst, abs(first - math.factorial(k + 1) / alpha ** k)
                        / (math.factorial(k + 1) / alpha ** k))
    assert report("2 norm oracles", worst < 1e-9, f"max rel err = {worst:.3e}")


def test_criterion_03_first_kind_non_orthogonality():
    alpha = 1.0
    overlap_ok = True
    vanish = 0.0
    for m in range(7):
        overlap = abs(inner_first(monomial(m), monomial(m + 2), alpha).w)
        overlap_ok = overlap_ok and overlap > 1e-3
    for m in range(9):
        for n in range(9):
            if abs(m - n) % 2 == 1 or abs(m - n) >= 4:
                vanish = max(vanish,
                             inner_first(monomial(m), monomial(n), alpha).norm())
    ok = overlap_ok and vanish < 1e-8
    assert report("3 first-kind overlap pattern", ok,
                  f"max off-band = {vanish:.3e}")


def test_criterion_04_growth_bounds():
    alpha, p = 1.0, 2.0
    samples = sample_ball(1000, 3.0, seed=404)
    family = [exp_series(), gauss_series(alpha / 4)] + random_family(10)
    worst = {"first": 0.0, "second": 0.0}
    ok = True
    for f in family:
        for kind in ("first", "second"):
            spec = (NormSpec("first", p, alpha) if kind == "first"
                    else NormSpec("second", p, alpha, sup_samples=32))
            rep = growth_bound_check(f, spec, samples)
            ok = ok and rep.passed
            worst[kind] = max(worst[kind], rep.max_ratio / rep.constant)
    assert report(
        "4 growth bounds", ok,
        f"max ratio/c: first {worst['first']:.3f}, second {worst['second']:.3f}")


def test_criterion_05_slice_norm_equivalence():
    rng = np.random.default_rng(505)
    pairs = []
    for _ in range(10):
        pairs.append((ImaginaryUnit.from_vector(rng.normal(size=3)),
                      ImaginaryUnit.from_vector(rng.normal(size=3))))
    family = random_family(200, degree=8, seed0=9000)
    worst = 0.0
    for pexp in (1.0, 2.0, 4.0):
        grid = slice_grid(pexp / 2.0)
        z = np.outer(grid.radial_nodes,
                     np.exp(1j * grid.angular_nodes)).ravel()
        w = np.outer(grid.radial_weights, grid.angular_weights).ravel()
        damp = np.exp(-0.5 * np.abs(z) ** 2)
        from slicefock.series import eval_on_slice

        for f in family:
            per_unit = {}
            for unit_i, unit_j in pairs:
                for u in (unit_i, unit_j):
                    if u not in per_unit:
                        vals = eval_on_slice(f, u, z, prepare=False)
                        amp = np.sqrt(np.sum(vals * vals, axis=1)) * damp
                        per_unit[u] = float(np.dot(w, amp ** pexp)) ** (1 / pexp)
                worst = max(worst, per_unit[unit_i] / per_unit[unit_j])
    assert report("5 slice-norm equivalence", worst <= 2.0,
                  f"max ratio = {worst:.4f}")


def test_criterion_06_operator_identities():
    fejer_err = 0.0
    for n in (1, 2, 3, 5, 8, 16, 64):
        rho = multipliers(fejer_kernel(n))
        fejer_err = max(fejer_err,
                        float(np.max(np.abs(rho - (1 - np.arange(n) / n)))))
    vdp_err = 0.0
    rng = np.random.default_rng(606)
    for n in (1, 2, 5, 9, 16):
        f = SliceSeries(rng.uniform(-1, 1, size=(n + 1, 4)))
        g = apply(vdp_op(n), f)
        vdp_err = max(vdp_err, float(np.max(np.abs(g.coeffs[: n + 1] - f.coeffs))))
    jackson_ok = True
    beyond_err = 0.0
    from slicefock.operators import jackson_kernel, kernel_eval
    from slicefock.quadrature import circle_average

    for (m, p, want_r) in ((0, 1.0, 2), (0, 2.0, 2), (1, 2.0, 3), (2, 1.0, 3)):
        r = jackson_rule_r(m, p)
        jackson_ok = jackson_ok and r == want_r
        op = jackson_op(4, m, p)
        jackson_ok = jackson_ok and op.degree_bound == r * 3
        jackson_ok = jackson_ok and op.rho.size == r * 3 + 1
        kernel = jackson_kernel(4, r)
        for j in range(r * 3 + 1, r * 3 + 4):
            beyond_err = max(beyond_err, abs(circle_average(
                lambda t: np.cos(j * t) * kernel_eval(kernel, t), 64 * r)))
    ok = fejer_err < 1e-12 and vdp_err < 1e-12 and jackson_ok \
        and beyond_err < 1e-12
    assert report(
        "6 operator identities", ok,
        f"fejer err {fejer_err:.2e}, vdp err {vdp_err:.2e}, rule ok {jackson_ok}")


def test_criterion_07_multiplier_vs_integral():
    rng = np.random.default_rng(707)
    worst = 0.0
    units = (UNIT_I, ImaginaryUnit.from_vector((1.0, 0.0, 1.0)))
    for trial in range(10):
        f = SliceSeries(rng.uniform(-1, 1, size=(13, 4)))
        r = rng.uniform(0.3, 2.0)
        theta = rng.uniform(0.0, math.pi)
        for n in (3, 6):
            op = fejer_op(n)
            kernel = fejer_kernel(n)
            for unit in units:
                q = slice_exp(unit, theta) * r
                lhs = evaluate(apply(op, f), q)
                rhs = rotational_average(kernel, f, q)
                worst = max(worst, (lhs - rhs).norm() / max(1.0, rhs.norm()))
    assert report("7 multiplier vs integral", worst < 1e-9,
                  f"max deviation = {worst:.3e}")


def test_criterion_08_vdp_inequality():
    start = time.monotonic()
    alpha = 1.0
    family = [exp_series(), gauss_series(alpha / 4)] + random_family(10)
    const = vdp_constant(2.0)
    assert const == pytest.approx(math.sqrt(10) + 1, rel=1e-14)
    spec = NormSpec("second", 2.0, alpha)
    grid = default_grid(spec)
    min_slack = math.inf
    for f in family:
        for n in (2, 4, 8, 16):
            fe = prepared_for_grid(f, alpha, grid)[0]
            lhs = norm(apply(vdp_op(n), fe) - fe, spec, grid)
            best = best_approx_second(f, n, alpha)
            min_slack = min(min_slack, const * best.value - lhs)
    elapsed = time.monotonic() - start
    ok = min_slack >= 0.0 and elapsed < 30.0
    assert report("8 delayed-mean inequality", ok,
                  f"min slack = {min_slack:.3e}, {elapsed:.2f}s")


@pytest.mark.parametrize("m,p", [(0, 1.0), (0, 2.0), (1, 2.0)])
def test_criterion_09_jackson_ratio_sweep(m, p):
    ratios = []
    for n in (4, 8, 16, 32, 64):
        rep = verify_jackson(exp_series(), n, m, p, 1.0)
        assert not rep.degenerate
        ratios.append(rep.ratio)
    spread = max(ratios) / min(ratios)
    assert report(f"9 smoothing-difference ratio (m={m}, p={p})", spread < 10.0,
                  f"max/min = {spread:.3f}")


def test_criterion_09_moment_integrals_bounded():
    ok = True
    detail = []
    for (m, p) in ((0, 1.0), (0, 2.0), (1, 2.0)):
        vals = np.array([moment_bound(n, m, p) for n in (4, 8, 16, 32, 64)])
        spread = float(vals.max() / vals.min())
        detail.append(f"(m={m},p={p}): {spread:.3f}")
        ok = ok and spread < 4.0
    assert report("9 moment integrals bounded", ok, "; ".join(detail))


def test_criterion_10a_taylor_tail_formula():
    spec = NormSpec("second", 2.0, 1.0)
    grid = default_grid(spec)
    fe, _ = prepared_for_radius(exp_series(), grid.max_radius)
    worst = 0.0
    for n in range(9):
        err = norm(fe - taylor_truncate(fe, n), spec, grid)
        want = math.sqrt(sum(1.0 / math.factorial(k) for k in range(n + 1, 80)))
        worst = max(worst, abs(err - want) / want)
    assert report("10a truncation error formula", worst < 1e-9,
                  f"max rel dev = {worst:.3e}")


def test_criterion_10b_dilation_error_decay():
    spec = NormSpec("second", 2.0, 1.0)
    grid = default_grid(spec)
    errs = []
    for r in (0.9, 0.99, 0.999):
        d = dilate(exp_series(), r)
        errs.append(norm(d - extended(exp_series(), d.degree), spec, grid))
    steps = [errs[0] / errs[1], errs[1] / errs[2]]
    ok = all(s >= 10.0 for s in steps)
    assert report("10b dilation error decade per step", ok,
                  f"steps = {steps[0]:.4f}, {steps[1]:.4f}")


def test_criterion_10c_kernel_section_density():
    worst = math.inf
    for f in (monomial(1), monomial(2), taylor_truncate(exp_series(), 8)):
        res = {}
        for count in (2, 8):
            centers = [Quaternion(-1.0 + 2.0 * k / (count + 1))
                       for k in range(1, count + 1)]
            res[count] = fit_with_sections(f, centers, 1.0).residual
        worst = min(worst, res[2] / res[8])
    assert report("10c kernel-section residual decade", worst >= 10.0,
                  f"min improvement = {worst:.1f}x")


def test_criterion_11_order_and_type():
    ok = True
    details = []
    for alpha in (1.0, 2.0):
        family = [exp_series(), gauss_series(alpha / 4)] + random_family(10)
        for f in family:
            radii = None if f.generator else np.geomspace(1e2, 1e6, 10)
            rep = order_type(f, radii)
            ok = ok and rep.order_estimate <= 2.05
        rep = order_type(gauss_series(alpha / 4),
                         np.geomspace(2.0, 16.0 / math.sqrt(alpha), 10))
        ok = ok and abs(rep.order_estimate - 2.0) <= 0.05
        ok = ok and rep.type_estimate is not None
        ok = ok and rep.type_estimate <= 0.525 * alpha
        details.append(f"alpha={alpha}: type {rep.type_estimate:.4f}")
        try:
            norm(gauss_series(0.6 * alpha), NormSpec("second", 2.0, alpha))
            ok = False
            details.append("divergence gate MISSED")
        except NotInSpaceError:
            pass
    assert report("11 order/type and divergence gate", ok, "; ".join(details))


def test_criterion_12_grid_stability():
    # every norm this suite reports at stated precision: the even-p and
    # analytic-amplitude cases (odd-p norms of polynomials have kink-limited
    # quadrature rates and only ever enter bounded-ratio checks)
    family = [exp_series(), gauss_series(0.25), monomial(3), random_series(8, 7)]
    specs = [NormSpec("second", 2.0, 1.0), NormSpec("second", 4.0, 1.0),
             NormSpec("first", 2.0, 1.0)]
    worst = 0.0
    for f in family:
        for spec in specs:
            grid = default_grid(spec)
            v1 = norm(f, spec, grid)
            v2 = norm(f, spec, refined(grid))
            worst = max(worst, abs(v2 - v1) / max(abs(v2), 1e-300))
    for f in (exp_series(), gauss_series(0.25)):
        spec = NormSpec("second", 1.0, 1.0)
        grid = default_grid(spec)
        v1 = norm(f, spec, grid)
        v2 = norm(f, spec, refined(grid))
        worst = max(worst, abs(v2 - v1) / max(abs(v2), 1e-300))
    assert report("12 grid stability", worst < 1e-10,
                  f"max rel change = {worst:.3e}")
